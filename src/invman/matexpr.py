"""Closed-form scalar functions of t, and matrices built out of them.

Expressions are immutable trees over constants, the variable ``t``, the
binary operators ``+ - * /``, integer powers ``^``, unary negation, and the
functions ``sin``, ``cos``, ``exp``.  Differentiation is exact at the node
level, so every derivative needed downstream is free of finite-difference
error.  No simplification is attempted: the differentiator stays a direct
transcription of the calculus rules and is auditable by inspection.

Grammar accepted by :func:`parse_expr` (binding strength: ``^`` above unary
minus above ``*``/``/`` above ``+``/``-``; all levels left-associative)::

    expr     = term { ("+" | "-") term }
    term     = unary { ("*" | "/") unary }
    unary    = "-" unary | power
    power    = atom { "^" exponent }
    exponent = [ "-" ] digits
    atom     = number | "t" | ("sin"|"cos"|"exp") "(" expr ")" | "(" expr ")"
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EvaluationError, ParseError, ShapeError

__all__ = [
    "ScalarExpr",
    "Const",
    "TimeVar",
    "Unary",
    "Binary",
    "Power",
    "T",
    "parse_expr",
    "evaluate",
    "differentiate",
    "to_string",
    "MatrixFunction",
]

_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ScalarExpr:
    """Base class for expression nodes. Nodes are frozen and hashable."""

    __slots__ = ()

    def __call__(self, t):
        return evaluate(self, t)

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(ScalarExpr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class TimeVar(ScalarExpr):
    """The independent variable t."""


@dataclass(frozen=True, slots=True)
class Unary(ScalarExpr):
    op: str  # 'neg', 'sin', 'cos' or 'exp'
    arg: ScalarExpr

    def __post_init__(self):
        if self.op != "neg" and self.op not in _UFUNCS:
            raise ValueError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Binary(ScalarExpr):
    op: str  # one of '+', '-', '*', '/'
    left: ScalarExpr
    right: ScalarExpr

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Power(ScalarExpr):
    """A base expression raised to a fixed integer exponent."""

    base: ScalarExpr
    exponent: int

    def __post_init__(self):
        if isinstance(self.exponent, bool) or not isinstance(self.exponent, int):
            raise TypeError("exponent must be an integer")


T = TimeVar()


# -- evaluation ---------------------------------------------------------------


def evaluate(expr: ScalarExpr, t):
    """Evaluate ``expr`` at a scalar t or elementwise over an ndarray of t.

    Division by zero and a zero base under a negative exponent raise
    :class:`EvaluationError`, whose ``index`` is the first such position in
    ``t``; everything else is left to IEEE arithmetic, without warnings, and
    checked for finiteness by the callers that require it.
    """
    with np.errstate(all="ignore"):
        return _run(*_compile([(expr, None)]), t)[0]


def _compile(roots) -> tuple:
    """The tape ``(slots, times, code, outs)`` of ``roots``, pairs of an expression and its ``where``.

    One slot per distinct node, in the roots' first-visit postorder: ``slots`` holds each Const's value, t goes into
    each of ``times``, and ``(op, a, b, slot, where)`` in ``zip(*code)`` puts ``op`` of the slots ``a`` and ``b``
    (None if unary, the exponent for np.power) into ``slot``, after both; ``where`` is the first root's to reach it.
    """
    slots, times, code, seen = [], [], [], {}

    def visit(node, where) -> int:  # the only walk that recurses
        if (slot := seen.get(id(node))) is not None:
            return slot
        kind, op = type(node), None
        if kind is Binary:
            op, a, b = _BINARY_OPS[node.op], visit(node.left, where), visit(node.right, where)
        elif kind is Unary:
            op, a, b = _UFUNCS.get(node.op, operator.neg), visit(node.arg, where), None
        elif kind is Power:
            op, a, b = np.power, visit(node.base, where), node.exponent
        elif kind is TimeVar:
            times.append(len(slots))
        elif kind is not Const:
            raise TypeError(f"not an expression node: {node!r}")
        slot = seen[id(node)] = len(slots)
        slots.append(node.value if kind is Const else None)
        if op is not None:
            code.extend((op, a, b, slot, where))
        return slot

    outs = [visit(expr, where) for expr, where in roots]
    # Five columns of tuples, not a tuple per instruction: the garbage collector gets no object per node to track.
    return tuple(slots), times, [tuple(code[k::5]) for k in range(5)], outs


def _run(slots: tuple, times: list, code: list, outs: list, t) -> list:
    """The value of every root of a tape at ``t``, a scalar or an ndarray used as given."""
    regs, power, truediv = list(slots), np.power, operator.truediv  # locals: no attribute lookup per instruction
    for slot in times:
        regs[slot] = t
    try:
        for op, a, b, slot, where in zip(*code):
            x = regs[a]
            if b is None:
                regs[slot] = op(x)
            elif op is power:
                if b < 0 and (zero := np.asarray(x) == 0.0).any():
                    raise EvaluationError("zero raised to a negative exponent", int(zero.argmax()))
                regs[slot] = op(x, b)
            else:
                y = regs[b]
                if op is truediv and (zero := np.asarray(y) == 0.0).any():
                    raise EvaluationError("division by zero", int(zero.argmax()))
                regs[slot] = op(x, y)
    except EvaluationError as exc:
        if where is None:
            raise
        when = float(np.reshape(t, -1)[exc.index])
        raise EvaluationError(f"entry ({where[0]},{where[1]}) at t={when!r}: {exc}", exc.index) from exc
    return [regs[slot] for slot in outs]


# -- differentiation ----------------------------------------------------------


def differentiate(expr: ScalarExpr) -> ScalarExpr:
    """Exact derivative of ``expr`` with respect to t.

    Every node kind has a rule, so this is total.  The result is not
    simplified; it is only guaranteed to evaluate to the calculus derivative.
    A node shared within ``expr`` is derived once, and its derivative is shared.
    """
    return _derive(expr, {})


def _derive(expr: ScalarExpr, memo: dict) -> ScalarExpr:
    # memo maps id(node) to its derivative within one call or one matrix: a shared node is derived once.
    if (done := memo.get(id(expr))) is not None:
        return done
    match expr:
        case Const():
            done = Const(0.0)
        case TimeVar():
            done = Const(1.0)
        case Unary(op="neg", arg=a):
            done = Unary("neg", _derive(a, memo))
        case Unary(op="sin", arg=a):
            done = Binary("*", Unary("cos", a), _derive(a, memo))
        case Unary(op="cos", arg=a):
            done = Binary("*", Unary("neg", Unary("sin", a)), _derive(a, memo))
        case Unary(op="exp", arg=a):
            done = Binary("*", expr, _derive(a, memo))
        case Binary(op="+", left=l, right=r):
            done = Binary("+", _derive(l, memo), _derive(r, memo))
        case Binary(op="-", left=l, right=r):
            done = Binary("-", _derive(l, memo), _derive(r, memo))
        case Binary(op="*", left=l, right=r):
            done = Binary("+", Binary("*", _derive(l, memo), r), Binary("*", l, _derive(r, memo)))
        case Binary(op="/", left=l, right=r):
            num = Binary("-", Binary("*", _derive(l, memo), r), Binary("*", l, _derive(r, memo)))
            done = Binary("/", num, Power(r, 2))
        case Power(exponent=0):
            done = Const(0.0)
        case Power(base=b, exponent=k):
            done = Binary("*", Binary("*", Const(float(k)), Power(b, k - 1)), _derive(b, memo))
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    return memo.setdefault(id(expr), done)


# -- printing -----------------------------------------------------------------

# Binding levels used to decide parenthesisation; higher binds tighter.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _render(expr: ScalarExpr, memo: dict) -> tuple[str, int]:
    # memo maps id(node) to its (text, level) within one call: a shared node is rendered once.
    if (done := memo.get(id(expr))) is not None:
        return done

    def wrap(e: ScalarExpr, floor: int) -> str:
        text, level = _render(e, memo)
        return f"({text})" if level < floor else text

    match expr:
        case Const(value=v):
            return repr(v), _ATOM if math.copysign(1.0, v) > 0 else _NEG  # -0.0 prints a sign too
        case TimeVar():
            return "t", _ATOM
        case Unary(op="neg", arg=a):
            done = "-" + wrap(a, _NEG), _NEG
        case Unary(op=fn, arg=a):
            done = f"{fn}({_render(a, memo)[0]})", _ATOM
        case Binary(op=op, left=l, right=r) if op in "+-":
            done = f"{wrap(l, _ADD)} {op} {wrap(r, _MUL)}", _ADD
        case Binary(op=op, left=l, right=r):
            done = f"{wrap(l, _MUL)}{op}{wrap(r, _NEG)}", _MUL
        case Power(base=b, exponent=k):
            done = f"{wrap(b, _ATOM)}^{k}", _POW
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    return memo.setdefault(id(expr), done)


def to_string(expr: ScalarExpr) -> str:
    """Render ``expr`` as text that :func:`parse_expr` accepts."""
    return _render(expr, {})[0]


# -- parsing ------------------------------------------------------------------

# One token: a number, a name or an operator, the first alternative that matches.
_TOKEN = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]"
# The next token after any whitespace (\s is str.isspace).
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
# The longest run of whitespace and tokens from the start, each token read as _TOKEN_RE reads it
# (a lookahead does not backtrack): it ends where the first unexpected character stands.
_TOKENS_RE = re.compile(rf"(?:\s*(?=({_TOKEN}))\1)*\s*")
_INT_RE = re.compile(r"\d+\Z")
_OPERATORS = frozenset("+-*/^()")
_ADDITIVE = frozenset("+-")
_MULTIPLICATIVE = frozenset("*/")
# A remembered text is indexed by its first _PREFIX characters, cut at the first ')': its own, or the one after a
# shorter text, so the key reads the same from the text alone as from the text and what follows it.
_PREFIX = 16


# Deepest tree, and deepest nesting of '(' and '-', that the parser accepts: then parsing, differentiate,
# to_string and _compile (also of a 3x deeper derivative) stay far inside the recursion limit; _run does not recurse.
MAX_DEPTH = 100


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring; one
    parser serves all entries of a build and builds equal subtrees as one node.

    Tokens are read on demand: ``tok`` is the next unread token ("" at the
    end) and ``at`` its offset.  Every entry and every parenthesised group
    that parses is remembered by its text, with the nesting it adds; a group
    whose text comes again (balanced, so the ')' after it closes the group)
    is skipped and gives the same node, as long as its nesting still fits
    under ``MAX_DEPTH``.  Only a failed parse scans the whole entry: a
    character that starts no token is the error, wherever it stands.
    """

    def __init__(self):
        self.nodes: dict[tuple, ScalarExpr] = {}
        self.depths = {id(T): 1}
        self.groups: dict[str, tuple[ScalarExpr, int]] = {}
        # index key -> [(text + ")", node, nesting)] of every remembered text (see _PREFIX).
        self.closed: dict[str, list[tuple[str, ScalarExpr, int]]] = {}

    def _advance(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is not None:
            self.tok, self.at, self.pos = m[1], m.start(1), m.end()
        elif self.text[self.pos :].strip():  # parse() puts the scan's error in its place
            raise ParseError("unexpected character", self.pos)
        else:
            self.tok, self.at = "", len(self.text)

    def _remember(self, text: str, prefix: str, expr: ScalarExpr, nesting: int):
        self.groups[text] = expr, nesting
        self.closed.setdefault(prefix, []).append((text + ")", expr, nesting))

    def _shared(self, key: tuple, cls, *fields) -> ScalarExpr:
        node = self.nodes.get(key)
        if node is None:
            depth = 1 + max(map(self.depths.__getitem__, key[2:]), default=0)
            if depth > MAX_DEPTH:
                raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", self.at)
            node = self.nodes[key] = cls(*fields)
            self.depths[id(node)] = depth
        return node

    def parse(self, text: str) -> ScalarExpr:
        if (seen := self.groups.get(text)) is not None:
            return seen[0]
        self.text, self.pos, self.level, self.peak = text, 0, 0, 0
        try:
            self._advance()
            expr = self._sum()
            if self.tok:
                raise ParseError(f"unexpected {self.tok!r}", self.at)
        except ParseError:
            end = _TOKENS_RE.match(text).end()
            if end < len(text):
                raise ParseError(f"unexpected character {text[end]!r}", end) from None
            raise
        self._remember(text, text[:_PREFIX].partition(")")[0], expr, self.peak)
        return expr

    def _sum(self) -> ScalarExpr:
        left = self._product()
        while (op := self.tok) in _ADDITIVE:
            self._advance()
            right = self._product()
            left = self._shared((Binary, op, id(left), id(right)), Binary, op, left, right)
        return left

    def _product(self) -> ScalarExpr:
        left = self._unary()
        while (op := self.tok) in _MULTIPLICATIVE:
            self._advance()
            right = self._unary()
            left = self._shared((Binary, op, id(left), id(right)), Binary, op, left, right)
        return left

    def _unary(self) -> ScalarExpr:
        # Every recursion of the grammar passes through here; peak is the deepest level so far.
        level = self.level = self.level + 1
        if level > self.peak:
            if level > MAX_DEPTH:
                raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", self.at)
            self.peak = level
        if self.tok == "-":
            self._advance()
            arg = self._unary()
            node = self._shared((Unary, "neg", id(arg)), Unary, "neg", arg)
        else:
            node = self._atom()
            while self.tok == "^":
                self._advance()
                node = self._shared((Power, k := self._exponent(), id(node)), Power, node, k)
        self.level -= 1
        return node

    def _exponent(self) -> int:
        sign = 1
        if self.tok == "-":
            self._advance()
            sign = -1
        text, offset = self.tok, self.at
        if not _INT_RE.match(text):
            raise ParseError("exponent must be an integer literal", offset)
        if math.isinf(float(text)):  # numpy's power and the derivative's factor need k as a float
            raise ParseError(f"exponent {text!r} is out of range", offset)
        self._advance()
        # In float range, k has at most 309 digits once its leading zeros are gone: under int()'s digit limit.
        return sign * int(text.lstrip("0") or "0")

    def _atom(self) -> ScalarExpr:
        text, offset = self.tok, self.at
        if text == "(":
            return self._group()
        self._advance()
        if text == "t":
            return T
        if text[:1].isdecimal() or text[:1] == ".":  # a number (\d is isdecimal)
            if math.isinf(value := float(text)):
                raise ParseError(f"number {text!r} is out of range", offset)
            # Keyed by its text: literals are unsigned, so 0.0 and -0.0 never share a node.
            return self._shared((Const, text), Const, value)
        if text in _UFUNCS:
            if self.tok != "(":
                raise ParseError("expected '('", self.at)
            arg = self._group()
            return self._shared((Unary, text, id(arg)), Unary, text, arg)
        if text and text not in _OPERATORS:
            raise ParseError(f"unknown identifier {text!r}", offset)
        shown = text if text else "end of input"
        raise ParseError(f"expected a number, 't', a function, or '(', got {shown!r}", offset)

    def _group(self) -> ScalarExpr:
        """The expression in the parenthesised group that starts at the next token."""
        level, start, text = self.level, self.at, self.text
        prefix = text[start + 1 : start + 1 + _PREFIX].partition(")")[0]
        for closed, expr, nesting in self.closed.get(prefix, ()):
            if text.startswith(closed, start + 1):
                if level + nesting <= MAX_DEPTH:
                    self.peak = max(self.peak, level + nesting)
                    self.pos = start + 1 + len(closed)
                    self._advance()
                    return expr
                break
        self._advance()
        outer_peak, self.peak = self.peak, level
        expr = self._sum()
        if self.tok != ")":
            raise ParseError("expected ')'", self.at)
        self._remember(text[start + 1 : self.at], prefix, expr, self.peak - level)
        self._advance()
        self.peak = max(outer_peak, self.peak)
        return expr


def parse_expr(text: str) -> ScalarExpr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with the byte offset of the first problem.
    """
    return _Parser().parse(text)


# -- matrices of expressions --------------------------------------------------


def _coerce_entry(entry, parser: _Parser) -> ScalarExpr:
    if isinstance(entry, ScalarExpr):
        return entry
    if isinstance(entry, str):
        return parser.parse(entry)
    return Const(float(entry))


def _is_zero(x: ScalarExpr) -> bool:
    return isinstance(x, Const) and x.value == 0.0


# The node every product entry's accumulator starts from.
_ZERO = Const(0.0)


def _fold_add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    # assembly hygiene only; keeps block products readable when serialized
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(total := a.value + b.value):
        return Const(total)
    return Binary("+", a, b)  # a sum past the float range is left for evaluation to report


def _fold_mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    # a product with a zero-constant factor is never formed: __matmul__ skips its term
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(product := a.value * b.value):
        return Const(product)
    return Binary("*", a, b)


def _time_grid(ts) -> np.ndarray:
    """``ts`` as a float array, which must be one-dimensional: the one rule for every grid of times."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ShapeError("time grid must be one-dimensional")
    return ts


def _first_non_finite(*stacks: np.ndarray) -> Optional[int]:
    """The earliest index along the leading axis at which any of ``stacks`` is not finite, or None: the one rule
    that names the first bad point of a sampled grid."""
    if all(np.isfinite(s).all() for s in stacks):  # the common case, in one whole-array test per stack
        return None
    return int(np.logical_and.reduce([np.isfinite(s).all(axis=tuple(range(1, s.ndim))) for s in stacks]).argmin())


@dataclass(frozen=True, slots=True)
class MatrixFunction:
    """A rectangular grid of scalar expressions, evaluable at any t."""

    entries: tuple[tuple[ScalarExpr, ...], ...]
    # Memo of derivative(); hashing the entries to look it up would walk every tree.
    _derivative: Optional["MatrixFunction"] = field(default=None, init=False, repr=False, compare=False)
    # Memo of the entries' tape (see _compile), built by the first eval_grid.
    _tape: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # Memo of the one-point FrameSamples of this chart (see invariance._point_frames): one point at a time.
    _point: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ShapeError("matrix function must have at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ShapeError("matrix function rows have unequal lengths")
            for e in row:
                if not isinstance(e, ScalarExpr):
                    raise TypeError(f"entry is not a scalar expression: {e!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @classmethod
    def build(cls, rows: Sequence[Sequence[Union[ScalarExpr, str, float]]]) -> "MatrixFunction":
        """Build from a 2-D grid of expressions, strings, or numbers.

        String entries are parsed, with equal subexpressions built as one node; a
        :class:`ParseError` is re-raised with the offending entry position prepended.
        """
        parser = _Parser()
        out = []
        for i, row in enumerate(rows):
            parsed_row = []
            for j, entry in enumerate(row):
                try:
                    parsed_row.append(_coerce_entry(entry, parser))
                except ParseError as exc:
                    raise ParseError(f"entry ({i},{j}): {exc.message}", exc.offset) from exc
            out.append(tuple(parsed_row))
        return cls(tuple(out))

    @classmethod
    def constant(cls, values) -> "MatrixFunction":
        arr = np.atleast_2d(np.asarray(values, dtype=float))
        return cls(tuple(tuple(Const(v) for v in row) for row in arr))

    @classmethod
    def identity(cls, k: int) -> "MatrixFunction":
        return cls.constant(np.eye(k))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixFunction":
        return cls.constant(np.zeros((rows, cols)))

    def eval(self, t: float) -> np.ndarray:
        """Evaluate entrywise at scalar ``t``: row 0 of ``eval_grid([t])``, bit for bit, errors included."""
        return self.eval_grid([t])[0]

    def eval_grid(self, ts) -> np.ndarray:
        """Evaluate over a 1-D array of times; returns shape (len(ts), rows, cols).

        Every tape op is IEEE arithmetic or a numpy ufunc, which give a float the bits they give it in an array:
        so a one-point grid runs the tape at the float ts[0], and has the bits of that point of any grid.
        A pole raises :class:`EvaluationError` naming its earliest time and the first entry to reach it, a
        non-finite entry the earliest time, then the first entry in row order; ``index`` is that time's position.
        """
        ts = _time_grid(ts)
        if self._tape is None:
            roots = [(e, (i, j)) for i, row in enumerate(self.entries) for j, e in enumerate(row)]
            object.__setattr__(self, "_tape", _compile(roots))
        t, points = (float(ts[0]), ()) if ts.size == 1 else (ts, ts.shape)
        with np.errstate(all="ignore"):
            values = _run(*self._tape, t)
        entries = np.empty((len(values),) + points)  # entry-major: entry k of every point is the row entries[k]
        for k, value in enumerate(values):
            entries[k] = value
        out = np.ascontiguousarray(entries.T).reshape(ts.shape + self.shape)  # one transposed copy (none at one point)
        if (k := _first_non_finite(out)) is not None:
            i, j = map(int, np.argwhere(~np.isfinite(out[k]))[0])
            raise EvaluationError(f"entry ({i},{j}) is not finite at t={float(ts[k])!r}", k)
        return out

    def derivative(self) -> "MatrixFunction":
        """Entrywise exact derivative; shape is preserved, and so is sharing: each distinct node is derived once."""
        if self._derivative is None:
            memo: dict = {}
            derived = MatrixFunction(tuple(tuple(_derive(e, memo) for e in row) for row in self.entries))
            object.__setattr__(self, "_derivative", derived)
        return self._derivative

    def to_strings(self) -> list[list[str]]:
        """Every entry as :func:`to_string` renders it; a subtree shared between entries is rendered once."""
        memo: dict = {}
        return [[_render(e, memo)[0] for e in row] for row in self.entries]

    def row_block(self, start: int, stop: int) -> "MatrixFunction":
        if not 0 <= start < stop <= self.rows:
            raise ShapeError(f"row block [{start}:{stop}] out of range for {self.rows} rows")
        return MatrixFunction(self.entries[start:stop])

    def __add__(self, other: "MatrixFunction") -> "MatrixFunction":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return MatrixFunction(tuple(tuple(map(_fold_add, ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __matmul__(self, other: "MatrixFunction") -> "MatrixFunction":
        """Symbolic product: entry (i, j) folds the terms ``a_ik * b_kj`` in k order.

        Only the terms where neither factor is a zero constant are visited, so
        the cost is O(non-zero terms), not O(m^3); the trees are those of
        folding every term.
        """
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        last = self.cols - 1
        columns = [
            [(k, row[j]) for k, row in enumerate(other.entries) if not _is_zero(row[j])]
            for j in range(other.cols)
        ]
        rows = []
        for left in self.entries:
            live = [not _is_zero(a) for a in left]
            row = []
            for column in columns:
                acc, seen = _ZERO, -1
                for k, b in column:
                    if live[k]:
                        acc, seen = _fold_add(acc, _fold_mul(left[k], b)), k
                # A zero term folded after a zero constant leaves +0.0: an underflowed -0.0 loses its sign.
                row.append(_ZERO if seen < last and _is_zero(acc) else acc)
            rows.append(tuple(row))
        return MatrixFunction(tuple(rows))

    @classmethod
    def block(cls, grid: Sequence[Sequence["MatrixFunction"]]) -> "MatrixFunction":
        """Assemble a block matrix from conforming blocks."""
        rows = []
        for block_row in grid:
            heights = {b.rows for b in block_row}
            if len(heights) != 1:
                raise ShapeError("blocks in one block-row differ in height")
            for i in range(heights.pop()):
                row: tuple[ScalarExpr, ...] = ()
                for b in block_row:
                    row = row + b.entries[i]
                rows.append(row)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ShapeError("block rows differ in total width")
        return cls(tuple(rows))

