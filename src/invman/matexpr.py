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
import re
from dataclasses import dataclass, field
from functools import lru_cache
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

_FUNCTIONS = ("sin", "cos", "exp")
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY_OPS = ("+", "-", "*", "/")


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
        if self.op not in ("neg",) + _FUNCTIONS:
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
    ``t``; everything else is left to IEEE arithmetic and checked for
    finiteness by the callers that require it.
    """
    match expr:
        case Binary(op=op, left=l, right=r):
            x = evaluate(l, t)
            y = evaluate(r, t)
            if op == "+":
                return x + y
            if op == "-":
                return x - y
            if op == "*":
                return x * y
            if (zero := np.asarray(y) == 0.0).any():
                raise EvaluationError("division by zero", int(zero.argmax()))
            return x / y
        case Unary(op=op, arg=a):
            x = evaluate(a, t)
            return -x if op == "neg" else _UFUNCS[op](x)
        case Const(value=v):
            return v
        case TimeVar():
            return t
        case Power(base=b, exponent=k):
            x = evaluate(b, t)
            if k < 0 and (zero := np.asarray(x) == 0.0).any():
                raise EvaluationError("zero raised to a negative exponent", int(zero.argmax()))
            return x ** k
    raise TypeError(f"not an expression node: {expr!r}")


# -- differentiation ----------------------------------------------------------


@lru_cache(maxsize=None)
def differentiate(expr: ScalarExpr) -> ScalarExpr:
    """Exact derivative of ``expr`` with respect to t.

    Every node kind has a rule, so this is total.  The result is not
    simplified; it is only guaranteed to evaluate to the calculus derivative.
    """
    match expr:
        case Const():
            return Const(0.0)
        case TimeVar():
            return Const(1.0)
        case Unary(op="neg", arg=a):
            return Unary("neg", differentiate(a))
        case Unary(op="sin", arg=a):
            return Binary("*", Unary("cos", a), differentiate(a))
        case Unary(op="cos", arg=a):
            return Binary("*", Unary("neg", Unary("sin", a)), differentiate(a))
        case Unary(op="exp", arg=a):
            return Binary("*", expr, differentiate(a))
        case Binary(op="+", left=l, right=r):
            return Binary("+", differentiate(l), differentiate(r))
        case Binary(op="-", left=l, right=r):
            return Binary("-", differentiate(l), differentiate(r))
        case Binary(op="*", left=l, right=r):
            return Binary(
                "+",
                Binary("*", differentiate(l), r),
                Binary("*", l, differentiate(r)),
            )
        case Binary(op="/", left=l, right=r):
            num = Binary(
                "-",
                Binary("*", differentiate(l), r),
                Binary("*", l, differentiate(r)),
            )
            return Binary("/", num, Power(r, 2))
        case Power(base=b, exponent=k):
            if k == 0:
                return Const(0.0)
            scaled = Binary("*", Const(float(k)), Power(b, k - 1))
            return Binary("*", scaled, differentiate(b))
    raise TypeError(f"not an expression node: {expr!r}")


# -- printing -----------------------------------------------------------------

# Binding levels used to decide parenthesisation; higher binds tighter.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _render(expr: ScalarExpr) -> tuple[str, int]:
    def wrap(e: ScalarExpr, floor: int) -> str:
        text, level = _render(e)
        return f"({text})" if level < floor else text

    match expr:
        case Const(value=v):
            return repr(v), _ATOM if v >= 0 else _NEG
        case TimeVar():
            return "t", _ATOM
        case Unary(op="neg", arg=a):
            return "-" + wrap(a, _NEG), _NEG
        case Unary(op=fn, arg=a):
            return f"{fn}({_render(a)[0]})", _ATOM
        case Binary(op=op, left=l, right=r) if op in "+-":
            return f"{wrap(l, _ADD)} {op} {wrap(r, _MUL)}", _ADD
        case Binary(op=op, left=l, right=r):
            return f"{wrap(l, _MUL)}{op}{wrap(r, _NEG)}", _MUL
        case Power(base=b, exponent=k):
            return f"{wrap(b, _ATOM)}^{k}", _POW
    raise TypeError(f"not an expression node: {expr!r}")


def to_string(expr: ScalarExpr) -> str:
    """Render ``expr`` as text that :func:`parse_expr` accepts."""
    return _render(expr)[0]


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_INT_RE = re.compile(r"\d+\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, text, offset = self._peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        self._next()

    def parse(self) -> ScalarExpr:
        expr = self._sum()
        kind, text, offset = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", offset)
        return expr

    def _sum(self) -> ScalarExpr:
        left = self._product()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                left = Binary(text, left, self._product())
            else:
                return left

    def _product(self) -> ScalarExpr:
        left = self._unary()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                left = Binary(text, left, self._unary())
            else:
                return left

    def _unary(self) -> ScalarExpr:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._next()
            return Unary("neg", self._unary())
        return self._power()

    def _power(self) -> ScalarExpr:
        base = self._atom()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text == "^":
                self._next()
                base = Power(base, self._exponent())
            else:
                return base

    def _exponent(self) -> int:
        sign = 1
        kind, text, offset = self._peek()
        if kind == "op" and text == "-":
            self._next()
            sign = -1
            kind, text, offset = self._peek()
        if kind != "num" or not _INT_RE.match(text):
            raise ParseError("exponent must be an integer literal", offset)
        self._next()
        return sign * int(text)

    def _atom(self) -> ScalarExpr:
        kind, text, offset = self._next()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "t":
                return T
            if text in _FUNCTIONS:
                self._expect_op("(")
                arg = self._sum()
                self._expect_op(")")
                return Unary(text, arg)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            expr = self._sum()
            self._expect_op(")")
            return expr
        shown = text if text else "end of input"
        raise ParseError(f"expected a number, 't', a function, or '(', got {shown!r}", offset)


def parse_expr(text: str) -> ScalarExpr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with the byte offset of the first problem.
    """
    return _Parser(text).parse()


# -- matrices of expressions --------------------------------------------------


def _coerce_entry(entry) -> ScalarExpr:
    if isinstance(entry, ScalarExpr):
        return entry
    if isinstance(entry, str):
        return parse_expr(entry)
    return Const(float(entry))


def _fold_add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    # assembly hygiene only; keeps block products readable when serialized
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def _fold_mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    for x in (a, b):
        if isinstance(x, Const) and x.value == 0.0:
            return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


@dataclass(frozen=True, slots=True)
class MatrixFunction:
    """A rectangular grid of scalar expressions, evaluable at any t."""

    entries: tuple[tuple[ScalarExpr, ...], ...]
    # Memo of derivative(); hashing the entries to look it up would walk every tree.
    _derivative: Optional["MatrixFunction"] = field(default=None, init=False, repr=False, compare=False)

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

        String entries are parsed; a :class:`ParseError` is re-raised with the
        offending entry position prepended.
        """
        out = []
        for i, row in enumerate(rows):
            parsed_row = []
            for j, entry in enumerate(row):
                try:
                    parsed_row.append(_coerce_entry(entry))
                except ParseError as exc:
                    raise ParseError(f"entry ({i},{j}): {exc.args[0]}", exc.offset) from exc
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
        """Evaluate entrywise at scalar ``t``; all entries must come out finite."""
        out = np.empty(self.shape, dtype=float)
        with np.errstate(all="ignore"):
            for i, row in enumerate(self.entries):
                for j, e in enumerate(row):
                    try:
                        out[i, j] = evaluate(e, t)
                    except EvaluationError as exc:
                        raise EvaluationError(f"entry ({i},{j}) at t={float(t)!r}: {exc}") from exc
        if not np.isfinite(out).all():
            i, j = map(int, np.argwhere(~np.isfinite(out))[0])
            raise EvaluationError(f"entry ({i},{j}) is not finite at t={float(t)!r}")
        return out

    def eval_grid(self, ts) -> np.ndarray:
        """Evaluate over a 1-D array of times; returns shape (len(ts), rows, cols)."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ShapeError("time grid must be one-dimensional")
        out = np.empty((ts.size, self.rows, self.cols), dtype=float)
        with np.errstate(all="ignore"):
            for i, row in enumerate(self.entries):
                for j, e in enumerate(row):
                    try:
                        out[:, i, j] = evaluate(e, ts)
                    except EvaluationError as exc:
                        k = exc.index
                        raise EvaluationError(f"entry ({i},{j}) at t={float(ts[k])!r}: {exc}", k) from exc
        if not np.isfinite(out).all():
            k, i, j = map(int, np.argwhere(~np.isfinite(out))[0])
            raise EvaluationError(f"entry ({i},{j}) is not finite at t={float(ts[k])!r}", k)
        return out

    def derivative(self) -> "MatrixFunction":
        """Entrywise exact derivative; shape is preserved."""
        if self._derivative is None:
            derived = MatrixFunction(tuple(tuple(differentiate(e) for e in row) for row in self.entries))
            object.__setattr__(self, "_derivative", derived)
        return self._derivative

    def to_strings(self) -> list[list[str]]:
        return [[to_string(e) for e in row] for row in self.entries]

    def row_block(self, start: int, stop: int) -> "MatrixFunction":
        if not 0 <= start < stop <= self.rows:
            raise ShapeError(f"row block [{start}:{stop}] out of range for {self.rows} rows")
        return MatrixFunction(self.entries[start:stop])

    def __add__(self, other: "MatrixFunction") -> "MatrixFunction":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return MatrixFunction(
            tuple(
                tuple(_fold_add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __matmul__(self, other: "MatrixFunction") -> "MatrixFunction":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        rows = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc: ScalarExpr = Const(0.0)
                for k in range(self.cols):
                    acc = _fold_add(acc, _fold_mul(self.entries[i][k], other.entries[k][j]))
                row.append(acc)
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

