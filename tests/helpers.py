"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from invman.errors import ParseError
from invman.matexpr import MAX_DEPTH, Binary, Const, Power, ScalarExpr, T, TimeVar, Unary, evaluate


def fd_derivative(f, t: float, h: float = 1e-6) -> float:
    """Central finite difference, the standard derivative oracle."""
    return (f(t + h) - f(t - h)) / (2.0 * h)


def fd_matrix_derivative(f, t: float, h: float = 1e-6) -> np.ndarray:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def reference_invert(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Gauss-Jordan inverse of one square matrix, one Python-level row operation at a time.

    The per-matrix elimination that ``linalg.invert`` must reproduce bit for
    bit on every matrix of a stack: the first largest pivot candidate, the
    pivot threshold ``tol`` times the largest entry magnitude, and the same
    messages for a zero or singular matrix.
    """
    from invman.errors import SingularMatrixError

    k = mat.shape[0]
    scale = float(np.max(np.abs(mat)))
    if scale == 0.0:
        raise SingularMatrixError("invert: zero matrix")
    limit = tol * scale
    aug = np.hstack([np.array(mat, dtype=float), np.eye(k)])
    for col in range(k):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[p, col]
        if abs(pivot) <= limit:
            raise SingularMatrixError(
                f"invert: singular to tolerance (pivot {abs(pivot):.3e} <= {limit:.3e} in column {col})"
            )
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] /= aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug -= np.outer(factors, aug[col])
    return aug[:, k:]


def reference_evaluate(expr: ScalarExpr, t):
    """Memo-free recursive walk of an expression tree, at a scalar t or over an array.

    A node reached twice is evaluated twice.  ``MatrixFunction.eval`` and
    ``eval_grid``, which evaluate each distinct node once per call, must
    reproduce it bit for bit, and raise the same errors at the same index.
    """
    from invman.errors import EvaluationError

    match expr:
        case Binary(op=op, left=l, right=r):
            x = reference_evaluate(l, t)
            y = reference_evaluate(r, t)
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
            x = reference_evaluate(a, t)
            return -x if op == "neg" else {"sin": np.sin, "cos": np.cos, "exp": np.exp}[op](x)
        case Const(value=v):
            return v
        case TimeVar():
            return t
        case Power(base=b, exponent=k):
            x = reference_evaluate(b, t)
            if k < 0 and (zero := np.asarray(x) == 0.0).any():
                raise EvaluationError("zero raised to a negative exponent", int(zero.argmax()))
            # np.power, not **: Python's ** of a float uses the C library's pow, which the tape does not.
            return np.power(x, k)
    raise TypeError(f"not an expression node: {expr!r}")


def reference_differentiate(expr: ScalarExpr) -> ScalarExpr:
    """The calculus rules of ``differentiate``, one recursive call per node reached and no memo.

    A node reached twice is derived twice.  ``differentiate`` and
    ``MatrixFunction.derivative``, which derive each distinct node once, must
    give equal trees that print alike.
    """
    d = reference_differentiate
    match expr:
        case Const():
            return Const(0.0)
        case TimeVar():
            return Const(1.0)
        case Unary(op="neg", arg=a):
            return Unary("neg", d(a))
        case Unary(op="sin", arg=a):
            return Binary("*", Unary("cos", a), d(a))
        case Unary(op="cos", arg=a):
            return Binary("*", Unary("neg", Unary("sin", a)), d(a))
        case Unary(op="exp", arg=a):
            return Binary("*", expr, d(a))
        case Binary(op="+", left=l, right=r):
            return Binary("+", d(l), d(r))
        case Binary(op="-", left=l, right=r):
            return Binary("-", d(l), d(r))
        case Binary(op="*", left=l, right=r):
            return Binary("+", Binary("*", d(l), r), Binary("*", l, d(r)))
        case Binary(op="/", left=l, right=r):
            num = Binary("-", Binary("*", d(l), r), Binary("*", l, d(r)))
            return Binary("/", num, Power(r, 2))
        case Power(base=b, exponent=k):
            if k == 0:
                return Const(0.0)
            return Binary("*", Binary("*", Const(float(k)), Power(b, k - 1)), d(b))
    raise TypeError(f"not an expression node: {expr!r}")


def reference_matrix(mf, t) -> np.ndarray:
    """Entry by entry ``reference_evaluate`` of a MatrixFunction at scalar t or on a 1-D grid."""
    out = np.empty(np.shape(t) + mf.shape)
    with np.errstate(all="ignore"):
        for i, row in enumerate(mf.entries):
            for j, e in enumerate(row):
                out[..., i, j] = reference_evaluate(e, t)
    return out


def _reference_is_zero(x: ScalarExpr) -> bool:
    return isinstance(x, Const) and x.value == 0.0


def _reference_fold_add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _reference_is_zero(a):
        return b
    if _reference_is_zero(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def _reference_fold_mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _reference_is_zero(a) or _reference_is_zero(b):
        return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value * b.value):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def reference_matmul(a, b):
    """Dense symbolic product of two MatrixFunctions: all m^3 terms, folded left to right.

    Each entry starts from Const(0.0) and folds every term a_ik * b_kj in k
    order, zero terms included, with the 0 and 1 identities and the folding
    of two constants whose sum or product is finite.  ``MatrixFunction.__matmul__``, which visits only the terms
    with two non-zero factors, must give equal trees that print alike (a
    zero term after a zero-constant accumulator turns -0.0 into 0.0).
    """
    from invman.matexpr import MatrixFunction

    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc: ScalarExpr = Const(0.0)
            for k in range(a.cols):
                acc = _reference_fold_add(acc, _reference_fold_mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return MatrixFunction(tuple(rows))


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_REFERENCE_INT_RE = re.compile(r"\d+\Z")


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    """The whole-entry tokenizer and token-list descent that every group parses afresh.

    It builds equal subtrees as one node, like ``matexpr._Parser``, but keeps
    no memo of group texts, so ``MatrixFunction.build`` must give its trees,
    with the same sharing, or its ``ParseError`` at the same offset.
    """

    def __init__(self):
        self.nodes: dict[tuple, ScalarExpr] = {}
        self.depths = {id(T): 1}

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

    def _shared(self, key: tuple, cls, *fields) -> ScalarExpr:
        node = self.nodes.get(key)
        if node is None:
            depth = 1 + max(map(self.depths.__getitem__, key[2:]), default=0)
            if depth > MAX_DEPTH:
                raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", self._peek()[2])
            node = self.nodes[key] = cls(*fields)
            self.depths[id(node)] = depth
        return node

    def parse(self, text: str) -> ScalarExpr:
        self.tokens = _reference_tokenize(text)
        self.i = 0
        self.level = 0
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
                right = self._product()
                left = self._shared((Binary, text, id(left), id(right)), Binary, text, left, right)
            else:
                return left

    def _product(self) -> ScalarExpr:
        left = self._unary()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                right = self._unary()
                left = self._shared((Binary, text, id(left), id(right)), Binary, text, left, right)
            else:
                return left

    def _unary(self) -> ScalarExpr:
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", self._peek()[2])
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._next()
            arg = self._unary()
            node = self._shared((Unary, "neg", id(arg)), Unary, "neg", arg)
        else:
            node = self._power()
        self.level -= 1
        return node

    def _power(self) -> ScalarExpr:
        base = self._atom()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text == "^":
                self._next()
                base = self._shared((Power, k := self._exponent(), id(base)), Power, base, k)
            else:
                return base

    def _exponent(self) -> int:
        sign = 1
        kind, text, offset = self._peek()
        if kind == "op" and text == "-":
            self._next()
            sign = -1
            kind, text, offset = self._peek()
        if kind != "num" or not _REFERENCE_INT_RE.match(text):
            raise ParseError("exponent must be an integer literal", offset)
        if math.isinf(float(text)):
            raise ParseError(f"exponent {text!r} is out of range", offset)
        self._next()
        return sign * int(text.lstrip("0") or "0")

    def _atom(self) -> ScalarExpr:
        kind, text, offset = self._next()
        if kind == "num":
            if math.isinf(value := float(text)):
                raise ParseError(f"number {text!r} is out of range", offset)
            return self._shared((Const, text), Const, value)
        if kind == "name":
            if text == "t":
                return T
            if text in ("sin", "cos", "exp"):
                self._expect_op("(")
                arg = self._sum()
                self._expect_op(")")
                return self._shared((Unary, text, id(arg)), Unary, text, arg)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            expr = self._sum()
            self._expect_op(")")
            return expr
        shown = text if text else "end of input"
        raise ParseError(f"expected a number, 't', a function, or '(', got {shown!r}", offset)


def reference_parse_matrix(rows):
    """``MatrixFunction.build`` as it was with a token list per entry and no group memo.

    String entries go through one ``_ReferenceParser``; a ``ParseError`` is
    re-raised with the entry position prepended, as ``build`` does.
    """
    from invman.matexpr import MatrixFunction

    parser = _ReferenceParser()
    out = []
    for i, row in enumerate(rows):
        parsed_row = []
        for j, entry in enumerate(row):
            try:
                if isinstance(entry, ScalarExpr):
                    parsed_row.append(entry)
                elif isinstance(entry, str):
                    parsed_row.append(parser.parse(entry))
                else:
                    parsed_row.append(Const(float(entry)))
            except ParseError as exc:
                raise ParseError(f"entry ({i},{j}): {exc.message}", exc.offset) from exc
        out.append(tuple(parsed_row))
    return MatrixFunction(tuple(out))


def sharing_shape(mf) -> list:
    """Every node of a MatrixFunction's trees, numbered by first visit in row order.

    Two matrices have the same value and the same sharing pattern exactly
    when their shapes are equal: a node reached again shows its number
    instead of its fields.
    """
    numbers: dict[int, int] = {}
    out = []

    def walk(node):
        if id(node) in numbers:
            out.append(("seen", numbers[id(node)]))
            return
        numbers[id(node)] = len(numbers)
        match node:
            case Const(value=v):
                out.append(("const", v, math.copysign(1.0, v)))
            case TimeVar():
                out.append(("t",))
            case Unary(op=op, arg=a):
                out.append(("unary", op))
                walk(a)
            case Binary(op=op, left=l, right=r):
                out.append(("binary", op))
                walk(l)
                walk(r)
            case Power(base=b, exponent=k):
                out.append(("power", k))
                walk(b)

    for row in mf.entries:
        out.append("row")
        for e in row:
            walk(e)
    return out


def reference_rk4(samples: np.ndarray, y0, h: float) -> np.ndarray:
    """Classical RK4 of y' = A(t) y, stage by stage, one initial column at a time.

    ``samples`` holds A at t0, t0+h/2, t0+h, ... (2n+1 matrices for n steps);
    returns the (n+1, m, columns) states.  The step-matrix march in
    ``invman.flow`` must agree with it to rounding.
    """
    y0 = np.asarray(y0, dtype=float).reshape(len(y0), -1)
    n = (len(samples) - 1) // 2
    out = np.empty((n + 1,) + y0.shape)
    for j in range(y0.shape[1]):
        y = y0[:, j].copy()
        out[0, :, j] = y
        for i in range(n):
            a0, ah, a1 = samples[2 * i], samples[2 * i + 1], samples[2 * i + 2]
            k1 = a0 @ y
            k2 = ah @ (y + 0.5 * h * k1)
            k3 = ah @ (y + 0.5 * h * k2)
            k4 = a1 @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i + 1, :, j] = y
    return out


def reference_eval(text: str, t: float) -> float:
    """Independent expression evaluator: hand the text to Python itself.

    Only valid for expressions without chained '^' (associativity differs).
    """
    return float(
        eval(  # noqa: S307 - test oracle on trusted strings
            text.replace("^", "**"),
            {"__builtins__": {}},
            {"t": t, "sin": math.sin, "cos": math.cos, "exp": math.exp},
        )
    )


def random_expr(rng: np.random.Generator, depth: int) -> ScalarExpr:
    """Random expression tree of bounded depth.

    Denominators are shielded as (expr^2 + positive constant) so division is
    exercised without manufacturing poles; other singular draws (zero base
    under a negative power, exp overflow) are left in and filtered by the
    caller's finiteness guards.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return T
        return Const(round(float(rng.uniform(-3.0, 3.0)), 3))
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return Binary("+", random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 1:
        return Binary("-", random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 2:
        return Binary("*", random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 3:
        shield = Binary(
            "+",
            Power(random_expr(rng, depth - 1), 2),
            Const(round(float(rng.uniform(0.5, 2.0)), 3)),
        )
        return Binary("/", random_expr(rng, depth - 1), shield)
    if kind == 4:
        return Unary("neg", random_expr(rng, depth - 1))
    if kind == 5:
        return Unary(str(rng.choice(["sin", "cos"])), random_expr(rng, depth - 1))
    if kind == 6:
        return Unary("exp", random_expr(rng, depth - 1))
    return Power(random_expr(rng, depth - 1), int(rng.integers(-2, 4)))


def try_eval(expr: ScalarExpr, t: float):
    """Evaluate, returning None on poles or non-finite results.

    Overflow is one way to a non-finite result, so numpy's overflow warning
    is silenced here rather than raised by the tests' warnings-as-errors.
    """
    from invman.errors import EvaluationError

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v = float(evaluate(expr, t))
    except EvaluationError:
        return None
    return v if math.isfinite(v) else None


def schema_paths(obj, prefix: str = "") -> list[str]:
    """Flatten a JSON payload into sorted type-annotated key paths.

    Arrays contribute a single ``[]`` segment based on their first element, so
    the result pins the schema without pinning values.
    """
    if isinstance(obj, dict):
        out: list[str] = []
        for key in sorted(obj):
            out.extend(schema_paths(obj[key], f"{prefix}{key}."))
        return out
    if isinstance(obj, list):
        if obj and isinstance(obj[0], (dict, list)):
            return schema_paths(obj[0], f"{prefix}[].")
        inner = type(obj[0]).__name__ if obj else "empty"
        return [f"{prefix.rstrip('.')}:[{inner}]"]
    return [f"{prefix.rstrip('.')}:{type(obj).__name__}"]


def reference_identity_samples(frame, samples: int, seed: int) -> dict:
    """Every residual field of ``check_kernel_identities`` and ``check_embedding``.

    Each sampled field is the largest row norm of one product of the sampled
    range vectors: the rows of ``on_main`` are y = P c and those of
    ``on_comp`` are y = P_comp c, for ``samples`` standard-normal c drawn
    from ``default_rng(seed)``.  The suites, which sample R c for the matrix
    R of each identity, must agree with it to rounding.
    """
    cs = np.random.default_rng(seed).standard_normal((samples, frame.m))
    on_main = cs @ frame.projector.T
    on_comp = cs @ frame.comp_projector.T

    def worst(rows: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(rows, axis=1)))

    return {
        "max_comp_chart_on_main": worst(on_main @ frame.comp_chart.T),
        "max_comp_projector_on_main": worst(on_main @ frame.comp_projector.T),
        "max_chart_on_comp": worst(on_comp @ frame.chart.T),
        "max_comp_range_defect": worst(on_comp - on_comp @ frame.comp_projector.T),
        "image_residual": float(np.linalg.norm(frame.projector @ frame.embedding - frame.embedding)),
        "max_retraction_defect": worst(on_main - on_main @ frame.chart.T @ frame.embedding.T),
    }


def random_well_conditioned_stack(rng: np.random.Generator, m: int, n: int):
    """Numeric (chart, comp_chart) pair with modest condition number.

    Built from a random orthogonal matrix (QR oracle) warmed with a mild
    shear and scaling, so the stacked inverse is trustworthy to ~1e-13.
    """
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    shear = np.eye(m)
    i, j = rng.choice(m, size=2, replace=False)
    shear[i, j] = rng.uniform(-0.5, 0.5)
    scale = np.diag(rng.uniform(0.8, 1.25, size=m))
    stack = scale @ shear @ q
    return stack[:n], stack[n:]


class FrameBuilt(Exception):
    """Raised by ``must_not_build_frame`` when a test reaches ``scenario.random_frame``."""


def must_not_build_frame(m, n, rng):
    """A stand-in for ``scenario.random_frame``, for tests that must be refused before a frame is built."""
    raise FrameBuilt(f"random_frame called with m={m}, n={n}")


def spiked_scenario(structure, m: int, n: int, seed: int):
    """``random_scenario`` with a Gaussian spike between two grid nodes in the coupling that must vanish.

    Entry (0, 0) of coupling d, which ``upper_triangular`` and
    ``block_diagonal`` zero, becomes exp(-((t - t*)/w)^2) with t* the
    midpoint of a grid cell drawn from ``seed`` and w a 25th of the cell.
    Every grid node is at least 12.5 widths from t*, where the spike reads
    about e^-156: the grid certifies the structure's verdicts, and the flow
    through t* leaks off the subspace.  Returns the scenario and t*.
    """
    from invman.matexpr import MatrixFunction
    from invman.scenario import random_scenario

    spec = random_scenario(structure, m=m, n=n, seed=seed)
    grid = spec.t_grid
    cell = float(grid[1] - grid[0])
    t_star = float(grid[np.random.default_rng(seed).integers(0, grid.size - 1)]) + cell / 2
    offset = Power(Binary("/", Binary("-", T, Const(t_star)), Const(cell / 25)), 2)
    rows = [list(row) for row in spec.d.entries]
    rows[0][0] = Unary("exp", Unary("neg", offset))
    spiked = MatrixFunction(tuple(map(tuple, rows)))
    return dataclasses.replace(spec, d=spiked), t_star
