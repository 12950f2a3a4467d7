"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import math

import numpy as np

from invman.matexpr import Binary, Const, Power, ScalarExpr, T, TimeVar, Unary, evaluate


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
            return x ** k
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
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def _reference_fold_mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _reference_is_zero(a) or _reference_is_zero(b):
        return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def reference_matmul(a, b):
    """Dense symbolic product of two MatrixFunctions: all m^3 terms, folded left to right.

    Each entry starts from Const(0.0) and folds every term a_ik * b_kj in k
    order, zero terms included, with constant folding and the 0 and 1
    identities.  ``MatrixFunction.__matmul__``, which visits only the terms
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
