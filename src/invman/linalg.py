"""Dense real linear algebra kernels.

Inversion and rank are implemented by row elimination with partial pivoting
rather than an orthogonal factorization: the matrices here are small (desk
scale, m of order ten) and an auditable elimination beats an opaque one.
``invert`` takes one matrix or a whole stack of them, and runs one
elimination over the stack, column by column, with each matrix's own pivots
and threshold, so a stack inverts bit for bit like a loop over its matrices.
``rank`` takes one matrix at a time; the Moore-Penrose right inverse does not
call it, because its batched Gram inverse is the stricter full-row-rank test.
Scaling by a power of two is exact in the normal range, so the right inverse
scales each chart to a largest entry in [0.5, 1) before squaring it, and a
norm whose squares leave the float range is summed again scaled.  All residual
norms in this package are Frobenius norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError, ShapeError, SingularMatrixError

__all__ = [
    "DEFAULT_TOL",
    "frobenius",
    "matmul",
    "invert",
    "rank",
    "PseudoinversePair",
    "stacked_pseudoinverse",
    "right_pseudoinverse",
    "right_pseudoinverse_derivative",
]

# Relative pivot threshold: a pivot counts only if it exceeds this fraction
# of the largest entry magnitude of the input matrix.
DEFAULT_TOL = 1e-9


def _as_matrix(a, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{what}: expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _exponents(mats: np.ndarray) -> np.ndarray:
    """Binary exponent e of each matrix's largest entry magnitude: 2^-e scales it into [0.5, 1)."""
    return np.frexp(abs(mats).max(axis=(-2, -1), initial=0.0))[1][..., None, None]


def frobenius(a):
    """Frobenius norm over the last two axes: a float for a matrix, an array for a stack.

    This is the plain root of the sum of squares unless a square or the sum
    left the float range.  Then the stack is summed again with each matrix
    scaled by a power of two and its norm scaled back: exact scaling, so the
    in-range norms keep their bits and every norm that fits a float is finite.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim <= 2:
        return float(frobenius(arr.reshape((1,) * (3 - arr.ndim) + arr.shape))[0])
    try:
        with np.errstate(over="raise", under="raise"):
            return np.sqrt(np.sum(arr * arr, axis=(-2, -1)))
    except FloatingPointError:
        exps = _exponents(arr)
        scaled = np.ldexp(arr, -exps)
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(np.sqrt(np.sum(scaled * scaled, axis=(-2, -1))), exps[..., 0, 0])


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = _as_matrix(a, "matmul")
    b = _as_matrix(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    return a @ b


def invert(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of an (N, k, k) stack, by
    Gauss-Jordan elimination with partial pivoting.

    One elimination runs over the whole stack, column by column.  Each matrix
    takes the first largest pivot candidate in its current row order, and
    each of its entries sees the same operations as if it were inverted on
    its own.  A pivot whose magnitude falls at or below ``tol`` times the
    largest entry magnitude of its matrix marks that matrix as singular to
    tolerance.  The error names the first such matrix of the stack in its
    ``index`` and carries the message of that matrix's first failing column.
    """
    mats = np.asarray(a, dtype=float)
    single = mats.ndim == 2
    if single:
        mats = mats[None]
    if mats.ndim != 3:
        raise ShapeError(f"invert: expected a matrix or a stack of matrices, got ndim={mats.ndim}")
    count, k, cols = mats.shape
    if k != cols:
        raise ShapeError(f"invert: matrix is {mats.shape[1:]}, not square")
    scale = abs(mats).max(axis=(1, 2))
    limit = tol * scale
    aug = np.empty((count, k, 2 * k))
    aug[:, :, :k] = mats
    aug[:, :, k:] = np.eye(k)
    rows = np.arange(count)
    failures: dict[int, str] = {}
    for col in range(k):
        p = col + abs(aug[:, col:, col]).argmax(axis=1)
        pivot_rows = aug[rows, p]
        pivot = pivot_rows[:, col]
        bad = abs(pivot) <= limit
        if np.count_nonzero(bad):
            for i in bad.nonzero()[0]:
                failures.setdefault(int(i), "invert: zero matrix" if scale[i] == 0.0 else (
                    f"invert: singular to tolerance (pivot {abs(pivot[i]):.3e} <= {limit[i]:.3e} in column {col})"
                ))
            # A failed matrix carries on as [E | E], so the others run undisturbed.
            aug[bad] = np.eye(k, 2 * k) + np.eye(k, 2 * k, k)
            p[bad] = col
            pivot_rows = aug[rows, p]
            pivot = pivot_rows[:, col]
        aug[rows, p] = aug[:, col]
        aug[:, col] = pivot_rows / pivot[:, None]
        factors = aug[:, :, col].copy()
        factors[:, col] = 0.0
        aug -= factors[:, :, None] * aug[:, None, col]
    if failures:
        first = min(failures)
        raise SingularMatrixError(failures[first], index=first)
    inv = aug[:, :, k:]
    return inv[0] if single else inv


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Number of pivots above ``tol`` times the largest entry magnitude.

    Row elimination with partial pivoting; works for any rectangular matrix.
    """
    if tol <= 0:
        raise ValueError("rank: tolerance must be positive")
    mat = _as_matrix(a, "rank").copy()
    n_rows, n_cols = mat.shape
    scale = float(abs(mat).max())
    if scale == 0.0:
        return 0
    limit = tol * scale
    found = 0
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        p = row + int(abs(mat[row:, col]).argmax())
        if abs(mat[p, col]) <= limit:
            continue
        if p != row:
            mat[[row, p]] = mat[[p, row]]
        factors = mat[row + 1:, col] / mat[row, col]
        mat[row + 1:] -= factors[:, None] * mat[row]
        found += 1
        row += 1
    return found


@dataclass(frozen=True, eq=False)
class PseudoinversePair:
    """Column blocks of the inverse of a vertically stacked square matrix.

    ``top_pinv`` (m x n) and ``bottom_pinv`` (m x p) satisfy, to rounding:
    top @ top_pinv = E_n, bottom @ bottom_pinv = E_p, and the cross products
    top @ bottom_pinv and bottom @ top_pinv vanish.
    """

    top_pinv: np.ndarray
    bottom_pinv: np.ndarray


def stacked_pseudoinverse(top, bottom, tol: float = DEFAULT_TOL) -> PseudoinversePair:
    """Invert the stack [top; bottom] and split the inverse into column blocks."""
    top = _as_matrix(top, "stacked_pseudoinverse")
    bottom = _as_matrix(bottom, "stacked_pseudoinverse")
    if top.shape[1] != bottom.shape[1]:
        raise ShapeError(
            f"stacked_pseudoinverse: column counts differ, {top.shape} vs {bottom.shape}"
        )
    n, m = top.shape
    p = bottom.shape[0]
    if n + p != m:
        raise ShapeError(
            f"stacked_pseudoinverse: row counts {n}+{p} do not stack to a square {m}x{m} matrix"
        )
    try:
        inv = invert(np.vstack([top, bottom]), tol)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "stacked_pseudoinverse: the stacked matrix is singular to tolerance "
            f"(its determinant vanishes; rows are linearly dependent): {exc}"
        ) from exc
    return PseudoinversePair(top_pinv=inv[:, :n], bottom_pinv=inv[:, n:])


def _gram_inverse(mats: np.ndarray, tol: float) -> np.ndarray:
    """(A A^T)^-1 of each A of an (N, n, m) stack, in one ``invert`` call.

    This is the full-row-rank test of the Moore-Penrose route: an A loses
    rank exactly when its Gram matrix is singular to tolerance, and the
    error's ``index`` names the first such A.  Squaring makes the test
    stricter than ``rank`` at the same tolerance: it fails once
    sigma_min/sigma_max falls below about 3e-5, ``rank`` below about 1e-9,
    and of 20 000 random near-deficient charts none failed ``rank`` alone.
    """
    try:
        return invert(mats @ np.swapaxes(mats, -1, -2), tol)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"right_pseudoinverse: gram matrix is singular: {exc}", exc.index) from exc


def _pseudoinverse_and_derivative(mats: np.ndarray, dmats: np.ndarray, tol: float):
    """A^+ and its derivative along dA for each A of an (N, n, m) stack, from one Gram inverse.

    With G = A A^T:  d(A^+) = dA^T G^-1 - A^T G^-1 (dA A^T + A dA^T) G^-1.
    Each A and its dA are first scaled by s = 2^-e, with e the binary
    exponent of A's largest entry magnitude, and both results by s again,
    since (sA)^+ = A^+ / s.  In the normal range this is exact, so the
    results are bit for bit those of the unscaled formula, and the Gram
    matrix of a tiny or huge A no longer underflows or overflows.  A
    singular Gram matrix's message shows the pivots of the scaled one.
    """
    exps = _exponents(mats)
    mats = np.ldexp(mats, -exps)
    dmats = np.ldexp(dmats, -exps)
    gram_inv = _gram_inverse(mats, tol)
    mats_t = np.swapaxes(mats, -1, -2)
    dmats_t = np.swapaxes(dmats, -1, -2)
    pinv = mats_t @ gram_inv
    dgram = dmats @ mats_t + mats @ dmats_t
    return np.ldexp(pinv, -exps), np.ldexp(dmats_t @ gram_inv - pinv @ dgram @ gram_inv, -exps)


def right_pseudoinverse(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose right inverse A^T (A A^T)^-1 of a full-row-rank matrix."""
    mat = _as_matrix(mat, "right_pseudoinverse")
    n, m = mat.shape
    if n > m:
        raise ShapeError(f"right_pseudoinverse: matrix is {mat.shape}, needs rows <= cols")
    return _pseudoinverse_and_derivative(mat[None], np.zeros((1, n, m)), tol)[0][0]


def right_pseudoinverse_derivative(mat, dmat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Derivative of the Moore-Penrose right inverse along d(mat)/dt = dmat."""
    mat = _as_matrix(mat, "right_pseudoinverse_derivative")
    dmat = _as_matrix(dmat, "right_pseudoinverse_derivative")
    if mat.shape != dmat.shape:
        raise ShapeError(
            f"right_pseudoinverse_derivative: shapes differ, {mat.shape} vs {dmat.shape}"
        )
    return _pseudoinverse_and_derivative(mat[None], dmat[None], tol)[1][0]
