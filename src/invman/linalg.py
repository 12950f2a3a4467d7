"""Dense real linear algebra kernels.

Inversion and rank are implemented by row elimination with partial pivoting
rather than an orthogonal factorization: the matrices here are small (desk
scale, m of order ten) and an auditable elimination beats an opaque one.
All residual norms in this package are Frobenius norms.
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


def frobenius(a) -> float:
    arr = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(arr * arr)))


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = _as_matrix(a, "matmul")
    b = _as_matrix(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    return a @ b


def invert(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix by Gauss-Jordan elimination with partial pivoting.

    A pivot whose magnitude falls at or below ``tol`` times the largest entry
    magnitude of the input marks the matrix as singular to tolerance.
    """
    mat = _as_matrix(a, "invert")
    k = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"invert: matrix is {mat.shape}, not square")
    scale = float(np.max(np.abs(mat)))
    if scale == 0.0:
        raise SingularMatrixError("invert: zero matrix")
    limit = tol * scale
    aug = np.hstack([mat.copy(), np.eye(k)])
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


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Number of pivots above ``tol`` times the largest entry magnitude.

    Row elimination with partial pivoting; works for any rectangular matrix.
    """
    if tol <= 0:
        raise ValueError("rank: tolerance must be positive")
    mat = _as_matrix(a, "rank").copy()
    n_rows, n_cols = mat.shape
    scale = float(np.max(np.abs(mat)))
    if scale == 0.0:
        return 0
    limit = tol * scale
    found = 0
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        p = row + int(np.argmax(np.abs(mat[row:, col])))
        if abs(mat[p, col]) <= limit:
            continue
        if p != row:
            mat[[row, p]] = mat[[p, row]]
        factors = mat[row + 1:, col] / mat[row, col]
        mat[row + 1:] -= np.outer(factors, mat[row])
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


def _gram_inverse(mat: np.ndarray, tol: float) -> np.ndarray:
    """(A A^T)^-1 of a full-row-rank A; both ways to fail are rank deficiency."""
    n = mat.shape[0]
    if rank(mat, tol) != n:
        raise RankDeficiencyError(
            f"right_pseudoinverse: matrix does not have full row rank {n} at tolerance {tol:g}"
        )
    try:
        return invert(mat @ mat.T, tol)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"right_pseudoinverse: gram matrix is singular: {exc}") from exc


def _pseudoinverse_and_derivative(mat: np.ndarray, dmat: np.ndarray, tol: float):
    """A^+ and its derivative along dA, sharing one rank check and one Gram inverse.

    With G = A A^T:  d(A^+) = dA^T G^-1 - A^T G^-1 (dA A^T + A dA^T) G^-1.
    """
    gram_inv = _gram_inverse(mat, tol)
    pinv = mat.T @ gram_inv
    dgram = dmat @ mat.T + mat @ dmat.T
    return pinv, dmat.T @ gram_inv - pinv @ dgram @ gram_inv


def right_pseudoinverse(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose right inverse A^T (A A^T)^-1 of a full-row-rank matrix."""
    mat = _as_matrix(mat, "right_pseudoinverse")
    n, m = mat.shape
    if n > m:
        raise ShapeError(f"right_pseudoinverse: matrix is {mat.shape}, needs rows <= cols")
    return mat.T @ _gram_inverse(mat, tol)


def right_pseudoinverse_derivative(mat, dmat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Derivative of the Moore-Penrose right inverse along d(mat)/dt = dmat."""
    mat = _as_matrix(mat, "right_pseudoinverse_derivative")
    dmat = _as_matrix(dmat, "right_pseudoinverse_derivative")
    if mat.shape != dmat.shape:
        raise ShapeError(
            f"right_pseudoinverse_derivative: shapes differ, {mat.shape} vs {dmat.shape}"
        )
    return _pseudoinverse_and_derivative(mat, dmat, tol)[1]
