"""Dense real linear algebra kernels.

Inversion and rank are implemented by row elimination with partial pivoting
rather than an orthogonal factorization: the matrices here are small (desk
scale, m of order ten) and an auditable elimination beats an opaque one.
``invert`` takes one matrix or a whole stack of them and runs one elimination
over each cache-sized block of the stack, column by column, stack axis last,
with each matrix's own pivots and threshold, so a stack inverts bit for bit
like a loop over its matrices; their pivots are checked once it is done.
The same elimination gives the first columns of the inverse alone, from
fewer identity columns on the right, with the same bits.
``rank`` takes one matrix at a time; the Moore-Penrose right inverse does not
call it, because its batched Gram inverse is the stricter full-row-rank test.
Scaling by a power of two is exact in the normal range, so the right inverse
scales each chart to a largest entry in [0.5, 1) before squaring it, and a
norm whose squares leave the float range is summed again scaled.  All residual
norms in this package are Frobenius norms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import RankDeficiencyError, ShapeError, SingularMatrixError

__all__ = [
    "DEFAULT_TOL",
    "frobenius",
    "invert",
    "rank",
    "right_pseudoinverse",
    "right_pseudoinverse_derivative",
]

# Relative pivot threshold: a pivot counts only if it exceeds this fraction
# of the largest entry magnitude of the input matrix.
DEFAULT_TOL = 1e-9
_BLOCK_BYTES = 2**20        # working array of one invert block: about what stays in cache


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


def invert(a) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of an (N, k, k) stack, by
    Gauss-Jordan elimination with partial pivoting.

    The elimination is ``_inverse_columns``, which runs over [A | E[:, :cols]]
    and gives the first cols columns of the inverse; ``invert`` is cols = k.
    One elimination runs over each block of consecutive matrices whose
    [A | E[:, :cols]] fill ``_BLOCK_BYTES`` (a whole large stack would not stay
    in cache), column by column, stack axis last: each row operation runs over
    the block's contiguous values, on the columns after the pivot's only (no
    later step reads an eliminated one).  Each matrix takes the first largest
    pivot candidate in its current row order, and each of its entries sees the
    same operations as if it were inverted on its own; a column in which no
    matrix of the block moves its pivot row swaps no rows.  Each column on the
    right sees the same operations whatever their number, so fewer columns
    give ``invert(a)[..., :cols]`` bit for bit, and the same errors.  A pivot
    at or below ``DEFAULT_TOL`` times its matrix's largest entry magnitude
    marks the matrix as singular to tolerance; the pivots are scanned after
    the elimination, and the error names the first such matrix in its
    ``index`` with the message of its first failing column.
    """
    return _inverse_columns(a, None)


def _inverse_columns(a, cols: Optional[int]) -> np.ndarray:
    """The first ``cols`` columns (all k for None) of the inverse of each matrix of ``a``, as ``invert`` computes them."""
    mats = np.asarray(a, dtype=float)
    if single := mats.ndim == 2:
        mats = mats[None]
    if mats.ndim != 3:
        raise ShapeError(f"invert: expected a matrix or a stack of matrices, got ndim={mats.ndim}")
    count, k, width = mats.shape
    if k != width:
        raise ShapeError(f"invert: matrix is {mats.shape[1:]}, not square")
    cols = k if cols is None else cols
    scale = abs(mats).max(axis=(1, 2))
    pivots = np.empty((k, count))
    inv = np.empty((count, k, cols))
    block = _BLOCK_BYTES // (8 * (k + cols) * k) or 1  # matrices whose [A | E[:, :cols]] fill _BLOCK_BYTES
    # A failed matrix divides by its zero or tiny pivot and carries on, alone.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, count, block):
            part, part_pivots = mats[lo : lo + block], pivots[:, lo : lo + block]
            # aug[j, r, n] is entry (r, j) of [A | E[:, :cols]] for matrix lo + n: a column of the block is contiguous.
            aug = np.empty((k + cols, k, len(part)))
            aug[:k] = part.transpose(2, 1, 0)
            aug[k:] = 0.0
            aug[k:].reshape(k * cols, -1)[:: k + 1] = 1.0  # E: entry (j, j) of each matrix of the block
            stack = np.arange(len(part))
            for col in range(k):
                live = aug[col:]
                p = col + abs(live[0, col:]).argmax(axis=0)
                pivot_rows = live[:, col]  # a view: the pivot row is divided in place
                if (p != col).any():  # some matrix's pivot row moves to row col: gather them, scatter row col
                    pivot_rows = live[:, p, stack]
                    live[:, p, stack] = live[:, col]
                part_pivots[col] = pivot = pivot_rows[0]
                np.divide(pivot_rows[1:], pivot, out=live[1:, col])
                # Column col is dead from here on: it holds each row's factor, 0 in the pivot row.
                live[0, col] = 0.0
                live[1:] -= live[0] * live[1:, col, None]
            inv[lo : lo + block] = aug[k:].transpose(2, 1, 0)
    bad = abs(pivots) <= DEFAULT_TOL * scale
    if np.count_nonzero(bad):
        first = int(bad.any(axis=0).argmax())
        col, limit = int(bad[:, first].argmax()), DEFAULT_TOL * scale[first]
        raise SingularMatrixError("invert: zero matrix" if scale[first] == 0.0 else (
            f"invert: singular to tolerance (pivot {abs(pivots[col, first]):.3e} <= {limit:.3e} in column {col})"
        ), index=first)
    return inv[0] if single else inv


def rank(a) -> int:
    """Number of pivots above ``DEFAULT_TOL`` times the largest entry magnitude.

    Row elimination with partial pivoting; works for any rectangular matrix.
    """
    mat = _as_matrix(a, "rank").copy()
    n_rows, n_cols = mat.shape
    scale = float(abs(mat).max())
    if scale == 0.0:
        return 0
    limit = DEFAULT_TOL * scale
    found = 0
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        p = row + int(abs(mat[row:, col]).argmax())
        if abs(mat[p, col]) <= limit:
            continue
        if p != row:
            mat[row], mat[p] = mat[p], mat[row].copy()
        factors = mat[row + 1:, col] / mat[row, col]
        mat[row + 1:] -= factors[:, None] * mat[row]
        found += 1
        row += 1
    return found


def _gram_inverse(mats: np.ndarray) -> np.ndarray:
    """(A A^T)^-1 of each A of an (N, n, m) stack, in one ``invert`` call.

    This is the full-row-rank test of the Moore-Penrose route: an A loses
    rank exactly when its Gram matrix is singular to tolerance, and the
    error's ``index`` names the first such A.  Squaring makes the test
    stricter than ``rank``: it fails once sigma_min/sigma_max falls below
    about 3e-5, ``rank`` below about 1e-9, and of 20 000 random
    near-deficient charts none failed ``rank`` alone.
    """
    try:
        return invert(mats @ np.swapaxes(mats, -1, -2))
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"right_pseudoinverse: gram matrix is singular: {exc}", exc.index) from exc


def _pseudoinverse(mats: np.ndarray, dmats: Optional[np.ndarray] = None) -> tuple:
    """(A^+,) for each A of an (N, n, m) stack, or (A^+, its derivative along dA) given ``dmats``, from one Gram inverse.

    With G = A A^T:  A^+ = A^T G^-1  and  d(A^+) = dA^T G^-1 - A^T G^-1 (dA A^T + A dA^T) G^-1.
    Each A and its dA are first scaled by s = 2^-e, with e the binary
    exponent of A's largest entry magnitude, and both results by s again,
    since (sA)^+ = A^+ / s.  In the normal range this is exact, so the
    results are bit for bit those of the unscaled formula, and the Gram
    matrix of a tiny or huge A no longer underflows or overflows.  A
    singular Gram matrix's message shows the pivots of the scaled one.  A
    result past the float range comes out inf or nan, without a warning:
    the caller checks it.
    """
    exps = _exponents(mats)
    mats = np.ldexp(mats, -exps)
    gram_inv = _gram_inverse(mats)
    mats_t = np.swapaxes(mats, -1, -2)
    pinv = mats_t @ gram_inv
    with np.errstate(over="ignore", invalid="ignore"):
        if dmats is None:
            return (np.ldexp(pinv, -exps),)
        dmats = np.ldexp(dmats, -exps)
        dmats_t = np.swapaxes(dmats, -1, -2)
        dgram = dmats @ mats_t + mats @ dmats_t
        return np.ldexp(pinv, -exps), np.ldexp(dmats_t @ gram_inv - pinv @ dgram @ gram_inv, -exps)


def right_pseudoinverse(mat) -> np.ndarray:
    """Moore-Penrose right inverse A^T (A A^T)^-1 of a full-row-rank matrix."""
    mat = _as_matrix(mat, "right_pseudoinverse")
    n, m = mat.shape
    if n > m:
        raise ShapeError(f"right_pseudoinverse: matrix is {mat.shape}, needs rows <= cols")
    return _pseudoinverse(mat[None])[0][0]


def right_pseudoinverse_derivative(mat, dmat) -> np.ndarray:
    """Derivative of the Moore-Penrose right inverse along d(mat)/dt = dmat."""
    mat = _as_matrix(mat, "right_pseudoinverse_derivative")
    dmat = _as_matrix(dmat, "right_pseudoinverse_derivative")
    if mat.shape != dmat.shape:
        raise ShapeError(
            f"right_pseudoinverse_derivative: shapes differ, {mat.shape} vs {dmat.shape}"
        )
    return _pseudoinverse(mat[None], dmat[None])[1][0]
