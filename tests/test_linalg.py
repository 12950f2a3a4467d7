import math
import warnings

import numpy as np
import pytest

from invman import linalg
from invman.errors import RankDeficiencyError, ShapeError, SingularMatrixError
from invman.linalg import (
    frobenius,
    invert,
    rank,
    right_pseudoinverse,
    right_pseudoinverse_derivative,
)

from helpers import (
    fd_matrix_derivative,
    reference_invert,
)


def _invertible(mats):
    """The matrices that the per-matrix reference inverts, as one stack."""
    kept = []
    for mat in mats:
        try:
            reference_invert(mat)
        except SingularMatrixError:
            continue
        kept.append(mat)
    return np.array(kept)


def _narrowed(k: int, cols: str) -> int:
    """The column count ``cols`` names for k x k matrices: one, half of them or all k."""
    return {"one": 1, "half": max(1, k // 2), "all": k}[cols]


def _assert_narrowed_is_a_slice(stack, cols: int):
    """The elimination over [A | E[:, :cols]] gives ``invert``'s first cols columns bit for bit, or its error."""
    try:
        want = invert(stack)[..., :cols]
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as info:
            linalg._inverse_columns(stack, cols)
        assert (info.value.index, str(info.value)) == (exc.index, str(exc))
        return
    got = linalg._inverse_columns(stack, cols)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _hadamard(k: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h


class TestInvert:
    def test_identity(self):
        np.testing.assert_array_equal(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_rotation_inverse_is_transpose(self):
        theta = 0.8
        r = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        np.testing.assert_allclose(invert(r), r.T, atol=1e-13)

    def test_residual_scaled(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
            resid = frobenius(a @ invert(a) - np.eye(5))
            assert resid <= 1e-10 * np.linalg.cond(a)

    def test_singular(self):
        with pytest.raises(SingularMatrixError, match="singular"):
            invert(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            invert(np.zeros((2, 2)))

    def test_not_square(self):
        with pytest.raises(ShapeError):
            invert(np.ones((2, 3)))


class TestInvertStack:
    """A stack inverts bit for bit like the per-matrix reference, matrix by matrix."""

    @pytest.mark.parametrize("cols", ["one", "half", "all"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_equals_reference_slice_by_slice(self, k, cols):
        rng = np.random.default_rng(k)
        eye = np.eye(k)
        perms = [eye[rng.permutation(k)] * rng.choice([-1.0, 1.0], size=(k, 1)) for _ in range(20)]
        # Entries of equal magnitude tie for the pivot in every column.
        signs = list(rng.choice([-1.0, 1.0], size=(200, k, k)))
        ties = [rng.integers(-2, 3, size=(k, k)).astype(float) for _ in range(200)]
        # Small leading entries force a row swap in most columns.
        swaps = [rng.standard_normal((k, k)) * np.logspace(-6, 0, k)[:, None] for _ in range(100)]
        stack = _invertible(
            list(rng.standard_normal((300, k, k))) + perms + signs + ties + swaps
            + ([_hadamard(k)] if k in (1, 2, 8, 16) else [])
        )
        assert len(stack) > 300
        got = invert(stack)
        assert got.shape == stack.shape
        np.testing.assert_array_equal(got, np.stack([reference_invert(mat) for mat in stack]))
        np.testing.assert_array_equal(invert(stack[-1]), reference_invert(stack[-1]))
        for part in (stack, stack[-1]):
            _assert_narrowed_is_a_slice(part, _narrowed(k, cols))

    @pytest.mark.parametrize("cols", ["one", "half", "all"])
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    @pytest.mark.parametrize("moving", ["none", "every", "some"])
    def test_a_column_whose_pivots_stay_or_move_inverts_like_the_reference(self, k, moving, cols):
        # A strictly column diagonally dominant matrix keeps its pivot in every column of the elimination;
        # its rows reversed, every matrix moves its pivot in column 0; "some" alternates the two.
        rng = np.random.default_rng(90 + k)
        count = 40
        stack = rng.standard_normal((count, k, k))
        diag = abs(stack).sum(axis=1) + rng.random((count, k))
        stack[:, range(k), range(k)] = diag * rng.choice([-1.0, 1.0], size=(count, k))
        flip = {"none": [], "every": slice(None), "some": slice(None, None, 2)}[moving]
        stack[flip] = stack[flip, ::-1]
        moved = abs(stack[:, :, 0]).argmax(axis=1) != 0
        assert {"none": not moved.any(), "every": moved.all(), "some": 0 < moved.sum() < count}[moving]
        got = invert(stack)
        assert got.tobytes() == np.array([reference_invert(mat) for mat in stack]).tobytes()
        for mat in stack[[0, -1]]:
            assert invert(mat).tobytes() == reference_invert(mat).tobytes()
        for part in (stack, stack[0], stack[-1]):
            _assert_narrowed_is_a_slice(part, _narrowed(k, cols))

    def test_relative_threshold_is_per_matrix(self):
        # diag(1, 1e-12) is singular to tolerance whatever its neighbours' scale
        stack = np.array([np.eye(2) * 1e15, np.diag([1.0, 1e-12]), np.eye(2) * 1e-15])
        with pytest.raises(SingularMatrixError) as info:
            invert(stack)
        assert info.value.index == 1
        np.testing.assert_array_equal(invert(stack[[0, 2]]), [reference_invert(stack[0]), reference_invert(stack[2])])

    def test_first_singular_matrix_is_reported(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((10, 4, 4)) + 4.0 * np.eye(4)
        stack[3, 3] = stack[3, 0] + stack[3, 1]  # fails in the last column
        stack[7] = 0.0                            # fails at once
        with pytest.raises(SingularMatrixError) as reference:
            reference_invert(stack[3])
        with pytest.raises(SingularMatrixError) as info:
            invert(stack)
        assert info.value.index == 3
        assert str(info.value) == str(reference.value)
        with pytest.raises(SingularMatrixError, match="^invert: zero matrix$") as info:
            invert(stack[4:])
        assert info.value.index == 3

    @pytest.mark.parametrize("cols", ["one", "half", "all"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_failures_and_non_finite_entries_match_the_reference(self, k, cols):
        # NaN and +-inf entries, zero matrices and matrices singular to tolerance, planted at the
        # ends and in between.  A NaN matrix inverts to NaNs, an inf one fails in column 0.  The
        # stack before the first failure inverts bit for bit like the reference, with no warning.
        rng = np.random.default_rng(30 + k)
        kinds = ["nan", "inf", "-inf", "zero", "singular"]
        failed_at = set()
        for trial in range(60):
            n = int(rng.integers(1, 40))
            stack = rng.standard_normal((n, k, k))
            if trial % 2:  # signed zeros: the bits of a zero's sign are compared too
                stack = np.where(rng.random(stack.shape) < 0.3, np.copysign(0.0, stack), stack)
            for pos in {0, n - 1, *rng.integers(0, n, size=int(rng.integers(0, 3)))}:
                kind = kinds[(trial + pos) % len(kinds)]
                r, c = rng.integers(0, k, size=2)
                if kind == "zero":
                    stack[pos] = 0.0
                elif kind == "singular":
                    stack[pos] = rng.standard_normal((k, k - 1)) @ rng.standard_normal((k - 1, k))
                else:
                    stack[pos, r, c] = float(kind)
            first, expected = None, []
            with np.errstate(all="ignore"):
                for i, mat in enumerate(stack):
                    try:
                        expected.append(reference_invert(mat))
                    except SingularMatrixError as exc:
                        first, message = i, str(exc)
                        break
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                if first is None:
                    got = invert(stack)
                else:
                    failed_at.add(first)
                    with pytest.raises(SingularMatrixError) as info:
                        invert(stack)
                    assert (info.value.index, str(info.value)) == (first, message)
                    got = invert(stack[:first])
                for part in (stack, stack[:first]):
                    _assert_narrowed_is_a_slice(part, _narrowed(k, cols))
            assert got.tobytes() == np.array(expected).reshape(got.shape).tobytes()
        assert min(failed_at) == 0 and max(failed_at) > 0

    @pytest.mark.parametrize("cols", ["one", "half", "all"])
    @pytest.mark.parametrize("k, per_block", [(1, 7), (3, 7), (8, 1), (16, None)])
    def test_a_stack_of_several_blocks_inverts_like_its_matrices(self, monkeypatch, k, per_block, cols):
        # per_block=None keeps the shipped block budget: 256 matrices of 16x16 per block.
        if per_block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * k * k * per_block)
        per_block = linalg._BLOCK_BYTES // (16 * k * k) or 1
        count = 3 * per_block + per_block // 2 + 1
        rng = np.random.default_rng(70 + k)
        stack = _invertible(rng.standard_normal((count + 10, k, k)))[:count]
        assert len(stack) == count
        got = invert(stack)
        assert got.tobytes() == np.array([reference_invert(mat) for mat in stack]).tobytes()
        narrowed = _narrowed(k, cols)
        assert count > linalg._BLOCK_BYTES // (8 * (k + narrowed) * k)  # its elimination takes several blocks too
        _assert_narrowed_is_a_slice(stack, narrowed)
        late = count - per_block // 3 - 1  # in the last, partial block
        stack[late, -1] = stack[late, 0] if k > 1 else 0.0  # fails in the last column
        stack[late + 1 :] = 0.0  # fails at once, but later in the stack
        with pytest.raises(SingularMatrixError) as reference:
            reference_invert(stack[late])
        with pytest.raises(SingularMatrixError) as info:
            invert(stack)
        assert (info.value.index, str(info.value)) == (late, str(reference.value))
        _assert_narrowed_is_a_slice(stack, narrowed)

    def test_empty_stack(self):
        assert invert(np.empty((0, 3, 3))).shape == (0, 3, 3)

    def test_not_square_stack(self):
        with pytest.raises(ShapeError):
            invert(np.ones((4, 2, 3)))


class TestFrobenius:
    def test_stack_norms_equal_matrix_norms(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((6, 5, 5))
        norms = frobenius(stack)
        assert norms.shape == (6,)
        assert norms.tolist() == [frobenius(mat) for mat in stack]

    def test_matrix_norm_is_a_float(self):
        assert frobenius([[3.0, 0.0], [0.0, 4.0]]) == 5.0

    def test_in_range_norms_are_the_plain_sum_of_squares(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((200, 4, 7)) * 10.0 ** rng.uniform(-100, 100, (200, 1, 1))
        assert frobenius(stack).tobytes() == np.sqrt(np.sum(stack * stack, axis=(-2, -1))).tobytes()
        assert frobenius(stack[3].T) == float(np.sqrt(np.sum(stack[3] * stack[3])))

    @pytest.mark.parametrize("k", [-1000, -600, 600, 900])
    def test_power_of_two_scale_passes_through_exactly(self, k):
        # The squares of these stacks underflow or overflow; the norms fit.
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((50, 3, 3))
        stack[7] = 0.0
        assert frobenius(np.ldexp(stack, k)).tobytes() == np.ldexp(frobenius(stack), k).tobytes()
        assert frobenius(np.ldexp(stack[0], k)) == np.ldexp(frobenius(stack[0]), k)

    def test_norm_past_the_float_range_is_inf(self):
        assert frobenius([[0.0, 1e308], [-1e308, 0.0]]) == math.sqrt(2.0) * 1e308
        assert frobenius([[0.0, 1.7e308], [-1.7e308, 0.0]]) == math.inf
        assert math.isnan(frobenius([[math.nan, 1e300]]))


class TestRank:
    def test_zero(self):
        assert rank(np.zeros((3, 4))) == 0

    def test_identity(self):
        for m in (1, 3, 6):
            assert rank(np.eye(m)) == m

    def test_projector_rank_equals_trace(self):
        # rank of an exact projector equals its trace
        t = 0.3
        chart = np.array([[math.cos(t), math.sin(t)]])
        proj = right_pseudoinverse(chart) @ chart
        assert rank(proj) == round(np.trace(proj)) == 1

    def test_rectangular(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        assert rank(a) == 1

    def test_tolerance_knob(self):
        a = np.diag([1.0, 1e-6])
        assert rank(a, tol=1e-9) == 2
        assert rank(a, tol=1e-3) == 1
        with pytest.raises(ValueError):  # under a NaN limit every pivot, even a zero one, would count
            rank([[1.0, 0.0], [0.0, 0.0]], tol=math.nan)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            rank(np.eye(2), tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_requires_positive_finite_tol(self, tol):
        # An infinite limit counted no pivot (rank(eye(2)) was 0) and, like a NaN one, gave the zero
        # matrix an all-NaN "inverse"; a zero or negative one accepted the 1e-300 pivot.
        with pytest.raises(ValueError, match="^rank: tolerance must be positive and finite"):
            rank(np.eye(2), tol=tol)
        for mat in (np.zeros((2, 2)), np.diag([1.0, 1e-300]), np.eye(3)[None]):
            with pytest.raises(ValueError, match="^invert: tolerance must be positive and finite"):
                invert(mat, tol=tol)


class TestRightPseudoinverse:
    def test_unit_row(self):
        np.testing.assert_array_equal(right_pseudoinverse(np.array([[1.0, 0.0]])), [[1.0], [0.0]])

    def test_rotating_unit_row_is_transpose(self):
        for t in np.linspace(-3.0, 3.0, 13):
            chart = np.array([[math.cos(t), math.sin(t)]])
            pinv = right_pseudoinverse(chart)
            np.testing.assert_allclose(pinv, chart.T, atol=1e-14)
            np.testing.assert_allclose(chart @ pinv, [[1.0]], atol=1e-14)

    def test_scaling(self):
        np.testing.assert_allclose(
            right_pseudoinverse(np.array([[2.0, 0.0, 0.0]])), [[0.5], [0.0], [0.0]]
        )

    def test_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            right_pseudoinverse(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_right_inverse_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m))
            mat = rng.standard_normal((n, m))
            pinv = right_pseudoinverse(mat)
            assert frobenius(mat @ pinv - np.eye(n)) <= 1e-11
            assert rank(pinv) == n


class TestRightPseudoinverseScale:
    @pytest.mark.parametrize("k", [-1000, -540, -7, 3, 540, 1000])
    def test_power_of_two_chart_scale_passes_through_exactly(self, k):
        # From |k| = 540 on, the unscaled Gram matrices C C^T would underflow or overflow.
        rng = np.random.default_rng(13)
        mat, dmat = rng.standard_normal((2, 3, 5))
        pinv, dpinv = right_pseudoinverse(mat), right_pseudoinverse_derivative(mat, dmat)
        big, dbig = np.ldexp(mat, k), np.ldexp(dmat, k)
        assert right_pseudoinverse(big).tobytes() == np.ldexp(pinv, -k).tobytes()
        assert right_pseudoinverse_derivative(big, dbig).tobytes() == np.ldexp(dpinv, -k).tobytes()


class TestRightPseudoinverseDerivative:
    def test_constant_chart(self):
        mat = np.array([[1.0, 2.0, 0.0]])
        np.testing.assert_array_equal(
            right_pseudoinverse_derivative(mat, np.zeros_like(mat)), np.zeros((3, 1))
        )

    def test_rotating_row_hand_value(self):
        # pinv of [cos t, sin t] is its transpose; derivative at 0 is (0, 1)^T
        mat = np.array([[1.0, 0.0]])
        dmat = np.array([[0.0, 1.0]])
        dpinv = right_pseudoinverse_derivative(mat, dmat)
        np.testing.assert_allclose(dpinv, [[0.0], [1.0]], atol=1e-15)

        def pinv_at(t):
            return right_pseudoinverse(np.array([[math.cos(t), math.sin(t)]]))

        fd = fd_matrix_derivative(pinv_at, 0.0, h=1e-6)
        np.testing.assert_allclose(dpinv, fd, atol=1e-9)

    def test_polynomial_chart_against_fd(self):
        rng = np.random.default_rng(17)
        coeff0 = rng.standard_normal((2, 4))
        coeff1 = 0.3 * rng.standard_normal((2, 4))
        coeff2 = 0.1 * rng.standard_normal((2, 4))

        def chart_at(t):
            return coeff0 + coeff1 * t + coeff2 * t * t

        def dchart_at(t):
            return coeff1 + 2.0 * coeff2 * t

        for t in rng.uniform(-2.0, 2.0, size=20):
            sym = right_pseudoinverse_derivative(chart_at(t), dchart_at(t))
            fd = fd_matrix_derivative(lambda x: right_pseudoinverse(chart_at(x)), t, h=1e-6)
            np.testing.assert_allclose(sym, fd, atol=1e-7)
