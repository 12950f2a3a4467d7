import math

import numpy as np
import pytest

from invman.errors import RankDeficiencyError, ShapeError, SingularMatrixError
from invman.linalg import (
    frobenius,
    invert,
    matmul,
    rank,
    right_pseudoinverse,
    right_pseudoinverse_derivative,
    stacked_pseudoinverse,
)

from helpers import (
    fd_matrix_derivative,
    random_well_conditioned_stack,
    reference_invert,
    triple_loop_matmul,
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


def _hadamard(k: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_column_swap(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(matmul(a, swap), [[2.0, 1.0], [4.0, 3.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        np.testing.assert_allclose(matmul(a, b), triple_loop_matmul(a, b), atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.eye(2), np.eye(3))


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

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_equals_reference_slice_by_slice(self, k):
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

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            rank(np.eye(2), tol=0.0)


class TestStackedPseudoinverse:
    def test_identity_stack(self):
        pair = stacked_pseudoinverse(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(pair.top_pinv, [[1.0], [0.0]])
        np.testing.assert_array_equal(pair.bottom_pinv, [[0.0], [1.0]])

    def test_orthonormal_rows_give_transpose(self):
        t = 0.5
        top = np.array([[math.cos(t), math.sin(t)]])
        bottom = np.array([[-math.sin(t), math.cos(t)]])
        pair = stacked_pseudoinverse(top, bottom)
        np.testing.assert_allclose(pair.top_pinv, top.T, atol=1e-13)
        np.testing.assert_allclose(pair.bottom_pinv, bottom.T, atol=1e-13)
        stacked = np.vstack([top, bottom])
        inv = np.hstack([pair.top_pinv, pair.bottom_pinv])
        assert frobenius(stacked @ inv - np.eye(2)) <= 1e-13

    def test_shear_stack_hand_inverse(self):
        # [[1,1],[0,1]] inverts to [[1,-1],[0,1]] by hand
        top = np.array([[1.0, 1.0]])
        bottom = np.array([[0.0, 1.0]])
        pair = stacked_pseudoinverse(top, bottom)
        np.testing.assert_allclose(pair.top_pinv, [[1.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(pair.bottom_pinv, [[-1.0], [1.0]], atol=1e-15)
        # all four block identities
        np.testing.assert_allclose(top @ pair.top_pinv, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(bottom @ pair.bottom_pinv, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(top @ pair.bottom_pinv, [[0.0]], atol=1e-15)
        np.testing.assert_allclose(bottom @ pair.top_pinv, [[0.0]], atol=1e-15)

    def test_singular_stack_names_condition(self):
        with pytest.raises(SingularMatrixError, match="determinant"):
            stacked_pseudoinverse(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]))

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            stacked_pseudoinverse(np.ones((1, 3)), np.ones((1, 3)))
        with pytest.raises(ShapeError):
            stacked_pseudoinverse(np.ones((1, 2)), np.ones((1, 3)))

    def test_pair_identity_residual_property(self):
        # stacked inverse identity within 1e-11 * m on well-conditioned stacks
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m))
            top, bottom = random_well_conditioned_stack(rng, m, n)
            stacked = np.vstack([top, bottom])
            if np.linalg.cond(stacked) > 1e6:
                continue
            pair = stacked_pseudoinverse(top, bottom)
            inv = np.hstack([pair.top_pinv, pair.bottom_pinv])
            assert frobenius(stacked @ inv - np.eye(m)) <= 1e-11 * m


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

    def test_matches_stacked_for_orthogonal_complement(self):
        # when the bottom block spans the orthogonal complement of the top's
        # rows, both pseudoinverse routes give the same right inverse
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m))
            top = rng.standard_normal((n, m))
            # SVD-based orthogonal complement oracle
            _, _, vt = np.linalg.svd(top)
            bottom = vt[n:]
            pair = stacked_pseudoinverse(top, bottom)
            np.testing.assert_allclose(pair.top_pinv, right_pseudoinverse(top), atol=1e-10)


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
