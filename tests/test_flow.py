import math

import numpy as np
import pytest

from invman.errors import IntegrationOverflowError, PreconditionError
from invman.flow import (
    SIDE_COMPLEMENT,
    SIDE_MAIN,
    conjugacy_check,
    integrate_fundamental,
    integrate_states,
    manifold_drift,
    run_flow,
)
from invman.invariance import SystemSpec
from invman.matexpr import MatrixFunction
from invman.scenario import Structure, random_scenario, to_system


def _spec(coeff, chart, comp=None, grid=None):
    return SystemSpec(
        coeff=MatrixFunction.build(coeff),
        chart=MatrixFunction.build(chart),
        comp_chart=MatrixFunction.build(comp) if comp is not None else None,
        t_grid=np.linspace(0.0, 5.0, 11) if grid is None else grid,
    )


NILPOTENT = _spec([["0", "1"], ["0", "0"]], [["1", "0"]], [["0", "1"]])
DIAG = _spec([["-1", "0"], ["0", "2"]], [["1", "0"]], [["0", "1"]])


class TestIntegrateFundamental:
    def test_zero_system_stays_identity(self):
        sol = integrate_fundamental(MatrixFunction.zeros(2, 2), 0.0, 3.0, 1e-2)
        for mat in sol.matrices[:: 50]:
            np.testing.assert_array_equal(mat, np.eye(2))

    def test_scalar_exponential(self):
        sol = integrate_fundamental(MatrixFunction.build([["-1"]]), 0.0, 1.0, 1e-3)
        assert abs(sol.final[0, 0] - math.exp(-1.0)) <= 1e-10

    def test_rotation_half_turn(self):
        coeff = MatrixFunction.build([["0", "1"], ["-1", "0"]])
        sol = integrate_fundamental(coeff, 0.0, math.pi, 1e-3)
        np.testing.assert_allclose(sol.final, -np.eye(2), atol=1e-8)

    def test_backward_window(self):
        # y' = -y integrated to t = -1 gives e^{+1}
        sol = integrate_fundamental(MatrixFunction.build([["-1"]]), 0.0, -1.0, 1e-3)
        assert abs(sol.final[0, 0] - math.e) <= 1e-9
        assert sol.ts[-1] == pytest.approx(-1.0)

    def test_zero_length_window(self):
        sol = integrate_fundamental(MatrixFunction.build([["-1"]]), 0.5, 0.5, 1e-3)
        assert sol.ts.tolist() == [0.5]
        np.testing.assert_array_equal(sol.final, np.eye(1))

    def test_initial_sample_is_identity(self):
        coeff = MatrixFunction.build([["t", "1"], ["0", "-t"]])
        sol = integrate_fundamental(coeff, 0.0, 1.0, 1e-2)
        np.testing.assert_array_equal(sol.matrices[0], np.eye(2))
        assert sol.ts[0] == 0.0 and sol.ts[-1] == pytest.approx(1.0)

    def test_cocycle_composition(self):
        coeff = MatrixFunction.build([["0", "t"], ["-t", "0.1"]])
        direct = integrate_fundamental(coeff, 0.0, 2.0, 1e-3).final
        first = integrate_fundamental(coeff, 0.0, 0.8, 1e-3).final
        second = integrate_fundamental(coeff, 0.8, 2.0, 1e-3).final
        np.testing.assert_allclose(second @ first, direct, atol=1e-11)

    @pytest.mark.parametrize(
        "coeff, t1, closed_form",
        [
            ([["-1"]], 1.0, np.array([[math.exp(-1.0)]])),
            (
                [["0", "1"], ["-1", "0"]],
                3.2,
                np.array(
                    [[math.cos(3.2), math.sin(3.2)], [-math.sin(3.2), math.cos(3.2)]]
                ),
            ),
        ],
    )
    def test_fourth_order_convergence(self, coeff, t1, closed_form):
        mf = MatrixFunction.build(coeff)
        err = []
        for h in (0.02, 0.01):
            final = integrate_fundamental(mf, 0.0, t1, h).final
            err.append(float(np.max(np.abs(final - closed_form))))
        ratio = err[0] / err[1]
        assert 8.0 <= ratio <= 32.0

    def test_overflow_names_step(self):
        with pytest.raises(IntegrationOverflowError, match="step"):
            integrate_fundamental(MatrixFunction.build([["200"]]), 0.0, 5.0, 1e-3)

    def test_integrate_states_vector_batch(self):
        coeff = MatrixFunction.build([["-1", "0"], ["0", "-2"]])
        y0 = np.array([[1.0, 0.0], [0.0, 3.0]])
        sol = integrate_states(coeff, y0, 0.0, 1.0, 1e-3)
        np.testing.assert_allclose(
            sol.final, [[math.exp(-1.0), 0.0], [0.0, 3.0 * math.exp(-2.0)]], atol=1e-9
        )


class TestManifoldDrift:
    def test_block_diagonal_confined_both_sides(self):
        spec = to_system(random_scenario(Structure.BLOCK_DIAGONAL, m=3, n=2, seed=7))
        for side in (SIDE_MAIN, SIDE_COMPLEMENT):
            drift = manifold_drift(spec, side, h=1e-3, trials=5, seed=1, t_span=(0.0, 5.0))
            assert drift.max_residual <= 1e-8, side

    def test_upper_triangular_one_sided(self):
        spec = to_system(random_scenario(Structure.UPPER_TRIANGULAR, m=3, n=2, seed=7))
        on = manifold_drift(spec, SIDE_MAIN, h=1e-3, trials=5, seed=1, t_span=(0.0, 5.0))
        off = manifold_drift(spec, SIDE_COMPLEMENT, h=1e-3, trials=5, seed=1, t_span=(0.0, 5.0))
        assert on.max_residual <= 1e-8
        assert off.max_residual > 1e-2

    def test_hand_solvable_flow_is_exactly_confined(self):
        # launched states (c, 0) are stationary for the constant shear system,
        # so every RK4 increment is exactly zero
        drift = manifold_drift(NILPOTENT, SIDE_MAIN, h=1e-3, trials=3, seed=5, t_span=(0.0, 2.0))
        assert drift.max_residual == 0.0

    def test_joint_invariant_drift_shrinks_with_step(self):
        # confinement is exact in the continuum, so the measured drift is pure
        # integrator error and drops ~16x per halving of h
        spec = to_system(random_scenario(Structure.BLOCK_DIAGONAL, m=3, n=2, seed=0))
        for side in (SIDE_MAIN, SIDE_COMPLEMENT):
            drifts = [
                manifold_drift(spec, side, h=h, trials=3, seed=1, t_span=(0.0, 2.0)).max_residual
                for h in (8e-3, 4e-3, 2e-3)
            ]
            assert drifts[0] / drifts[1] >= 8.0
            assert drifts[1] / drifts[2] >= 8.0

    def test_deterministic_in_seed(self):
        spec = to_system(random_scenario(Structure.FULL, m=3, n=2, seed=4))
        a = manifold_drift(spec, SIDE_MAIN, h=1e-2, trials=3, seed=9, t_span=(0.0, 1.0))
        b = manifold_drift(spec, SIDE_MAIN, h=1e-2, trials=3, seed=9, t_span=(0.0, 1.0))
        np.testing.assert_array_equal(a.residuals, b.residuals)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            manifold_drift(DIAG, "sideways")


class TestConjugacy:
    def test_block_diagonal_scenario(self):
        spec = to_system(random_scenario(Structure.BLOCK_DIAGONAL, m=3, n=2, seed=5))
        conj = conjugacy_check(spec, h=1e-3, t_span=(0.0, 2.0))
        assert conj.max_embedding_residual <= 1e-7
        assert conj.max_chart_residual <= 1e-7

    def test_diagonal_closed_form(self):
        # Y = diag(e^{-t}, e^{2t}), X = [e^{-t}]
        conj = conjugacy_check(DIAG, h=1e-3, t_span=(0.0, 2.0))
        assert conj.max_embedding_residual <= 1e-9
        assert conj.max_chart_residual <= 1e-9
        np.testing.assert_allclose(
            conj.fundamental[-1],
            np.diag([math.exp(-2.0), math.exp(4.0)]),
            rtol=1e-9,
        )
        np.testing.assert_allclose(conj.reduced[-1], [[math.exp(-2.0)]], rtol=1e-9)

    def test_zero_length_window_is_exact(self):
        conj = conjugacy_check(DIAG, h=1e-3, t_span=(0.0, 0.0))
        assert conj.embedding_residuals.tolist() == [0.0]
        assert conj.chart_residuals.tolist() == [0.0]

    def test_residual_at_start_is_zero(self):
        spec = to_system(random_scenario(Structure.UPPER_TRIANGULAR, m=3, n=2, seed=13))
        conj = conjugacy_check(spec, h=1e-2, t_span=(0.0, 1.0))
        assert conj.embedding_residuals[0] == 0.0

    def test_precondition_refused_off_manifold(self):
        # transposed shear feeds the invariant axis into the complement
        spec = _spec([["0", "0"], ["1", "0"]], [["1", "0"]], [["0", "1"]])
        with pytest.raises(PreconditionError) as err:
            conjugacy_check(spec, h=1e-2, t_span=(0.0, 1.0))
        assert err.value.residual > 0.1


class TestRunFlow:
    def test_aggregates_and_serializes(self):
        spec = to_system(
            random_scenario(Structure.BLOCK_DIAGONAL, m=3, n=2, seed=2)
        )
        result = run_flow(spec, h=1e-2, trials=3, seed=11, t_span=(0.0, 1.0))
        assert result.main_invariant
        assert result.conjugacy_residuals is not None
        payload = result.to_dict()
        assert payload["max"]["drift_mn"] <= 1e-8
        rows = list(result.csv_rows())
        assert len(rows) == result.ts.size
        assert len(rows[0]) == 4

    def test_no_conjugacy_when_not_invariant(self):
        spec = to_system(random_scenario(Structure.LOWER_TRIANGULAR, m=3, n=2, seed=2))
        result = run_flow(spec, h=1e-2, trials=3, seed=11, t_span=(0.0, 1.0))
        assert not result.main_invariant
        assert result.conjugacy_residuals is None
        assert result.to_dict()["conjugacy_residual"] is None
        assert list(result.csv_rows())[0][3] == "nan"

    @pytest.mark.parametrize("structure, m, trials", [
        (Structure.UPPER_TRIANGULAR, 16, 2),
        (Structure.LOWER_TRIANGULAR, 8, 1),
    ])
    def test_one_march_equals_the_separate_checks(self, structure, m, trials):
        # run_flow advances both launches and the fundamental matrix in one
        # march; each curve must still be exactly the one its own check gives.
        # A BLAS product rounds by the width of its operand, and these widths
        # make a single product over all the columns round differently.
        spec = to_system(random_scenario(structure, m=m, n=m // 2, seed=3))
        kwargs = dict(h=1e-3, t_span=(0.0, 0.25))
        result = run_flow(spec, trials=trials, seed=7, **kwargs)
        for side, curve in ((SIDE_MAIN, result.drift_mn), (SIDE_COMPLEMENT, result.drift_complement)):
            drift = manifold_drift(spec, side, trials=trials, seed=7, **kwargs)
            np.testing.assert_array_equal(curve, drift.residuals)
            np.testing.assert_array_equal(result.ts, drift.ts)
        if structure is Structure.UPPER_TRIANGULAR:
            assert result.main_invariant
            conj = conjugacy_check(spec, **kwargs)
            np.testing.assert_array_equal(result.conjugacy_residuals, conj.embedding_residuals)
        else:
            assert result.conjugacy_residuals is None
            with pytest.raises(PreconditionError):
                conjugacy_check(spec, **kwargs)
