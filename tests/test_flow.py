import dataclasses
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invman import flow
from invman.cli import load_config, main
from invman.errors import (
    EvaluationError,
    IntegrationOverflowError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
)
from invman.flow import (
    SIDE_COMPLEMENT,
    SIDE_MAIN,
    _STEP_BYTES,
    _drift,
    _fundamental,
    _half_grid,
    _march_size,
    conjugacy_check,
    integrate_fundamental,
    integrate_states,
    manifold_drift,
    run_flow,
)
from invman.invariance import MAX_SAMPLED_ENTRIES, SystemSpec, _march_frames, frame_samples
from invman.matexpr import MatrixFunction
from invman.scenario import Structure, random_scenario, to_system

from helpers import reference_rk4


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

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2)])
    def test_a_system_matrix_that_is_not_square_is_refused(self, shape):
        with pytest.raises(ShapeError, match=rf"^system matrix must be square, got \({shape[0]}, 2\)$"):
            integrate_states(MatrixFunction.zeros(*shape), np.ones(shape[0]), 0.0, 1.0, 1e-2)

    @pytest.mark.parametrize("y0", [5.0, np.ones((2, 2, 2)), np.ones(3), np.ones((1, 2))])
    def test_initial_state_that_is_not_a_vector_or_matrix_of_m_rows_is_refused(self, y0):
        coeff = MatrixFunction.build([["-1", "0"], ["0", "-2"]])
        message = f"initial state has shape {np.shape(y0)}, system is 2-dimensional"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            integrate_states(coeff, y0, 0.0, 1.0, 1e-2)

    @pytest.mark.parametrize("h, t_span", [
        (math.nan, (0.0, 1.0)),
        (math.inf, (0.0, 1.0)),
        (0.0, (0.0, 1.0)),
        (-1e-3, (0.0, 1.0)),
        (1e-3, (0.0, math.inf)),
        (1e-3, (math.nan, 1.0)),
        (1e-3, (-1e308, 1e308)),
        (5e-324, (0.0, 1.0)),
        (np.float64(5e-324), (0.0, 1.0)),
    ])
    def test_step_outside_zero_to_inf_or_window_that_is_not_finite_is_refused(self, h, t_span):
        t0, t1 = t_span
        message = f"step must be in (0, inf) over a finite window, got h={float(h)!r}, window=({t0!r}, {t1!r})"
        runs = [
            lambda: integrate_fundamental(DIAG.coeff, *t_span, h),
            lambda: integrate_states(DIAG.coeff, np.ones(2), *t_span, h),
            lambda: manifold_drift(DIAG, SIDE_MAIN, h=h, t_span=t_span),
            lambda: conjugacy_check(DIAG, h=h, t_span=t_span),
            lambda: run_flow(DIAG, h=h, t_span=t_span),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run()


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

    @pytest.mark.parametrize("trials, seed", [(0, 1), (-3, 1), (2, -1)])
    def test_launch_arguments_are_refused_before_sampling(self, trials, seed):
        # A has a pole at the half step t = 0.0005 and the chart one at t = 0: sampling either fails first.
        spec = _spec([["1/(t - 0.0005)", "0"], ["0", "0"]], [["1/t", "0"]], [["0", "1"]])
        runs = [lambda: run_flow(spec, trials=trials, seed=seed, t_span=(0.0, 0.25))]
        runs += [lambda side=side: manifold_drift(spec, side, trials=trials, seed=seed, t_span=(0.0, 0.25))
                 for side in (SIDE_MAIN, SIDE_COMPLEMENT)]
        for run in runs:
            with pytest.raises(ValueError, match=rf"^trials must be >= 1 and seed >= 0, got trials={trials}, seed={seed}$"):
                run()


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_is_refused(self, tol):
        # An infinite tolerance would pass the precondition and run the check off a non-invariant subspace.
        spec = _spec([["0", "0"], ["1", "0"]], [["1", "0"]], [["0", "1"]])
        for check in (conjugacy_check, run_flow):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                check(spec, h=1e-2, t_span=(0.0, 1.0), tol=tol)


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
        # run_flow marches the fundamental matrix Y once and takes both
        # launches as Y c and the conjugacy check from the same Y; each curve
        # must be exactly the one its own check gives, which marches the same
        # Y from the same samples and launches the same c from it.
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


class TestDriftPastTheSquareRange:
    # A = 200 E scales every trajectory by one scalar, about e^400 = 5e173 at t = 2, whose squares
    # leave the float range: the relative drift is that of A = 0 all the same.
    ROTATING = ([["cos(t)", "sin(t)"]], [["-sin(t)", "cos(t)"]])

    def test_drift_equals_the_unscaled_flows(self):
        big, still = (_spec(a, *self.ROTATING, grid=np.linspace(0.0, 2.0, 21))
                      for a in ([["200", "0"], ["0", "200"]], [["0", "0"], ["0", "0"]]))
        got, want = (run_flow(spec, h=1e-3, t_span=(0.0, 2.0)) for spec in (big, still))
        assert not got.main_invariant
        for name in ("drift_mn", "drift_complement"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0)
        for side in (SIDE_MAIN, SIDE_COMPLEMENT):
            np.testing.assert_allclose(manifold_drift(big, side, t_span=(0.0, 2.0)).residuals,
                                       manifold_drift(still, side, t_span=(0.0, 2.0)).residuals, rtol=1e-12, atol=0.0)

    def test_a_drift_that_is_not_finite_names_its_time(self):
        ts = np.array([0.0, 0.5, 1.0])
        proj = np.broadcast_to(np.array([[1e300, 0.0], [0.0, 0.0]]), (3, 2, 2))
        traj = np.array([[[1.0], [0.0]], [[1e300], [0.0]], [[1.0], [0.0]]])
        with pytest.raises(EvaluationError, match=r"^residual 'drift_complement' is not finite at t=0.5$") as info:
            _drift(ts, proj, traj, SIDE_COMPLEMENT)
        assert info.value.index == 1


class TestMarchBudget:
    @pytest.mark.parametrize("h", [1e-300, 1e-9])
    @pytest.mark.parametrize("march", [
        lambda h: integrate_fundamental(NILPOTENT.coeff, 0.0, 1.0, h),
        lambda h: integrate_states(NILPOTENT.coeff, [1.0, 0.0], 0.0, 1.0, h),
        lambda h: manifold_drift(NILPOTENT, SIDE_MAIN, h=h, t_span=(0.0, 1.0)),
        lambda h: conjugacy_check(NILPOTENT, h=h, t_span=(0.0, 1.0)),
        lambda h: run_flow(NILPOTENT, h=h, t_span=(0.0, 1.0)),
    ], ids=["integrate_fundamental", "integrate_states", "manifold_drift", "conjugacy_check", "run_flow"])
    def test_every_march_refuses_past_the_bound_before_allocating(self, march, h):
        message = rf"^step {h!r} over window \(0\.0, 1\.0\) takes 2e\+\d+ half steps x \d+ entries, " \
                  rf"more than MAX_SAMPLED_ENTRIES = {MAX_SAMPLED_ENTRIES}$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                march(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("march, entries", [
        (lambda h: run_flow(NILPOTENT, h=h, trials=5, t_span=(0.0, 1.0)), 10),
        (lambda h: manifold_drift(NILPOTENT, SIDE_MAIN, h=h, trials=1, t_span=(0.0, 1.0)), 4),
        (lambda h: integrate_states(MatrixFunction.zeros(3, 3), np.zeros((3, 4)), 0.0, 1.0, h), 12),
        (lambda h: integrate_states(MatrixFunction.zeros(3, 3), np.zeros(3), 0.0, 1.0, h), 9),
    ], ids=["trials_past_m", "trials_under_m", "y0_columns_past_m", "y0_vector"])
    def test_a_half_step_holds_m_by_max_m_columns_entries(self, march, entries):
        with pytest.raises(ValueError, match=rf"takes 2e\+09 half steps x {entries} entries,"):
            march(1e-9)

    def test_the_bound_is_exact(self):
        # 2n + 1 = 16 777 215 half steps of 4 entries is 4 short of 2^26; one more step is past it
        assert _march_size((0.0, 8388607.0), 1.0, 2, 2) == (0.0, 1.0, 8388607)
        with pytest.raises(ValueError, match="takes 1.678e\\+07 half steps x 4 entries"):
            _march_size((0.0, 8388608.0), 1.0, 2, 2)


def _step_grid_systems():
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    shipped = [load_config(str(path))[0] for path in configs]
    generated = [to_system(random_scenario(s, m=m, n=m // 2, seed=5)) for s in Structure for m in (3, 8, 16)]
    systems = shipped + generated
    return systems + [dataclasses.replace(spec, comp_chart=None) for spec in systems]


class TestStepGridFrames:
    def test_step_grid_frames_are_every_other_half_step_frame(self):
        # run_flow samples the step grid alone off an invariant subspace: its drift must not move.
        for spec in _step_grid_systems():
            _, _, half_ts = _half_grid((0.0, 0.25), 1e-3, spec.m, spec.m)
            want = frame_samples(spec, half_ts)
            for ts in (half_ts[::2], np.ascontiguousarray(half_ts[::2])):
                got = frame_samples(spec, ts)
                for name in ("ts", "chart", "dchart", "embedding", "dembedding"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name)[::2])

    def test_a_singular_frame_at_an_odd_half_step_spares_a_non_invariant_flow(self):
        # The frame [C; C_comp] is singular at t=0.05, a half step no drift sample sits on.
        spec = _spec([["0", "1"], ["0", "0"]], [["0", "1"]], [["t - 0.05", "0"]], grid=np.linspace(0.0, 2.0, 21))
        with pytest.raises(SingularMatrixError, match="at t=0.05"):
            frame_samples(spec, [0.05])
        result = run_flow(spec, h=0.1, trials=2, t_span=(0.0, 1.0))
        assert not result.main_invariant and result.conjugacy_residuals is None
        assert np.isfinite(result.drift_mn).all() and np.isfinite(result.drift_complement).all()


class TestMarchFrames:
    """The march samples the chart, dC/dt for the conjugacy check alone, and C+ alone."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1))
    @pytest.mark.parametrize("route", ["stacked", "moore_penrose"])
    @pytest.mark.parametrize("m", [3, 8])
    @pytest.mark.parametrize("structure", list(Structure))
    def test_the_march_embedding_is_the_frame_samples_embedding_bit_for_bit(self, structure, m, route, seed):
        spec = to_system(random_scenario(structure, m=m, n=m // 2, seed=seed))
        if route == "moore_penrose":
            spec = dataclasses.replace(spec, comp_chart=None)
        marched = []

        def recording(spec, ts, derivative):
            result = _march_frames(spec, ts, derivative)
            marched.append((ts, derivative, result))
            return result

        kwargs = dict(h=1e-2, t_span=(0.0, 0.3))
        with mock.patch.object(flow, "_march_frames", recording):
            manifold_drift(spec, SIDE_MAIN, **kwargs)      # frames on the step grid
            flow._march(spec, conjugacy=True, **kwargs)   # frames on the half steps, for R
        _, _, half_ts = _half_grid(kwargs["t_span"], kwargs["h"], m, m)
        assert [(ts.tolist(), derivative) for ts, derivative, _ in marched] == [
            (half_ts[::2].tolist(), False), (half_ts.tolist(), True)]
        for ts, derivative, result in marched:
            want = frame_samples(spec, ts)
            assert result.chart.tobytes() == want.chart.tobytes()
            if derivative:
                assert result.dchart.tobytes() == want.dchart.tobytes()
            else:
                assert result.dchart is None
            assert result.embedding.shape == want.embedding.shape
            assert result.embedding.tobytes() == want.embedding.tobytes()
            assert result.dembedding is result.comp_chart is result.comp_embedding is None

    def test_a_derivative_of_c_plus_past_the_float_range_is_refused_on_the_verdict_grid_only(self, tmp_path, capsys):
        # C+ = [1 / (1e-300 + t), 0]^T is finite on the window [0, 0.5], but dC+/dt = -(C+)^2 is not at t = 0.
        # The verdict grid [1, 2] misses t = 0, and the march reads C+ alone, so neither command refuses it.
        config = {"m": 2, "n": 1, "coeff": [["0", "1"], ["0", "0"]], "chart": [["1e-300 + t", "0"]],
                  "grid": {"start": 1.0, "end": 2.0, "count": 2}, "window": [0.0, 0.5]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        spec = load_config(str(path))[0]
        with pytest.raises(EvaluationError, match=r"^right inverse of the chart is not finite at t=0\.0$"):
            frame_samples(spec, [0.0])
        huge = r"\d\.\d{3}e\+28\d"
        assert main(["reduce", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(rf"reduce: conjugacy residuals {huge} / {huge} on \[0, 0\.5\]\n", err)
        assert json.loads(out)["verdicts"]["main_invariant"] is True
        assert main(["flow", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["main_invariant"] is True
        assert 1e280 < report["max"]["conjugacy_residual"] < math.inf
        assert report["max"]["drift_complement"] < 1.0 and report["max"]["drift_mn"] < 1e-15


# The step-matrix march and the stage-by-stage march differ only in rounding:
# 1e-13 relative is about 450 ulps, over windows of 300 steps, which cross
# the boundary between two chunks of step matrices.
_REL = 1e-13


def _rel_err(got, want):
    """Largest per-sample error of ``got``, relative to the norm of ``want`` at that sample."""
    return float(np.max(np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))))


def _reference_drift(proj, traj, side):
    off = (np.eye(proj.shape[-1]) - proj) @ traj if side == SIDE_MAIN else proj @ traj
    return np.max(np.linalg.norm(off, axis=1) / np.linalg.norm(traj, axis=1), axis=1)


class TestStepMatrixMarch:
    @pytest.mark.parametrize("m", [3, 8, 16])
    @pytest.mark.parametrize("t_span", [(0.0, 0.3), (0.3, 0.0), (0.1, 0.1)])
    def test_every_entry_point_matches_the_stage_by_stage_march(self, m, t_span):
        spec = to_system(random_scenario(Structure.UPPER_TRIANGULAR, m=m, n=m // 2, seed=3))
        h, trials, seed = 1e-3, 3, 7
        _, h_eff, half_ts = _half_grid(t_span, h, m, trials)
        coeff = spec.coeff.eval_grid(half_ts)
        frames = frame_samples(spec, half_ts[::2])
        proj, emb = frames.projector, frames.embedding
        fund = reference_rk4(coeff, np.eye(m), h_eff)
        assert _rel_err(integrate_fundamental(spec.coeff, *t_span, h).matrices, fund) <= _REL

        flow = run_flow(spec, h=h, trials=trials, seed=seed, t_span=t_span)
        c = np.random.default_rng(seed).standard_normal((m, trials))
        for side, launch, curve in (
            (SIDE_MAIN, proj[0] @ c, flow.drift_mn),
            (SIDE_COMPLEMENT, (np.eye(m) - proj[0]) @ c, flow.drift_complement),
        ):
            traj = reference_rk4(coeff, launch, h_eff)
            assert _rel_err(integrate_states(spec.coeff, launch, *t_span, h).matrices, traj) <= _REL
            # a drift is already relative to its trajectory's norm
            want = _reference_drift(proj, traj, side)
            drift = manifold_drift(spec, side, h=h, trials=trials, seed=seed, t_span=t_span)
            assert np.max(np.abs(drift.residuals - want)) <= _REL
            assert np.max(np.abs(curve - want)) <= _REL

        conj = conjugacy_check(spec, h=h, t_span=t_span)
        reduced = reference_rk4(frame_samples(spec, half_ts).reduced(coeff), np.eye(m // 2), h_eff)
        assert _rel_err(conj.fundamental, fund) <= _REL
        assert _rel_err(conj.reduced, reduced) <= _REL
        want = np.linalg.norm(fund @ emb[0] - emb @ reduced, axis=(1, 2))
        scale = (np.linalg.norm(fund, axis=(1, 2)) * np.linalg.norm(emb[0])
                 + np.linalg.norm(emb, axis=(1, 2)) * np.linalg.norm(reduced, axis=(1, 2)))
        for got in (conj.embedding_residuals, flow.conjugacy_residuals):
            assert np.all(np.abs(got - want) <= _REL * scale)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("steps", ["none", "one", "chunk - 1", "chunk", "chunk + 1"])
    def test_the_march_is_a_per_step_matmul_of_its_step_matrices_bit_for_bit(self, m, steps):
        # A chunk is as many steps as fill _STEP_BYTES with step matrices; each step is built on its own here.
        chunk = _STEP_BYTES // (8 * m * m)
        n = {"none": 0, "one": 1, "chunk - 1": chunk - 1, "chunk": chunk, "chunk + 1": chunk + 1}[steps]
        rng = np.random.default_rng(m)
        samples, h, c = rng.standard_normal((2 * n + 1, m, m)), 1e-3, rng.standard_normal((m, 3))
        eye = np.eye(m)
        fund, states = np.empty((n + 1, m, m)), np.empty((n + 1, m, 3))
        fund[0] = eye
        for k in range(n):
            a0, ah, a1 = samples[2 * k : 2 * k + 3]
            k2 = np.matmul(ah, eye + 0.5 * h * a0)
            k3 = np.matmul(ah, eye + 0.5 * h * k2)
            k4 = np.matmul(a1, eye + h * k3)
            fund[k + 1] = np.matmul(eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4), fund[k])
        for k in range(n + 1):
            states[k] = np.matmul(fund[k], c)
        got, got_states = _fundamental(samples, 0.0, h, c)
        assert got.shape == fund.shape and got_states.shape == states.shape
        assert got.tobytes() == fund.tobytes() and got_states.tobytes() == states.tobytes()

    def test_overflow_names_the_first_non_finite_step(self):
        coeff = MatrixFunction.build([["200"]])
        t0, h_eff, half_ts = _half_grid((0.0, 5.0), 1e-3, 1, 1)
        samples = coeff.eval_grid(half_ts)
        with pytest.raises(IntegrationOverflowError) as err:
            integrate_fundamental(coeff, 0.0, 5.0, 1e-3)
        first = err.value.step
        assert err.value.t == first * h_eff
        # Y_k = M^k for the RK4 factor M of z = 200 h, which leaves the float range near log(max) / log(M)
        z = 200.0 * h_eff
        assert abs(first - math.log(sys.float_info.max) / math.log(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)) < 1
        # the steps before it march to finite states, and a march through it stops there
        (head,) = _fundamental(samples[: 2 * first - 1], t0, h_eff)
        assert np.isfinite(head).all()
        with pytest.raises(IntegrationOverflowError) as err:
            _fundamental(samples[: 2 * first + 1], t0, h_eff)
        assert err.value.step == first
        # a launch Y_k c can leave the range before Y_k does
        with np.errstate(over="ignore"):
            launch_first = int(np.argmin(np.isfinite(head * 1e10).all(axis=(1, 2))))
        assert 0 < launch_first < first
        for march in (lambda: integrate_states(coeff, [[1e10]], 0.0, 5.0, 1e-3),
                      lambda: _fundamental(samples, t0, h_eff, np.array([[1e10]]))):
            with pytest.raises(IntegrationOverflowError) as err:
                march()
            assert err.value.step == launch_first


# Chunk budgets for the blocked march, as (_STEP_BYTES, _PIECE_BYTES): a chunk of one step with A sampled per
# chunk, the defaults, and the whole window in one chunk and one piece.
_BUDGETS = {"one_step": (1, 1), "default": (_STEP_BYTES, flow._PIECE_BYTES), "whole_window": (2**60, 2**60)}


def _budget(name):
    step_bytes, piece_bytes = _BUDGETS[name]
    return mock.patch.multiple(flow, _STEP_BYTES=step_bytes, _PIECE_BYTES=piece_bytes)


class TestBlockedMarch:
    """The march samples, inverts and steps one chunk at a time: no chunk budget moves a bit or a failure."""

    @pytest.mark.parametrize("route", ["stacked", "moore_penrose"])
    @pytest.mark.parametrize("m", [3, 8, 16])
    @pytest.mark.parametrize("t_span", [(0.0, 0.3), (0.3, 0.0), (0.1, 0.1)], ids=["forward", "backward", "zero"])
    def test_no_chunk_budget_changes_a_bit(self, t_span, m, route):
        spec = to_system(random_scenario(Structure.UPPER_TRIANGULAR, m=m, n=m // 2, seed=3))
        if route == "moore_penrose":
            spec = dataclasses.replace(spec, comp_chart=None)
        y0 = np.random.default_rng(m).standard_normal((m, 2))
        runs = {}
        for name in _BUDGETS:
            with _budget(name):
                ts, curves = flow._march(spec, t_span, 1e-3, (SIDE_MAIN, SIDE_COMPLEMENT), 3, 7, conjugacy=True,
                                         keep=True)
                marched = integrate_states(spec.coeff, y0, *t_span, 1e-3)
                drift = manifold_drift(spec, SIDE_COMPLEMENT, trials=3, seed=7, t_span=t_span)
            runs[name] = {"ts": ts, **curves, "integrate_states": marched.matrices, "manifold_drift": drift.residuals}
        want = runs.pop("whole_window")
        assert sorted(want) == sorted(["ts", "mn", "complement", "drift_mn", "drift_complement", "conjugacy_embedding",
                                       "conjugacy_chart", "Y", "X", "integrate_states", "manifold_drift"])
        assert want["ts"].size == round(abs(t_span[1] - t_span[0]) / 1e-3) + 1
        np.testing.assert_array_equal(want["manifold_drift"], want["drift_complement"])
        for got in runs.values():
            assert sorted(got) == sorted(want)
            for key, array in want.items():
                assert got[key].shape == array.shape and got[key].tobytes() == array.tobytes(), key

    # An m = 16 window of 250 steps: four chunks of 64 steps at the default budget.
    WINDOW, H = (0.0, 0.25), 1e-3

    def _spec_with(self, **bumps):
        """The m = 16 upper triangular system, with a scalar expression added to entry (0, 0) of A, C or C_comp."""
        spec = to_system(random_scenario(Structure.UPPER_TRIANGULAR, m=16, n=8, seed=3))

        def bumped(mf, text):
            entries = [["0"] * mf.cols for _ in range(mf.rows)]
            entries[0][0] = text
            return mf + MatrixFunction.build(entries)

        return dataclasses.replace(spec, **{name: bumped(getattr(spec, name), text) for name, text in bumps.items()})

    def _pole(self, half_step):
        """The expression 1/(t - t_k) at the k-th half-step time t_k of the window, a pole there, and t_k."""
        _, _, half_ts = _half_grid(self.WINDOW, self.H, 16, 16)
        return f"1/(t - {float(half_ts[half_step])!r})", float(half_ts[half_step])

    def _failures(self, spec, error, **kwargs):
        """The error of the march at each budget; they are all the same, and the first is returned."""
        seen = []
        for name in _BUDGETS:
            with _budget(name), pytest.raises(error) as info:
                flow._march(spec, self.WINDOW, self.H, **kwargs)
            value = info.value
            seen.append((type(value), str(value), getattr(value, "index", None), getattr(value, "step", None),
                         getattr(value, "t", None)))
        assert seen == [seen[0]] * len(seen)
        return seen[0]

    @pytest.mark.parametrize("earlier", ["coeff", "comp_chart"])
    @pytest.mark.parametrize("conjugacy", [False, True])
    def test_a_chart_pole_in_a_later_chunk_beats_a_later_stage_in_an_earlier_one(self, conjugacy, earlier):
        # A pole of C_comp or of A at step 10, in the first chunk; of C at step 150, in the third.
        kwargs = dict(sides=() if conjugacy else (SIDE_MAIN,), trials=2, conjugacy=conjugacy)
        (early_text, early_t), (chart_text, t) = self._pole(20), self._pole(300)
        spec = self._spec_with(**{earlier: early_text, "chart": chart_text})
        frame_index = (lambda half_step: half_step if conjugacy else half_step // 2)
        _, message, index, _, _ = self._failures(spec, EvaluationError, **kwargs)
        assert (message, index) == (f"entry (0,0) at t={t!r}: division by zero", frame_index(300))
        # without the chart pole, the earlier chunk's failure is the one
        _, message, index, _, _ = self._failures(self._spec_with(**{earlier: early_text}), EvaluationError, **kwargs)
        want = 20 if earlier == "coeff" else frame_index(20)
        assert (message, index) == (f"entry (0,0) at t={early_t!r}: division by zero", want)

    def test_a_non_finite_a_in_a_later_chunk_beats_a_y_overflow_in_an_earlier_one(self):
        # A = 1e5 E + ... overflows Y within the first chunk; A has a pole at step 200, in the fourth chunk.
        a_text, t = self._pole(400)
        spec = self._spec_with(coeff=f"1e5 + {a_text}")
        _, message, index, _, _ = self._failures(spec, EvaluationError, sides=(SIDE_MAIN,), trials=2)
        assert (message, index) == (f"entry (0,0) at t={t!r}: division by zero", 400)
        _, _, _, step, _ = self._failures(self._spec_with(coeff="1e5"), IntegrationOverflowError, sides=(SIDE_MAIN,),
                                          trials=2)
        assert 0 < step < 64

    @pytest.mark.parametrize("kwargs", [dict(sides=(SIDE_MAIN, SIDE_COMPLEMENT), trials=2), dict(conjugacy=True)],
                             ids=["drift", "conjugacy"])
    def test_an_overflow_names_the_window_step_and_time(self, kwargs):
        # RK4 grows Y by about 8220 per step at A = 2e4: it leaves the float range near step 79, in the second chunk.
        _, message, _, step, t = self._failures(self._spec_with(coeff="2e4"), IntegrationOverflowError, **kwargs)
        t0, h_eff, _ = _half_grid(self.WINDOW, self.H, 16, 16)
        assert 64 < step < 128 and t == t0 + step * h_eff
        assert message == f"integration overflow at step {step} (t={t!r})"


class TestMarchMemory:
    @pytest.mark.parametrize("command", ["reduce", "flow"])
    def test_a_default_window_march_at_m16_holds_one_chunk_at_a_time(self, tmp_path, capsys, command):
        # 5001 steps: held whole, the stacks of C, C+, A, Y, X and the launches come to about 90 MiB.
        config = str(tmp_path / "m16.json")
        assert main(["generate", "--kind", "upper_triangular", "--m", "16", "--n", "8", "--seed", "5",
                     "--out", config]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main([command, "--config", config]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20
