import functools
import json
import math
import re

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invman import linalg
from invman.errors import EvaluationError, RankDeficiencyError, SingularMatrixError
from invman.invariance import (
    SystemSpec,
    frame_samples,
    invariance_defect,
    projector_derivative,
    reduced_matrix,
    verdicts,
)
from invman.linalg import frobenius, rank
from invman.matexpr import MatrixFunction
from invman.scenario import Structure, random_scenario, to_system

from helpers import fd_matrix_derivative


def _spec(coeff, chart, comp=None, grid=None):
    return SystemSpec(
        coeff=MatrixFunction.build(coeff),
        chart=MatrixFunction.build(chart),
        comp_chart=MatrixFunction.build(comp) if comp is not None else None,
        t_grid=np.linspace(0.0, 5.0, 11) if grid is None else grid,
    )


NILPOTENT = _spec([["0", "1"], ["0", "0"]], [["1", "0"]], [["0", "1"]])
DIAG = _spec([["-1", "0"], ["0", "2"]], [["1", "0"]], [["0", "1"]])
ROTATION_SPEC = _spec(
    [["0", "0"], ["0", "0"]],  # coeff irrelevant for dP/dt tests
    [["cos(t)", "sin(t)"]],
    [["-sin(t)", "cos(t)"]],
)


def _projector_at(spec, t):
    fs = frame_samples(spec, [t])
    return fs.projector[0]


class TestProjectorDerivative:
    def test_constant_chart(self):
        np.testing.assert_array_equal(projector_derivative(DIAG, 1.3), np.zeros((2, 2)))

    def test_rotation_hand_value(self):
        # P = [[cos^2, sin cos], [sin cos, sin^2]]; entrywise derivative at 0
        # is [[0, 1], [1, 0]]
        d = projector_derivative(ROTATION_SPEC, 0.0)
        np.testing.assert_allclose(d, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
        fd = fd_matrix_derivative(lambda t: _projector_at(ROTATION_SPEC, t), 0.0, h=1e-6)
        np.testing.assert_allclose(d, fd, atol=1e-9)

    @pytest.mark.parametrize("with_comp", [True, False])
    def test_polynomial_spec_against_fd(self, with_comp):
        chart = [["1", "0.5*t", "0.2*t^2"], ["0.1*t", "1", "0.3*t"]]
        comp = [["0.2", "0.1*t", "1"]] if with_comp else None
        spec = _spec([["0"] * 3] * 3, chart, comp)
        for t in np.linspace(-1.5, 1.5, 20):
            sym = projector_derivative(spec, t)
            fd = fd_matrix_derivative(lambda x: _projector_at(spec, x), t, h=1e-6)
            np.testing.assert_allclose(sym, fd, atol=1e-7)


class TestDefect:
    def test_commuting_diagonal_case(self):
        np.testing.assert_array_equal(invariance_defect(DIAG, 0.7), np.zeros((2, 2)))

    def test_nilpotent_hand_value(self):
        # P = diag(1,0): P A = [[0,1],[0,0]], A P = 0, dP/dt = 0
        np.testing.assert_array_equal(
            invariance_defect(NILPOTENT, 2.0), np.array([[0.0, 1.0], [0.0, 0.0]])
        )

    def test_conjugated_scenario_vanishes_on_grid(self):
        spec = to_system(random_scenario(Structure.BLOCK_DIAGONAL, m=3, n=2, seed=12))
        for t in np.linspace(0.0, 2.0 * math.pi, 25):
            assert frobenius(invariance_defect(spec, t)) <= 1e-10

    def test_scalar_shift_leaves_defect_unchanged(self):
        # adding c*E to the system matrix cancels inside P A - A P
        spec = to_system(random_scenario(Structure.FULL, m=3, n=2, seed=3))
        shifted = SystemSpec(
            coeff=spec.coeff + MatrixFunction.build([["2.5", "0", "0"], ["0", "2.5", "0"], ["0", "0", "2.5"]]),
            chart=spec.chart,
            comp_chart=spec.comp_chart,
            t_grid=spec.t_grid,
        )
        for t in (0.0, 1.1, 4.0):
            base = invariance_defect(spec, t)
            np.testing.assert_allclose(invariance_defect(shifted, t), base, atol=1e-12)

    def test_main_and_complement_defects_cancel(self):
        # the defects of P and E-P sum to the defect of E, which is zero
        spec = to_system(random_scenario(Structure.FULL, m=4, n=2, seed=8))
        swapped = SystemSpec(
            coeff=spec.coeff,
            chart=spec.comp_chart,
            comp_chart=spec.chart,
            t_grid=spec.t_grid,
        )
        for t in (0.2, 2.7):
            total = invariance_defect(spec, t) + invariance_defect(swapped, t)
            assert frobenius(total) <= 1e-12


class TestVerdicts:
    @pytest.mark.parametrize(
        "structure, expected",
        [
            (Structure.BLOCK_DIAGONAL, (True, True, True)),
            (Structure.UPPER_TRIANGULAR, (False, True, False)),
            (Structure.LOWER_TRIANGULAR, (False, False, True)),
            (Structure.FULL, (False, False, False)),
        ],
    )
    def test_scenario_structures(self, structure, expected):
        spec = to_system(random_scenario(structure, m=3, n=2, seed=31))
        report = verdicts(spec, tol=1e-8)
        got = (report.joint_invariant, report.main_invariant, report.complement_kernel_condition)
        assert got == expected

    def test_upper_triangular_identity_frame(self):
        # z' = [[a, 1], [0, b]] z with the trivial frame: first axis invariant
        spec = _spec([["-1", "1"], ["0", "-2"]], [["1", "0"]], [["0", "1"]])
        report = verdicts(spec)
        assert (report.joint_invariant, report.main_invariant, report.complement_kernel_condition) == (
            False,
            True,
            False,
        )

    def test_joint_implies_one_sided(self):
        for structure in Structure:
            spec = to_system(random_scenario(structure, m=3, n=1, seed=77))
            report = verdicts(spec)
            if report.joint_invariant:
                assert report.main_invariant and report.complement_kernel_condition

    def test_one_sided_defects_bounded_by_joint(self):
        spec = to_system(random_scenario(Structure.BLOCK_DIAGONAL, m=4, n=2, seed=15))
        report = verdicts(spec)
        # for P and E-P both idempotent with small norms the one-sided curves
        # stay within a modest multiple of the defect curve; joint case check
        assert report.max_defect_main <= 10.0 * max(report.max_defect, 1e-300)
        assert report.max_defect_complement <= 10.0 * max(report.max_defect, 1e-300)

    def test_embedding_form_agrees_with_main_form(self):
        # |defect @ P| <= tol iff |defect @ C+| <= kappa * tol with
        # kappa = max-grid |C| * |C+|
        for structure in Structure:
            spec = to_system(random_scenario(structure, m=3, n=2, seed=19))
            report = verdicts(spec, tol=1e-8)
            fs = frame_samples(spec, spec.t_grid)
            kappa = max(
                frobenius(fs.chart[i]) * frobenius(fs.embedding[i])
                for i in range(spec.t_grid.size)
            )
            main_says = report.max_defect_main <= report.tolerance
            embed_says = report.max_defect_embedding <= kappa * report.tolerance
            assert main_says == embed_says

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # A NaN tolerance would fail all three verdicts of a full-structure system, an infinite one pass them.
        spec = to_system(random_scenario(Structure.FULL, m=3, n=2, seed=31))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verdicts(spec, tol)

    def test_rank_deficiency_names_the_time(self):
        # chart [t, 0] loses rank exactly at t = 0
        spec = _spec([["0", "0"], ["0", "0"]], [["t", "0"]], grid=np.linspace(-1, 1, 5))
        with pytest.raises(RankDeficiencyError, match=re.escape(f"at t={float(spec.t_grid[2])!r}: ")):
            verdicts(spec)

    def test_report_serializes(self):
        spec = to_system(random_scenario(Structure.UPPER_TRIANGULAR, m=3, n=2, seed=2))
        payload = verdicts(spec).to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert set(back["verdicts"]) == {
            "joint_invariant",
            "main_invariant",
            "complement_kernel_condition",
        }
        assert set(back["residuals"]) == {
            "defect",
            "defect_main",
            "defect_complement",
            "defect_embedding",
        }
        assert len(back["t"]) == spec.t_grid.size


class TestFrameFailures:
    """A failing frame names the earliest bad t of the grid, exactly."""

    GRID = np.linspace(-1.0, 1.0, 5)  # t^2 - 0.25 vanishes at the interior points -0.5 and 0.5

    def test_stacked_route_names_earliest_singular_t(self):
        spec = _spec([["0", "0"], ["0", "0"]], [["1", "0"]], [["1", "t^2 - 0.25"]], grid=self.GRID)
        with pytest.raises(SingularMatrixError) as info:
            frame_samples(spec, self.GRID)
        assert str(info.value).startswith(f"stacked frame is singular at t={float(self.GRID[1])!r}: invert: ")
        assert info.value.index == 1

    def test_moore_penrose_route_names_earliest_rank_loss(self):
        spec = _spec([["0", "0"], ["0", "0"]], [["t^2 - 0.25", "0"]], grid=self.GRID)
        with pytest.raises(RankDeficiencyError) as info:
            frame_samples(spec, self.GRID)
        assert str(info.value) == (
            f"chart loses full row rank at t={float(self.GRID[1])!r}: "
            "right_pseudoinverse: gram matrix is singular: invert: zero matrix"
        )
        assert info.value.index == 1

    # Rows [1, 0, 0] and [1, t, 0]: at t = 1e-6 the chart has full rank at
    # tolerance 1e-9 but its Gram matrix is singular to tolerance; at t = 0 the
    # chart loses rank.  Both are the same Gram failure, and the first wins.
    CLOSE = _spec([["0"] * 3] * 3, [["1", "0", "0"], ["1", "t", "0"]])

    def test_moore_penrose_gram_failure_before_rank_loss_wins(self):
        ts = [1.0, 1e-6, 0.0, 1e-6]
        with pytest.raises(RankDeficiencyError) as info:
            frame_samples(self.CLOSE, ts)
        assert str(info.value).startswith(
            "chart loses full row rank at t=1e-06: right_pseudoinverse: gram matrix is singular: "
        )

    def test_moore_penrose_exact_rank_loss_is_a_gram_failure_too(self):
        ts = [1.0, 0.0, 1e-6]
        with pytest.raises(RankDeficiencyError) as info:
            frame_samples(self.CLOSE, ts)
        assert str(info.value).startswith(
            "chart loses full row rank at t=0.0: right_pseudoinverse: gram matrix is singular: "
        )

    def test_every_chart_rank_rejects_is_rejected_at_its_own_point(self):
        # Near-deficient charts: the last row is a combination of the others
        # plus relative noise of 1e-16 to 1e-2.  Each sits at t = 1 of a grid
        # whose other points carry a well-conditioned chart.
        rng = np.random.default_rng(7)
        deficient = 0
        for _ in range(1500):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, min(m - 1, 5) + 1))
            chart = rng.standard_normal((n, m))
            chart[-1] = rng.standard_normal(n - 1) @ chart[:-1] + 10.0 ** rng.uniform(-16, -2) * chart[-1]
            if rank(chart) == n:
                continue
            deficient += 1
            away = 10.0 * np.eye(n, m)
            entries = [
                [f"{c!r} + (t - 1)^2*{e!r}" for c, e in zip(row, away_row)]
                for row, away_row in zip(chart.tolist(), away.tolist())
            ]
            spec = _spec([["0"] * m] * m, entries, grid=np.array([0.0, 1.0, 2.0]))
            with pytest.raises(RankDeficiencyError) as info:
                frame_samples(spec, spec.t_grid)
            assert info.value.index == 1
            assert str(info.value).startswith("chart loses full row rank at t=1.0: right_pseudoinverse: gram matrix")
        assert deficient > 300

    def test_moore_penrose_route_does_not_call_rank(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("linalg.rank called")

        monkeypatch.setattr(linalg, "rank", forbidden)
        spec = _spec([["0", "1"], ["0", "0"]], [["cos(t)", "sin(t)"]])
        assert verdicts(spec).main_invariant is False
        with pytest.raises(RankDeficiencyError):
            frame_samples(self.CLOSE, [0.0])


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}


def _scaled_spec(config, route, k):
    """The config's spec with its chart (and on the stacked route its comp_chart) times 2^k."""
    def scaled(key):
        return [[f"({entry})*{2.0 ** k!r}" for entry in row] for row in config[key]]

    grid = config["grid"]
    return _spec(
        config["coeff"],
        scaled("chart"),
        scaled("comp_chart") if route == "stacked" else None,
        grid=np.linspace(grid["start"], grid["end"], grid["count"]),
    )


@functools.cache
def _unscaled_report(name, route):
    return verdicts(_scaled_spec(SHIPPED[name], route, 0))


class TestChartUnits:
    """Multiplying the chart by a power of two changes no residual but |defect C+|."""

    @pytest.mark.parametrize("route", ["stacked", "moore_penrose"])
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(-500, 500))
    @example(k=500)
    @example(k=-500)
    def test_power_of_two_chart_scale(self, name, route, k):
        ref = _unscaled_report(name, route)
        report = verdicts(_scaled_spec(SHIPPED[name], route, k))
        for curve in ("defect", "defect_main", "defect_complement"):
            assert getattr(report, curve).tobytes() == getattr(ref, curve).tobytes(), curve
        assert report.defect_embedding.tobytes() == np.ldexp(ref.defect_embedding, -k).tobytes()
        assert (report.joint_invariant, report.main_invariant, report.complement_kernel_condition) == (
            ref.joint_invariant, ref.main_invariant, ref.complement_kernel_condition
        )


class TestReducedMatrix:
    def test_diagonal_restriction(self):
        for t in (0.0, 1.5):
            np.testing.assert_allclose(reduced_matrix(DIAG, t), [[-1.0]], atol=1e-15)

    def test_nilpotent_reduces_to_zero(self):
        np.testing.assert_allclose(reduced_matrix(NILPOTENT, 0.3), [[0.0]], atol=1e-15)

    def test_rotation_scenario_recovers_generating_block(self):
        from invman.scenario import FramePair, ScenarioSpec, rotation_factor
        from invman.matexpr import parse_expr

        fwd, bwd = rotation_factor(2, 0, 1, parse_expr("t"))
        frame = FramePair(stack=bwd, inverse=fwd, n=1)
        scen = ScenarioSpec(
            frame=frame,
            a=MatrixFunction.build([["-1"]]),
            b=MatrixFunction.build([["-2"]]),
            c=MatrixFunction.zeros(1, 1),
            d=MatrixFunction.zeros(1, 1),
            structure=Structure.BLOCK_DIAGONAL,
            t_grid=np.linspace(0.0, 2.0 * math.pi, 41),
        )
        spec = to_system(scen)
        for t in spec.t_grid:
            np.testing.assert_allclose(reduced_matrix(spec, t), [[-1.0]], atol=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [
    (reduced_matrix, "reduced matrix 'R' is not finite at t=0.5"),
    (invariance_defect, "residual 'defect' is not finite at t=0.5"),
])
def test_one_point_results_past_the_float_range_raise_without_a_warning(call, message):
    # P A - A P, and C A, leave the float range at every t.
    spec = _spec([["1e308", "1e308"], ["1e308", "1e308"]], [["1", "10"]], [["0", "1"]])
    with pytest.raises(EvaluationError, match=re.escape(message)):
        call(spec, 0.5)
