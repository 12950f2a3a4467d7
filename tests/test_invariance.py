import dataclasses
import functools
import json
import math
import re

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invman import invariance, linalg
from invman.errors import EvaluationError, RankDeficiencyError, ShapeError, SingularMatrixError
from invman.invariance import (
    SystemSpec,
    frame_samples,
    invariance_defect,
    projector_derivative,
    reduced_matrix,
    verdicts,
)
from invman.linalg import frobenius, rank
from invman.manifold import build_frame
from invman.matexpr import MatrixFunction
from invman.scenario import Structure, random_scenario, to_system

from helpers import adjoint_spec, fd_matrix_derivative


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


NILPOTENT_A = [["0", "1"], ["0", "0"]]


@pytest.mark.parametrize("coeff, chart, comp, grid, error, message", [
    ([["0", "1"]], [["1", "0"]], None, None, ShapeError, "system matrix must be square, got (1, 2)"),
    (NILPOTENT_A, [["1", "0", "0"]], None, None, ShapeError, "chart is (1, 3), expected columns 2"),
    (NILPOTENT_A, [["1", "0"], ["0", "1"]], None, None, ShapeError, "chart must have between 1 and 1 rows, got 2"),
    (NILPOTENT_A, [["1", "0"]], [["0", "1"], ["1", "0"]], None, ShapeError,
     "complementary chart is (2, 2), expected (1, 2)"),
    (NILPOTENT_A, [["1", "0"]], [["0", "1", "0"]], None, ShapeError, "complementary chart is (1, 3), expected (1, 2)"),
    (NILPOTENT_A, [["1", "0"]], None, [], ValueError, "t_grid must contain at least one point"),
])
def test_a_malformed_system_is_refused(coeff, chart, comp, grid, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _spec(coeff, chart, comp, grid=grid)


def test_require_finite_names_the_first_curve_bad_at_the_earliest_time():
    ts = np.array([0.0, 0.5, 1.0])
    curves = {"a": np.array([0.0, 0.0, np.nan]), "b": np.array([0.0, np.inf, 0.0]),
              "c": np.array([[[0.0]], [[np.nan]], [[np.nan]]])}
    assert invariance._require_finite(ts, {"finite": np.zeros((3, 2, 2))}) is None
    with pytest.raises(EvaluationError) as info:
        invariance._require_finite(ts, curves)
    assert (str(info.value), info.value.index) == ("residual 'b' is not finite at t=0.5", 1)
    with pytest.raises(EvaluationError, match=r"^R 'c' is not finite at t=0\.5$"):
        invariance._require_finite(ts, {"a": curves["a"], "c": curves["c"]}, "R")


class TestSpecGrid:
    @pytest.mark.parametrize("grid", [[[0.0, 1.0], [2.0, 3.0]], 0.5], ids=["2-D", "0-D"])
    def test_a_grid_that_is_not_one_dimensional_is_refused(self, grid):
        with pytest.raises(ShapeError, match="^time grid must be one-dimensional$"):
            _spec([["0", "1"], ["0", "0"]], [["1", "0"]], grid=grid)

    def test_the_sampling_budget_holds_at_its_exact_edge(self):
        # m = 64: 16 384 points of 64 x 64 entries is MAX_SAMPLED_ENTRIES = 2^26 exactly, one point more is past it.
        assert 16384 * 64 * 64 == invariance.MAX_SAMPLED_ENTRIES
        coeff, chart = MatrixFunction.zeros(64, 64), MatrixFunction.zeros(32, 64)
        assert SystemSpec(coeff, chart, t_grid=np.arange(16384.0)).t_grid.size == 16384
        message = r"^t_grid takes 1\.638e\+04 points x 4096 entries, more than MAX_SAMPLED_ENTRIES = 67108864$"
        with pytest.raises(ValueError, match=message):
            SystemSpec(coeff, chart, t_grid=np.arange(16385.0))


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


ONE_POINT = (projector_derivative, invariance_defect, reduced_matrix)
FRAME_FIELDS = ("chart", "embedding", "comp_chart", "comp_embedding")


def _frame_arrays(spec, t):
    """build_frame on the spec's charts at ``t``, its arrays raveled into one."""
    frame = build_frame(spec.chart, spec.comp_chart, t)
    return np.concatenate([getattr(frame, name).ravel() for name in FRAME_FIELDS])


def _fresh(spec):
    """A copy of ``spec`` with new chart objects: its one-point memos, the spec's and the chart's, start empty."""
    renew = lambda chart: None if chart is None else MatrixFunction(chart.entries)  # noqa: E731
    return dataclasses.replace(spec, chart=renew(spec.chart), comp_chart=renew(spec.comp_chart))


# The largest max_defect_main of an adjoint on its invariant side, over TestAdjointDuality's 36 systems: the
# rounding floor of the Moore-Penrose verdicts there, measured at 6.6e-16.
_ADJOINT_FLOOR = 6.6e-16


class TestAdjointDuality:
    """Each one-sided verdict of (A, C, C_comp) is the main verdict of an adjoint system on the Moore-Penrose route."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m", [3, 8, 16])
    @pytest.mark.parametrize("structure", list(Structure))
    def test_one_sided_verdicts_are_the_adjoint_main_verdicts(self, structure, m, seed):
        spec = to_system(random_scenario(structure, m=m, n=m // 2, seed=seed))
        report = verdicts(spec)
        for side, holds in (("mn", report.main_invariant), ("complement", report.complement_kernel_condition)):
            adjoint = verdicts(adjoint_spec(spec, side))
            assert adjoint.main_invariant is holds
            if holds:  # 16 floors leave room for another BLAS's rounding, and stay six decades under the tolerance
                assert adjoint.max_defect_main <= 16 * _ADJOINT_FLOOR


class TestOnePointMemo:
    """build_frame and the three one-point functions share one sampling of the frames per point, on the chart;
    the two that need A share one sampling of it per point, on the spec."""

    SPECS = [
        ROTATION_SPEC,
        _spec([["sin(t)", "t^2"], ["exp(-t)", "cos(3*t)"]], [["1", "0.5*t"]]),  # Moore-Penrose route
        to_system(random_scenario(Structure.FULL, m=4, n=2, seed=8)),
    ]

    @pytest.fixture
    def samples(self, monkeypatch):
        """(bits of the times, with derivatives, onto a stored point) of every frame sampling, in call order."""
        seen = []
        frames = invariance._frames

        def counting(chart, comp_chart, ts, derivatives, known=None):
            seen.append((np.array(ts, dtype=float).tobytes(), derivatives, known is not None))
            return frames(chart, comp_chart, ts, derivatives, known)

        monkeypatch.setattr(invariance, "_frames", counting)
        return seen

    @staticmethod
    def _calls(spec):
        return ONE_POINT + ((_frame_arrays,) if spec.comp_chart is not None else ())

    @pytest.mark.parametrize("spec", SPECS)
    def test_hits_give_the_bits_of_a_fresh_spec(self, spec, samples):
        spec = _fresh(spec)
        for t in (0.3, 1.7):
            want = [call(_fresh(spec), t).tobytes() for call in ONE_POINT]
            for _ in range(2):
                assert [call(spec, t).tobytes() for call in ONE_POINT] == want
        # Once per time for spec itself, once per call for its fresh copies.
        assert len(samples) == 2 * (1 + len(ONE_POINT))

    @pytest.mark.parametrize("spec", [SPECS[0], SPECS[2]])
    def test_build_frame_first_leaves_only_the_derivatives_to_sample(self, spec, samples):
        spec = _fresh(spec)
        for t in (0.3, 1.7):
            _frame_arrays(spec, t)
            for call in ONE_POINT + (_frame_arrays,):
                call(spec, t)
        key = lambda t: np.array([t]).tobytes()  # noqa: E731
        assert samples == [(key(0.3), False, False), (key(0.3), True, True), (key(1.7), False, False),
                           (key(1.7), True, True)]

    def test_another_comp_chart_is_a_miss(self, samples):
        spec = _fresh(ROTATION_SPEC)
        want = [call(_fresh(spec), 0.4).tobytes() for call in self._calls(spec)]
        projector_derivative(spec, 0.4)
        # The same entries in another object, then another complement: each is sampled, and gives its own frame.
        twin = MatrixFunction(spec.comp_chart.entries)
        for comp in (twin, MatrixFunction.build([["0", "1"]])):
            fresh = build_frame(MatrixFunction(spec.chart.entries), comp, 0.4)
            frame = build_frame(spec.chart, comp, 0.4)
            assert [getattr(frame, name).tobytes() for name in FRAME_FIELDS] == [
                getattr(fresh, name).tobytes() for name in FRAME_FIELDS]
            assert spec.chart._point[0] is comp
        assert [call(spec, 0.4).tobytes() for call in self._calls(spec)] == want
        # want (one per fresh spec), spec, the twin and the other complement (fresh and on spec), spec again.
        assert len(samples) == 4 + 1 + 2 * 2 + 1

    def test_results_are_fresh_arrays(self):
        spec = _fresh(self.SPECS[2])
        for call in ONE_POINT:
            first = call(spec, 0.9)
            want = first.copy()
            first[...] = np.nan
            np.testing.assert_array_equal(call(spec, 0.9), want)
        # build_frame's arrays are not the memo's: writing NaN into them changes no later call at that t, whether
        # build_frame stored the point (1.3) or found it stored with derivatives (0.9).
        for t in (0.9, 1.3):
            want = [call(_fresh(spec), t).tobytes() for call in self._calls(spec)]
            frame = build_frame(spec.chart, spec.comp_chart, t)
            for name in FRAME_FIELDS:
                getattr(frame, name)[...] = np.nan
            assert [call(spec, t).tobytes() for call in self._calls(spec)] == want

    def test_zero_and_negative_zero_are_sampled_separately(self, samples):
        spec = _fresh(NILPOTENT)
        for t in (0.0, 0.0, -0.0, -0.0, 0.0):
            reduced_matrix(spec, t)
        assert samples == [(np.array([t]).tobytes(), True, False) for t in (0.0, -0.0, 0.0)]
        # The message names the time of the sample it came from.
        spec = _spec([["1e308", "1e308"], ["1e308", "1e308"]], [["1", "10"]], [["0", "1"]])
        for t in (0.0, -0.0):
            with pytest.raises(EvaluationError, match=re.escape(f"is not finite at t={t!r}")):
                invariance_defect(spec, t)

    @pytest.mark.parametrize("spec", SPECS)
    def test_alternating_times_give_correct_results(self, spec):
        # Forward, the one-point functions sample first; reversed, build_frame does (on the stacked route).
        spec = _fresh(spec)
        calls = self._calls(spec)
        ts = [0.3, 1.7, 0.3, -0.4, 1.7, 1.7, 0.3]
        want = {t: [call(_fresh(spec), t).tobytes() for call in calls] for t in set(ts)}
        for k, t in enumerate(ts):
            order = calls if k % 2 else calls[::-1]
            got = {call: call(spec, t).tobytes() for call in order}
            assert [got[call] for call in calls] == want[t]

    @pytest.mark.parametrize("coeff, chart, message, frames_sample", [
        # A pole of the chart: the frames fail.
        ([["0", "0"], ["0", "0"]], [["1", "1/(t - 0.5)"]], "entry (0,1) at t=0.5: division by zero", False),
        # A pole of A: the frames are sampled, then A fails.
        ([["1/(t - 0.5)", "0"], ["0", "0"]], [["1", "0"]], "entry (0,0) at t=0.5: division by zero", True),
        # A past the float range.
        ([["exp(2000*t)", "0"], ["0", "0"]], [["1", "0"]], "entry (0,0) is not finite at t=0.5", True),
    ])
    def test_a_failed_sampling_raises_the_same_error_and_stores_nothing(self, coeff, chart, message, frames_sample):
        spec = _spec(coeff, chart, [["0", "1"]])
        reduced_matrix(spec, 0.25)
        stored, frames = spec._point, spec.chart._point
        for call in (invariance_defect, reduced_matrix, invariance_defect):
            with pytest.raises(EvaluationError, match=re.escape(message)):
                call(spec, 0.5)
            assert spec._point is stored
        # Frames that sampled are stored, whatever A then does.
        assert (spec.chart._point is frames) is not frames_sample

    @pytest.mark.parametrize("chart, comp, t, message", [
        # dC/dt has a pole where C is finite: its denominator (1e-170*t)^2 underflows to 0.
        ([["1", "(1e-170*t)/(1e-170*t)"]], [["0", "1"]], 1.0, "entry (0,1) at t=1.0: division by zero"),
        # F^-1 is finite (1e160), -F^-1 dF F^-1 is not.
        ([["1e-160 + (t - 0.5)", "0"]], [["0", "1e-160"]], 0.5, "inverse of the stacked frame is not finite at t=0.5"),
    ])
    def test_derivatives_that_fail_on_a_stored_point_raise_the_fresh_error(self, chart, comp, t, message):
        spec = _spec([["0", "0"], ["0", "0"]], chart, comp)
        for fresh in (functools.partial(frame_samples, _fresh(spec), [t]), functools.partial(
                projector_derivative, _fresh(spec), t)):
            with pytest.raises(EvaluationError) as info:
                fresh()
            assert (str(info.value), info.value.index) == (message, 0)
        build_frame(spec.chart, spec.comp_chart, t)
        stored = spec.chart._point
        for call in ONE_POINT:
            with pytest.raises(EvaluationError) as info:
                call(spec, t)
            assert (type(info.value), str(info.value), info.value.index) == (EvaluationError, message, 0)
            assert spec.chart._point is stored

    def test_replace_shares_the_frames_and_starts_without_a(self, samples):
        spec = _fresh(DIAG)
        reduced_matrix(spec, 1.0)
        assert spec._point is not None
        for copy in (dataclasses.replace(spec, t_grid=np.linspace(0.0, 1.0, 3)), dataclasses.replace(spec)):
            assert copy._point is None
            assert reduced_matrix(copy, 1.0).tobytes() == reduced_matrix(spec, 1.0).tobytes()
        assert len(samples) == 1  # the frames live on the chart, which the copies share

    def test_the_memo_holds_one_point(self):
        spec = _fresh(self.SPECS[1])
        ts = np.linspace(-2.0, 2.0, 1000)
        for k, t in enumerate(ts):
            ONE_POINT[-1 - k % 3](spec, t)
        comp, key, frames = spec.chart._point
        assert comp is None and key == ts[-1:].tobytes()
        assert frames.ts.shape == (1,) and frames.dchart.shape == (1, 1, 2)
        key, coeff = spec._point
        assert key == ts[-1:].tobytes() and coeff.shape == (1, 2, 2)

    def test_build_frame_stores_no_derivatives(self):
        spec = _fresh(ROTATION_SPEC)
        build_frame(spec.chart, spec.comp_chart, 0.7)
        comp, key, frames = spec.chart._point
        assert comp is spec.comp_chart and key == np.array([0.7]).tobytes()
        assert frames.dchart is None and frames.dembedding is None
        assert spec._point is None


@pytest.mark.parametrize("call", ONE_POINT + (_frame_arrays,))
@pytest.mark.parametrize("shape", [(2,), (1,), (1, 1)])
def test_one_point_functions_refuse_a_t_that_is_not_a_scalar(call, shape, monkeypatch):
    spec = _fresh(DIAG)
    monkeypatch.setattr(invariance, "_frames", None)  # nothing may be sampled
    with pytest.raises(ShapeError, match=re.escape(f"t must be a scalar, got shape {shape}")):
        call(spec, np.full(shape, 0.5))
    assert spec._point is None and spec.chart._point is None


@pytest.mark.parametrize("ts", [[[0.1, 0.2], [0.3, 0.4]], [[0.5]], 0.5], ids=["2x2", "1x1", "scalar"])
def test_frame_samples_refuses_a_grid_that_is_not_one_dimensional(ts):
    # The message eval_grid gives for the same grid: no grid is flattened into more or fewer points.
    for refuse in (functools.partial(frame_samples, NILPOTENT), DIAG.chart.eval_grid):
        with pytest.raises(ShapeError, match="^time grid must be one-dimensional$"):
            refuse(ts)
    config = json.loads((CONFIGS / "full.json").read_text())
    with pytest.raises(ShapeError, match="^time grid must be one-dimensional$"):
        frame_samples(_spec(config["coeff"], config["chart"], config["comp_chart"]), [[0.1, 0.2], [0.3, 0.4]])
