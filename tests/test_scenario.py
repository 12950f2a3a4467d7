import math
import re
import tracemalloc

import numpy as np
import pytest

from invman import linalg, scenario
from invman.errors import FrameError, ScenarioError, ShapeError
from invman.flow import SIDE_MAIN, integrate_fundamental, manifold_drift
from invman.invariance import SystemSpec, frame_samples, reduced_matrix, verdicts
from invman.linalg import frobenius
from invman.matexpr import MatrixFunction, parse_expr
from invman.scenario import (
    ExpectedVerdicts,
    FramePair,
    ScenarioSpec,
    Structure,
    coefficient_function,
    expected_verdicts,
    random_frame,
    random_scenario,
    rotation_factor,
    scale_factor,
    shear_factor,
    to_config,
    to_system,
)

from helpers import FrameBuilt, must_not_build_frame, spiked_scenario

GRID = np.linspace(0.0, 5.0, 51)


def _identity_frame(m, n):
    eye = MatrixFunction.identity(m)
    return FramePair(stack=eye, inverse=eye, n=n)


def _scenario(frame, a, b, c, d, structure, grid=GRID):
    return ScenarioSpec(
        frame=frame,
        a=MatrixFunction.build(a),
        b=MatrixFunction.build(b),
        c=MatrixFunction.build(c) if not isinstance(c, MatrixFunction) else c,
        d=MatrixFunction.build(d) if not isinstance(d, MatrixFunction) else d,
        structure=structure,
        t_grid=grid,
    )


class TestGenerateQ:
    def test_identity_frame_passes_blocks_through(self):
        s = _scenario(
            _identity_frame(2, 1),
            [["-1"]],
            [["3"]],
            MatrixFunction.zeros(1, 1),
            MatrixFunction.zeros(1, 1),
            Structure.BLOCK_DIAGONAL,
        )
        np.testing.assert_allclose(coefficient_function(s).eval(1.7), np.diag([-1.0, 3.0]), atol=1e-15)

    def test_rotation_frame_hand_value(self):
        # frame S(t) = plane rotation by t, so S(0) = E and S'(0) = [[0,-1],[1,0]];
        # with K = diag(-1,-2) this gives Q(0) = [[-1,-1],[1,-2]]
        fwd, bwd = rotation_factor(2, 0, 1, parse_expr("t"))
        frame = FramePair(stack=bwd, inverse=fwd, n=1)
        s = _scenario(
            frame,
            [["-1"]],
            [["-2"]],
            MatrixFunction.zeros(1, 1),
            MatrixFunction.zeros(1, 1),
            Structure.BLOCK_DIAGONAL,
        )
        np.testing.assert_allclose(
            coefficient_function(s).eval(0.0), [[-1.0, -1.0], [1.0, -2.0]], atol=1e-14
        )

    def test_identity_frame_upper_coupling(self):
        s = _scenario(
            _identity_frame(2, 1),
            [["-0.5"]],
            [["-1"]],
            [["1"]],
            MatrixFunction.zeros(1, 1),
            Structure.UPPER_TRIANGULAR,
        )
        np.testing.assert_allclose(coefficient_function(s).eval(0.3), [[-0.5, 1.0], [0.0, -1.0]], atol=1e-15)
        report = verdicts(to_system(s))
        assert (report.joint_invariant, report.main_invariant, report.complement_kernel_condition) == (
            False,
            True,
            False,
        )


class TestExpectedVerdicts:
    @pytest.mark.parametrize(
        "structure, expected",
        [
            (Structure.BLOCK_DIAGONAL, ExpectedVerdicts(True, True, True)),
            (Structure.UPPER_TRIANGULAR, ExpectedVerdicts(False, True, False)),
            (Structure.LOWER_TRIANGULAR, ExpectedVerdicts(False, False, True)),
            (Structure.FULL, ExpectedVerdicts(False, False, False)),
        ],
    )
    def test_mapping(self, structure, expected):
        assert expected_verdicts(random_scenario(structure, m=3, n=2, seed=1)) == expected

    # Which couplings each structure zeroes, written out here rather than read
    # from the generator, so a c/d mix-up in the generator shows.
    VANISHING = {
        Structure.BLOCK_DIAGONAL: {"c", "d"},
        Structure.UPPER_TRIANGULAR: {"d"},
        Structure.LOWER_TRIANGULAR: {"c"},
        Structure.FULL: set(),
    }

    @pytest.mark.parametrize("coupling", ["c", "d"])
    @pytest.mark.parametrize("structure", list(Structure))
    def test_coupling_checks(self, structure, coupling):
        zero = coupling in self.VANISHING[structure]
        allowed = {name: [["0"]] if name in self.VANISHING[structure] else [["0.7"]] for name in "cd"}
        _scenario(_identity_frame(2, 1), [["-1"]], [["1"]], allowed["c"], allowed["d"], structure)
        # the coupling under test gets the value its structure forbids; 1e-9 is numerically zero
        bad = dict(allowed, **{coupling: [["0.7"]] if zero else [["1e-9"]]})
        with pytest.raises(ScenarioError) as info:
            _scenario(_identity_frame(2, 1), [["-1"]], [["1"]], bad["c"], bad["d"], structure)
        expected = f"coupling {coupling} == 0" if zero else f"coupling {coupling} to be nonzero"
        assert f"structure {structure.value} requires {expected}" in str(info.value)

    def test_inconsistent_frame_pair_rejected(self):
        fwd, _ = rotation_factor(2, 0, 1, parse_expr("t"))
        bad = FramePair(stack=fwd, inverse=fwd, n=1)  # not an inverse pair
        with pytest.raises(FrameError):
            _scenario(
                bad,
                [["-1"]],
                [["1"]],
                MatrixFunction.zeros(1, 1),
                MatrixFunction.zeros(1, 1),
                Structure.BLOCK_DIAGONAL,
            )

    @pytest.mark.parametrize("block_bytes", [1, 5 * 32, 2**40], ids=["one_point", "five_points", "whole_grid"])
    def test_the_frame_check_takes_the_whole_grid_max_over_its_blocks(self, monkeypatch, block_bytes):
        # A rotation R(t) used as its own inverse: |R^2 - E| peaks at the grid's 8th point, inside the second block
        # of five points (a block holds block_bytes // 32 products of 2 x 2 matrices).
        fwd, _ = rotation_factor(2, 0, 1, parse_expr("t"))
        grid = np.linspace(0.0, 5.0, 23)
        stack = fwd.eval_grid(grid)
        want = float(np.max(np.abs(stack @ stack - np.eye(2))))
        monkeypatch.setattr(scenario, "_PRODUCT_BYTES", block_bytes)
        message = f"frame inverse fails on the grid: max residual {want:.3e} > 1e-08"
        with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
            _scenario(FramePair(stack=fwd, inverse=fwd, n=1), [["-1"]], [["1"]], MatrixFunction.zeros(1, 1),
                      MatrixFunction.zeros(1, 1), Structure.BLOCK_DIAGONAL, grid=grid)


@pytest.mark.parametrize("call, error, message", [
    (lambda: FramePair(MatrixFunction.identity(2), MatrixFunction.identity(3), n=1), ShapeError,
     "frame pair must be square and matching, got (2, 2) and (3, 3)"),
    (lambda: FramePair(MatrixFunction.zeros(2, 3), MatrixFunction.zeros(2, 3), n=1), ShapeError,
     "frame pair must be square and matching, got (2, 3) and (2, 3)"),
    (lambda: _identity_frame(2, 0), ShapeError, "frame split n=0 must lie strictly inside 0..2"),
    (lambda: _identity_frame(2, 2), ShapeError, "frame split n=2 must lie strictly inside 0..2"),
    (lambda: _scenario(_identity_frame(3, 1), [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]],
                       [["0", "0"]], [["0"], ["0"]], Structure.BLOCK_DIAGONAL), ShapeError,
     "block a is (2, 2), expected (1, 1)"),
    (lambda: _scenario(_identity_frame(2, 1), [["0"]], [["0"]], [["0"]], [["0", "0"]], Structure.BLOCK_DIAGONAL),
     ShapeError, "block d is (1, 2), expected (1, 1)"),
    (lambda: _scenario(_identity_frame(2, 1), [["0"]], [["0"]], [["0"]], [["0"]], Structure.BLOCK_DIAGONAL,
                       grid=[0.0]), ValueError, "scenario grid needs at least two points"),
    (lambda: rotation_factor(3, 1, 1, parse_expr("t")), ValueError, "rotation needs two distinct coordinates"),
    (lambda: shear_factor(3, 2, 2, parse_expr("t")), ValueError, "shear needs two distinct coordinates"),
])
def test_a_malformed_frame_scenario_or_factor_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestElementaryFactors:
    @pytest.mark.parametrize("builder, args", [
        (rotation_factor, (4, 0, 2, parse_expr("0.3 + 0.8*t"))),
        (shear_factor, (4, 1, 3, parse_expr("0.2*sin(t)"))),
        (scale_factor, (4, 2, parse_expr("1.1 + 0.2*sin(t)"))),
    ])
    def test_inverse_pairs(self, builder, args):
        fwd, bwd = builder(*args)
        for t in np.linspace(-2.0, 2.0, 9):
            np.testing.assert_allclose(fwd.eval(t) @ bwd.eval(t), np.eye(4), atol=1e-12)

    def test_random_frame_well_conditioned(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m))
            frame = random_frame(m, n, rng)
            for t in np.linspace(0.0, 5.0, 7):
                assert np.linalg.cond(frame.stack.eval(t)) < 50.0


class TestRoundTrip:
    @pytest.mark.parametrize("structure", list(Structure))
    def test_verdicts_match_expectation(self, structure):
        for seed in range(5):
            s = random_scenario(structure, m=3, n=2, seed=seed, t_grid=GRID)
            got = verdicts(to_system(s), tol=1e-8)
            exp = expected_verdicts(s)
            assert (got.joint_invariant, got.main_invariant, got.complement_kernel_condition) == tuple(exp)

    def test_varied_dimensions(self):
        for seed, (m, n) in enumerate([(2, 1), (4, 2), (4, 3), (5, 2)]):
            s = random_scenario(Structure.UPPER_TRIANGULAR, m=m, n=n, seed=seed, t_grid=GRID)
            got = verdicts(to_system(s), tol=1e-8)
            assert (got.joint_invariant, got.main_invariant, got.complement_kernel_condition) == (
                False,
                True,
                False,
            )


class TestReductionRecovery:
    @pytest.mark.parametrize("structure", [Structure.BLOCK_DIAGONAL, Structure.UPPER_TRIANGULAR])
    def test_reduced_matrix_recovers_leading_block(self, structure):
        # through the stacked embedding the reduction collapses to the
        # generating block exactly: chart @ inverse = [E 0]
        s = random_scenario(structure, m=3, n=2, seed=6, t_grid=GRID)
        spec = to_system(s)
        for t in np.linspace(0.0, 5.0, 9):
            np.testing.assert_allclose(reduced_matrix(spec, t), s.a.eval(t), atol=1e-10)

    def test_identity_frame_recovers_block_exactly(self):
        a = [["-1", "0.5"], ["0", "-2"]]
        s = _scenario(
            _identity_frame(3, 2),
            a,
            [["1"]],
            MatrixFunction.zeros(2, 1),
            MatrixFunction.zeros(1, 2),
            Structure.BLOCK_DIAGONAL,
        )
        spec = to_system(s)
        np.testing.assert_allclose(reduced_matrix(spec, 2.2), MatrixFunction.build(a).eval(2.2), atol=1e-10)


class TestBlockDynamicsOracle:
    """With F = frame.stack (S^-1), A = S' F + S K F gives back K = (F A + F') F^-1, since F' S = -F S'."""

    @pytest.mark.parametrize("structure", list(Structure))
    @pytest.mark.parametrize("m", [3, 8, 16])
    def test_the_frame_conjugates_a_back_to_the_block_dynamics(self, structure, m):
        eps = np.finfo(float).eps
        for seed in range(3):
            s = random_scenario(structure, m=m, n=m // 2, seed=seed)
            grid = s.t_grid
            stack, dstack = s.frame.stack.eval_grid(grid), s.frame.stack.derivative().eval_grid(grid)
            inverse = linalg.invert(stack)
            coeff = coefficient_function(s).eval_grid(grid)
            pulled = stack @ coeff + dstack
            blocks = MatrixFunction.block([[s.a, s.c], [s.d, s.b]]).eval_grid(grid)
            # Rounding of the m-term products, F A + F' and its product with F^-1, each at the size of its terms,
            # times cond(F) for the computed inverse.
            bound = m * eps * frobenius(stack) * frobenius(inverse) * frobenius(pulled) * frobenius(inverse)
            assert np.all(frobenius(pulled @ inverse - blocks) <= bound), (seed, structure)
            reduced = frame_samples(to_system(s), grid).reduced(coeff)
            assert np.all(frobenius(reduced - s.a.eval_grid(grid)) <= bound), (seed, structure)


def _verdict_tuple(report):
    return report.joint_invariant, report.main_invariant, report.complement_kernel_condition


class TestGroupActions:
    """Verdicts are properties of the subspace pair and of the system, not of their coordinates."""

    SCENARIOS = [(structure, seed) for structure in Structure for seed in range(3)]

    @pytest.mark.parametrize("structure, seed", SCENARIOS)
    def test_a_chart_reparametrisation_keeps_the_verdicts_and_the_defects(self, structure, seed):
        spec = to_system(random_scenario(structure, m=3, n=2, seed=seed))
        g, _ = rotation_factor(2, 0, 1, parse_expr("0.3 + 0.7*t"))
        g_shear, _ = shear_factor(2, 1, 0, parse_expr("0.5*sin(t)"))
        h, _ = scale_factor(1, 0, parse_expr("1.5 + 0.3*cos(t)"))
        # [G C; H C_comp]^-1 = F^-1 diag(G^-1, H^-1): C+ becomes C+ G^-1, and P = C+ C stays.
        moved = SystemSpec(coeff=spec.coeff, chart=g_shear @ g @ spec.chart, comp_chart=h @ spec.comp_chart,
                           t_grid=spec.t_grid)
        ref, got = verdicts(spec), verdicts(moved)
        assert _verdict_tuple(got) == _verdict_tuple(ref)
        assert got.max_defect_main == pytest.approx(ref.max_defect_main, rel=1e-13, abs=1e-14)
        assert got.max_defect == pytest.approx(ref.max_defect, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("structure, seed", SCENARIOS)
    def test_a_change_of_variables_keeps_the_verdicts(self, structure, seed):
        s = random_scenario(structure, m=3, n=2, seed=seed)
        spec = to_system(s)
        forward, backward = shear_factor(3, 0, 2, parse_expr("0.4 + 0.2*sin(t)"))
        # y = T x: x' = ((T^-1)' T + T^-1 A T) x, and the charts of the same subspaces are C T and C_comp T.
        moved = SystemSpec(
            coeff=backward.derivative() @ forward + backward @ spec.coeff @ forward,
            chart=spec.chart @ forward,
            comp_chart=spec.comp_chart @ forward,
            t_grid=spec.t_grid,
        )
        assert _verdict_tuple(verdicts(moved)) == _verdict_tuple(verdicts(spec)) == tuple(expected_verdicts(s))


class TestConjugationConsistency:
    def test_flow_pulls_back_to_block_flow(self):
        # Y_full(t) = S(t) Y_block(t) S(0)^-1 within integrator error
        s = random_scenario(Structure.FULL, m=3, n=2, seed=14, t_grid=GRID)
        k = MatrixFunction.block([[s.a, s.c], [s.d, s.b]])
        full = integrate_fundamental(coefficient_function(s), 0.0, 2.0, 1e-3)
        block = integrate_fundamental(k, 0.0, 2.0, 1e-3)
        s_grid = s.frame.inverse.eval_grid(full.ts)
        s0_inv = s.frame.stack.eval(0.0)
        predicted = s_grid @ block.matrices @ s0_inv
        assert float(np.max(np.abs(predicted - full.matrices))) <= 1e-8


class TestSerialization:
    def test_config_round_trips_through_loader(self, tmp_path):
        import json

        from invman.cli import load_config

        s = random_scenario(Structure.LOWER_TRIANGULAR, m=3, n=2, seed=9)
        config = to_config(s)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        spec, opts = load_config(str(path))
        report = verdicts(spec, opts.tolerance)
        assert (report.joint_invariant, report.main_invariant, report.complement_kernel_condition) == (
            False,
            False,
            True,
        )
        assert config["expected_verdicts"] == {"joint": False, "mn": False, "complement": True}

    def test_a_grid_linspace_does_not_give_back_is_not_written(self):
        s = random_scenario(Structure.FULL, m=3, n=2, seed=0, t_grid=[0.0, 1.0, 5.0])
        with pytest.raises(ValueError, match="'start': 0.0, 'end': 5.0, 'count': 3}, bit for bit"):
            to_config(s)
        grid = np.linspace(0.0, 5.0, 3)
        assert to_config(random_scenario(Structure.FULL, m=3, n=2, seed=0, t_grid=grid))["grid"] == {
            "start": 0.0, "end": 5.0, "count": 3}

    @pytest.mark.parametrize("grid", [[[0.0, 1.0], [2.0, 3.0]], 0.5], ids=["2-D", "0-D"])
    def test_a_grid_that_is_not_one_dimensional_is_refused(self, grid):
        with pytest.raises(ShapeError, match="^time grid must be one-dimensional$"):
            random_scenario(Structure.FULL, m=3, n=2, seed=0, t_grid=grid)

    @pytest.mark.parametrize("grid", [np.linspace(5.0, 0.0, 11), [0.0, 1.0, 1.0], [0.0, np.nan, 2.0]],
                             ids=["decreasing", "repeated", "nan"])
    def test_a_grid_that_is_not_strictly_increasing_is_refused(self, grid):
        # SystemSpec's rule and text: the spec never reaches a to_config that load_config would refuse.
        with pytest.raises(ValueError, match="^t_grid must be strictly increasing$"):
            random_scenario(Structure.FULL, m=3, n=2, seed=0, t_grid=grid)
        with pytest.raises(ValueError, match="^t_grid must be strictly increasing$"):
            SystemSpec(MatrixFunction.zeros(3, 3), MatrixFunction.build([["1", "0", "0"]]), t_grid=grid)

    def test_symbolic_coefficient_matches_samples(self):
        s = random_scenario(Structure.FULL, m=3, n=1, seed=20)
        coeff = coefficient_function(s)
        redone = MatrixFunction.build(coeff.to_strings())
        for t in (0.0, 1.3, 4.9):
            np.testing.assert_allclose(redone.eval(t), coeff.eval(t), atol=1e-12)


class TestSamplingBudget:
    def test_a_spec_refuses_a_grid_past_the_budget_before_sampling(self):
        # m = 64: 16 385 points of 64 x 64 entries is one point past MAX_SAMPLED_ENTRIES = 2^26.
        zeros = MatrixFunction.zeros
        with pytest.raises(ValueError, match=r"^t_grid takes 1\.638e\+04 points x 4096 entries, more than"):
            ScenarioSpec(_identity_frame(64, 32), zeros(32, 32), zeros(32, 32), zeros(32, 32), zeros(32, 32),
                         Structure.BLOCK_DIAGONAL, t_grid=np.arange(16385.0))

    @pytest.mark.parametrize("args, message", [
        ({"m": 578}, r"^t_grid takes 201 points x 334084 entries, more than MAX_SAMPLED_ENTRIES = 67108864$"),
        ({"t_grid": np.linspace(5.0, 0.0, 11)}, "^t_grid must be strictly increasing$"),
        ({"seed": -1}, "^random_scenario: seed must be >= 0, got -1$"),
    ], ids=["m_past_budget", "decreasing_grid", "negative_seed"])
    def test_random_scenario_refuses_before_building_a_frame(self, monkeypatch, args, message):
        monkeypatch.setattr(scenario, "random_frame", must_not_build_frame)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                random_scenario(Structure.FULL, **{"m": 3, "n": 2, "seed": 0, **args})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_the_largest_m_within_the_budget_reaches_the_frame(self, monkeypatch):
        monkeypatch.setattr(scenario, "random_frame", must_not_build_frame)
        with pytest.raises(FrameBuilt, match="m=577"):
            random_scenario(Structure.FULL, m=577, n=2, seed=0)


@pytest.mark.parametrize("structure", [Structure.UPPER_TRIANGULAR, Structure.BLOCK_DIAGONAL])
@pytest.mark.parametrize("m, n, seed", [(3, 1, 0), (4, 2, 1), (8, 4, 0), (16, 8, 0)])
class TestSpikeBetweenGridNodes:
    """A coupling that vanishes on every grid node but not between them: the grid certifies what the flow breaks.

    This pins the documented limit of ``verdicts``: nothing is certified between grid points.
    """

    def test_the_spike_is_invisible_on_the_grid_and_1_at_its_centre(self, structure, m, n, seed):
        spec, t_star = spiked_scenario(structure, m, n, seed)
        assert np.max(spec.d.eval_grid(spec.t_grid)[:, 0, 0]) <= math.exp(-150.0)
        assert spec.d.eval(t_star)[0, 0] == 1.0

    def test_the_grid_verdicts_are_the_structures(self, structure, m, n, seed):
        spec, _ = spiked_scenario(structure, m, n, seed)
        report = verdicts(to_system(spec))
        assert _verdict_tuple(report) == expected_verdicts(spec)
        assert report.max_defect_main <= 1e-12

    def test_the_flow_through_the_spike_leaves_the_subspace(self, structure, m, n, seed):
        spec, t_star = spiked_scenario(structure, m, n, seed)
        drift = manifold_drift(to_system(spec), SIDE_MAIN, t_span=(t_star - 0.1, t_star + 0.1))
        assert drift.max_residual > 1e-4
