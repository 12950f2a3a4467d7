import numpy as np
import pytest

from invman.errors import FrameError, ScenarioError, ShapeError
from invman.flow import integrate_fundamental
from invman.invariance import SystemSpec, reduced_matrix, verdicts
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
