import dataclasses
import math
import re

import numpy as np
import pytest

from invman import linalg, manifold
from invman.errors import EvaluationError, FrameError, InvmanError, ShapeError, SingularMatrixError
from invman.invariance import SystemSpec, frame_samples
from invman.linalg import frobenius, right_pseudoinverse
from invman.manifold import (
    EmbeddingReport,
    KernelIdentityReport,
    Subspace,
    build_frame,
    check_embedding,
    check_kernel_identities,
    membership,
)
from invman.matexpr import MatrixFunction

from helpers import random_well_conditioned_stack, reference_identity_samples

IDENTITY = MatrixFunction.build([["1", "0"]]), MatrixFunction.build([["0", "1"]])
ROTATION = (
    MatrixFunction.build([["cos(t)", "sin(t)"]]),
    MatrixFunction.build([["-sin(t)", "cos(t)"]]),
)
SHEAR = MatrixFunction.build([["1", "1"]]), MatrixFunction.build([["0", "1"]])


def _orthogonal_complement_stack(rng: np.random.Generator, m: int, n: int):
    """A random chart and the SVD basis of the orthogonal complement of its rows."""
    top = rng.standard_normal((n, m))
    return top, np.linalg.svd(top)[2][n:]


class TestBuildFrame:
    def test_identity_stack(self):
        fr = build_frame(*IDENTITY, t=0.0)
        np.testing.assert_array_equal(fr.embedding, [[1.0], [0.0]])
        np.testing.assert_array_equal(fr.comp_embedding, [[0.0], [1.0]])
        np.testing.assert_array_equal(fr.projector, np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(fr.comp_projector, np.diag([0.0, 1.0]))

    def test_rotation_projector_is_outer_product(self):
        t = 0.5
        fr = build_frame(*ROTATION, t=t)
        u = np.array([math.cos(t), math.sin(t)])
        np.testing.assert_allclose(fr.projector, np.outer(u, u), atol=1e-14)
        assert round(np.trace(fr.projector)) == 1
        # Orthonormal rows: the embeddings are the transposed charts.
        np.testing.assert_allclose(fr.embedding, fr.chart.T, atol=1e-13)
        np.testing.assert_allclose(fr.comp_embedding, fr.comp_chart.T, atol=1e-13)
        inv = np.hstack([fr.embedding, fr.comp_embedding])
        assert frobenius(np.vstack([fr.chart, fr.comp_chart]) @ inv - np.eye(2)) <= 1e-13

    def test_shear_stack_hand_projectors(self):
        # stacked inverse of [[1,1],[0,1]] is [[1,-1],[0,1]] by hand
        fr = build_frame(*SHEAR, t=0.0)
        np.testing.assert_allclose(fr.embedding, [[1.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(fr.comp_embedding, [[-1.0], [1.0]], atol=1e-15)
        np.testing.assert_allclose(fr.projector, [[1.0, 1.0], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(fr.comp_projector, [[0.0, -1.0], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(fr.projector @ fr.projector, fr.projector, atol=1e-15)
        np.testing.assert_allclose(fr.projector @ fr.comp_projector, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(fr.projector + fr.comp_projector, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_singular_stack(self, t):
        chart = MatrixFunction.build([["1", "0"]])
        comp = MatrixFunction.build([["2", "0"]])
        with pytest.raises(SingularMatrixError) as info:
            build_frame(chart, comp, t=t)
        assert str(info.value).startswith(f"build_frame: stacked frame is singular at t={t!r}: invert: ")

    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_inverse_past_the_float_range_names_t(self, t):
        # Warnings are errors in this suite, so the overflow must also stay silent.
        chart = MatrixFunction.build([["1e-320", "0"]])
        comp = MatrixFunction.build([["0", "1e-320"]])
        with pytest.raises(EvaluationError) as info:
            build_frame(chart, comp, t=t)
        assert str(info.value) == f"build_frame: inverse of the stacked frame is not finite at t={t!r}"

    @pytest.mark.parametrize("position, name", enumerate([
        "idempotency (main)",
        "idempotency (comp)",
        "annihilation (main*comp)",
        "annihilation (comp*main)",
        "complementarity",
    ]))
    def test_nan_identity_residual_is_a_frame_error(self, monkeypatch, position, name):
        # One Frobenius call over the five construction identities, in this order.
        calls = []

        def frobenius(mats):
            calls.append(len(mats))
            residuals = np.zeros(5)
            residuals[position] = math.nan
            return residuals

        monkeypatch.setattr(linalg, "frobenius", frobenius)
        with pytest.raises(FrameError) as info:
            build_frame(MatrixFunction.build([["1", "0"]]), MatrixFunction.build([["0", "1"]]), t=0.25)
        assert str(info.value) == f"build_frame: identity '{name}' has residual nan > 1e-09 at t=0.25"
        assert calls == [5]

    def test_identity_residual_past_identity_tol_is_a_frame_error(self, monkeypatch):
        # The threshold is manifold.IDENTITY_TOL = 1e-9: a residual at it holds, the next float up fails.
        def frobenius_at(residual):
            return lambda mats: np.array([0.0, 0.0, residual, 0.0, 0.0])

        monkeypatch.setattr(linalg, "frobenius", frobenius_at(manifold.IDENTITY_TOL))
        build_frame(*IDENTITY, t=0.5)
        monkeypatch.setattr(linalg, "frobenius", frobenius_at(np.nextafter(manifold.IDENTITY_TOL, 1.0)))
        with pytest.raises(FrameError) as info:
            build_frame(*IDENTITY, t=0.5)
        assert str(info.value) == (
            "build_frame: identity 'annihilation (main*comp)' has residual 1.000e-09 > 1e-09 at t=0.5"
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_frame(MatrixFunction.build([["1", "0", "0"]]), MatrixFunction.build([["0", "1", "0"]]), t=0.0)

    def test_never_differentiates_a_chart(self, monkeypatch):
        def refuse(self):
            raise AssertionError("build_frame evaluated a chart derivative")

        monkeypatch.setattr(MatrixFunction, "derivative", refuse)
        for pair in (IDENTITY, ROTATION, SHEAR):
            build_frame(*pair, t=0.3)

    @pytest.mark.parametrize("t", [0.0, 1.5])
    @pytest.mark.parametrize("chart, comp", [
        ([["1", "0"]], [["2", "0"]]),            # singular stack
        ([["1e-320", "0"]], [["0", "1e-320"]]),  # inverse past the float range
    ])
    def test_failure_is_the_one_point_frame_samples_failure(self, chart, comp, t):
        chart, comp = MatrixFunction.build(chart), MatrixFunction.build(comp)
        spec = SystemSpec(coeff=MatrixFunction.constant(np.zeros((2, 2))), chart=chart, comp_chart=comp)
        with pytest.raises(InvmanError) as on_grid:
            frame_samples(spec, [t])
        with pytest.raises(InvmanError) as at_point:
            build_frame(chart, comp, t=t)
        assert type(at_point.value) is type(on_grid.value)
        assert str(at_point.value) == f"build_frame: {on_grid.value}"

    @pytest.mark.parametrize("seed", [5, 61])
    def test_embeddings_are_the_column_blocks_of_invert_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, m))
            top, bottom = random_well_conditioned_stack(rng, m, n)
            fr = build_frame(MatrixFunction.constant(top), MatrixFunction.constant(bottom), t=0.0)
            inv = linalg.invert(np.vstack([top, bottom]))
            assert fr.embedding.tobytes() == inv[:, :n].tobytes()
            assert fr.comp_embedding.tobytes() == inv[:, n:].tobytes()

    @pytest.mark.parametrize("seed, count, make_stack", [
        (21, 30, random_well_conditioned_stack),
        (42, 50, random_well_conditioned_stack),
        (9, 20, _orthogonal_complement_stack),
    ])
    def test_trace_equals_rank_property(self, seed, count, make_stack):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, m))
            top, bottom = make_stack(rng, m, n)
            fr = build_frame(MatrixFunction.constant(top), MatrixFunction.constant(bottom), t=0.0)
            assert abs(np.trace(fr.projector) - n) <= 1e-9
            assert abs(np.trace(fr.comp_projector) - (m - n)) <= 1e-9
            inv = np.hstack([fr.embedding, fr.comp_embedding])
            assert frobenius(np.vstack([top, bottom]) @ inv - np.eye(m)) <= 1e-11 * m
            if make_stack is _orthogonal_complement_stack:
                # Both routes to C+ agree when the complement is orthogonal.
                np.testing.assert_allclose(fr.embedding, right_pseudoinverse(top), atol=1e-10)

    def test_complementarity_property(self):
        rng = np.random.default_rng(33)
        top, bottom = random_well_conditioned_stack(rng, 5, 2)
        fr = build_frame(MatrixFunction.constant(top), MatrixFunction.constant(bottom), t=0.0)
        for _ in range(100):
            y = rng.standard_normal(5)
            recombined = fr.projector @ y + fr.comp_projector @ y
            assert np.linalg.norm(y - recombined) <= 1e-11 * np.linalg.norm(y)


class TestMembership:
    def test_zero_vector_in_all_four(self):
        fr = build_frame(*ROTATION, t=1.1)
        for kind in Subspace:
            res = membership(np.zeros(2), fr, kind)
            assert res.member and res.residual == 0.0

    def test_diagonal_frame(self):
        fr = build_frame(*IDENTITY, t=0.0)
        y = np.array([3.0, 0.0])
        assert membership(y, fr, Subspace.MAIN_RANGE).member
        assert not membership(y, fr, Subspace.MAIN_KERNEL).member
        assert membership(y, fr, Subspace.COMP_KERNEL).member
        assert not membership(y, fr, Subspace.COMP_RANGE).member

    def test_rotation_frame_member_on_main(self):
        t = 0.5
        fr = build_frame(*ROTATION, t=t)
        y = 2.0 * np.array([math.cos(t), math.sin(t)])
        res = membership(y, fr, Subspace.MAIN_RANGE)
        assert res.member and res.residual < 1e-14

    @pytest.mark.parametrize("residual, member", [(0.99e-8, True), (1.01e-8, False)])
    def test_the_threshold_is_a_relative_residual_of_1e_8(self, residual, member):
        fr = build_frame(*IDENTITY, t=0.0)
        for scale in (1.0, 1e-30, 1e30):
            y = scale * np.array([1.0, residual])
            res = membership(y, fr, Subspace.MAIN_RANGE)
            assert res.residual == pytest.approx(residual, rel=1e-12) and res.member is member

    def test_shape_check(self):
        fr = build_frame(*IDENTITY, t=0.0)
        with pytest.raises(ShapeError):
            membership(np.zeros(3), fr, Subspace.MAIN_RANGE)

    def test_a_vector_past_the_square_range_is_as_member_as_its_unit(self):
        fr = build_frame(*ROTATION, t=0.5)
        y = fr.embedding[:, 0]
        for kind in Subspace:
            unit = membership(y, fr, kind)
            # A power of two scales every step exactly: the same residual, bit for bit.
            assert membership(2.0**700 * y, fr, kind) == unit
            big = membership(1e200 * y, fr, kind)
            assert big.member == unit.member and big.residual == pytest.approx(unit.residual, rel=1e-12, abs=1e-15)
        big = membership(1e200 * y, fr, Subspace.MAIN_RANGE)
        assert big.member and big.residual < 1e-14

    def test_row_norms_past_the_square_range_are_finite(self):
        # One field's products past the square range: scaled exactly, and the other fields keep their bits.
        fr = build_frame(*IDENTITY, t=0.0)
        small, big = (
            check_kernel_identities(dataclasses.replace(fr, chart=np.array([[3.0, 4.0]]) * scale), samples=20)
            for scale in (1.0, 2.0**700)
        )
        assert math.isfinite(big.max_chart_on_comp) and big.max_chart_on_comp == small.max_chart_on_comp * 2.0**700
        assert dataclasses.replace(big, max_chart_on_comp=small.max_chart_on_comp) == small


class TestKernelIdentities:
    def test_identity_stack_exact(self):
        report = check_kernel_identities(build_frame(*IDENTITY, t=0.0), samples=20)
        assert report.max_residual == 0.0
        assert report.passed

    def test_rotation_stack(self):
        report = check_kernel_identities(build_frame(*ROTATION, t=0.7), samples=50, tol=1e-12)
        assert report.max_residual < 1e-12
        assert report.passed

    def test_shear_stack(self):
        # ker of the comp chart [0,1] is span{(1,0)}, which the main projector hits
        report = check_kernel_identities(build_frame(*SHEAR, t=0.0), samples=50, tol=1e-12)
        assert report.max_residual < 1e-12

    def test_shipped_scenario_frames(self):
        import json
        from pathlib import Path

        configs = Path(__file__).resolve().parent.parent / "configs"
        rng = np.random.default_rng(0)
        for path in sorted(configs.glob("*.json")):
            cfg = json.loads(path.read_text())
            chart = MatrixFunction.build(cfg["chart"])
            comp = MatrixFunction.build(cfg["comp_chart"])
            for t in rng.uniform(cfg["grid"]["start"], cfg["grid"]["end"], size=3):
                report = check_kernel_identities(build_frame(chart, comp, t), samples=100, tol=1e-9)
                assert report.passed, (path.name, t, report)


class TestEmbedding:
    def test_identity_stack_exact(self):
        report = check_embedding(build_frame(*IDENTITY, t=0.0), samples=20)
        assert report.injective
        assert report.image_residual == 0.0
        assert report.max_retraction_defect == 0.0

    def test_rotation_stack(self):
        report = check_embedding(build_frame(*ROTATION, t=0.9), samples=50, tol=1e-12)
        assert report.passed

    def test_random_polynomial_stack(self):
        top = MatrixFunction.build(
            [
                ["1", "t", "0", "0.2*t^2", "0"],
                ["0", "1", "0.5*t", "0", "0.1"],
                ["0.3", "0", "1", "t", "0"],
            ]
        )
        bottom = MatrixFunction.build(
            [
                ["0", "0.2", "0", "1", "0.4*t"],
                ["0.1*t", "0", "0", "0", "1"],
            ]
        )
        report = check_embedding(build_frame(top, bottom, t=1.0), samples=100, tol=1e-9)
        assert report.injective
        assert report.image_residual < 1e-9
        assert report.max_retraction_defect < 1e-9


class TestSampledSuites:
    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("suite", [check_kernel_identities, check_embedding])
    def test_fewer_than_one_sample_is_refused(self, suite, samples):
        message = f"{suite.__name__}: samples must be >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            suite(build_frame(*IDENTITY, t=0.0), samples=samples)

    @pytest.mark.parametrize("seed", [4, 29])
    @pytest.mark.parametrize("perturbed", ["chart", "comp_chart", "embedding", "projector", "comp_projector"])
    def test_fields_are_the_sampled_products_of_range_vectors(self, perturbed, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        top, bottom = random_well_conditioned_stack(rng, m, int(rng.integers(1, m)))
        fr = build_frame(MatrixFunction.constant(top), MatrixFunction.constant(bottom), t=0.0)
        # A hand-built frame off by about 1e-3 in one matrix: its residuals are far from rounding.
        matrix = getattr(fr, perturbed)
        fr = dataclasses.replace(fr, **{perturbed: matrix + 1e-3 * rng.standard_normal(matrix.shape)})
        kernel = check_kernel_identities(fr, samples=40, seed=seed)
        embedding = check_embedding(fr, samples=40, seed=seed)
        got = {**dataclasses.asdict(kernel), **dataclasses.asdict(embedding)}
        want = reference_identity_samples(fr, samples=40, seed=seed)
        assert max(want.values()) > 1e-5
        for field, value in want.items():
            # A residual is a difference of unit-scale terms: the absolute part covers their rounding,
            # and an identity the perturbation leaves intact, which both routes leave at rounding.
            assert got[field] == pytest.approx(value, rel=1e-12, abs=1e-14), field

    @pytest.mark.parametrize("suite, field", [
        (check_kernel_identities, "max_chart_on_comp"),
        (check_embedding, "max_retraction_defect"),
    ])
    def test_a_nan_residual_fails_its_suite(self, suite, field):
        fr = dataclasses.replace(build_frame(*IDENTITY, t=0.0), chart=np.array([[math.nan, 0.0]]))
        report = suite(fr, samples=10)
        assert math.isnan(getattr(report, field))
        assert report.passed is False

    @pytest.mark.parametrize("position", range(4))
    def test_a_nan_in_any_kernel_field_is_the_max_residual(self, position):
        fields = [0.0, 0.0, 0.0, 0.0]
        fields[position] = math.nan
        report = KernelIdentityReport(10, *fields, tol=1e-9)
        assert math.isnan(report.max_residual)
        assert report.passed is False

    @pytest.mark.parametrize("image, retraction", [(math.nan, 0.0), (0.0, math.nan)])
    def test_a_nan_embedding_residual_fails(self, image, retraction):
        report = EmbeddingReport(True, image, retraction, samples=10, tol=1e-9)
        assert report.passed is False
