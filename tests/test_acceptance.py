"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance here is fixed; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np

from invman.flow import (
    SIDE_COMPLEMENT,
    SIDE_MAIN,
    conjugacy_check,
    integrate_fundamental,
    manifold_drift,
)
from invman.invariance import SystemSpec, frame_samples, verdicts
from invman.linalg import frobenius, rank
from invman.manifold import build_frame, check_embedding, check_kernel_identities
from invman.matexpr import MatrixFunction
from invman.scenario import (
    Structure,
    expected_verdicts,
    random_frame,
    random_scenario,
    to_system,
)

from helpers import random_well_conditioned_stack


def _report(number: int, label: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def _fifty_stacks():
    rng = np.random.default_rng(2718)
    stacks = []
    for _ in range(50):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m))
        stacks.append(random_well_conditioned_stack(rng, m, n))
    return stacks


def test_criterion_1_projector_algebra():
    started = time.perf_counter()
    for top, bottom in _fifty_stacks():
        n, m = top.shape
        p = m - n
        fr = build_frame(MatrixFunction.constant(top), MatrixFunction.constant(bottom), t=0.0)
        eye = np.eye(m)
        assert frobenius(fr.projector @ fr.projector - fr.projector) <= 1e-9
        assert frobenius(fr.comp_projector @ fr.comp_projector - fr.comp_projector) <= 1e-9
        assert frobenius(fr.projector @ fr.comp_projector) <= 1e-9
        assert frobenius(fr.comp_projector @ fr.projector) <= 1e-9
        assert frobenius(fr.projector + fr.comp_projector - eye) <= 1e-9
        assert rank(fr.projector) == n
        assert rank(fr.comp_projector) == p
    _report(1, "projector algebra on 50 random stacks", time.perf_counter() - started, 1.0)


def test_criterion_2_kernel_and_embedding_suites():
    started = time.perf_counter()
    for i, (top, bottom) in enumerate(_fifty_stacks()):
        fr = build_frame(MatrixFunction.constant(top), MatrixFunction.constant(bottom), t=0.0)
        kernel = check_kernel_identities(fr, seed=i)
        assert kernel.passed, kernel
        embed = check_embedding(fr, seed=i)
        assert embed.passed, embed
    _report(2, "kernel identities and embedding checks", time.perf_counter() - started, 2.0)


def test_criterion_3_verdict_round_trip():
    started = time.perf_counter()
    grid = np.linspace(0.0, 5.0, 201)
    for structure in Structure:
        for seed in range(20):
            m = 3 if seed % 2 == 0 else 4
            n = 1 + seed % (m - 1)
            scen = random_scenario(structure, m=m, n=n, seed=seed, t_grid=grid)
            report = verdicts(to_system(scen), tol=1e-8)
            got = (
                report.joint_invariant,
                report.main_invariant,
                report.complement_kernel_condition,
            )
            assert got == tuple(expected_verdicts(scen)), (structure, seed)
    _report(3, "verdicts match ground truth on 80 scenarios", time.perf_counter() - started, 10.0)


def test_criterion_4_dynamical_confinement():
    started = time.perf_counter()
    window = (0.0, 5.0)
    for seed in range(3):
        spec = to_system(random_scenario(Structure.BLOCK_DIAGONAL, m=3, n=2, seed=seed))
        for side in (SIDE_MAIN, SIDE_COMPLEMENT):
            drift = manifold_drift(spec, side, h=1e-3, trials=5, seed=seed, t_span=window)
            assert drift.max_residual <= 1e-7, (seed, side, drift.max_residual)
    for seed in range(3):
        scen = random_scenario(Structure.UPPER_TRIANGULAR, m=3, n=2, seed=seed)
        coupling = scen.c.eval_grid(scen.t_grid)
        coupling_norm = float(np.max(np.sqrt(np.sum(coupling**2, axis=(1, 2)))))
        assert coupling_norm >= 0.5  # premise of the criterion
        spec = to_system(scen)
        on = manifold_drift(spec, SIDE_MAIN, h=1e-3, trials=5, seed=seed, t_span=window)
        off = manifold_drift(spec, SIDE_COMPLEMENT, h=1e-3, trials=5, seed=seed, t_span=window)
        assert on.max_residual <= 1e-7, (seed, on.max_residual)
        assert off.max_residual > 1e-3, (seed, off.max_residual)
    _report(4, "confinement and one-sided leakage", time.perf_counter() - started, 30.0)


def test_criterion_5_conjugacy():
    started = time.perf_counter()
    for structure in (Structure.BLOCK_DIAGONAL, Structure.UPPER_TRIANGULAR):
        for seed in range(3):
            spec = to_system(random_scenario(structure, m=3, n=2, seed=seed))
            conj = conjugacy_check(spec, h=1e-3, t_span=(0.0, 2.0))
            assert conj.max_embedding_residual <= 1e-6, (structure, seed)
            assert conj.max_chart_residual <= 1e-6, (structure, seed)
    _report(5, "flow conjugacy through the embedding", time.perf_counter() - started, 30.0)


def test_criterion_6_projector_derivative_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(31415)
    h = 1e-6
    for case in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, m))
        frame = random_frame(m, n, rng)
        with_comp = case % 2 == 0
        spec = SystemSpec(
            coeff=MatrixFunction.zeros(m, m),
            chart=frame.chart,
            comp_chart=frame.comp_chart if with_comp else None,
            t_grid=np.linspace(0.0, 5.0, 3),
        )
        for t in np.linspace(0.1, 4.9, 20):
            fs = frame_samples(spec, [t - h, t, t + h])
            proj = fs.projector
            fd = (proj[2] - proj[0]) / (2.0 * h)
            sym = fs.dprojector[1]
            assert float(np.max(np.abs(sym - fd))) <= 1e-7, (case, t)
    _report(6, "symbolic projector derivative vs finite differences", time.perf_counter() - started, 30.0)


def test_criterion_7_integrator_order():
    started = time.perf_counter()
    cases = [
        (MatrixFunction.build([["-1"]]), 1.0, np.array([[math.exp(-1.0)]])),
        (
            MatrixFunction.build([["0", "1"], ["-1", "0"]]),
            3.2,
            np.array([[math.cos(3.2), math.sin(3.2)], [-math.sin(3.2), math.cos(3.2)]]),
        ),
    ]
    for coeff, t1, closed in cases:
        errs = []
        for h in (0.02, 0.01):
            final = integrate_fundamental(coeff, 0.0, t1, h).final
            errs.append(float(np.max(np.abs(final - closed))))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0, ratio
    _report(7, "RK4 error shrinks ~16x when h halves", time.perf_counter() - started, 30.0)


def test_criterion_8_one_sided_check_equivalence():
    started = time.perf_counter()
    tol = 1e-8
    for structure in Structure:
        for seed in range(5):
            spec = to_system(random_scenario(structure, m=3, n=2, seed=seed))
            report = verdicts(spec, tol=tol)
            fs = frame_samples(spec, spec.t_grid)
            kappa = max(
                frobenius(fs.chart[i]) * frobenius(fs.embedding[i])
                for i in range(spec.t_grid.size)
            )
            main_form = report.max_defect_main <= tol
            embedding_form = report.max_defect_embedding <= kappa * tol
            assert main_form == embedding_form, (structure, seed)
    _report(8, "defect@P and defect@C+ verdicts agree", time.perf_counter() - started, 30.0)
