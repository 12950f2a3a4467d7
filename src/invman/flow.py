"""Numerical flows: fundamental matrices, confinement drift, conjugacy.

The integrator is classical fixed-step RK4 on the matrix equation
dY/dt = A(t) Y.  Fixed stepping keeps the error-order property tests clean
(halving h divides the error by about 16).  Windows may run backward:
t1 < t0 flips the step sign.

A run samples once and marches once: ``run_flow`` samples A(t) and the
frames on the RK4 half-step grid of its window, whose even-indexed points
are the step grid bit for bit (0.5*h*2k == h*k exactly), and one march
advances the launches on both sides together with the identity columns of
the fundamental matrix.  ``manifold_drift`` and ``conjugacy_check`` compose
the same helpers for one curve each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import IntegrationOverflowError, PreconditionError, ShapeError
from .invariance import (
    DEFAULT_GRID_SPAN,
    DEFAULT_VERDICT_TOL,
    FrameSamples,
    InvarianceReport,
    SystemSpec,
    frame_samples,
    verdicts,
)
from .matexpr import MatrixFunction

__all__ = [
    "SIDE_MAIN",
    "SIDE_COMPLEMENT",
    "FundamentalSolution",
    "integrate_fundamental",
    "integrate_states",
    "DriftResult",
    "manifold_drift",
    "ConjugacyResult",
    "conjugacy_check",
    "FlowResult",
    "run_flow",
]

SIDE_MAIN = "mn"            # launch on the n-dimensional subspace
SIDE_COMPLEMENT = "complement"

DEFAULT_STEP = 1e-3
DEFAULT_TRIALS = 5          # trajectories per drift side
DEFAULT_SEED = 42


def _half_grid(t_span: tuple[float, float], h: float) -> tuple[float, float, np.ndarray]:
    """Window start, effective step and the 2n+1 half-step times of an n-step march.

    A zero-length window takes no step; its grid is the single time t0.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    n = max(1, round(abs(t1 - t0) / h)) if t1 != t0 else 0
    h_eff = (t1 - t0) / n if n else 0.0
    return t0, h_eff, t0 + 0.5 * h_eff * np.arange(2 * n + 1)


def _rk4(samples: np.ndarray, blocks: list, t0: float, h_eff: float) -> list[np.ndarray]:
    """March y' = A(t) y with A given at half-step resolution; one trajectory per block.

    ``samples`` holds A at t0, t0+h/2, t0+h, ... (2n+1 matrices for n steps).
    The blocks of initial columns advance together, but A multiplies each
    block on its own: a BLAS product rounds by the width of its operand, and
    each block must come out bit for bit as if it had been marched alone.
    """
    n = (samples.shape[0] - 1) // 2
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    ends = np.cumsum([b.shape[-1] for b in blocks])
    parts = [slice(end - b.shape[-1], end) for b, end in zip(blocks, ends)]

    def times(a: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.concatenate([a @ y[..., p] for p in parts], axis=-1)

    y = np.concatenate(blocks, axis=-1)
    out = np.empty((n + 1,) + y.shape)
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        for i in range(n):
            a0, ah, a1 = samples[2 * i], samples[2 * i + 1], samples[2 * i + 2]
            k1 = times(a0, y)
            k2 = times(ah, y + 0.5 * h_eff * k1)
            k3 = times(ah, y + 0.5 * h_eff * k2)
            k4 = times(a1, y + h_eff * k3)
            y = y + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise IntegrationOverflowError(step=i + 1, t=t0 + (i + 1) * h_eff)
            out[i + 1] = y
    return [out[..., p] for p in parts]


def _every_other(fs: FrameSamples) -> FrameSamples:
    """Frames on the half-step grid, cut down to the step grid."""
    return FrameSamples(fs.ts[::2], fs.chart[::2], fs.dchart[::2], fs.embedding[::2], fs.dembedding[::2])


def _launch(proj0: np.ndarray, side: str, trials: int, seed: int) -> np.ndarray:
    """``trials`` random initial states on one side of the splitting at P(t0) = ``proj0``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    c = np.random.default_rng(seed).standard_normal((proj0.shape[0], trials))
    return proj0 @ c if side == SIDE_MAIN else (np.eye(proj0.shape[0]) - proj0) @ c


def _drift(proj: np.ndarray, traj: np.ndarray, side: str) -> np.ndarray:
    """Worst relative off-side component over the trajectories, per sample."""
    off = proj @ traj if side == SIDE_COMPLEMENT else (np.eye(proj.shape[-1]) - proj) @ traj
    off_norm = np.linalg.norm(off, axis=1)      # (N+1, trials)
    traj_norm = np.linalg.norm(traj, axis=1)
    rel = np.where(traj_norm > 0.0, off_norm / np.maximum(traj_norm, np.finfo(float).tiny), 0.0)
    return np.max(rel, axis=1)


@dataclass(frozen=True, eq=False)
class FundamentalSolution:
    """Sampled fundamental matrix: identity at ts[0], one sample per step."""

    ts: np.ndarray
    matrices: np.ndarray  # (N+1, k, k)

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]


def integrate_states(
    coeff: MatrixFunction, y0, t0: float, t1: float, h: float
) -> FundamentalSolution:
    """Integrate dY/dt = A(t) Y from an arbitrary initial matrix (or vector batch)."""
    if coeff.rows != coeff.cols:
        raise ShapeError(f"system matrix must be square, got {coeff.shape}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape[0] != coeff.rows:
        raise ShapeError(f"initial state has {y0.shape[0]} rows, system is {coeff.rows}-dimensional")
    start, h_eff, half_ts = _half_grid((t0, t1), h)
    (mats,) = _rk4(coeff.eval_grid(half_ts), [y0], start, h_eff)
    return FundamentalSolution(ts=half_ts[::2], matrices=mats)


def integrate_fundamental(coeff: MatrixFunction, t0: float, t1: float, h: float) -> FundamentalSolution:
    """Fundamental matrix of dY/dt = A(t) Y with Y(t0) = identity."""
    return integrate_states(coeff, np.eye(coeff.rows), t0, t1, h)


@dataclass(frozen=True, eq=False)
class DriftResult:
    """Per-sample confinement drift of trajectories launched on one side.

    ``residuals[i]`` is the worst relative off-side component over the trial
    trajectories at sample i: the norm of the component that should vanish,
    divided by the trajectory norm (so growth or decay does not mask it).
    """

    side: str
    ts: np.ndarray
    residuals: np.ndarray
    seed: int
    h: float
    trials: int

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def manifold_drift(
    spec: SystemSpec,
    side: str,
    h: float = DEFAULT_STEP,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    t_span: tuple[float, float] = DEFAULT_GRID_SPAN,
) -> DriftResult:
    """Launch random trajectories on one side of the splitting and measure leakage.

    Side ``"mn"`` starts at P(t0) c and reports |(E - P(t)) y(t)| / |y(t)|;
    side ``"complement"`` starts at (E - P(t0)) c and reports |P(t) y(t)| / |y(t)|.
    """
    if side not in (SIDE_MAIN, SIDE_COMPLEMENT):
        raise ValueError(f"side must be {SIDE_MAIN!r} or {SIDE_COMPLEMENT!r}, got {side!r}")
    t0, h_eff, half_ts = _half_grid(t_span, h)
    ts = half_ts[::2]
    proj = frame_samples(spec, ts).projector
    (traj,) = _rk4(spec.coeff.eval_grid(half_ts), [_launch(proj[0], side, trials, seed)], t0, h_eff)
    return DriftResult(
        side=side,
        ts=ts,
        residuals=_drift(proj, traj, side),
        seed=seed,
        h=h,
        trials=trials,
    )


@dataclass(frozen=True, eq=False)
class ConjugacyResult:
    """Residuals tying the full flow to the reduced flow on the subspace.

    ``embedding_residuals`` is |Y(t) C+(t0) - C+(t) X(t)|_F per sample, the
    conjugacy relation itself; ``chart_residuals`` is |X(t) - C(t) Y(t) C+(t0)|_F,
    its chart-side form.  Y and X are the sampled fundamental matrices of the
    full and reduced systems.
    """

    ts: np.ndarray
    embedding_residuals: np.ndarray
    chart_residuals: np.ndarray
    fundamental: np.ndarray  # (N+1, m, m)
    reduced: np.ndarray      # (N+1, n, n)

    @property
    def max_embedding_residual(self) -> float:
        return float(np.max(self.embedding_residuals))

    @property
    def max_chart_residual(self) -> float:
        return float(np.max(self.chart_residuals))


def conjugacy_check(
    spec: SystemSpec,
    h: float = DEFAULT_STEP,
    t_span: tuple[float, float] = (0.0, 2.0),
    tol: float = DEFAULT_VERDICT_TOL,
) -> ConjugacyResult:
    """Compare the full flow against the reduced flow through the embedding.

    Requires the main-subspace invariance verdict at ``tol``: off an invariant
    subspace the reduced equation has no meaning, so the check refuses to run
    and reports the offending residual instead.
    """
    return _checked_conjugacy(spec, verdicts(spec, tol), h, t_span)


def _checked_conjugacy(
    spec: SystemSpec, report: InvarianceReport, h: float, t_span: tuple[float, float]
) -> ConjugacyResult:
    """``conjugacy_check`` given the spec's verdicts, for a caller that already has them."""
    if not report.main_invariant:
        raise PreconditionError(
            "conjugacy_check: the subspace is not invariant at tolerance "
            f"{report.tolerance:g} (max one-sided defect {report.max_defect_main:.3e}); "
            "comparing flows off an invariant subspace is meaningless",
            residual=report.max_defect_main,
        )
    t0, h_eff, half_ts = _half_grid(t_span, h)
    frames, coeff = frame_samples(spec, half_ts), spec.coeff.eval_grid(half_ts)
    (fund,) = _rk4(coeff, [np.eye(spec.m)], t0, h_eff)
    return _conjugacy(frames, coeff, fund, t0, h_eff)


def _conjugacy(
    frames: FrameSamples, coeff: np.ndarray, fund: np.ndarray, t0: float, h_eff: float
) -> ConjugacyResult:
    """Conjugacy residuals of the fundamental matrix ``fund``, given frames and A on its half steps."""
    steps = _every_other(frames)
    (reduced,) = _rk4(frames.reduced(coeff), [np.eye(steps.chart.shape[1])], t0, h_eff)
    lhs = fund @ steps.embedding[0]       # (N+1, m, n)
    return ConjugacyResult(
        ts=steps.ts,
        embedding_residuals=linalg.frobenius(lhs - steps.embedding @ reduced),
        chart_residuals=linalg.frobenius(reduced - steps.chart @ lhs),
        fundamental=fund,
        reduced=reduced,
    )


@dataclass(frozen=True, eq=False)
class FlowResult:
    """Aggregate flow diagnostics on one window, CLI-facing.

    ``conjugacy_residuals`` holds the embedding-relation residual curve when
    the main-subspace verdict holds on the spec's grid, else None.
    """

    ts: np.ndarray
    drift_mn: np.ndarray
    drift_complement: np.ndarray
    conjugacy_residuals: Optional[np.ndarray]
    main_invariant: bool
    seed: int
    h: float
    trials: int
    window: tuple[float, float]

    def to_dict(self) -> dict:
        conj = self.conjugacy_residuals
        return {
            "window": [self.window[0], self.window[1]],
            "h": self.h,
            "seed": self.seed,
            "trials": self.trials,
            "main_invariant": self.main_invariant,
            "t": self.ts.tolist(),
            "drift_mn": self.drift_mn.tolist(),
            "drift_complement": self.drift_complement.tolist(),
            "conjugacy_residual": None if conj is None else conj.tolist(),
            "max": {
                "drift_mn": float(np.max(self.drift_mn)),
                "drift_complement": float(np.max(self.drift_complement)),
                "conjugacy_residual": None if conj is None else float(np.max(conj)),
            },
        }

    def csv_rows(self):
        """Rows for the pinned CSV columns: t, drift_mn, drift_complement, conjugacy_residual."""
        conj = self.conjugacy_residuals
        if conj is None:
            conj = np.full(self.ts.size, np.nan)
        for row in zip(self.ts, self.drift_mn, self.drift_complement, conj):
            yield [repr(float(x)) for x in row]


def run_flow(
    spec: SystemSpec,
    h: float = DEFAULT_STEP,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    t_span: tuple[float, float] = DEFAULT_GRID_SPAN,
    tol: float = DEFAULT_VERDICT_TOL,
) -> FlowResult:
    """Drift on both sides plus, when the subspace is invariant, the conjugacy curve.

    One march advances the trials of both sides and, when the subspace is
    invariant, the identity columns of the fundamental matrix, so an overflow
    names the first step at which any of them leaves the floating-point range.
    """
    t0, h_eff, half_ts = _half_grid(t_span, h)
    frames, coeff = frame_samples(spec, half_ts), spec.coeff.eval_grid(half_ts)
    report = verdicts(spec, tol)
    proj = _every_other(frames).projector
    columns = [_launch(proj[0], side, trials, seed) for side in (SIDE_MAIN, SIDE_COMPLEMENT)]
    if report.main_invariant:
        columns.append(np.eye(spec.m))
    mn, comp, *fund = _rk4(coeff, columns, t0, h_eff)
    conj = _conjugacy(frames, coeff, fund[0], t0, h_eff).embedding_residuals if fund else None
    return FlowResult(
        ts=half_ts[::2],
        drift_mn=_drift(proj, mn, SIDE_MAIN),
        drift_complement=_drift(proj, comp, SIDE_COMPLEMENT),
        conjugacy_residuals=conj,
        main_invariant=report.main_invariant,
        seed=seed,
        h=h,
        trials=trials,
        window=(float(t_span[0]), float(t_span[1])),
    )
