"""Numerical flows: fundamental matrices, confinement drift, conjugacy.

The integrator is classical fixed-step RK4 on the matrix equation
dY/dt = A(t) Y.  Fixed stepping keeps the error-order property tests clean
(halving h divides the error by about 16).  Windows may run backward:
t1 < t0 flips the step sign.

One RK4 step of the linear system is a matrix, y <- M_k y.  ``run_flow``,
``manifold_drift`` and ``conjugacy_check`` are views of one sampled march,
``_march``: A(t) once on the half-step grid of the window, whose even points
are the step grid bit for bit (0.5*h*2k == h*k exactly), the frames on the
step grid (on the half steps only for the conjugacy check's reduced flow X,
the same march of R(t)), one draw of the launch coefficients c and one march
Y_{k+1} = M_k Y_k, every trajectory being Y_k c.  Of the frames the march
samples only what it reads: C and C+ (``invariance._right_inverse`` without
dC/dt, the elimination over [F | E_n] on the stacked route), and dC/dt for
R = (dC/dt + C A) C+ alone.  A C+ that is not finite or a singular stacked
frame F raises at its first time with ``frame_samples``' texts; dC+/dt and
the complement columns of F^-1 are not formed, so only the verdict grid
refuses them.  A drift or conjugacy residual, or a reduced matrix R, that
is not finite raises EvaluationError at its first time.  ``_march_size``
sizes every march by the budget rule that every system and scenario grid
keeps too, ``invariance._require_budget``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import IntegrationOverflowError, PreconditionError, ShapeError
from .invariance import (
    DEFAULT_GRID_SPAN,
    DEFAULT_VERDICT_TOL,
    InvarianceReport,
    SystemSpec,
    _reduced,
    _require_budget,
    _require_finite,
    _right_inverse,
    verdicts,
)
# Unused here since the march samples C+ alone, but perfbench/test_perfbench.py checks that the tracer wraps this binding.
from .invariance import frame_samples  # noqa: F401
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
_STEP_BYTES = 2**17         # step matrices of one RK4 chunk: about what stays in cache
# Each curve of a flow report, by its JSON and CSV key, as the FlowResult field that holds it, in CSV column order.
_FLOW_CURVES = {"drift_mn": "drift_mn", "drift_complement": "drift_complement",
                "conjugacy_residual": "conjugacy_residuals"}


def _march_size(t_span: tuple[float, float], h: float, m: int, columns: int) -> tuple[float, float, int]:
    """Start, effective step and step count n (0 over a zero-length window) of a march of an m-dimensional system
    that carries ``columns`` launched states: each half step holds m x max(m, columns) entries."""
    t0, t1, h = float(t_span[0]), float(t_span[1]), float(h)  # Python floats: an overflow here is inf, not a warning
    if not (0 < h < np.inf and np.isfinite((t1 - t0) / h)):  # a finite step count over a finite window
        raise ValueError(f"step must be in (0, inf) over a finite window, got h={h!r}, window=({t0!r}, {t1!r})")
    n = max(1, round(abs(t1 - t0) / h)) if t1 != t0 else 0
    _require_budget(f"step {h!r} over window ({t0!r}, {t1!r})", 2 * n + 1, "half steps", m * max(m, columns))
    return t0, (t1 - t0) / n if n else 0.0, n


def _half_grid(t_span: tuple[float, float], h: float, m: int, columns: int) -> tuple[float, float, np.ndarray]:
    """Window start, effective step and the 2n+1 half-step times of an n-step march, sized by ``_march_size``."""
    t0, h_eff, n = _march_size(t_span, h, m, columns)
    return t0, h_eff, t0 + 0.5 * h_eff * np.arange(2 * n + 1)


def _fundamental(samples: np.ndarray, t0: float, h_eff: float, *launches) -> list[np.ndarray]:
    """[Y, Y c, ...]: fundamental matrices Y_0 = E, ..., Y_n of y' = A(t) y, given A at t0, t0+h/2, ..., t0+nh.

    One RK4 step is y <- M_k y, M_k = E + h/6 (K1 + 2K2 + 2K3 + K4), K1 = A0, K2 = Ah (E + h/2 K1),
    K3 = Ah (E + h/2 K2), K4 = A1 (E + h K3), built for as many steps at a time as fill ``_STEP_BYTES``;
    each Y_{k+1} = M_k Y_k is one ``dot`` into its slot.  IntegrationOverflowError names the first step
    at which Y or any launch Y c is not finite.
    """
    n = (samples.shape[0] - 1) // 2
    eye = np.eye(samples.shape[-1])
    fund = np.empty((n + 1,) + eye.shape)
    fund[0] = eye
    chunk = _STEP_BYTES // eye.nbytes or 1  # steps whose step matrices fill _STEP_BYTES
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, chunk):
            part = samples[2 * lo : 2 * (lo + chunk) + 1]
            a0, ah, a1 = part[:-1:2], part[1::2], part[2::2]
            k2 = ah @ (eye + 0.5 * h_eff * a0)
            k3 = ah @ (eye + 0.5 * h_eff * k2)
            k4 = a1 @ (eye + h_eff * k3)
            steps = eye + (h_eff / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
            for step, y, nxt in zip(steps, fund[lo:], fund[lo + 1 :]):
                step.dot(y, out=nxt)
        states = [fund] + [fund @ c for c in launches]
    finite = np.logical_and.reduce([np.isfinite(s).reshape(len(s), -1).all(axis=1) for s in states])
    if not finite.all():
        step = int(np.argmin(finite))
        raise IntegrationOverflowError(step=step, t=t0 + step * h_eff)
    return states


def _require_launches(trials: int, seed: int) -> None:
    """Refuse launch arguments before anything is sampled."""
    if trials < 1 or seed < 0:
        raise ValueError(f"trials must be >= 1 and seed >= 0, got trials={trials!r}, seed={seed!r}")


def _drift(ts: np.ndarray, proj: np.ndarray, traj: np.ndarray, side: str) -> np.ndarray:
    """Worst relative off-side component over the trajectories, per sample of ``ts``; it must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        off = proj @ traj if side == SIDE_COMPLEMENT else (np.eye(proj.shape[-1]) - proj) @ traj
        # Each trajectory's state as an (m, 1) matrix: its Frobenius norm is its scale-safe 2-norm.
        off_norm, traj_norm = (linalg.frobenius(np.swapaxes(x, 1, 2)[..., None]) for x in (off, traj))
        rel = np.where(traj_norm > 0.0, off_norm / np.maximum(traj_norm, np.finfo(float).tiny), 0.0)
    drift = np.max(rel, axis=1)
    _require_finite(ts, {f"drift_{side}": drift})
    return drift


def _march(spec: SystemSpec, t_span: tuple[float, float], h: float, sides: tuple[str, ...] = (), trials: int = 0,
           seed: int = 0, conjugacy: bool = False) -> tuple[np.ndarray, list, Optional[ConjugacyResult]]:
    """Step times, a drift curve per side and, if asked, the conjugacy check, from one march of a window.

    Each side launches ``trials`` states from the same c, drawn from ``default_rng(seed)``.
    """
    t0, h_eff, half_ts = _half_grid(t_span, h, spec.m, trials)
    ts, every = half_ts[::2], 2 if conjugacy else 1
    frame_ts = half_ts if conjugacy else ts
    chart_g = spec.chart.eval_grid(frame_ts)
    dchart_g = spec.chart.derivative().eval_grid(frame_ts) if conjugacy else None
    (embedding_g,) = _right_inverse(spec, frame_ts, chart_g)
    coeff = spec.coeff.eval_grid(half_ts)
    chart, embedding = chart_g[::every], embedding_g[::every]
    proj = embedding @ chart
    launches = []
    if sides:  # the conjugacy-only march draws nothing, so it leaves numpy.random unimported
        c = np.random.default_rng(seed).standard_normal((spec.m, trials))
        launches = [proj[0] @ c if side == SIDE_MAIN else (np.eye(spec.m) - proj[0]) @ c for side in sides]
    fund, *trajs = _fundamental(coeff, t0, h_eff, *launches)
    drifts = [_drift(ts, proj, traj, side) for side, traj in zip(sides, trajs)]
    if not conjugacy:
        return ts, drifts, None
    (reduced,) = _fundamental(_reduced(frame_ts, chart_g, dchart_g, embedding_g, coeff), t0, h_eff)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = fund @ embedding[0]       # (N+1, m, n)
        residuals = {
            "conjugacy_embedding": linalg.frobenius(lhs - embedding @ reduced),
            "conjugacy_chart": linalg.frobenius(reduced - chart @ lhs),
        }
    _require_finite(ts, residuals)
    return ts, drifts, ConjugacyResult(ts, *residuals.values(), fundamental=fund, reduced=reduced)


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
    if y0.ndim not in (1, 2) or y0.shape[0] != coeff.rows:
        raise ShapeError(f"initial state has shape {y0.shape}, system is {coeff.rows}-dimensional")
    start, h_eff, half_ts = _half_grid((t0, t1), h, coeff.rows, y0[0].size)
    _, states = _fundamental(coeff.eval_grid(half_ts), start, h_eff, y0)
    return FundamentalSolution(ts=half_ts[::2], matrices=states)


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
    _require_launches(trials, seed)
    ts, (drift,), _ = _march(spec, t_span, h, (side,), trials, seed)
    return DriftResult(side=side, ts=ts, residuals=drift, seed=seed, h=h, trials=trials)


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
    return _march(spec, t_span, h, conjugacy=True)[2]


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

    def _curves(self) -> dict:
        return {key: getattr(self, field) for key, field in _FLOW_CURVES.items()}

    def to_dict(self) -> dict:
        """The report's values; a curve that was not formed, and its max, are None."""
        curves = self._curves()
        return {
            "window": [self.window[0], self.window[1]],
            "h": self.h,
            "seed": self.seed,
            "trials": self.trials,
            "main_invariant": self.main_invariant,
            "t": self.ts.tolist(),
            **{key: None if curve is None else curve.tolist() for key, curve in curves.items()},
            "max": {key: None if curve is None else float(np.max(curve)) for key, curve in curves.items()},
        }

    @cached_property
    def _reprs(self) -> dict:
        """The float reprs of each column, rendered once: "t", then each curve by its key, None for one not formed.

        ``csv_rows`` and the CLI's JSON lists read these same strings."""
        columns = {"t": self.ts, **self._curves()}
        return {key: None if column is None else list(map(float.__repr__, column.tolist()))
                for key, column in columns.items()}

    def csv_rows(self):
        """Rows of float reprs for the pinned CSV columns: t, then each curve, nan for a curve not formed."""
        nan = ["nan"] * self.ts.size
        return zip(*(nan if column is None else column for column in self._reprs.values()))


def run_flow(
    spec: SystemSpec,
    h: float = DEFAULT_STEP,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    t_span: tuple[float, float] = DEFAULT_GRID_SPAN,
    tol: float = DEFAULT_VERDICT_TOL,
) -> FlowResult:
    """Drift on both sides plus, when the subspace is invariant, the conjugacy curve.

    All come from one march, so an overflow names the first step at which Y
    or any trial leaves the float range.
    """
    _require_launches(trials, seed)
    report = verdicts(spec, tol)
    sides = (SIDE_MAIN, SIDE_COMPLEMENT)
    ts, (mn, comp), conj = _march(spec, t_span, h, sides, trials, seed, conjugacy=report.main_invariant)
    return FlowResult(
        ts=ts,
        drift_mn=mn,
        drift_complement=comp,
        conjugacy_residuals=None if conj is None else conj.embedding_residuals,
        main_invariant=report.main_invariant,
        seed=seed,
        h=h,
        trials=trials,
        window=(float(t_span[0]), float(t_span[1])),
    )
