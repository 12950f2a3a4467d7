"""Numerical flows: fundamental matrices, confinement drift, conjugacy.

The integrator is classical fixed-step RK4 on the matrix equation
dY/dt = A(t) Y.  Fixed stepping keeps the error-order property tests clean
(halving h divides the error by about 16).  Windows may run backward:
t1 < t0 flips the step sign.

One RK4 step of the linear system is a matrix, y <- M_k y.  ``integrate_*``,
``run_flow``, ``manifold_drift`` and ``conjugacy_check`` are views of one
sampled march, ``_march``, which walks the window one chunk of steps at a
time: as many steps as fill ``_STEP_BYTES`` with step matrices (64 at
m = 16).  For each chunk it samples the frames on the chunk's points (the
step grid, or the half steps for the conjugacy check's reduced flow X, the
same march of R(t)), marches Y_{k+1} = M_k Y_k from the previous chunk's
last Y, takes every trajectory as Y_k c (one draw of the launch coefficients
c), forms the drift rows, R, X from the previous chunk's last X and the
conjugacy residual rows, writes the rows into the window's curves and drops
the chunk's stacks.  A(t) is sampled on the half steps once per piece of
whole chunks that fills ``_PIECE_BYTES``, whose even points are the step
grid bit for bit (0.5*h*2k == h*k exactly).  Sampling a sub-grid, inverting
each matrix on its own and forming each step's products give the bits of
the whole window at once, so no chunk size moves a bit.  Only the public
results that hold Y, X or the launched states keep them, whole.  Of the
frames the march samples only what it reads, as one ``FrameSamples`` from
``invariance._march_frames``: C and C+ (the elimination over [F | E_n] on
the stacked route), and dC/dt for R = (dC/dt + C A) C+ alone.  A C+ that
is not finite or a singular stacked frame F raises at its first time with
``frame_samples``' texts; dC+/dt and the complement columns of F^-1 are
not formed, so only the verdict grid refuses them.  A drift or conjugacy
residual, or a reduced matrix R, that is not finite raises EvaluationError
at its first time.  A march reports the failure the whole window at once
would: the first stage of ``_STAGES`` that fails in any chunk, at its
earliest time (``_FirstFailure``).  ``_march_size`` sizes every march by the
budget rule that every system and scenario grid keeps too,
``invariance._require_budget``: it bounds the window's half steps, although
the march holds only a chunk of them, and a piece of A, at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import IntegrationOverflowError, NumericalError, PreconditionError, ShapeError, _IndexedError
from .invariance import (
    DEFAULT_GRID_SPAN,
    DEFAULT_VERDICT_TOL,
    InvarianceReport,
    SystemSpec,
    _march_frames,
    _require_budget,
    _require_finite,
    verdicts,
)
# Unused here since the march samples C+ alone, but perfbench/test_perfbench.py checks that the tracer wraps this binding.
from .invariance import frame_samples  # noqa: F401
from .matexpr import MatrixFunction, _first_non_finite

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
_PIECE_BYTES = 2**21        # A on the half steps of one piece of whole chunks: 1025 half steps per tape run at m = 16
# The stages of a march, in the order in which a march of the whole window at once would fail them.
_STAGES = ("C", "dC/dt", "C_comp", "C+", "A", "Y", "drift_mn", "drift_complement", "R", "X", "residuals")
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


def _fundamental(samples: np.ndarray, t0: float, h_eff: float, *launches, start: Optional[np.ndarray] = None,
                 first: int = 0) -> list[np.ndarray]:
    """[Y, Y c, ...]: Y_first = ``start`` (E if None), ..., Y_{first+n} of y' = A(t) y, given A at the 2n+1 half
    steps from t0 + first h.

    One RK4 step is y <- M_k y, M_k = E + h/6 (K1 + 2K2 + 2K3 + K4), K1 = A0, K2 = Ah (E + h/2 K1),
    K3 = Ah (E + h/2 K2), K4 = A1 (E + h K3), built for all n steps at once (the march passes one chunk);
    each Y_{k+1} = M_k Y_k is one ``dot`` into its slot.  IntegrationOverflowError names the first step,
    counted from t0, at which Y or any launch Y c is not finite.
    """
    n = (samples.shape[0] - 1) // 2
    eye = np.eye(samples.shape[-1])
    fund = np.empty((n + 1,) + eye.shape)
    fund[0] = eye if start is None else start
    with np.errstate(over="ignore", invalid="ignore"):
        a0, ah, a1 = samples[:-1:2], samples[1::2], samples[2::2]
        k2 = ah @ (eye + 0.5 * h_eff * a0)
        k3 = ah @ (eye + 0.5 * h_eff * k2)
        k4 = a1 @ (eye + h_eff * k3)
        steps = eye + (h_eff / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
        for step, y, nxt in zip(steps, fund, fund[1:]):
            step.dot(y, out=nxt)
        states = [fund] + [fund @ c for c in launches]
    if (step := _first_non_finite(*states)) is not None:
        step += first
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


def _conjugacy_residuals(ts: np.ndarray, fund: np.ndarray, reduced: np.ndarray, start_embedding: np.ndarray,
                         chart: np.ndarray, embedding: np.ndarray) -> dict:
    """|Y C+(t0) - C+ X|_F and |X - C Y C+(t0)|_F per sample of ``ts``; they must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = fund @ start_embedding    # (N+1, m, n)
        residuals = {
            "conjugacy_embedding": linalg.frobenius(lhs - embedding @ reduced),
            "conjugacy_chart": linalg.frobenius(reduced - chart @ lhs),
        }
    _require_finite(ts, residuals)
    return residuals


class _FirstFailure:
    """The failure a march of the whole window at once reports: the first of ``_STAGES`` to fail, at its earliest t.

    A march runs each stage of each chunk through ``run``, which skips a stage at or after one that has failed:
    a later chunk runs only the stages before it, and a failure there takes its place.
    """

    def __init__(self):
        self.stage, self.error = len(_STAGES), None

    def run(self, stage: str, offset: int, work):
        """``work()``, or None if the stage is skipped or fails.  An error's own ``stage`` (``_march_frames``') counts
        before ``stage``; an indexed error's ``index`` gains ``offset``, the chunk's first point on its grid."""
        if _STAGES.index(stage) >= self.stage:
            return None
        try:
            return work()
        except NumericalError as exc:
            failed = _STAGES.index(getattr(exc, "stage", stage))
            if failed < self.stage:
                if isinstance(exc, _IndexedError):
                    exc.index += offset
                self.stage, self.error = failed, exc
            return None


def _march(system, t_span: tuple[float, float], h: float, sides: tuple[str, ...] = (), trials: int = 0,
           seed: int = 0, conjugacy: bool = False, y0: Optional[np.ndarray] = None,
           keep: bool = False) -> tuple[np.ndarray, dict]:
    """Step times and, by name, the per-step curves of one march of y' = A(t) y over a window, for a ``SystemSpec``
    or for A alone (a MatrixFunction, marching ``y0``): "drift_<side>" per side and, if ``conjugacy``,
    "conjugacy_embedding" and "conjugacy_chart".  Given ``keep``, also the whole stacks of the launched states
    ("y0" or by side) and of Y and X.  Each side launches ``trials`` states from the same c, drawn from
    ``default_rng(seed)``.  The module docstring gives the chunks, the pieces of A and the failure order.
    """
    spec, coeff = (system, system.coeff) if isinstance(system, SystemSpec) else (None, system)
    m = coeff.rows
    t0, h_eff, half_ts = _half_grid(t_span, h, m, trials if y0 is None else y0[0].size)
    n, ts, every = half_ts.size // 2, half_ts[::2], 2 if conjugacy else 1
    chunk = _STEP_BYTES // (8 * m * m) or 1  # steps whose step matrices fill _STEP_BYTES
    piece = max(1, _PIECE_BYTES // (16 * m * m) // chunk) * chunk  # whole chunks whose 2 A per step fill _PIECE_BYTES
    curves, failure = {}, _FirstFailure()
    y_last = x_last = None  # the previous chunk's last Y and X
    launches = {} if y0 is None else {"y0": y0}

    def put(name: str, rows: np.ndarray, lo: int) -> None:
        if name not in curves:
            curves[name] = np.empty((n + 1,) + rows.shape[1:])
        curves[name][lo : lo + len(rows)] = rows

    for lo in range(0, max(n, 1), chunk):
        hi = min(lo + chunk, n)
        step_ts = ts[lo : hi + 1]
        frame_ts = (half_ts if conjugacy else ts)[every * lo : every * hi + 1]
        frames = None if spec is None else failure.run("C", every * lo,
                                                        lambda: _march_frames(spec, frame_ts, conjugacy))
        if lo % piece == 0:
            piece_lo, piece_ts = lo, half_ts[2 * lo : 2 * min(lo + piece, n) + 1]
            coeff_piece = failure.run("A", 2 * lo, lambda: coeff.eval_grid(piece_ts))
        a = None if coeff_piece is None else coeff_piece[2 * (lo - piece_lo) : 2 * (hi - piece_lo) + 1]
        if sides and frames is not None:
            proj = frames.embedding[::every] @ frames.chart[::every]
            if lo == 0:  # the conjugacy-only march draws nothing, so it leaves numpy.random unimported
                c = np.random.default_rng(seed).standard_normal((m, trials))
                launches = {side: proj[0] @ c if side == SIDE_MAIN else (np.eye(m) - proj[0]) @ c for side in sides}
        marched = failure.run("Y", 0, lambda: _fundamental(a, t0, h_eff, *launches.values(), start=y_last, first=lo))
        if marched is None:
            continue
        fund, *states = marched
        y_last, trajs = fund[-1], dict(zip(launches, states))
        if keep:
            for name, traj in trajs.items():
                put(name, traj, lo)
        for side in sides:
            drift = failure.run(f"drift_{side}", lo, lambda: _drift(step_ts, proj, trajs[side], side))
            if drift is not None:
                put(f"drift_{side}", drift, lo)
        if not conjugacy:
            continue
        if lo == 0:
            start_embedding = frames.embedding[0].copy()
        reduced = failure.run("R", 2 * lo, lambda: frames.reduced(a))
        xs = failure.run("X", 0, lambda: _fundamental(reduced, t0, h_eff, start=x_last, first=lo)[0])
        if xs is None:
            continue
        x_last = xs[-1]
        residuals = failure.run("residuals", lo, lambda: _conjugacy_residuals(
            step_ts, fund, xs, start_embedding, frames.chart[::2], frames.embedding[::2]))
        for name, rows in (residuals or {}).items():
            put(name, rows, lo)
        if keep:
            put("Y", fund, lo)
            put("X", xs, lo)
    if failure.error is not None:
        raise failure.error
    return ts, curves


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
    ts, curves = _march(coeff, (t0, t1), h, y0=y0, keep=True)
    return FundamentalSolution(ts=ts, matrices=curves["y0"])


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

    ts: np.ndarray
    residuals: np.ndarray

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
    ts, curves = _march(spec, t_span, h, (side,), trials, seed)
    return DriftResult(ts=ts, residuals=curves[f"drift_{side}"])


@dataclass(frozen=True, eq=False)
class ConjugacyResult:
    """Residuals tying the full flow to the reduced flow on the subspace.

    ``embedding_residuals`` is |Y(t) C+(t0) - C+(t) X(t)|_F per sample, the
    conjugacy relation itself; ``chart_residuals`` is |X(t) - C(t) Y(t) C+(t0)|_F,
    its chart-side form.  Y and X are the sampled fundamental matrices of the
    full and reduced systems; ``conjugacy_check`` keeps them, the CLI's ``reduce`` does not (None).
    """

    ts: np.ndarray
    embedding_residuals: np.ndarray
    chart_residuals: np.ndarray
    fundamental: Optional[np.ndarray]  # (N+1, m, m)
    reduced: Optional[np.ndarray]      # (N+1, n, n)

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
    return _checked_conjugacy(spec, verdicts(spec, tol), h, t_span, keep=True)


def _checked_conjugacy(
    spec: SystemSpec, report: InvarianceReport, h: float, t_span: tuple[float, float], keep: bool
) -> ConjugacyResult:
    """``conjugacy_check`` given the spec's verdicts, for a caller that already has them; Y and X only if ``keep``."""
    if not report.main_invariant:
        raise PreconditionError(
            "conjugacy_check: the subspace is not invariant at tolerance "
            f"{report.tolerance:g} (max one-sided defect {report.max_defect_main:.3e}); "
            "comparing flows off an invariant subspace is meaningless",
            residual=report.max_defect_main,
        )
    ts, curves = _march(spec, t_span, h, conjugacy=True, keep=keep)
    return ConjugacyResult(ts, curves["conjugacy_embedding"], curves["conjugacy_chart"],
                           fundamental=curves.get("Y"), reduced=curves.get("X"))


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
    ts, curves = _march(spec, t_span, h, sides, trials, seed, conjugacy=report.main_invariant)
    return FlowResult(
        ts=ts,
        drift_mn=curves["drift_mn"],
        drift_complement=curves["drift_complement"],
        conjugacy_residuals=curves.get("conjugacy_embedding"),
        main_invariant=report.main_invariant,
        seed=seed,
        h=h,
        trials=trials,
        window=(float(t_span[0]), float(t_span[1])),
    )
