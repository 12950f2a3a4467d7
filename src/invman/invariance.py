"""Invariance verdicts for a time-dependent subspace of dy/dt = A(t) y.

The drifting subspace is presented by a chart C(t) (n x m, full row rank).
Its pseudoinverse C+(t) embeds coordinates back into R^m and defines the
projector P(t) = C+(t) C(t).  The single object everything here revolves
around is the defect operator

    defect(t) = dP/dt + P A - A P.

Vanishing patterns of the defect decide invariance:

* ``defect == 0`` on the grid: the subspace and its complement are both
  invariant (joint verdict);
* ``defect @ P == 0``: the n-dimensional subspace alone is invariant, and
  the dynamics restrict to dx/dt = R(t) x with R = (dC/dt + C A) C+;
* ``defect @ (E - P) == 0``: the complement lies in the kernel of the
  defect, which holds exactly when the complement is invariant: for y in
  it, w = P y obeys dw/dt = (dP/dt + P A) w + defect (E - P) y, so w = 0
  at t0 stays 0.

When no complementary chart is supplied, C+ is the Moore-Penrose right
inverse; results then depend on that canonical choice.  Supplying a
complementary chart routes C+ through the stacked block inverse instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    EvaluationError,
    RankDeficiencyError,
    ShapeError,
    SingularMatrixError,
)
from .matexpr import MatrixFunction, _time_grid

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_VERDICT_TOL",
    "SystemSpec",
    "FrameSamples",
    "frame_samples",
    "projector_derivative",
    "invariance_defect",
    "reduced_matrix",
    "InvarianceReport",
    "verdicts",
]

DEFAULT_VERDICT_TOL = 1e-8
DEFAULT_GRID_SPAN = (0.0, 5.0)
DEFAULT_GRID_COUNT = 201
MAX_SAMPLED_ENTRIES = 2**26  # most floats one sampling may hold: a system's or scenario's grid, a march's half steps
# The residual curves of an InvarianceReport, in report order.
_CURVES = ("defect", "defect_main", "defect_complement", "defect_embedding")
# Each verdict, in ExpectedVerdicts order: its config and ``check --assert`` key, its InvarianceReport field, the
# curve whose max over the grid it bounds, and ``check``'s text line of that max and PASS or FAIL.  The joint
# verdict comes first and implies the other two.
_VERDICTS = (
    ("joint", "joint_invariant", "defect", "max |defect|          {:.3e}   joint invariance        {}"),
    ("mn", "main_invariant", "defect_main", "max |defect.P|        {:.3e}   subspace (mn) invariance {}"),
    ("complement", "complement_kernel_condition", "defect_complement",
     "max |defect.(E-P)|    {:.3e}   complement condition    {}"),
)


def DEFAULT_GRID() -> np.ndarray:
    return np.linspace(*DEFAULT_GRID_SPAN, DEFAULT_GRID_COUNT)


def _require_budget(what: str, points: int, unit: str, entries: int) -> None:
    """Refuse ``points`` of ``entries`` floats each past MAX_SAMPLED_ENTRIES, before any of them is sampled."""
    if points * entries > MAX_SAMPLED_ENTRIES:
        shown = points if points <= 1e308 else np.inf  # a count near or past the float range cannot format as a float
        raise ValueError(f"{what} takes {shown:.4g} {unit} x {entries} entries, "
                         f"more than MAX_SAMPLED_ENTRIES = {MAX_SAMPLED_ENTRIES}")


def _increasing_grid(ts, entries: int) -> np.ndarray:
    """``ts`` as a strictly increasing 1-D float grid within the budget: the grid rule of a system and a scenario."""
    grid = _time_grid(ts)
    _require_budget("t_grid", grid.size, "points", entries)
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A linear time-varying system together with the chart of a candidate subspace."""

    coeff: MatrixFunction                       # m x m system matrix A(t)
    chart: MatrixFunction                       # n x m, full row rank on the grid
    comp_chart: Optional[MatrixFunction] = None  # p x m with p = m - n
    t_grid: np.ndarray = field(default_factory=DEFAULT_GRID)
    # Memo of _one_point: (bits of t, A at [t]), one point at a time; the frames' memo is the chart's.
    _point: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coeff.rows != self.coeff.cols:
            raise ShapeError(f"system matrix must be square, got {self.coeff.shape}")
        m = self.coeff.rows
        n = self.chart.rows
        if self.chart.cols != m:
            raise ShapeError(f"chart is {self.chart.shape}, expected columns {m}")
        if not 0 < n < m:
            raise ShapeError(f"chart must have between 1 and {m - 1} rows, got {n}")
        if self.comp_chart is not None and self.comp_chart.shape != (m - n, m):
            raise ShapeError(
                f"complementary chart is {self.comp_chart.shape}, expected {(m - n, m)}"
            )
        grid = _increasing_grid(self.t_grid, m * m)
        if grid.size < 1:
            raise ValueError("t_grid must contain at least one point")
        object.__setattr__(self, "t_grid", grid)

    @property
    def m(self) -> int:
        return self.coeff.rows

    @property
    def n(self) -> int:
        return self.chart.rows


@dataclass(frozen=True, eq=False)
class FrameSamples:
    """Both charts, the column blocks of their right inverse, and the derivatives, sampled over a time grid.

    On the Moore-Penrose route (no complementary chart) ``comp_chart`` and ``comp_embedding`` are None;
    ``dchart`` and ``dembedding`` are None where they were not sampled.  ``manifold.build_frame`` gives the
    one-point slice: every field without the grid axis.
    """

    ts: np.ndarray                        # (N,)
    chart: np.ndarray                     # (N, n, m)
    dchart: Optional[np.ndarray]          # (N, n, m)
    embedding: np.ndarray                 # (N, m, n)
    dembedding: Optional[np.ndarray]      # (N, m, n)
    comp_chart: Optional[np.ndarray]      # (N, p, m)
    comp_embedding: Optional[np.ndarray]  # (N, m, p)

    @property
    def m(self) -> int:
        return self.chart.shape[-1]

    @property
    def n(self) -> int:
        return self.chart.shape[-2]

    @cached_property
    def projector(self) -> np.ndarray:
        return self.embedding @ self.chart

    @cached_property
    def comp_projector(self) -> Optional[np.ndarray]:
        return None if self.comp_chart is None else self.comp_embedding @ self.comp_chart

    @property
    def dprojector(self) -> np.ndarray:
        return self.dembedding @ self.chart + self.embedding @ self.dchart

    def defect(self, coeff: np.ndarray) -> np.ndarray:
        """The defect dP/dt + P A - A P per sample, given A on the same grid; it must be finite."""
        proj = self.projector
        with np.errstate(over="ignore", invalid="ignore"):
            defect = self.dprojector + proj @ coeff - coeff @ proj
        if not np.isfinite(defect).all():
            _require_finite(self.ts, {"defect": defect})
        return defect

    def reduced(self, coeff: np.ndarray) -> np.ndarray:
        """The reduced coefficient R = (dC/dt + C A) C+ per sample, given A on the same grid; it must be finite."""
        return _reduced(self.ts, self.chart, self.dchart, self.embedding, coeff)


def _reduced(ts, chart: np.ndarray, dchart: np.ndarray, embedding: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """R = (dC/dt + C A) C+ per sample of ``ts``, from the chart, dC/dt, C+ and A sampled there; it must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = (dchart + chart @ coeff) @ embedding
    if not np.isfinite(reduced).all():
        _require_finite(ts, {"R": reduced}, "reduced matrix")
    return reduced


def frame_samples(spec: SystemSpec, ts) -> FrameSamples:
    """Sample both charts and their embeddings (with exact derivatives) over ``ts``.

    The whole grid goes through one ``linalg.invert`` call: the stacked
    frames [C; C_comp] on the stacked route, the Gram matrices C C^T on the
    Moore-Penrose route, where a singular Gram matrix is the chart's rank
    loss.  Rank loss of the chart, singularity of the stacked frame, or a
    right inverse (Moore-Penrose, or all of the stacked inverse) or its
    derivative past the float range is reported with the earliest offending
    time point.  ``manifold.build_frame`` samples one point through the same
    builder, without derivatives.
    """
    return FrameSamples(**_frames(spec.chart, spec.comp_chart, ts, derivatives=True))


def _frames(chart: MatrixFunction, comp_chart: Optional[MatrixFunction], ts, derivatives: bool,
            known: Optional[dict] = None) -> dict:
    """The fields of the FrameSamples of (chart, comp_chart) over ``ts``, the derivatives only if ``derivatives``;
    given ``known``, those fields without derivatives, its charts and F^-1 = [C+, C_comp+] are not sampled again."""
    ts = _time_grid(ts)
    chart_g = chart.eval_grid(ts) if known is None else known["chart"]
    dchart_g = chart.derivative().eval_grid(ts) if derivatives else None
    if comp_chart is None:
        comp_g = None
        inverse, *derivative = _moore_penrose(ts, chart_g, dchart_g)
    else:
        comp_g, dframes = comp_chart.eval_grid(ts) if known is None else known["comp_chart"], None
        if derivatives:
            dframes = np.concatenate([dchart_g, comp_chart.derivative().eval_grid(ts)], axis=1)
        if known is None:
            inverse, *derivative = _stacked_inverse(np.concatenate([chart_g, comp_g], axis=1), ts, dframes)
        else:
            inverse = np.concatenate([known["embedding"], known["comp_embedding"]], axis=-1)
            inverse, *derivative = _stacked_inverse(None, ts, dframes, inverse=inverse)
    n = chart.rows
    return dict(ts=ts, chart=chart_g, dchart=dchart_g, embedding=inverse[..., :n],
                dembedding=derivative[0][..., :n] if derivative else None,
                comp_chart=comp_g, comp_embedding=None if comp_g is None else inverse[..., n:])


def _point_frames(chart: MatrixFunction, comp_chart: Optional[MatrixFunction], t, derivatives: bool) -> dict:
    """``_frames`` at [t], memoised on ``chart`` for one point, keyed by the identity of ``comp_chart`` and the bits
    of t.  Derivatives join the entry when first asked for; a failed sampling stores nothing.  The arrays are the
    memo's own: a caller returns and writes to none of them."""
    ts = np.array([t], dtype=float)
    if ts.ndim != 1:
        raise ShapeError(f"t must be a scalar, got shape {ts.shape[1:]}")
    key = ts.tobytes()  # 0.0 and -0.0 differ: sin(-0.0) is -0.0
    point = chart._point
    known = point[2] if point is not None and point[0] is comp_chart and point[1] == key else None
    if known is None or derivatives and known["dchart"] is None:
        known = _frames(chart, comp_chart, ts, derivatives, known)
        object.__setattr__(chart, "_point", (comp_chart, key, known))
    return known


def _right_inverse(spec: SystemSpec, ts, chart_g: np.ndarray) -> tuple:
    """(C+,) over ``ts``, given the chart sampled there: all the march reads of a right inverse.

    The stacked route eliminates [F | E_n] alone, F = [C; C_comp]: C+ is the first n columns of F^-1 bit
    for bit, and F^-1's other columns are not formed.
    """
    if spec.comp_chart is None:
        return _moore_penrose(ts, chart_g)
    frames = np.concatenate([chart_g, spec.comp_chart.eval_grid(ts)], axis=1)
    return _stacked_inverse(frames, ts, cols=spec.n)


def _moore_penrose(ts, chart_g: np.ndarray, dchart_g: Optional[np.ndarray] = None) -> tuple:
    """(C+,) for each sampled chart C, or (C+, dC+/dt) given dC/dt, by the Moore-Penrose formula."""
    return _earliest_failure(
        "right inverse of the chart is not finite", "chart loses full row rank", ts,
        lambda stop: linalg._pseudoinverse(chart_g[:stop], None if dchart_g is None else dchart_g[:stop]),
    )


def _stacked_inverse(frames: Optional[np.ndarray], ts, dframes: Optional[np.ndarray] = None,
                     cols: Optional[int] = None, inverse: Optional[np.ndarray] = None) -> tuple:
    """(F^-1,) for each stacked frame F = [C; C_comp], (F^-1, -F^-1 dF F^-1) given ``dframes``,
    or (F^-1[:, :, :cols],) given ``cols``, from the elimination over [F | E[:, :cols]] alone.
    Given ``inverse``, a finite F^-1 computed before, ``frames`` is not read and nothing is eliminated."""
    def inverses(stop):
        with np.errstate(over="ignore", invalid="ignore"):
            inv = inverse if inverse is not None else (
                linalg.invert(frames[:stop]) if cols is None else linalg._inverse_columns(frames[:stop], cols))
            return (inv,) if dframes is None else (inv, -inv @ dframes[:stop] @ inv)

    return _earliest_failure("inverse of the stacked frame is not finite", "stacked frame is singular", ts, inverses)


def _earliest_failure(not_finite: str, failure: str, ts, inverses) -> tuple:
    """``inverses(len(ts))``, a tuple of stacks that must be finite; an error names the earliest bad t."""
    try:
        results, error = inverses(len(ts)), None
    except (RankDeficiencyError, SingularMatrixError) as exc:
        # Every point before the first failing one inverts: a non-finite result there comes first.
        results, error = inverses(exc.index), exc
    if not all(np.isfinite(stack).all() for stack in results):
        k = int(np.logical_and.reduce([np.isfinite(stack).all(axis=(1, 2)) for stack in results]).argmin())
        raise EvaluationError(f"{not_finite} at t={float(ts[k])!r}", k)
    if error is not None:
        raise type(error)(f"{failure} at t={float(ts[error.index])!r}: {error}", error.index) from error
    return results


def _require_finite(ts, curves: dict, what: str = "residual") -> None:
    """EvaluationError "<what> '<name>' is not finite at t=<t>" at the earliest such t, the first such curve."""
    bad = np.array([~np.isfinite(curve).reshape(len(ts), -1).all(axis=1) for curve in curves.values()])
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        name = list(curves)[int(bad[:, k].argmax())]
        raise EvaluationError(f"{what} {name!r} is not finite at t={float(ts[k])!r}", k)


def _one_point(spec: SystemSpec, t, with_coeff: bool) -> tuple[FrameSamples, Optional[np.ndarray]]:
    """The frames at [t] with derivatives (``_point_frames``), and A at [t] when ``with_coeff``: A is sampled after
    the frames and memoised on ``spec`` for the last t, by its bits."""
    fs = FrameSamples(**_point_frames(spec.chart, spec.comp_chart, t, True))
    key = fs.ts.tobytes()
    if with_coeff and (spec._point is None or spec._point[0] != key):
        object.__setattr__(spec, "_point", (key, spec.coeff.eval_grid(fs.ts)))
    return fs, spec._point[1] if with_coeff else None


def projector_derivative(spec: SystemSpec, t: float) -> np.ndarray:
    """Exact dP/dt at scalar ``t`` via symbolic chart derivatives and the closed-form
    derivative of the pseudoinverse (Moore-Penrose or stacked-inverse route).

    The three one-point functions and ``manifold.build_frame`` sample the frames
    at ``t`` once, in a one-point memo on the chart; the two that need A share
    it through a one-point memo on ``spec``.  Each returns a freshly computed array.
    """
    return _one_point(spec, t, False)[0].dprojector[0]


def invariance_defect(spec: SystemSpec, t: float) -> np.ndarray:
    """The defect matrix dP/dt + P A - A P at scalar ``t`` (frames and A shared as in :func:`projector_derivative`)."""
    fs, coeff = _one_point(spec, t, True)
    return fs.defect(coeff)[0]


def reduced_matrix(spec: SystemSpec, t: float) -> np.ndarray:
    """Coefficient matrix R(t) = (dC/dt + C A) C+ of the reduced n-dimensional flow at scalar ``t``
    (frames and A shared as in :func:`projector_derivative`)."""
    fs, coeff = _one_point(spec, t, True)
    return fs.reduced(coeff)[0]


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    """Residual curves of the defect operator over the grid, plus verdicts.

    ``joint_invariant`` implies the two one-sided verdicts by construction:
    a vanishing defect subsumes both one-sided conditions, so near-threshold
    rounding can never produce an inconsistent report.
    """

    t_grid: np.ndarray
    defect: np.ndarray             # |defect|_F per grid point
    defect_main: np.ndarray        # |defect @ P|_F
    defect_complement: np.ndarray  # |defect @ (E - P)|_F
    defect_embedding: np.ndarray   # |defect @ C+|_F (equivalent one-sided form)
    tolerance: float
    joint_invariant: bool
    main_invariant: bool
    complement_kernel_condition: bool

    @property
    def max_defect(self) -> float:
        return float(np.max(self.defect))

    @property
    def max_defect_main(self) -> float:
        return float(np.max(self.defect_main))

    @property
    def max_defect_complement(self) -> float:
        return float(np.max(self.defect_complement))

    @property
    def max_defect_embedding(self) -> float:
        return float(np.max(self.defect_embedding))

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "t": self.t_grid.tolist(),
            "residuals": {name: getattr(self, name).tolist() for name in _CURVES},
            "max_residuals": {name: getattr(self, f"max_{name}") for name in _CURVES},
            "verdicts": {field: getattr(self, field) for _, field, _, _ in _VERDICTS},
        }


def verdicts(spec: SystemSpec, tol: float = DEFAULT_VERDICT_TOL) -> InvarianceReport:
    """Evaluate the defect operator over the spec's grid and render verdicts.

    Each verdict compares the max-over-grid Frobenius norm of the relevant
    residual against ``tol``, which must be positive and finite
    (``ValueError``); a residual that is not finite raises
    :class:`EvaluationError` naming the curve and its first such time.  The
    grid is a sampled stand-in for "for all t"; nothing is certified between
    grid points.
    """
    return _sampled_verdicts(spec, tol)[0]


def _require_tolerance(tol: float) -> None:
    if not 0 < tol < np.inf:  # a NaN tolerance would fail every verdict, an infinite one pass it
        raise ValueError(f"verdicts: tolerance must be positive and finite, got {tol!r}")


def _sampled_verdicts(
    spec: SystemSpec, tol: float
) -> tuple[InvarianceReport, FrameSamples, np.ndarray]:
    """``verdicts`` plus the frames and A it sampled on the grid, for callers that reuse them."""
    _require_tolerance(tol)
    grid = spec.t_grid
    fs = frame_samples(spec, grid)
    coeff_g = spec.coeff.eval_grid(grid)
    proj = fs.projector
    defect = fs.defect(coeff_g)

    with np.errstate(over="ignore", invalid="ignore"):  # a finite defect may still overflow these products
        one_sided = (defect @ proj, defect @ (np.eye(spec.m) - proj), defect @ fs.embedding)
    curves = dict(zip(_CURVES, (linalg.frobenius(x) for x in (defect, *one_sided))))
    # A NaN compares False against tol and would read as FAIL: it is a numerical failure instead.
    _require_finite(grid, curves)

    held = [bool(np.max(curves[curve]) <= tol) for _, _, curve, _ in _VERDICTS]
    verdict_fields = {field: held[0] or holds for (_, field, _, _), holds in zip(_VERDICTS, held)}
    return InvarianceReport(t_grid=grid, **curves, tolerance=float(tol), **verdict_fields), fs, coeff_g
