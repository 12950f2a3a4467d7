"""Frame identities at one point: the construction checks of ``build_frame`` and two sampled suites.

Given a chart (n x m, full row rank) and a complementary chart (p x m,
p = m - n) whose vertical stack is invertible, the column blocks of the
stacked inverse define two oblique projectors

    P_main = embedding @ chart,      P_comp = comp_embedding @ comp_chart,

which are idempotent, mutually annihilating, and sum to the identity.  A
frame is an ``invariance.FrameSamples``: ``build_frame`` gives its one-point
slice, and every identity below reads a frame by field name, so it applies
unchanged to a whole sampled grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EvaluationError, FrameError, ShapeError, SingularMatrixError
from .invariance import FrameSamples, _point_frames
from .matexpr import MatrixFunction

__all__ = [
    "IDENTITY_TOL",
    "build_frame",
    "KernelIdentityReport",
    "check_kernel_identities",
    "EmbeddingReport",
    "check_embedding",
]

# Loud-failure threshold for the construction identities of a frame, and the pass threshold of both sampled suites.
IDENTITY_TOL = 1e-9
# How many standard-normal vectors the sampled suites draw from their seed.
_SAMPLES = 100
# Each projector identity, by name, as the matrix R that vanishes when it
# holds (P = C+C, P_comp = C_comp+C_comp, E the identity matrix).  The first
# five are the construction identities, in the order build_frame checks them;
# the suites sample R c.  An entry is evaluated only when a caller reads it.
_RESIDUALS = {
    "idempotency (main)": lambda f: f.projector @ f.projector - f.projector,
    "idempotency (comp)": lambda f: f.comp_projector @ f.comp_projector - f.comp_projector,
    "annihilation (main*comp)": lambda f: f.projector @ f.comp_projector,
    "annihilation (comp*main)": lambda f: f.comp_projector @ f.projector,
    "complementarity": lambda f: f.projector + f.comp_projector - np.eye(f.m),
    "comp chart on main": lambda f: f.comp_chart @ f.projector,            # C_comp P
    "chart on comp": lambda f: f.chart @ f.comp_projector,                 # C P_comp
    "image": lambda f: f.projector @ f.embedding - f.embedding,            # P C+ - C+
    "retraction": lambda f: f.projector - f.embedding @ (f.chart @ f.projector),  # (E - C+C) P
}
_CONSTRUCTION = tuple(_RESIDUALS)[:5]


def build_frame(chart: MatrixFunction, comp_chart: MatrixFunction, t: float) -> FrameSamples:
    """The frame of both charts at ``t``: the one-point slice of their ``FrameSamples``, without derivatives.

    The charts are sampled once per ``t`` for this and the one-point functions
    of ``invariance``, in a memo on ``chart``; the frame holds copies.  A chart
    that cannot be sampled at ``t``, a singular stacked frame or an
    inverse past the float range raises as ``frame_samples`` at [t] does, with
    ``build_frame: `` in front.  Construction also fails loudly if any
    projector identity (idempotency, mutual annihilation, complementarity)
    leaves a Frobenius residual above ``IDENTITY_TOL`` or not finite, or if
    the projector ranks are not n and p: that indicates a frame too
    ill-conditioned to trust.
    """
    n, m = chart.shape
    if comp_chart.shape != (m - n, m):
        raise ShapeError(f"build_frame: charts {chart.shape} and {comp_chart.shape} do not stack to {m}x{m}")
    try:
        point = _point_frames(chart, comp_chart, t, derivatives=False)
    except (SingularMatrixError, EvaluationError) as exc:
        raise type(exc)(f"build_frame: {exc}", exc.index) from exc
    frame = FrameSamples(  # copies: the memo's arrays stay its own
        ts=point.ts[0].copy(), chart=point.chart[0].copy(), dchart=None, embedding=point.embedding[0].copy(),
        dembedding=None, comp_chart=point.comp_chart[0].copy(), comp_embedding=point.comp_embedding[0].copy())
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = linalg.frobenius([_RESIDUALS[name](frame) for name in _CONSTRUCTION])
    worst = int(residuals.argmax())
    if not residuals[worst] <= IDENTITY_TOL:  # a NaN residual fails too
        raise FrameError(
            f"build_frame: identity '{_CONSTRUCTION[worst]}' has residual {residuals[worst]:.3e} > {IDENTITY_TOL:g} "
            f"at t={float(t)!r}"
        )
    if linalg.rank(frame.projector) != n or linalg.rank(frame.comp_projector) != m - n:
        raise FrameError(f"build_frame: projector ranks differ from ({n}, {m - n}) at t={float(t)!r}")
    return frame


@dataclass(frozen=True)
class KernelIdentityReport:
    """Max residuals of the kernel identities over ``_SAMPLES`` random subspace samples.

    Vectors in the main range must be annihilated by the complementary chart
    and projector; vectors in the complementary range must be annihilated by
    the chart and be fixed points of the complementary projector.
    """

    max_comp_chart_on_main: float      # |comp_chart @ y| for y in range(P_main)
    max_comp_projector_on_main: float  # |P_comp @ y|
    max_chart_on_comp: float           # |chart @ y| for y in range(P_comp)
    max_comp_range_defect: float       # |y - P_comp y|

    @property
    def max_residual(self) -> float:
        return float(np.max((
            self.max_comp_chart_on_main,
            self.max_comp_projector_on_main,
            self.max_chart_on_comp,
            self.max_comp_range_defect,
        )))  # NaN if any is NaN

    @property
    def passed(self) -> bool:
        return self.max_residual <= IDENTITY_TOL


def _sampled_residuals(frame: FrameSamples, fields: dict, seed: int) -> dict:
    """For each report field, the max |R c| of its ``_RESIDUALS`` entry R over ``_SAMPLES`` normal c.

    Every R c is a 1 x m row matrix, zero-padded where R has fewer than m rows: one norm covers all fields.
    """
    cs = np.random.default_rng(seed).standard_normal((_SAMPLES, frame.m))
    products = np.zeros((len(fields), _SAMPLES, 1, frame.m))
    for product, name in zip(products, fields.values()):
        residual = _RESIDUALS[name](frame)
        product[:, 0, : len(residual)] = cs @ residual.T
    return dict(zip(fields, linalg.frobenius(products).max(axis=1).tolist()))


def check_kernel_identities(frame: FrameSamples, seed: int = 0) -> KernelIdentityReport:
    """Sample each subspace by projecting standard-normal vectors and test the identities."""
    fields = {
        "max_comp_chart_on_main": "comp chart on main",
        "max_comp_projector_on_main": "annihilation (comp*main)",
        "max_chart_on_comp": "chart on comp",
        "max_comp_range_defect": "idempotency (comp)",
    }
    return KernelIdentityReport(**_sampled_residuals(frame, fields, seed))


@dataclass(frozen=True)
class EmbeddingReport:
    """Checks that the embedding is a linear bijection onto the main range."""

    injective: bool            # embedding has full column rank
    image_residual: float      # |P_main @ embedding - embedding|
    max_retraction_defect: float  # |y - embedding @ (chart @ y)| over sampled y in the range

    @property
    def passed(self) -> bool:
        return self.injective and self.image_residual <= IDENTITY_TOL and self.max_retraction_defect <= IDENTITY_TOL


def check_embedding(frame: FrameSamples, seed: int = 0) -> EmbeddingReport:
    """Injectivity, image containment, and surjectivity of the embedding map."""
    return EmbeddingReport(
        injective=linalg.rank(frame.embedding) == frame.n,
        image_residual=linalg.frobenius(_RESIDUALS["image"](frame)),
        **_sampled_residuals(frame, {"max_retraction_defect": "retraction"}, seed),
    )
