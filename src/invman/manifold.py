"""Pointwise projector frames and the subspaces they carve out of R^m.

Given a chart (n x m, full row rank) and a complementary chart (p x m,
p = m - n) whose vertical stack is invertible, the column blocks of the
stacked inverse define two oblique projectors

    P_main = embedding @ chart,      P_comp = comp_embedding @ comp_chart,

which are idempotent, mutually annihilating, and sum to the identity.  The
four membership tests below are the floating-point versions of the exact
set definitions ``y = P y`` and ``P y = 0`` for each projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import EvaluationError, FrameError, ShapeError, SingularMatrixError
from .invariance import _stacked_inverse
from .matexpr import MatrixFunction

__all__ = [
    "IDENTITY_TOL",
    "Subspace",
    "ProjectorFrame",
    "build_frame",
    "MembershipResult",
    "membership",
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


class Subspace(Enum):
    """Which of the four projector-defined subspaces to test against."""

    MAIN_RANGE = "main_range"      # y = P_main y
    MAIN_KERNEL = "main_kernel"    # P_main y = 0
    COMP_RANGE = "comp_range"      # y = P_comp y
    COMP_KERNEL = "comp_kernel"    # P_comp y = 0


@dataclass(frozen=True, eq=False)
class ProjectorFrame:
    """Both charts, the column blocks of their stacked inverse, and the two projectors at one t."""

    t: float
    chart: np.ndarray            # n x m
    comp_chart: np.ndarray       # p x m
    embedding: np.ndarray        # m x n
    comp_embedding: np.ndarray   # m x p
    projector: np.ndarray        # m x m
    comp_projector: np.ndarray   # m x m

    @property
    def m(self) -> int:
        return self.chart.shape[1]

    @property
    def n(self) -> int:
        return self.chart.shape[0]


def build_frame(chart: MatrixFunction, comp_chart: MatrixFunction, t: float) -> ProjectorFrame:
    """Evaluate both charts at ``t`` and build the projector pair.

    Construction fails loudly if the stacked inverse is not finite, if any
    projector identity (idempotency, mutual annihilation, complementarity)
    leaves a Frobenius residual above ``IDENTITY_TOL`` or not finite, or if
    the projector ranks are not n and p: that indicates a frame too
    ill-conditioned to trust.
    """
    n, m = chart.shape
    p = comp_chart.shape[0]
    if comp_chart.cols != m or n + p != m:
        raise ShapeError(
            f"build_frame: charts {chart.shape} and {comp_chart.shape} do not stack to {m}x{m}"
        )
    c1 = chart.eval(t)
    c2 = comp_chart.eval(t)
    try:
        inv = _stacked_inverse(np.vstack([c1, c2])[None], [t])[0][0]
    except (SingularMatrixError, EvaluationError) as exc:
        raise type(exc)(f"build_frame: {exc}", exc.index) from exc
    embedding, comp_embedding = inv[:, :n], inv[:, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        frame = ProjectorFrame(
            t=float(t),
            chart=c1,
            comp_chart=c2,
            embedding=embedding,
            comp_embedding=comp_embedding,
            projector=embedding @ c1,
            comp_projector=comp_embedding @ c2,
        )
        residuals = linalg.frobenius([_RESIDUALS[name](frame) for name in _CONSTRUCTION])
    worst = int(residuals.argmax())
    if not residuals[worst] <= IDENTITY_TOL:  # a NaN residual fails too
        raise FrameError(
            f"build_frame: identity '{_CONSTRUCTION[worst]}' has residual {residuals[worst]:.3e} > {IDENTITY_TOL:g} "
            f"at t={float(t)!r}"
        )
    if linalg.rank(frame.projector) != n or linalg.rank(frame.comp_projector) != p:
        raise FrameError(f"build_frame: projector ranks differ from ({n}, {p}) at t={float(t)!r}")
    return frame


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    residual: float  # relative to |y|; 0 for the zero vector


def membership(y, frame: ProjectorFrame, kind: Subspace) -> MembershipResult:
    """Residual-based membership of ``y`` in one of the four subspaces.

    Exact set membership is not decidable in floating point, so the test is
    ``residual <= 1e-8`` with the residual scaled by the norm of ``y``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != frame.m:
        raise ShapeError(f"membership: vector has length {y.size}, frame is in R^{frame.m}")
    proj = frame.projector if kind in (Subspace.MAIN_RANGE, Subspace.MAIN_KERNEL) else frame.comp_projector
    image = proj @ y
    defect = y - image if kind in (Subspace.MAIN_RANGE, Subspace.COMP_RANGE) else image
    norm_y = linalg.frobenius(y[:, None])
    residual = linalg.frobenius(defect[:, None]) / norm_y if norm_y > 0.0 else 0.0
    return MembershipResult(member=residual <= 1e-8, residual=residual)


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
        residuals = (
            self.max_comp_chart_on_main,
            self.max_comp_projector_on_main,
            self.max_chart_on_comp,
            self.max_comp_range_defect,
        )
        # NaN if any is NaN: max drops a NaN that is not its first argument.
        return math.nan if any(map(math.isnan, residuals)) else max(residuals)

    @property
    def passed(self) -> bool:
        return self.max_residual <= IDENTITY_TOL


def _sampled_residuals(frame: ProjectorFrame, fields: dict, seed: int) -> dict:
    """For each report field, the max |R c| of its ``_RESIDUALS`` entry R over ``_SAMPLES`` normal c.

    Every R c is a 1 x m row matrix, zero-padded where R has fewer than m rows: one norm covers all fields.
    """
    cs = np.random.default_rng(seed).standard_normal((_SAMPLES, frame.m))
    products = np.zeros((len(fields), _SAMPLES, 1, frame.m))
    for product, name in zip(products, fields.values()):
        residual = _RESIDUALS[name](frame)
        product[:, 0, : len(residual)] = cs @ residual.T
    return dict(zip(fields, linalg.frobenius(products).max(axis=1).tolist()))


def check_kernel_identities(frame: ProjectorFrame, seed: int = 0) -> KernelIdentityReport:
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


def check_embedding(frame: ProjectorFrame, seed: int = 0) -> EmbeddingReport:
    """Injectivity, image containment, and surjectivity of the embedding map."""
    return EmbeddingReport(
        injective=linalg.rank(frame.embedding) == frame.n,
        image_residual=linalg.frobenius(_RESIDUALS["image"](frame)),
        **_sampled_residuals(frame, {"max_retraction_defect": "retraction"}, seed),
    )
