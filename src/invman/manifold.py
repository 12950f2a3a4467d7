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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import FrameError, ShapeError
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

# Loud-failure threshold for the construction identities of a frame.
IDENTITY_TOL = 1e-9
# The construction identities, in the order build_frame checks them.
_IDENTITIES = (
    "idempotency (main)",
    "idempotency (comp)",
    "annihilation (main*comp)",
    "annihilation (comp*main)",
    "complementarity",
)


class Subspace(Enum):
    """Which of the four projector-defined subspaces to test against."""

    MAIN_RANGE = "main_range"      # y = P_main y
    MAIN_KERNEL = "main_kernel"    # P_main y = 0
    COMP_RANGE = "comp_range"      # y = P_comp y
    COMP_KERNEL = "comp_kernel"    # P_comp y = 0


@dataclass(frozen=True, eq=False)
class ProjectorFrame:
    """Both charts, their stacked pseudoinverses, and the two projectors at one t."""

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

    @property
    def p(self) -> int:
        return self.comp_chart.shape[0]


def build_frame(
    chart: MatrixFunction,
    comp_chart: MatrixFunction,
    t: float,
    tol: float = IDENTITY_TOL,
) -> ProjectorFrame:
    """Evaluate both charts at ``t`` and build the projector pair.

    Construction fails loudly if any projector identity (idempotency, mutual
    annihilation, complementarity) leaves a Frobenius residual above ``tol``,
    or if the projector ranks are not n and p: that indicates a frame too
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
    pair = linalg.stacked_pseudoinverse(c1, c2)
    proj_main = pair.top_pinv @ c1
    proj_comp = pair.bottom_pinv @ c2

    residuals = linalg.frobenius([
        proj_main @ proj_main - proj_main,
        proj_comp @ proj_comp - proj_comp,
        proj_main @ proj_comp,
        proj_comp @ proj_main,
        proj_main + proj_comp - np.eye(m),
    ])
    worst = int(residuals.argmax())
    if residuals[worst] > tol:
        raise FrameError(
            f"build_frame: identity '{_IDENTITIES[worst]}' has residual {residuals[worst]:.3e} > {tol:g} "
            f"at t={float(t)!r}"
        )
    if linalg.rank(proj_main) != n or linalg.rank(proj_comp) != p:
        raise FrameError(f"build_frame: projector ranks differ from ({n}, {p}) at t={float(t)!r}")

    return ProjectorFrame(
        t=float(t),
        chart=c1,
        comp_chart=c2,
        embedding=pair.top_pinv,
        comp_embedding=pair.bottom_pinv,
        projector=proj_main,
        comp_projector=proj_comp,
    )


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    residual: float  # relative to |y|; 0 for the zero vector


def membership(y, frame: ProjectorFrame, kind: Subspace, tol: float = 1e-8) -> MembershipResult:
    """Residual-based membership of ``y`` in one of the four subspaces.

    Exact set membership is not decidable in floating point, so the test is
    ``residual <= tol`` with the residual scaled by the norm of ``y``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != frame.m:
        raise ShapeError(f"membership: vector has length {y.size}, frame is in R^{frame.m}")
    proj = frame.projector if kind in (Subspace.MAIN_RANGE, Subspace.MAIN_KERNEL) else frame.comp_projector
    image = proj @ y
    defect = y - image if kind in (Subspace.MAIN_RANGE, Subspace.COMP_RANGE) else image
    norm_y = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(defect)) / norm_y if norm_y > 0.0 else 0.0
    return MembershipResult(member=residual <= tol, residual=residual)


@dataclass(frozen=True)
class KernelIdentityReport:
    """Max residuals of the kernel identities over random subspace samples.

    Vectors in the main range must be annihilated by the complementary chart
    and projector; vectors in the complementary range must be annihilated by
    the chart and be fixed points of the complementary projector.
    """

    samples: int
    max_comp_chart_on_main: float      # |comp_chart @ y| for y in range(P_main)
    max_comp_projector_on_main: float  # |P_comp @ y|
    max_chart_on_comp: float           # |chart @ y| for y in range(P_comp)
    max_comp_range_defect: float       # |y - P_comp y|
    tol: float

    @property
    def max_residual(self) -> float:
        return max(
            self.max_comp_chart_on_main,
            self.max_comp_projector_on_main,
            self.max_chart_on_comp,
            self.max_comp_range_defect,
        )

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _sample_vectors(frame: ProjectorFrame, samples: int, seed: int, caller: str) -> np.ndarray:
    """``samples`` standard-normal vectors of R^m, one per row, from a generator seeded with ``seed``."""
    if samples < 1:
        raise ValueError(f"{caller}: samples must be >= 1")
    return np.random.default_rng(seed).standard_normal((samples, frame.m))


def _max_row_norm(rows: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(rows, axis=1)))


def check_kernel_identities(
    frame: ProjectorFrame, samples: int = 100, tol: float = 1e-9, seed: int = 0
) -> KernelIdentityReport:
    """Sample each subspace by projecting standard-normal vectors and test the identities."""
    cs = _sample_vectors(frame, samples, seed, "check_kernel_identities")
    on_main = cs @ frame.projector.T          # rows are y = P_main c
    on_comp = cs @ frame.comp_projector.T     # rows are y = P_comp c
    return KernelIdentityReport(
        samples=samples,
        max_comp_chart_on_main=_max_row_norm(on_main @ frame.comp_chart.T),
        max_comp_projector_on_main=_max_row_norm(on_main @ frame.comp_projector.T),
        max_chart_on_comp=_max_row_norm(on_comp @ frame.chart.T),
        max_comp_range_defect=_max_row_norm(on_comp - on_comp @ frame.comp_projector.T),
        tol=tol,
    )


@dataclass(frozen=True)
class EmbeddingReport:
    """Checks that the embedding is a linear bijection onto the main range."""

    injective: bool            # embedding has full column rank
    image_residual: float      # |P_main @ embedding - embedding|
    max_retraction_defect: float  # |y - embedding @ (chart @ y)| over sampled y in the range
    samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.injective and max(self.image_residual, self.max_retraction_defect) <= self.tol


def check_embedding(
    frame: ProjectorFrame, samples: int = 100, tol: float = 1e-9, seed: int = 0
) -> EmbeddingReport:
    """Injectivity, image containment, and surjectivity of the embedding map."""
    on_main = _sample_vectors(frame, samples, seed, "check_embedding") @ frame.projector.T
    retracted = on_main @ frame.chart.T @ frame.embedding.T
    return EmbeddingReport(
        injective=linalg.rank(frame.embedding) == frame.n,
        image_residual=linalg.frobenius(frame.projector @ frame.embedding - frame.embedding),
        max_retraction_defect=_max_row_norm(on_main - retracted),
        samples=samples,
        tol=tol,
    )
