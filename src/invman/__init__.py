"""Invariant subspaces of linear time-varying ODE systems.

Build time-dependent projectors from chart matrices, evaluate the defect
operator dP/dt + PA - AP whose vanishing patterns decide invariance, reduce
the dynamics onto an invariant subspace, and cross-check everything with
numerically integrated flows.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EvaluationError,
    FrameError,
    IntegrationOverflowError,
    InvmanError,
    ParseError,
    PreconditionError,
    RankDeficiencyError,
    ScenarioError,
    ShapeError,
    SingularMatrixError,
)
from .matexpr import MatrixFunction, ScalarExpr, differentiate, evaluate, parse_expr, to_string
from .linalg import (
    invert,
    rank,
    right_pseudoinverse,
    right_pseudoinverse_derivative,
)
from .manifold import (
    ProjectorFrame,
    Subspace,
    build_frame,
    check_embedding,
    check_kernel_identities,
    membership,
)
from .invariance import (
    InvarianceReport,
    SystemSpec,
    invariance_defect,
    projector_derivative,
    reduced_matrix,
    verdicts,
)
from .flow import (
    SIDE_COMPLEMENT,
    SIDE_MAIN,
    ConjugacyResult,
    DriftResult,
    FlowResult,
    FundamentalSolution,
    conjugacy_check,
    integrate_fundamental,
    integrate_states,
    manifold_drift,
    run_flow,
)
from .scenario import (
    ExpectedVerdicts,
    FramePair,
    ScenarioSpec,
    Structure,
    coefficient_function,
    expected_verdicts,
    random_frame,
    random_scenario,
    to_config,
    to_system,
)

__all__ = [
    "__version__",
    # errors
    "InvmanError",
    "ParseError",
    "EvaluationError",
    "ShapeError",
    "SingularMatrixError",
    "RankDeficiencyError",
    "FrameError",
    "ScenarioError",
    "IntegrationOverflowError",
    "PreconditionError",
    "ConfigError",
    # expressions
    "ScalarExpr",
    "MatrixFunction",
    "parse_expr",
    "evaluate",
    "differentiate",
    "to_string",
    # linear algebra
    "invert",
    "rank",
    "right_pseudoinverse",
    "right_pseudoinverse_derivative",
    # manifolds
    "ProjectorFrame",
    "Subspace",
    "build_frame",
    "membership",
    "check_kernel_identities",
    "check_embedding",
    # invariance
    "SystemSpec",
    "InvarianceReport",
    "projector_derivative",
    "invariance_defect",
    "reduced_matrix",
    "verdicts",
    # flows
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
    # scenarios
    "Structure",
    "FramePair",
    "ScenarioSpec",
    "ExpectedVerdicts",
    "coefficient_function",
    "expected_verdicts",
    "to_system",
    "random_frame",
    "random_scenario",
    "to_config",
]
