"""Invariant subspaces of linear time-varying ODE systems.

Build time-dependent projectors from chart matrices, evaluate the defect
operator dP/dt + PA - AP whose vanishing patterns decide invariance, reduce
the dynamics onto an invariant subspace, and cross-check everything with
numerically integrated flows.
"""

__version__ = "0.1.0"

from types import ModuleType as _Module

from .errors import (
    ConfigError,
    EvaluationError,
    FrameError,
    InputError,
    IntegrationOverflowError,
    InvmanError,
    NumericalError,
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

# Every public name imported above, each named once: where it is imported.
__all__ = ["__version__"] + [
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module))
]
