"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so raising the right class matters:
configuration and parse problems are user errors, singularity / rank /
overflow conditions are numerical failures, and PreconditionError marks a
run whose mathematical precondition did not hold.
"""


class InvmanError(Exception):
    """Base class for all package errors."""


class ParseError(InvmanError):
    """Malformed expression text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class _IndexedError(InvmanError):
    """A failure at one item of a stack or grid.

    ``index`` is the position of the first failing item; 0 for a single one.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class EvaluationError(_IndexedError):
    """Expression evaluation hit a pole or produced a non-finite value."""


class ShapeError(InvmanError):
    """Matrix dimensions do not conform."""


class SingularMatrixError(_IndexedError):
    """A matrix that must be invertible is singular to tolerance."""


class RankDeficiencyError(_IndexedError):
    """A matrix that must have full row rank does not."""


class FrameError(InvmanError):
    """A stacked frame failed its consistency identities."""


class ScenarioError(InvmanError):
    """A generated scenario is inconsistent with its declared structure."""


class IntegrationOverflowError(InvmanError):
    """The integrator produced a non-finite state."""

    def __init__(self, step: int, t: float):
        super().__init__(f"integration overflow at step {step} (t={t!r})")
        self.step = step
        self.t = t


class PreconditionError(InvmanError):
    """A check was requested whose precondition fails; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ConfigError(InvmanError):
    """A configuration file is missing fields or has inconsistent values."""
