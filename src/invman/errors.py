"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes by kind, so raising the right class
matters: an InputError (ParseError, ConfigError) exits 2, a PreconditionError
1, and a NumericalError (singularity, rank deficiency, a non-finite value,
a failed frame identity, a bad scenario, overflow) 3, as does ShapeError.
"""


class InvmanError(Exception):
    """Base class for all package errors."""


class InputError(InvmanError):
    """Base class for problems with the user's input: the CLI exits 2."""


class NumericalError(InvmanError):
    """Base class for numerical failures: the CLI exits 3."""


class ParseError(InputError):
    """Malformed expression text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class _IndexedError(NumericalError):
    """A failure at one item of a stack or grid.

    ``index`` is the position of the first failing item; 0 for a single one.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class EvaluationError(_IndexedError):
    """Expression evaluation hit a pole, or it or a residual came out non-finite."""


class ShapeError(InvmanError):
    """Matrix dimensions do not conform."""


class SingularMatrixError(_IndexedError):
    """A matrix that must be invertible is singular to tolerance."""


class RankDeficiencyError(_IndexedError):
    """A matrix that must have full row rank does not."""


class FrameError(NumericalError):
    """A stacked frame failed its consistency identities."""


class ScenarioError(NumericalError):
    """A generated scenario is inconsistent with its declared structure."""


class IntegrationOverflowError(NumericalError):
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


class ConfigError(InputError):
    """A configuration file is missing fields or has inconsistent values."""
