"""Exception hierarchy shared across the package.

Each class declares, as ``exit_code``, the process exit code the CLI
returns for it, so the distinctions matter: validation/parse problems,
resource guards, genuinely undefined quantities and solver failures are
different failure modes.
"""


class BellError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ScenarioMismatchError(BellError):
    """Two objects living in different scenarios were combined."""


class ValidationError(BellError):
    """An object or input violates a structural invariant.

    ``report`` carries the individual violations when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = tuple(report) if report else ()

    def __str__(self):
        base = super().__str__()
        if not self.report:
            return base
        shown = "; ".join(str(v) for v in self.report[:3])
        more = len(self.report) - 3
        if more > 0:
            shown += f"; and {more} more"
        return f"{base}: {shown}"


class GuardExceededError(BellError):
    """An enumeration or problem size exceeded its resource guard."""

    exit_code = 3


class UndefinedQuantityError(BellError):
    """The requested quantity is mathematically undefined for this input."""

    exit_code = 4


class SignalingBehaviorError(UndefinedQuantityError):
    """Maximal violation is undefined because the behavior signals."""


class SolverError(BellError):
    """A solver ended without a certified optimum, with no input at fault."""

    exit_code = 5


class DocumentError(BellError):
    """A JSON document failed to parse or has the wrong structure."""
