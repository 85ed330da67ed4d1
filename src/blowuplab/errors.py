"""Exception types shared across the package."""


class BlowupLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BlowupLabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class AccuracyError(BlowupLabError, RuntimeError):
    """A quadrature failed to reach the requested tolerance within budget."""


class ConfigError(BlowupLabError, ValueError):
    """A configuration object or file violates its invariants."""


class NoTheoremError(BlowupLabError, ValueError):
    """No blow-up theorem applies to the given parameters."""


class NoBlowUpObservedError(BlowupLabError, RuntimeError):
    """A lifespan measurement was requested but a run did not blow up.

    `outcome` is the run's outcome: "reached_tmax" or "unstable".
    """

    outcome = "reached_tmax"


class InsufficientDataError(BlowupLabError, ValueError):
    """A series or sweep does not contain enough points for the operation."""


class KindMismatchError(BlowupLabError, ValueError):
    """A fit and a theoretical bound have incompatible kinds."""


class WindowEmptyError(BlowupLabError, ValueError):
    """A requested time window contains no samples."""
