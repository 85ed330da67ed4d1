"""Exception types shared across the package.

Only failures raise. A run's or a sweep row's outcome ("blowup",
"reached_tmax" or "unstable") is a value on its result, not an exception.
"""


class BlowupLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BlowupLabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ConfigError(BlowupLabError, ValueError):
    """A configuration object or file violates its invariants."""


class InsufficientDataError(BlowupLabError, ValueError):
    """A series or sweep does not contain enough points for the operation."""
