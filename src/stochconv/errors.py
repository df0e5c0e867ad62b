"""Exception types and the integer-argument test shared across the library."""

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class StochConvError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(StochConvError):
    """Raised when operator/vector/ensemble dimensions are incompatible."""

    def __init__(self, message, expected=None, got=None):
        if expected is not None or got is not None:
            message = f"{message} (expected {expected}, got {got})"
        super().__init__(message)
        self.expected = expected
        self.got = got


class PredictabilityError(StochConvError):
    """Raised when an adapted integrand callback peeks at future increments."""


class ConfigError(StochConvError):
    """Raised when a scenario config fails schema validation."""
