"""Exception types and the argument tests for numbers and arrays shared across the library."""

from numbers import Real
from sys import float_info

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy real number (NaN and inf included); a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


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


def check_exponent(name: str, value, strict: bool = False) -> None:
    """Raise ``StochConvError`` unless ``value`` is a finite real >= 1 (> 1 when ``strict``).

    NaN, inf and integers past the float range give no usable norm (x ** (1 / inf) is 1).
    """
    if not (is_real(value) and 1.0 <= value <= float_info.max and not (strict and value == 1.0)):
        sign = ">" if strict else ">="
        raise StochConvError(f"{name} must be a finite real {sign} 1, got {name}={value!r}")


def frozen_array(values, what: str, copy: bool = True, nonnegative: bool = False) -> np.ndarray:
    """``values`` as a read-only float64 array; raise ``StochConvError`` naming ``what``
    unless every entry is finite (and >= 0 when ``nonnegative``).

    ``copy=False`` returns a read-only view of a float64 input: the value object shares
    the caller's memory, and the caller's array stays writable (a later write to it shows
    through).  The test reads only the min and the max, so it allocates no mask; a NaN
    fails both comparisons, and an empty array passes.
    """
    arr = np.array(values, dtype=np.float64) if copy else np.asarray(values, np.float64).view()
    arr.setflags(write=False)
    if arr.size:
        low = arr.min()
        if not ((low >= 0.0 if nonnegative else low > -np.inf) and arr.max() < np.inf):
            rule = "finite and nonnegative" if nonnegative else "finite"
            raise StochConvError(f"{what} must be {rule}")
    return arr
