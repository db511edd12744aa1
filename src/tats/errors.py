"""Exception hierarchy shared across the package.

The split mirrors how failures are reported to callers: configuration
problems are caught before any work starts, data problems surface while
reading or aligning inputs, and numeric problems surface during fitting
or evaluation. The command line maps them to distinct exit codes. The
checkers below refuse a parameter of the wrong type as one out of range.
"""

import math
import numbers
import operator

import numpy as np

__all__ = [
    "ConfigError",
    "DataError",
    "NumericError",
    "TatsError",
]


class TatsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TatsError):
    """Invalid parameter or option combination (usage error)."""


class DataError(TatsError):
    """Input data is missing, malformed, or misaligned."""


class NumericError(TatsError):
    """A computation could not be completed (degenerate fit, division by zero)."""


def _require_finite(value, what: str):
    """Return ``value`` when every element is finite, else raise NumericError.

    Callers compute ``value`` under ``np.errstate`` so that an overflow
    from huge finite inputs is reported once, as this error, instead of
    as numpy warnings followed by a misleading downstream failure.
    """
    if not np.isfinite(value).all():
        raise NumericError(f"{what} overflowed float64; the input values are too large")
    return value


def _int_at_least(name: str, value, low: int) -> int:
    """value as an int of at least low. numpy integers pass; bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be {'non-negative' if low == 0 else f'at least {low}'}, got {value}")
    return operator.index(value)


def _real(name: str, value, low: float = -math.inf, high: float = math.inf, ends: str = "[]") -> float:
    """value as a float: a finite real, not a bool, from low to high. ends holds the interval's
    brackets, "(" or ")" at an open end; without a finite high end, low is -inf or 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the range of floats
        x = math.inf if value > 0 else -math.inf
    above = low < x if ends[0] == "(" else low <= x
    below = x < high if ends[1] == ")" else x <= high
    if not (math.isfinite(x) and above and below):
        rule = f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}" if high < math.inf else "be finite"
        if high == math.inf and low == 0.0:
            rule += " and positive" if ends[0] == "(" else " and non-negative"
        raise ConfigError(f"{name} must {rule}, got {x}")
    return x


def _instance(name: str, value, *kinds: type) -> None:
    """Refuse a value that is an instance of none of kinds with a ConfigError; type(None) admits None."""
    if not isinstance(value, kinds):
        names = " or ".join("None" if kind is type(None) else kind.__name__ for kind in kinds)
        raise ConfigError(f"{name} must be of type {names}, got {type(value).__name__}")


def _vector(name: str, value, error: type[TatsError] = ConfigError) -> np.ndarray:
    """np.asarray(value, dtype=float), which must convert and be one-dimensional, else error."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be an array of numbers, got {type(value).__name__}") from None
    if array.ndim != 1:
        raise error(f"{name} must be one-dimensional, got shape {array.shape}")
    return array
