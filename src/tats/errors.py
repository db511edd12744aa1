"""Exception hierarchy shared across the package.

The split mirrors how failures are reported to callers: configuration
problems are caught before any work starts, data problems surface while
reading or aligning inputs, and numeric problems surface during fitting
or evaluation. The command line maps them to distinct exit codes.
"""

import numpy as np


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
