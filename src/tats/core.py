"""Core time series types: an immutable series and its chronological split.

A :class:`TimeSeries` wraps a 1-D float array that is validated once and
never mutated afterwards, so every other module can share series objects
freely. Directions elsewhere in the package are plain ints: +1 up, -1
down, and 0 for a flat move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError, DataError, _instance, _real, _vector

__all__ = [
    "TimeSeries",
    "chronological_split",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered univariate series.

    values: finite floats, length >= 1, stored as a read-only array.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _vector("series values", self.values, DataError)
        if arr.size < 1:
            raise DataError("series must contain at least one value")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DataError(f"series value at position {bad} is not finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def chronological_split(series: TimeSeries, train_fraction: float) -> tuple[TimeSeries, TimeSeries]:
    """Split into (train, test) preserving order.

    The train part takes floor(train_fraction * n) values; the remainder
    becomes the test part. Both parts must be non-empty.
    """
    _instance("series", series, TimeSeries)
    train_fraction = _real("train_fraction", train_fraction, 0.0, 1.0, "()")
    n = len(series)
    if n < 2:
        raise DataError("series too short to split (need at least 2 values)")
    n_train = math.floor(train_fraction * n)
    if n_train < 1:
        raise ConfigError(f"train split would be empty: floor({train_fraction} * {n}) = {n_train}")
    if n_train >= n:
        raise ConfigError(f"test split would be empty with train_fraction={train_fraction}")
    return TimeSeries(series.values[:n_train]), TimeSeries(series.values[n_train:])
