"""Core time series types: immutable series, directions, splits.

A :class:`TimeSeries` wraps a 1-D float array that is validated once and
never mutated afterwards, so every other module can share series objects
freely. Directions are a two-valued enum; a zero step delta is neither
up nor down and is represented by the distinct :data:`FLAT` marker so
that callers are forced to state their tie policy explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "FLAT",
    "Flat",
    "TimeSeries",
    "TrendDirection",
    "chronological_split",
    "concat",
    "direction_of",
]


class TrendDirection(enum.IntEnum):
    """Direction of a one-step move, numerically +1 (up) or -1 (down)."""

    UP = 1
    DOWN = -1

    def flipped(self) -> "TrendDirection":
        return TrendDirection.DOWN if self is TrendDirection.UP else TrendDirection.UP


class Flat:
    """Singleton marker for a zero step delta.

    Deliberately not a :class:`TrendDirection`: code that consumes
    directions must decide what a flat step means for it instead of
    silently inheriting a default.
    """

    _instance: "Flat | None" = None

    def __new__(cls) -> "Flat":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FLAT"


FLAT = Flat()


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered univariate series with optional row labels.

    values: finite floats, length >= 1, stored as a read-only array.
    labels: optional timestamps or row identifiers, same length as
        values and strictly increasing.
    """

    values: np.ndarray
    labels: tuple | None = field(default=None)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"series values must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise DataError("series must contain at least one value")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DataError(f"series value at position {bad} is not finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.size:
                raise DataError(
                    f"labels length {len(labels)} does not match series length {arr.size}"
                )
            for i in range(1, len(labels)):
                try:
                    ordered = labels[i - 1] < labels[i]
                except TypeError as exc:
                    raise DataError(f"labels are not mutually comparable: {exc}") from exc
                if not ordered:
                    raise DataError(
                        f"labels must be strictly increasing, violated at position {i}"
                    )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Contiguous sub-series over [start, stop)."""
        if not 0 <= start < stop <= len(self):
            raise ConfigError(f"invalid slice [{start}, {stop}) of series with length {len(self)}")
        labels = self.labels[start:stop] if self.labels is not None else None
        return TimeSeries(self.values[start:stop], labels)


def direction_of(delta: float) -> TrendDirection | Flat:
    """Classify a step delta as UP, DOWN, or FLAT (exactly zero)."""
    if not math.isfinite(delta):
        raise DataError(f"step delta must be finite, got {delta!r}")
    if delta > 0:
        return TrendDirection.UP
    if delta < 0:
        return TrendDirection.DOWN
    return FLAT


def chronological_split(series: TimeSeries, train_fraction: float) -> tuple[TimeSeries, TimeSeries]:
    """Split into (train, test) preserving order.

    The train part takes floor(train_fraction * n) values; the remainder
    becomes the test part. Both parts must be non-empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must lie strictly between 0 and 1, got {train_fraction}")
    n = len(series)
    if n < 2:
        raise DataError("series too short to split (need at least 2 values)")
    n_train = math.floor(train_fraction * n)
    if n_train < 1:
        raise ConfigError(
            f"train split would be empty: floor({train_fraction} * {n}) = {n_train}"
        )
    if n_train >= n:
        raise ConfigError(f"test split would be empty with train_fraction={train_fraction}")
    return series.slice(0, n_train), series.slice(n_train, n)


def concat(first: TimeSeries, second: TimeSeries) -> TimeSeries:
    """Concatenate two series, keeping labels only if both parts carry them."""
    values = np.concatenate([first.values, second.values])
    labels = None
    if first.labels is not None and second.labels is not None:
        labels = first.labels + second.labels
    return TimeSeries(values, labels)
