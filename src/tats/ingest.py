"""CSV loading and feature construction for the direction classifier.

File conventions (all CSVs carry a header row):

* data files: one row per period, numeric cells; a target column and
  optional exogenous columns, plus an optional strictly increasing
  label column (dates or row ids).
* external forecasts: columns ``time_index,forecast``. Indices are
  0-based positions into the series; only positions 1..n-1 are
  forecastable (position 0 has no previous value).
* external directions: columns ``time_index,direction`` with direction
  +1 or -1, same index convention.

Classifier rows at time s stack the last ``n_lags`` target values
[y_s, y_{s-1}, ..., y_{s-n_lags+1}], optionally followed by the
exogenous values at s (or at s - exog_lag), and are labeled with the
direction of the next move y_{s+1} - y_s. Rows whose next move is flat
have no direction label; they are dropped from training matrices and
counted, never silently imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import TimeSeries, TrendDirection
from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "ExternalForecasts",
    "FeatureMatrix",
    "FeatureTable",
    "build_feature_table",
    "load_csv",
    "load_external_directions",
    "load_external_forecasts",
]


@dataclass(frozen=True)
class Dataset:
    """A target series plus index-aligned exogenous series."""

    target: TimeSeries
    exogenous: dict[str, TimeSeries]

    def __post_init__(self) -> None:
        for name, series in self.exogenous.items():
            if len(series) != len(self.target):
                raise DataError(
                    f"exogenous column '{name}' has length {len(series)}, "
                    f"target has {len(self.target)}"
                )


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"file not found: {p}")
    with p.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{p}: file is empty") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{p}: row {lineno} has {len(row)} cells, header has {len(header)}"
                )
            rows.append([c.strip() for c in row])
    if not rows:
        raise DataError(f"{p}: no data rows")
    return header, rows


def _column(header: list[str], rows: list[list[str]], name: str, path) -> list[str]:
    try:
        idx = header.index(name)
    except ValueError:
        raise DataError(f"{path}: column '{name}' not found; available: {', '.join(header)}") from None
    return [row[idx] for row in rows]


def _floats(cells: list[str], name: str, path) -> np.ndarray:
    out = np.empty(len(cells), dtype=float)
    for i, cell in enumerate(cells):
        try:
            out[i] = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric value {cell!r} in column '{name}', data row {i + 1}"
            ) from None
    return out


def load_csv(
    path: str | Path,
    target_column: str,
    exogenous_columns: list[str] | None = None,
    label_column: str | None = None,
) -> Dataset:
    """Load a Dataset from a headered CSV file."""
    header, rows = _read_rows(path)
    labels = None
    if label_column is not None:
        raw = _column(header, rows, label_column, path)
        try:
            labels = tuple(float(c) for c in raw)
        except ValueError:
            labels = tuple(raw)
    target = TimeSeries(_floats(_column(header, rows, target_column, path), target_column, path), labels)
    exogenous = {}
    for name in exogenous_columns or []:
        exogenous[name] = TimeSeries(_floats(_column(header, rows, name, path), name, path))
    return Dataset(target=target, exogenous=exogenous)


@dataclass(frozen=True)
class FeatureMatrix:
    """Labeled classifier rows (training view).

    rows[i] is the feature vector at time row_time_index[i]; labels[i]
    is +1/-1 for the direction of the next move. Flat-label rows are
    excluded and counted in n_flat_dropped.
    """

    rows: np.ndarray
    labels: np.ndarray
    row_time_index: np.ndarray
    n_flat_dropped: int

    def __post_init__(self) -> None:
        if self.rows.shape[0] != self.labels.size or self.rows.shape[0] != self.row_time_index.size:
            raise DataError("feature rows, labels, and time index must align")

    def __len__(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True)
class FeatureTable:
    """All constructible rows, labeled where the next move is strict.

    Unlike :class:`FeatureMatrix` this keeps flat-label rows, because a
    row used for prediction does not need a label. next_delta[i] is
    y_{s+1} - y_s at s = row_time_index[i].
    """

    rows: np.ndarray
    row_time_index: np.ndarray
    next_delta: np.ndarray

    def training_matrix(self, last_label_time: int | None = None) -> FeatureMatrix:
        """Labeled rows with time index <= last_label_time, flats dropped.

        Pass last_label_time = n_train - 2 to train strictly inside a
        train split of length n_train (the label at s peeks at y_{s+1}).
        """
        keep = np.ones(self.row_time_index.size, dtype=bool)
        if last_label_time is not None:
            keep &= self.row_time_index <= last_label_time
        strict = self.next_delta != 0.0
        selected = keep & strict
        n_flat = int(np.count_nonzero(keep & ~strict))
        if not np.any(selected):
            raise DataError("no labeled feature rows available for training")
        labels = np.where(self.next_delta[selected] > 0, 1, -1).astype(int)
        return FeatureMatrix(
            rows=self.rows[selected],
            labels=labels,
            row_time_index=self.row_time_index[selected],
            n_flat_dropped=n_flat,
        )

    def rows_at(self, time_indices: np.ndarray) -> np.ndarray:
        """Feature rows at exact time indices; the first missing one raises."""
        times = self.row_time_index
        pos = np.minimum(np.searchsorted(times, time_indices), times.size - 1)
        missing = np.flatnonzero(times[pos] != time_indices)
        if missing.size:
            raise DataError(
                f"no feature row at time index {int(time_indices[missing[0]])} "
                f"(available {int(times[0])}..{int(times[-1])})"
            )
        return self.rows[pos]


def build_feature_table(
    dataset: Dataset,
    n_lags: int,
    include_exogenous: bool = True,
    exog_lag: int = 0,
) -> FeatureTable:
    """Construct every feature row the dataset supports.

    Rows exist for s from max(n_lags - 1, exog_lag) through n - 2; each
    holds the n_lags most recent target values (newest first) and, when
    requested, the exogenous values at s - exog_lag in declared order.
    """
    if n_lags < 1:
        raise ConfigError(f"n_lags must be at least 1, got {n_lags}")
    if exog_lag < 0:
        raise ConfigError(f"exog_lag must be non-negative, got {exog_lag}")
    y = dataset.target.values
    n = y.size
    start = max(n_lags - 1, exog_lag if include_exogenous and dataset.exogenous else 0)
    if start > n - 2:
        raise DataError(
            f"series of length {n} too short for {n_lags} lags (no labeled rows possible)"
        )
    times = np.arange(start, n - 1)
    lag_cols = [y[times - k] for k in range(n_lags)]
    cols = lag_cols
    if include_exogenous:
        for series in dataset.exogenous.values():
            cols = cols + [series.values[times - exog_lag]]
    rows = np.column_stack(cols)
    # labels use only the sign of a move, which survives overflow to +-inf
    with np.errstate(over="ignore"):
        next_delta = y[times + 1] - y[times]
    return FeatureTable(rows=rows, row_time_index=times, next_delta=next_delta)


@dataclass(frozen=True)
class ExternalForecasts:
    """Forecasts keyed by 0-based series position."""

    by_index: dict[int, float]

    def value_at(self, time_index: int) -> float:
        try:
            return self.by_index[time_index]
        except KeyError:
            raise DataError(f"external forecasts missing time index {time_index}") from None


def _indexed_column(path: str | Path, value_column: str) -> dict[int, float]:
    header, rows = _read_rows(path)
    raw_idx = _column(header, rows, "time_index", path)
    raw_val = _column(header, rows, value_column, path)
    out: dict[int, float] = {}
    for i, (cell_t, cell_v) in enumerate(zip(raw_idx, raw_val), start=1):
        try:
            t = int(cell_t)
        except ValueError:
            raise DataError(f"{path}: non-integer time_index {cell_t!r} at data row {i}") from None
        if t in out:
            raise DataError(f"{path}: duplicate time_index {t}")
        try:
            out[t] = float(cell_v)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric value {cell_v!r} in column '{value_column}', data row {i}"
            ) from None
    return out


def load_external_forecasts(path: str | Path, series: TimeSeries) -> ExternalForecasts:
    """Load a time_index,forecast CSV aligned to ``series``.

    Every index must fall in 1..len(series)-1 and every forecast must be
    finite; duplicates are rejected.
    """
    table = _indexed_column(path, "forecast")
    n = len(series)
    for t, v in table.items():
        if not 1 <= t <= n - 1:
            raise DataError(
                f"{path}: time_index {t} outside the forecastable range 1..{n - 1}"
            )
        if not math.isfinite(v):
            raise DataError(f"{path}: forecast at time_index {t} is not finite, got {v}")
    return ExternalForecasts(by_index=table)


def load_external_directions(path: str | Path, series: TimeSeries) -> dict[int, TrendDirection]:
    """Load a time_index,direction CSV aligned to ``series``; directions must be +1 or -1."""
    table = _indexed_column(path, "direction")
    out: dict[int, TrendDirection] = {}
    for t, v in table.items():
        if v not in (1.0, -1.0):
            raise DataError(f"{path}: direction at time_index {t} must be +1 or -1, got {v}")
        if not 1 <= t <= len(series) - 1:
            raise DataError(
                f"{path}: time_index {t} outside the forecastable range 1..{len(series) - 1}"
            )
        out[t] = TrendDirection(int(v))
    return out
