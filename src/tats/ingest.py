"""CSV loading and feature construction for the direction classifier.

File conventions (all CSVs carry a header row; one pass reads a file,
skips its rows of blank cells, and strips each cell as it parses it):

* data files: one row per period, numeric cells; a target column and
  optional exogenous columns, plus an optional strictly increasing
  label column (dates or row ids).
* external forecasts: columns ``time_index,forecast``. Indices are
  0-based positions into the series; only positions 1..n-1 are
  forecastable (position 0 has no previous value).
* external directions: columns ``time_index,direction`` with direction
  +1 or -1, same index convention.

Both external tables load as float arrays over series positions, with
NaN where the file lists no value.

Classifier rows at time s stack the last ``n_lags`` target values
[y_s, y_{s-1}, ..., y_{s-n_lags+1}], optionally followed by the
exogenous values at s (or at s - exog_lag), and are labeled with the
direction of the next move y_{s+1} - y_s. Rows whose next move is flat
have no direction label; they are dropped from training matrices and
counted, never silently imputed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import TimeSeries
from .errors import ConfigError, DataError, _instance, _int_at_least

__all__ = [
    "Dataset",
    "FeatureMatrix",
    "FeatureTable",
    "build_feature_table",
    "load_csv",
    "load_external_directions",
    "load_external_forecasts",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """A target series plus index-aligned exogenous series."""

    target: TimeSeries
    exogenous: dict[str, TimeSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.target, TimeSeries) and isinstance(self.exogenous, dict)
                and all(isinstance(series, TimeSeries) for series in self.exogenous.values())):
            raise ConfigError("a dataset needs a TimeSeries target and a dict of TimeSeries exogenous series")
        for name, series in self.exogenous.items():
            if len(series) != len(self.target):
                raise DataError(
                    f"exogenous column '{name}' has length {len(series)}, "
                    f"target has {len(self.target)}"
                )


def _read_text(path: Path) -> str:
    """The text of a UTF-8 file without a byte-order mark; a failed read is a DataError."""
    try:
        return path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """The stripped header and the non-blank body rows, cells as read, of a headered CSV file.

    A body with no non-blank row raises, as does the first non-blank row
    of another width, named by its row of the file (the header is row 1).
    """
    _instance("path", path, str, os.PathLike)
    p = Path(path)
    if not p.is_file():
        raise DataError(f"file not found: {p}")
    reader = csv.reader(io.StringIO(_read_text(p), newline=""))
    try:
        header, body = [h.strip() for h in next(reader)], list(reader)
    except StopIteration:
        raise DataError(f"{p}: file is empty") from None
    except csv.Error as exc:  # a cell longer than the csv module's field size limit
        raise DataError(f"{p}: {exc}") from None
    rows = [row for row in body if "".join(row).strip()]
    if not rows:
        raise DataError(f"{p}: no data rows")
    if set(map(len, rows)) != {len(header)}:
        ragged = next(row for row in rows if len(row) != len(header))
        # an equal row before it would be ragged too and found first, so index() finds this one
        raise DataError(f"{p}: row {body.index(ragged) + 2} has {len(ragged)} cells, header has {len(header)}")
    return header, rows


def _column(header: list[str], rows: list[list[str]], name: str, path) -> list[str]:
    if name not in header:
        raise DataError(f"{path}: column '{name}' not found; available: {', '.join(header)}")
    if header.count(name) > 1:
        raise DataError(f"{path}: column '{name}' appears {header.count(name)} times in the header")
    idx = header.index(name)
    return [row[idx] for row in rows]


def _floats(header: list[str], rows: list[list[str]], name: str, path) -> np.ndarray:
    """The stripped cells of the named column as floats; the first that does not parse or is not finite raises."""
    cells = _column(header, rows, name, path)
    values: list[float] = []
    try:
        values.extend(map(float, map(str.strip, cells)))
    except ValueError:
        # extend keeps the values parsed before the first bad cell
        i = len(values)
        raise DataError(f"{path}: non-numeric value {cells[i].strip()!r} in column '{name}', data row {i + 1}") from None
    array = np.array(values, dtype=float)
    if not np.isfinite(array).all():
        i = int(np.flatnonzero(~np.isfinite(array))[0])
        raise DataError(f"{path}: non-finite value {cells[i].strip()!r} in column '{name}', data row {i + 1}")
    return array


def _check_increasing(labels: list[str]) -> None:
    """Stripped labels compare as numbers when every one parses as a float, else as strings."""
    labels = list(map(str.strip, labels))
    try:
        keys = list(map(float, labels))
    except ValueError:
        keys = labels
    for i in range(1, len(keys)):
        if not keys[i - 1] < keys[i]:
            raise DataError(f"labels must be strictly increasing, violated at position {i}")


def load_csv(
    path: str | Path,
    target_column: str,
    exogenous_columns: list[str] | None = None,
    label_column: str | None = None,
) -> Dataset:
    """Load a Dataset from a headered CSV file.

    The label column, if named, is checked to be strictly increasing and
    not kept. A column named twice in the header, listed twice in
    exogenous_columns, or listed there as the target, is an error.
    """
    _instance("target_column", target_column, str)
    _instance("label_column", label_column, str, type(None))
    _instance("exogenous_columns", exogenous_columns, list, tuple, type(None))
    for i, name in enumerate(exogenous_columns or []):
        _instance("an exogenous column", name, str)
        if name in exogenous_columns[:i]:
            raise ConfigError(f"exogenous column '{name}' is listed twice")
        if name == target_column:
            raise ConfigError(f"exogenous column '{name}' is the target column")
    header, rows = _read_rows(path)
    labels = None if label_column is None else _column(header, rows, label_column, path)
    target = TimeSeries(_floats(header, rows, target_column, path))
    if labels is not None:
        _check_increasing(labels)
    exogenous = {name: TimeSeries(_floats(header, rows, name, path)) for name in exogenous_columns or []}
    return Dataset(target=target, exogenous=exogenous)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Labeled classifier rows (training view).

    rows[i] is a feature vector and labels[i] is +1/-1 for the direction
    of the move after it. Flat-label rows are excluded and counted in
    n_flat_dropped.
    """

    rows: np.ndarray
    labels: np.ndarray
    n_flat_dropped: int

    def __post_init__(self) -> None:
        if not (isinstance(self.rows, np.ndarray) and self.rows.ndim == 2
                and isinstance(self.labels, np.ndarray) and self.labels.shape == self.rows.shape[:1]):
            raise DataError("feature rows and labels must be 2-D and 1-D arrays that align")

    def __len__(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """All constructible rows, labeled where the next move is strict.

    Unlike :class:`FeatureMatrix` this keeps flat-label rows, because a
    row used for prediction does not need a label. rows[i] is the row at
    time s = first + i, which predicts step s + 1; next_delta[i] is
    y_{s+1} - y_s. The rows run without gaps to s = n - 2.
    """

    rows: np.ndarray
    first: int
    next_delta: np.ndarray

    def __post_init__(self) -> None:
        if not (isinstance(self.rows, np.ndarray) and self.rows.ndim == 2
                and isinstance(self.next_delta, np.ndarray) and self.next_delta.shape == self.rows.shape[:1]):
            raise DataError("feature rows and next moves must be 2-D and 1-D arrays that align")
        object.__setattr__(self, "first", _int_at_least("first", self.first, 0))

    def training_matrix(self, n_train: int | None = None) -> FeatureMatrix:
        """Labeled rows whose label lies inside the first n_train values (all if None), flats dropped.

        The label at s reads y_{s+1}, so the rows kept run from first to n_train - 2.
        """
        n = self.next_delta.size if n_train is None else max(0, _int_at_least("n_train", n_train, 0) - 1 - self.first)
        delta = self.next_delta[:n]
        strict = np.flatnonzero(delta != 0.0)
        if not strict.size:
            raise DataError("no labeled feature rows available for training")
        return FeatureMatrix(
            rows=self.rows[strict],
            labels=np.where(delta[strict] > 0, 1, -1),
            n_flat_dropped=delta.size - strict.size,
        )

    def rows_for_steps(self, start: int, stop: int) -> np.ndarray:
        """A view of the rows that predict steps start..stop - 1, those at s = start - 1..stop - 2."""
        start, stop = _int_at_least("start", start, 0), _int_at_least("stop", stop, 0)
        last = self.first + self.next_delta.size
        if not self.first + 1 <= start <= stop <= last + 1:
            raise DataError(f"no feature rows for steps {start}..{stop - 1} (available {self.first + 1}..{last})")
        return self.rows[start - 1 - self.first : stop - 1 - self.first]


def build_feature_table(dataset: Dataset, n_lags: int, exog_lag: int = 0) -> FeatureTable:
    """Construct every feature row the dataset supports.

    Rows exist for s from n_lags - 1 (or exog_lag, if larger and the
    dataset has exogenous series) through n - 2; each holds the n_lags
    most recent target values (newest first), then the exogenous values
    at s - exog_lag in declared order.
    """
    _instance("dataset", dataset, Dataset)
    n_lags, exog_lag = _int_at_least("n_lags", n_lags, 1), _int_at_least("exog_lag", exog_lag, 0)
    y = dataset.target.values
    n = y.size
    start = max(n_lags - 1, exog_lag if dataset.exogenous else 0)
    if start > n - 2:
        binding = f"{n_lags} lags" if start == n_lags - 1 else f"exog_lag={exog_lag}"
        raise DataError(f"series of length {n} too short for {binding} (no labeled rows possible)")
    times = np.arange(start, n - 1)
    cols = [y[times - k] for k in range(n_lags)]
    cols += [series.values[times - exog_lag] for series in dataset.exogenous.values()]
    rows = np.column_stack(cols)
    # labels use only the sign of a move, which survives overflow to +-inf
    with np.errstate(over="ignore"):
        next_delta = y[times + 1] - y[times]
    return FeatureTable(rows=rows, first=start, next_delta=next_delta)


def _load_table(path: str | Path, series: TimeSeries, column: str, valid, problem: str) -> np.ndarray:
    """Read a time_index,<column> CSV into a float array over series positions, NaN where unlisted.

    Each row's two stripped cells are parsed and checked in file order, so
    the first faulty row is the one reported. Every index must fall in
    1..len(series)-1 and appear once, and valid(value) must hold for every
    value; a row that breaks the last rule is reported as ``problem``.
    """
    _instance("series", series, TimeSeries)
    header, rows = _read_rows(path)
    raw_idx = _column(header, rows, "time_index", path)
    raw_val = _column(header, rows, column, path)
    n = len(series)
    table = np.full(n, np.nan)
    for i, (cell_t, cell_v) in enumerate(zip(map(str.strip, raw_idx), map(str.strip, raw_val)), start=1):
        try:
            t = int(cell_t)
        except ValueError:
            raise DataError(f"{path}: non-integer time_index {cell_t!r} at data row {i}") from None
        if not 1 <= t <= n - 1:
            raise DataError(f"{path}: time_index {t} outside the forecastable range 1..{n - 1}")
        if not math.isnan(table[t]):
            raise DataError(f"{path}: duplicate time_index {t}")
        try:
            v = float(cell_v)
        except ValueError:
            raise DataError(f"{path}: non-numeric value {cell_v!r} in column '{column}', data row {i}") from None
        if not valid(v):
            raise DataError(f"{path}: {column} at time_index {t} {problem}, got {v}")
        table[t] = v
    return table


def _table_slice(table: np.ndarray, start: int, stop: int, what: str) -> np.ndarray:
    """table[start:stop] of an external table; the first absent position raises."""
    part = table[start:stop]
    absent = np.flatnonzero(np.isnan(part))
    if absent.size or part.size < stop - start:
        first = start + int(absent[0] if absent.size else part.size)
        raise DataError(f"external {what} missing time index {first}")
    return part


def load_external_forecasts(path: str | Path, series: TimeSeries) -> np.ndarray:
    """Load a time_index,forecast CSV as forecasts indexed by series position.

    Every index must fall in 1..len(series)-1 and every forecast must be
    finite; duplicates are rejected. Unlisted positions hold NaN.
    """
    return _load_table(path, series, "forecast", math.isfinite, "is not finite")


def load_external_directions(path: str | Path, series: TimeSeries) -> np.ndarray:
    """Load a time_index,direction CSV as +1/-1 floats indexed by series position.

    Same index rules as :func:`load_external_forecasts`; unlisted positions hold NaN.
    """
    return _load_table(path, series, "direction", lambda v: v in (1.0, -1.0), "must be +1 or -1")
