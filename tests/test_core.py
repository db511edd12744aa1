import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    TimeSeries,
    chronological_split,
)
from tats.engine import evaluate_forecasts

seed = 101
nruns = 200


def test_series_basic():
    s = TimeSeries(np.array([1.0, 2.0, 3.0]))
    assert len(s) == 3
    assert s.values.dtype == np.float64


def test_series_rejects_bad_input():
    with pytest.raises(DataError):
        TimeSeries(np.array([]))
    with pytest.raises(DataError):
        TimeSeries(np.array([1.0, np.nan]))
    with pytest.raises(DataError):
        TimeSeries(np.array([1.0, np.inf]))
    with pytest.raises(DataError):
        TimeSeries(np.array([[1.0, 2.0]]))


def test_series_values_read_only():
    s = TimeSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def _moves(s: TimeSeries) -> np.ndarray:
    """Per-step moves y_t - y_{t-1} of s, as a forecast trace over all of s records them."""
    n = len(s)
    trace = evaluate_forecasts(s.values, 1, s.values[:-1], np.ones(n - 1, dtype=int))
    return trace.y_true - trace.y_prev


def test_diff_basic():
    s = TimeSeries(np.array([7.0, 5.0, 9.0]))
    assert np.array_equal(_moves(s), np.array([-2.0, 4.0]))


# Values on a dyadic grid so that differencing and the cumulative sum
# are both exact in binary floating point.
rng = np.random.default_rng(seed)
dyadic_series = [
    rng.integers(-8000, 8000, size=rng.integers(2, 60)) / 8.0 for _ in range(nruns)
]


@pytest.mark.parametrize("values", dyadic_series)
def test_diff_reconstructs_exactly_on_dyadic_grid(values):
    s = TimeSeries(values)
    rebuilt = values[0] + np.cumsum(_moves(s))
    assert np.array_equal(rebuilt, values[1:])


def test_diff_reconstructs_within_tolerance():
    r = np.random.default_rng(seed + 1)
    for _ in range(50):
        values = r.normal(100.0, 10.0, size=r.integers(2, 200))
        s = TimeSeries(values)
        rebuilt = values[0] + np.cumsum(_moves(s))
        assert np.allclose(rebuilt, values[1:], rtol=1e-12, atol=0)


def test_split_floor_semantics():
    s = TimeSeries(np.arange(250, dtype=float))
    train, test = chronological_split(s, 0.7)
    assert len(train) == 175
    assert len(test) == 75
    assert train.values[-1] == 174.0
    assert test.values[0] == 175.0


def test_split_minimum_length():
    s = TimeSeries(np.array([1.0, 2.0]))
    train, test = chronological_split(s, 0.9)
    assert len(train) == 1 and len(test) == 1
    with pytest.raises(DataError):
        chronological_split(TimeSeries(np.array([1.0])), 0.5)


def test_split_rejects_bad_fraction():
    s = TimeSeries(np.arange(10, dtype=float))
    for f in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            chronological_split(s, f)


def test_split_rejects_empty_side():
    s = TimeSeries(np.arange(4, dtype=float))
    with pytest.raises(ConfigError):
        chronological_split(s, 0.2)  # floor(0.8) = 0


def test_split_concat_round_trip():
    r = np.random.default_rng(seed + 2)
    for _ in range(50):
        n = int(r.integers(2, 100))
        s = TimeSeries(r.normal(size=n))
        f = float(r.uniform(0.1, 0.9))
        k = int(np.floor(f * n))
        if k < 1 or k >= n:
            continue
        train, test = chronological_split(s, f)
        assert len(train) + len(test) == n
        assert np.array_equal(np.concatenate([train.values, test.values]), s.values)

