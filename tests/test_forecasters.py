import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    NumericError,
    TimeSeries,
    ValueForecasterSpec,
    fit_forecaster,
)
from tats.forecasters import (
    ARModel,
    ExternalForecaster,
    SESForecaster,
    _fma,
    _walk_forward,
    fit_ar,
)

seed = 505


def _series(values):
    return TimeSeries(np.asarray(values, dtype=float))


def _next(model, history):
    """The model's forecast of the value after ``history``, read off its path."""
    values = np.append(np.asarray(history, dtype=float), np.nan)
    [forecast] = model.forecast_path(values, values.size - 1)
    return forecast


_OVERFLOW = 2**1024 - 2**970  # the exact values from here up round to inf


def _fraction_fma(a, b, c):
    """a*b + c rounded once to the nearest double (ties to even), with IEEE 754's rules for
    zeros, infinities and NaN: the oracle of every fused multiply-add."""
    a, b, c = float(a), float(b), float(c)
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return math.nan
    product_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
    if math.isinf(a) or math.isinf(b):
        if a == 0 or b == 0 or (math.isinf(c) and math.copysign(1.0, c) != product_sign):
            return math.nan
        return product_sign * math.inf
    if math.isinf(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        # both zeros negative gives -0; an exact cancellation, or any other pair of zeros, +0
        both_negative = (a == 0 or b == 0) and product_sign < 0 and math.copysign(1.0, c) < 0
        return -0.0 if both_negative else 0.0
    if abs(exact) >= _OVERFLOW:
        return math.inf if exact > 0 else -math.inf
    rounded = exact.numerator / exact.denominator  # int / int rounds once, ties to even
    return rounded if rounded != 0 else math.copysign(0.0, exact)


def _same_doubles(x, y):
    """Equal bit patterns, with every NaN equal to every other."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return bool(np.all((x.view(np.int64) == y.view(np.int64)) | (np.isnan(x) & np.isnan(y))))


def _reference_forecast_one(kind, model, history, external=None):
    """The per-step forecast of each kind of model before forecast_path, kept as the oracle.

    Naive and drift fit to AR(1) models of coefficient 1, so the kind, not the class, picks
    their own formulas. ``external`` maps series positions to forecasts for an ExternalForecaster.
    """
    if kind == "naive":
        return float(history[-1])
    if kind == "drift":
        return float(history[-1]) + model.intercept  # the mean training step
    if kind == "ar":
        # the fused chain from +0.0, newest lag first, each step rounded once
        acc = 0.0
        for coefficient, lag in zip(model.coefficients, history[::-1]):
            acc = _fraction_fma(coefficient, lag, acc)
        return model.intercept + acc
    if kind == "ses":
        level = float(history[0])
        lam = model.smoothing
        for value in history[1:]:
            level = lam * float(value) + (1.0 - lam) * level
        return level
    assert kind == "external"
    return external[int(len(history))]


def _reference_walk(spec, fitted, values, start, refit_each_step=False, external=None):
    out = np.empty(values.size - start, dtype=float)
    for i, t in enumerate(range(start, values.size)):
        if refit_each_step and t > start:
            fitted = fit_forecaster(spec, TimeSeries(values[:t]))
        out[i] = _reference_forecast_one(spec.kind, fitted, values[:t], external)
    return out


def _walk_values(n, rng_seed):
    rng = np.random.default_rng(rng_seed)
    return np.cumsum(rng.normal(size=n)) + 100.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        ValueForecasterSpec(kind="ar")  # ar needs an order
    with pytest.raises(ConfigError):
        ValueForecasterSpec(kind="naive", order=2)  # naive takes no params
    with pytest.raises(ConfigError):
        ValueForecasterSpec("ar", order=0)
    with pytest.raises(ConfigError):
        ValueForecasterSpec("ses", smoothing=0.0)
    with pytest.raises(ConfigError):
        ValueForecasterSpec("ses", smoothing=1.5)
    with pytest.raises(ConfigError):
        ValueForecasterSpec(kind="nonsense")


@pytest.mark.parametrize("kind", [np.array(["ar"]), np.array(["ar", "naive"]), 2, None, b"ar"],
                         ids=["array", "two-element-array", "int", "none", "bytes"])
def test_kind_that_is_not_a_string_is_unknown(kind):
    with pytest.raises(ConfigError, match="unknown forecaster kind"):
        ValueForecasterSpec(kind, order=2)


def test_naive():
    model = fit_forecaster(ValueForecasterSpec("naive"), _series([1.0, 2.0, 7.0]))
    assert _next(model, [3.0, 4.0]) == 4.0


def test_drift_freezes_training_mean_step():
    # mean training step 0.25, last observed value 8 -> 8.25
    train = _series([7.0, 7.25, 7.5, 7.75, 8.0])
    model = fit_forecaster(ValueForecasterSpec("drift"), train)
    assert _next(model, train.values) == 8.25
    # same frozen step applied to an unrelated history
    assert _next(model, [100.0]) == 100.25


def test_drift_needs_two_training_values():
    with pytest.raises(DataError, match="drift forecaster needs at least 2 training values"):
        fit_forecaster(ValueForecasterSpec("drift"), _series([7.0]))


def test_ses_limits_and_recursion():
    train = _series([2.0, 4.0, 4.0])
    one = fit_forecaster(ValueForecasterSpec("ses", smoothing=1.0), train)
    assert _next(one, [5.0, 9.0]) == 9.0  # lambda=1 is naive
    half = fit_forecaster(ValueForecasterSpec("ses", smoothing=0.5), train)
    assert _next(half, [2.0, 4.0]) == 3.0
    # independent recursion check
    rng = np.random.default_rng(seed)
    history = rng.normal(size=20)
    lam = 0.3
    level = history[0]
    for x in history[1:]:
        level = lam * x + (1 - lam) * level
    model = fit_forecaster(ValueForecasterSpec("ses", smoothing=lam), train)
    assert _next(model, history) == pytest.approx(level, rel=1e-12)


def test_ses_forecast_is_pure():
    model = fit_forecaster(ValueForecasterSpec("ses", smoothing=0.4), _series([1.0, 2.0]))
    h = np.array([1.0, 3.0, 2.0])
    assert np.array_equal(model.forecast_path(h, 1), model.forecast_path(h, 1))
    assert np.array_equal(h, [1.0, 3.0, 2.0])


def test_ar_exact_recovery_noiseless():
    # y_t = 2 * y_{t-1}, no intercept, no noise
    values = [1.0]
    for _ in range(11):
        values.append(2.0 * values[-1])
    model = fit_ar(_series(values), order=1)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert not model.degenerate


def test_ar_recovery_with_noise():
    rng = np.random.default_rng(11)
    values = [0.0]
    for _ in range(999):
        values.append(0.6 * values[-1] + rng.normal(0.0, 0.1))
    model = fit_ar(_series(values), order=1)
    assert 0.5 <= model.coefficients[0] <= 0.7


def test_ar_residual_orthogonality():
    rng = np.random.default_rng(seed + 1)
    values = np.cumsum(rng.normal(size=200)) + 50.0
    order = 3
    model = fit_ar(_series(values), order=order)
    n = len(values)
    X = np.column_stack(
        [np.ones(n - order)] + [values[order - 1 - j : n - 1 - j] for j in range(order)]
    )
    y = values[order:]
    pred = X @ np.concatenate([[model.intercept], model.coefficients])
    residuals = y - pred
    assert np.max(np.abs(X.T @ residuals)) < 1e-6


def test_ar_matches_normal_equations():
    rng = np.random.default_rng(seed + 2)
    values = np.cumsum(rng.normal(size=150)) + 20.0
    model = fit_ar(_series(values), order=2)
    n = len(values)
    X = np.column_stack([np.ones(n - 2), values[1 : n - 1], values[0 : n - 2]])
    y = values[2:]
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    assert model.intercept == pytest.approx(beta[0], rel=1e-8, abs=1e-8)
    assert np.allclose(model.coefficients, beta[1:], rtol=1e-8, atol=1e-8)


def test_ar_degenerate_on_constant_series():
    model = fit_ar(_series([5.0] * 30), order=2)
    assert model.degenerate
    assert _next(model, [5.0, 5.0]) == pytest.approx(5.0, abs=1e-6)


def test_ar_worked_example():
    model = ARModel(intercept=0.0, coefficients=np.array([0.6]), degenerate=False)
    assert _next(model, [4.0, 10.0]) == 6.0


def test_ar_lag_order():
    # forecast = c + phi1*y_{t-1} + phi2*y_{t-2}
    model = ARModel(intercept=1.0, coefficients=np.array([2.0, 3.0]), degenerate=False)
    assert _next(model, [5.0, 7.0]) == 1.0 + 2.0 * 7.0 + 3.0 * 5.0


def test_ar_too_short():
    with pytest.raises(DataError):
        fit_ar(_series([1.0, 2.0]), order=2)
    model = ARModel(intercept=0.0, coefficients=np.array([0.5, 0.5]))
    for start in (0, 1):
        with pytest.raises(ConfigError, match=f"AR\\(2\\) forecasts need 2 values of history, got start {start}"):
            model.forecast_path(np.arange(10.0), start)


FORECASTERS = {
    "naive": fit_forecaster(ValueForecasterSpec("naive"), _series([0.0, 1.0])),
    "drift": fit_forecaster(ValueForecasterSpec("drift"), _series([0.0, 0.5])),
    "ses": SESForecaster(smoothing=0.4),
    "ar2": ARModel(intercept=0.0, coefficients=np.array([0.5, 0.5])),
    "external": ExternalForecaster(forecasts=np.concatenate([[np.nan], np.arange(1.0, 10.0)])),
}


@pytest.mark.parametrize("name", FORECASTERS)
def test_forecast_path_length_or_config_error(name):
    model = FORECASTERS[name]
    values = np.arange(10.0)
    for start in range(model.required_history, values.size + 1):
        assert model.forecast_path(values, start).size == values.size - start
    for start in (model.required_history - 1, values.size + 1, values.size + 5):
        match = f"need {model.required_history} values of history, got start {start} for a series of 10"
        with pytest.raises(ConfigError, match=match):
            model.forecast_path(values, start)


def _walk(spec, train, test, refit_each_step=False):
    values = np.concatenate([train.values, test.values])
    return _walk_forward(spec, fit_forecaster(spec, train), values, len(train), refit_each_step)


def test_walk_forward_naive_is_shifted_actuals():
    rng = np.random.default_rng(seed + 3)
    values = np.cumsum(rng.normal(size=30)) + 10.0
    train = _series(values[:20])
    test = _series(values[20:])
    out = _walk(ValueForecasterSpec("naive"), train, test)
    assert np.array_equal(out, values[19:29])


def test_walk_forward_deterministic():
    rng = np.random.default_rng(seed + 4)
    values = np.cumsum(rng.normal(size=40)) + 10.0
    train, test = _series(values[:30]), _series(values[30:])
    spec = ValueForecasterSpec("ar", order=2)
    a = _walk(spec, train, test)
    b = _walk(spec, train, test)
    assert np.array_equal(a, b)


def test_walk_forward_params_frozen_by_default():
    # drift step comes from the training split only
    train = _series([0.0, 1.0, 2.0, 3.0])  # mean step 1
    test = _series([103.0, 203.0, 303.0])  # wildly different steps
    out = _walk(ValueForecasterSpec("drift"), train, test)
    assert np.array_equal(out, np.array([4.0, 104.0, 204.0]))


def test_walk_forward_refit_each_step_differs():
    rng = np.random.default_rng(seed + 5)
    values = np.cumsum(rng.normal(size=60)) + 100.0
    train, test = _series(values[:40]), _series(values[40:])
    spec = ValueForecasterSpec("ar", order=1)
    frozen = _walk(spec, train, test)
    refit = _walk(spec, train, test, refit_each_step=True)
    assert frozen.shape == refit.shape
    assert not np.array_equal(frozen, refit)
    assert np.all(np.isfinite(refit))


def test_walk_forward_external_replays_file_values():
    values = np.arange(10.0) + 50.0
    train, test = _series(values[:7]), _series(values[7:])
    table = np.full(10, np.nan)
    table[7:] = [1.5, 2.5, 3.5]
    out = _walk(ValueForecasterSpec("external", source=table), train, test)
    assert np.array_equal(out, np.array([1.5, 2.5, 3.5]))


def test_walk_forward_external_missing_index():
    values = np.arange(10.0)
    train, test = _series(values[:7]), _series(values[7:])
    table = np.full(10, np.nan)
    table[7] = 1.0
    spec = ValueForecasterSpec("external", source=table)
    with pytest.raises(DataError, match="external forecasts missing time index 8"):
        _walk(spec, train, test)
    # positions past the end of the table are missing too
    short = ValueForecasterSpec("external", source=np.array([np.nan, 1.0]))
    with pytest.raises(DataError, match="external forecasts missing time index 7"):
        _walk(short, train, test)


def test_external_spec_rejects_a_path(tmp_path):
    # a path cannot be checked against the series, so it is refused up front
    path = tmp_path / "f.csv"
    path.write_text("time_index,forecast\n7,1.5\n8,2.5\n9,3.5\n")
    values = np.arange(10.0)
    train, test = _series(values[:7]), _series(values[7:])
    with pytest.raises(ConfigError, match="load_external_forecasts"):
        _walk(ValueForecasterSpec("external", source=str(path)), train, test)


def test_fits_on_huge_values_are_numeric_errors():
    huge = _series(np.where(np.random.default_rng(3).random(40) < 0.5, 1e307, -1e307))
    with pytest.raises(NumericError, match="AR\\(2\\) fit"):
        fit_ar(huge, 2)
    with pytest.raises(NumericError, match="mean training step"):
        fit_forecaster(ValueForecasterSpec("drift"), _series([1.5e308, -1.5e308, 1.5e308]))
    # a drift step past the float64 range is inf, left to the loss check, with no warning
    drift = fit_forecaster(ValueForecasterSpec("drift"), _series([0.0, 1e308]))
    assert _next(drift, [0.0, 1e308]) == float("inf")


# forecast_path against the per-step forecasts it replaced: equal bit for bit


@pytest.mark.parametrize("smoothing", [0.1, 0.4, 0.9, 1.0])
def test_ses_path_matches_per_step_forecasts(smoothing):
    # a 3,000-step walk after 1,000 training values
    values = _walk_values(4000, seed + 6)
    spec = ValueForecasterSpec("ses", smoothing=smoothing)
    fitted = fit_forecaster(spec, TimeSeries(values[:1000]))
    path = _walk_forward(spec, fitted, values, 1000, False)
    assert np.array_equal(path, _reference_walk(spec, fitted, values, 1000))


@pytest.mark.parametrize("order", [1, 2, 3, 8, 15])
def test_ar_path_matches_per_step_forecasts(order):
    # steps from about 1e-7 to 1e8 in size make every dot product mix magnitudes
    rng = np.random.default_rng(seed + 12)
    decades = np.cumsum(rng.standard_normal(3000) * 10.0 ** rng.uniform(-7.0, 8.0, 3000))
    spec = ValueForecasterSpec("ar", order=order)
    for values in (_walk_values(3000, seed + 7), decades):
        fitted = fit_forecaster(spec, TimeSeries(values[:1000]))
        # in-sample walks start right after the lags the model needs; a step's forecast does not
        # depend on where its walk started
        reference = _reference_walk(spec, fitted, values, order)
        for start in (order, 1000):
            path = _walk_forward(spec, fitted, values, start, False)
            assert np.array_equal(path, reference[start - order :])
            assert np.array_equal(np.signbit(path), np.signbit(reference[start - order :]))


def _dot_fuses():
    """Whether numpy's dot of two terms fuses its multiply-add, as OpenBLAS's FMA kernels do."""
    x = 1.0 + 2.0**-30
    # fused, 1 - x*x is exact; rounded first, x*x loses its last term 2**-60
    return float(np.dot([1.0, x], [1.0, -x])) == -(2.0**-29) - 2.0**-60


@pytest.mark.skipif(not _dot_fuses(), reason="numpy's dot does not fuse multiply-adds on this CPU")
@pytest.mark.parametrize("order", range(1, 16))
def test_ar_path_matches_per_step_dot_on_fma_kernels(order):
    # below 16 terms, OpenBLAS's dot on an FMA kernel is the chain the walk computes
    rng = np.random.default_rng(seed + 13)
    decades = np.cumsum(rng.standard_normal(4000) * 10.0 ** rng.uniform(-7.0, 8.0, 4000))
    for values in (_walk_values(4000, seed + 14), decades):
        model = fit_ar(TimeSeries(values[:1000]), order)
        path = model.forecast_path(values, order)
        lags = [values[t - 1 :: -1][:order] for t in range(order, values.size)]
        dots = model.intercept + np.array([np.dot(model.coefficients, lag) for lag in lags])
        assert _same_doubles(path, dots)


def test_ar_path_is_exact_outside_the_array_range():
    # lags too large to split, products whose error terms underflow, infinities, NaN and signed
    # zeros: each step outside _fma's range is rounded once from exact rationals
    values = np.array([1e301, -1.5e301, 3.0, 1e-300, -5e-324, 0.0, -0.0, 2.0**995, 2.0**996, -7.5,
                       np.inf, 2.0, np.nan, 4.0, 1e-160, 1e-160, 1e300, 1e300, 1.0, -1.0])
    for intercept, coefficients in [(0.5, [0.5, 0.25]), (-0.0, [1e-300, -2.0]), (0.0, [0.0, -0.0, 3.0]),
                                    (1.0, [1e10, 1e-10, -1.0, 2.0**-60])]:
        model = ARModel(intercept=intercept, coefficients=np.array(coefficients))
        start = model.order
        path = model.forecast_path(values, start)
        reference = [_reference_forecast_one("ar", model, values[:t]) for t in range(start, values.size)]
        assert _same_doubles(path, reference)
    # a model with no lags forecasts its intercept, as its empty dot did
    assert _same_doubles(ARModel(intercept=0.5, coefficients=np.array([])).forecast_path(values, 0), [0.5] * 20)
    # tiny values with no zero among them: every product's error term underflows
    tiny = 1e-160 * (1.0 + np.sin(np.arange(30.0)) / 4.0)
    model = ARModel(intercept=0.0, coefficients=np.array([1e-150, -3e-151]))
    reference = [_reference_forecast_one("ar", model, tiny[:t]) for t in range(2, 30)]
    assert _same_doubles(model.forecast_path(tiny, 2), reference)
    # a walk of huge values stays finite; past the float64 range it is inf, with no warning
    huge = 1e301 * (1.0 + np.sin(np.arange(50.0)) / 4.0)
    path = ARModel(intercept=1.0, coefficients=np.array([0.6, 0.3])).forecast_path(huge, 2)
    assert np.all(np.isfinite(path))
    assert _next(ARModel(intercept=1e308, coefficients=np.array([1.0])), [1e308]) == np.inf


def _fma_triples():
    """Named (a, b, c) edge cases of a fused multiply-add, each side of each bound of _fma's range."""
    tiny, big, top = 2.0**-1074, 2.0**995, 2.0**1021
    cases = {
        "zeros": [(0.0, 1.0, -0.0), (-0.0, 1.0, -0.0), (0.0, -1.0, -0.0), (-0.0, -1.0, -0.0),
                  (-0.0, 1.0, 0.0), (1.0, -0.0, -0.0), (-2.0, 0.0, -0.0), (0.0, 0.0, 0.0), (0.0, 5.0, 3.0)],
        "cancellation": [(3.0, 7.0, -21.0), (-3.0, 7.0, 21.0), (1.0 + 2.0**-30, 1.0 + 2.0**-30, -1.0),
                         (0.1, 10.0, -1.0), (1.0 + 2.0**-52, 1.0 - 2.0**-53, -1.0)],
        # the product overflows, but c brings the sum back into range, or not
        "overflowing-product": [(1.5 * 2.0**512, 1.5 * 2.0**511, -1.7976931348623157e308),
                                (2.0**600, 2.0**600, -1e308), (1.7976931348623157e308, 2.0, 0.0),
                                (-1.7976931348623157e308, 1.0, -1.7976931348623157e308)],
        # the sum's rounding to inf: half an ulp past the largest double, and just short of it
        "overflowing-sum": [(1.7976931348623157e308, 1.0, 2.0**970), (1.7976931348623157e308, 1.0, 2.0**970 - 2.0**918),
                            (2.0**1000, 2.0**23, 2.0**1023), (2.0**1000, 2.0**23, -(2.0**1023))],
        # the low parts sum inexactly next to a tie of the result: rounding them to nearest
        # first, or truncating them on the wrong side, gives the wrong neighbour
        "round-to-odd": [(1.0 + 2.0**-52, 2.0**-53 - 2.0**-106, 1.0), (1.0 + 2.0**-52, -(2.0**-53 - 2.0**-106), 1.5),
                         (1.0 - 3 * 2.0**-53, 2.0**-53 + 3 * 2.0**-105, 1.0),
                         (1.0 - 3 * 2.0**-53, -(2.0**-53 + 3 * 2.0**-105), -1.0)],
        # products below the smallest double, at it, and rounding to it or to zero
        "subnormal-products": [(2.0**-600, 2.0**-500, 0.0), (2.0**-537, 2.0**-537, 0.0), (1.5 * 2.0**-538, 2.0**-537, 0.0),
                               (2.0**-538, 2.0**-537, 0.0), (-(2.0**-538), 2.0**-537, 0.0), (2.0**-538, 2.0**-537, -0.0),
                               (3.0, 1e-308, -2e-308), (1e-200, 1e-120, 1e-310), (-1e-200, 1e-120, tiny)],
        # products in the normal range whose error terms are subnormal or lost
        "subnormal-error-terms": [(1.0 + 2.0**-52, (1.0 + 2.0**-52) * 2.0**-980, 0.0),
                                  (1.0 + 2.0**-52, (1.0 + 2.0**-52) * 2.0**-1000, -(2.0**-1000)),
                                  (1.0 + 2.0**-52, (1.0 + 2.0**-52) * 2.0**-967, -(2.0**-967))],
        # subnormal factors whose products lie in the range
        "subnormal-factors": [(tiny, -big, -1e-280), (-(2.0**40 + 1.0) * tiny, 2.0**990, 3e-290),
                              (1.5 * 2.0**990, 7.0 * tiny, 0.0)],
        "non-finite": [(np.inf, 2.0, 1.0), (np.inf, 0.0, 1.0), (-np.inf, 2.0, np.inf), (np.inf, -2.0, -np.inf),
                       (2.0, 3.0, -np.inf), (1e300, 1e300, -np.inf), (np.nan, 0.0, 1.0), (1.0, 1.0, np.nan),
                       (0.0, np.inf, np.nan)],
        # each bound of the range: (a, b, c) on the edge, inside, then one step past it, outside
        "split-bound": [(big, 0.75, 1.0), (np.nextafter(big, np.inf), 0.75, 1.0),
                        (0.75, -big, 1.0), (0.75, -np.nextafter(big, np.inf), 1.0)],
        "product-top": [(big, 2.0**26, -3.0), (big, np.nextafter(2.0**26, np.inf), -3.0)],
        "product-floor": [(2.0**-484, 2.0**-484, 1e-300), (2.0**-484, np.nextafter(2.0**-484, 0.0), 1e-300),
                          (-(2.0**-484), 2.0**-484, -0.0), (-(2.0**-484), np.nextafter(2.0**-484, 0.0), -0.0)],
        "addend-top": [(3.0, 5.0, top), (3.0, 5.0, np.nextafter(top, np.inf)), (3.0, 5.0, -top),
                       (3.0, 5.0, -np.nextafter(top, np.inf))],
        "zero-factor": [(0.0, 2.0**1000, 1.0), (2.0**-1060, 0.0, -0.0), (-0.0, tiny, -0.0), (2.0**1000, -0.0, -0.0)],
    }
    return cases


# elements of each case that go through the exact scalar routine
_OUTSIDE = {
    "zeros": [], "cancellation": [], "overflowing-product": [0, 1, 2, 3], "overflowing-sum": [0, 1, 2, 3],
    "subnormal-products": [0, 1, 2, 3, 4, 5, 6, 7, 8], "subnormal-error-terms": [0, 1], "subnormal-factors": [],
    "non-finite": [0, 1, 2, 3, 4, 5, 6, 7, 8], "split-bound": [1, 3], "product-top": [1],
    "product-floor": [1, 3], "addend-top": [1, 3], "zero-factor": [0, 3], "round-to-odd": [],
}


@pytest.mark.parametrize("case", list(_fma_triples()))
def test_fma_edge_cases_round_once(case, monkeypatch):
    import tats.forecasters as forecasters

    triples = np.array(_fma_triples()[case], dtype=float)
    exact_calls = []
    scalar = forecasters._fma_exact
    monkeypatch.setattr(forecasters, "_fma_exact", lambda *abc: exact_calls.append(abc) or scalar(*abc))
    got = _fma(triples[:, 0], triples[:, 1], triples[:, 2])
    assert _same_doubles(got, [_fraction_fma(*abc) for abc in triples])
    assert len(exact_calls) == len(_OUTSIDE[case])
    assert _same_doubles(np.reshape(exact_calls, (-1, 3)), triples[_OUTSIDE[case]])


def test_ordinary_walks_never_reach_the_exact_scalar_route(monkeypatch):
    # every walk takes _fma's one path; on ordinary data no operand leaves its range
    import tats.forecasters as forecasters

    def refuse(*abc):
        raise AssertionError(f"_fma_exact reached with {abc}")

    monkeypatch.setattr(forecasters, "_fma_exact", refuse)
    values = _walk_values(20_000, seed + 16)
    for order in (1, 2, 3, 8, 15):
        model = fit_ar(TimeSeries(values[:14_000]), order)
        for start in (order, 14_000):  # the train walk and the test walk
            assert np.all(np.isfinite(model.forecast_path(values, start)))
    spec, short = ValueForecasterSpec("ar", order=2), values[:400]
    refit = _walk_forward(spec, fit_forecaster(spec, TimeSeries(short[:200])), short, 200, True)
    assert np.all(np.isfinite(refit))
    ints = np.cumsum(np.random.default_rng(seed + 17).integers(-2, 3, 3000)).astype(float)
    ints -= ints[1500]
    assert np.count_nonzero(ints == 0.0) > 1
    for order in (1, 2, 3):
        model = fit_ar(TimeSeries(ints[:2000]), order)
        assert np.all(np.isfinite(model.forecast_path(ints, order)))


def _random_doubles(rng, n, low, high):
    return rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(low, high, n).astype(float))


@pytest.mark.parametrize("low, high", [(-1000, 1000), (-60, 60)], ids=["wide", "narrow"])
def test_fma_matches_exact_rationals_on_random_triples(low, high):
    rng = np.random.default_rng(seed + 15)
    n = 12_000
    a, b = _random_doubles(rng, n, low, high), _random_doubles(rng, n, low, high)
    # c at a random scale, near -a*b, at exactly -round(a*b), or at half an ulp of a*b
    with np.errstate(over="ignore", under="ignore"):
        product = a * b
        c = np.select(
            [np.arange(n) % 4 == k for k in range(4)],
            [_random_doubles(rng, n, 2 * low, 2 * high),
             -product * (1.0 + rng.standard_normal(n) * np.exp2(-rng.integers(10, 60, n).astype(float))),
             -product,
             np.spacing(product) / 2.0 * rng.choice([-3.0, -1.0, 1.0, 3.0], n)],
        )
    got = _fma(a, b, c)
    assert _same_doubles(got, [_fraction_fma(*abc) for abc in zip(a.tolist(), b.tolist(), c.tolist())])
    # the scalar form of a gives the same bytes, as the AR walk passes it
    assert _same_doubles(_fma(a[0], b, c), [_fraction_fma(a[0], *bc) for bc in zip(b.tolist(), c.tolist())])


def _openblas_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_ar_walk_bytes_hold_under_other_openblas_kernels(coretype):
    # OPENBLAS_CORETYPE forces a kernel for one process; Prescott has no FMA
    repo = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(Path(__file__).resolve()),
         "-k", "ar_path or refit_path"],
        cwd=repo, env=dict(os.environ, OPENBLAS_CORETYPE=coretype), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]


@pytest.mark.parametrize("spec", [ValueForecasterSpec("naive"), ValueForecasterSpec("drift")],
                         ids=["naive", "drift"])
def test_naive_and_drift_paths_match_per_step_forecasts(spec):
    values = _walk_values(3000, seed + 8)
    fitted = fit_forecaster(spec, TimeSeries(values[:1000]))
    for start in (1, 1000):
        path = _walk_forward(spec, fitted, values, start, False)
        assert np.array_equal(path, _reference_walk(spec, fitted, values, start))


def test_naive_and_drift_fit_to_unit_coefficient_ar_models():
    train = _series([7.0, 7.25, 7.5, 7.75, 8.0])
    naive = fit_forecaster(ValueForecasterSpec("naive"), train)
    drift = fit_forecaster(ValueForecasterSpec("drift"), train)
    for model, intercept in ((naive, 0.0), (drift, 0.25)):
        assert type(model) is ARModel and model.intercept == intercept and not model.degenerate
        assert np.array_equal(model.coefficients, [1.0]) and model.order == model.required_history == 1
    # every such model shares one read-only unit array
    assert naive.coefficients is drift.coefficients and not naive.coefficients.flags.writeable


def _edge_series(n=200):
    """Series on which the unit AR path meets signed zeros or leaves _fma's range, by name."""
    rng = np.random.default_rng(seed + 18)
    zeros = rng.choice([0.0, -0.0], n)
    ints = np.cumsum(rng.integers(-2, 3, n)).astype(float)
    ints -= ints[n // 2]
    top = np.finfo(float).max
    return {
        # a walk that sits at zero, many of its zero cells -0.0
        "signed-zeros": np.where(ints == 0.0, zeros, ints),
        # signed zeros alone, where drift's mean step is +0.0 (numpy sums from +0.0, so it is never -0.0)
        "zeros-only": zeros,
        # steps of a few times the smallest subnormal: no product is large enough for _fma's range
        "subnormal-steps": np.where(ints == 0.0, zeros, ints * 5e-324),
        # values beyond 2**995 are too large to split
        "beyond-2**995": 2.0**1000 + ints * 2.0**990,
        # a ramp to the largest double, where drift's forecast overflows to inf
        "overflow": top - 2.0**975 * np.maximum(np.arange(n)[::-1] - 1.0, 0.0),
    }


@pytest.mark.parametrize("refit_each_step", [False, True], ids=["frozen", "refit"])
@pytest.mark.parametrize("kind", ["naive", "drift"])
@pytest.mark.parametrize("case", list(_edge_series()))
def test_naive_and_drift_keep_their_formulas_on_edge_values(case, kind, refit_each_step, monkeypatch):
    import tats.forecasters as forecasters

    exact_calls = []
    scalar = forecasters._fma_exact
    monkeypatch.setattr(forecasters, "_fma_exact", lambda *abc: exact_calls.append(abc) or scalar(*abc))
    values, spec, flips = _edge_series()[case], ValueForecasterSpec(kind), 0
    for start in (2, values.size // 2):
        fitted = fit_forecaster(spec, TimeSeries(values[:start]))
        path = _walk_forward(spec, fitted, values, start, refit_each_step)
        old = _reference_walk(spec, fitted, values, start, refit_each_step)
        assert np.array_equal(path, old)
        # the AR path adds each lag to +0.0, so a -0.0 forecast comes out +0.0; no other sign changes
        flipped = np.signbit(path) != np.signbit(old)
        assert np.array_equal(flipped, (old == 0.0) & np.signbit(old))
        flips += np.count_nonzero(flipped)
    assert (flips > 0) == (kind == "naive" and case in ("signed-zeros", "zeros-only", "subnormal-steps"))
    assert bool(exact_calls) == (case in ("subnormal-steps", "beyond-2**995", "overflow"))
    if case == "overflow" and kind == "drift":
        assert np.isinf(path[-1])


def test_external_path_matches_per_step_forecasts():
    values = _walk_values(300, seed + 9)
    forecasts = values + np.random.default_rng(seed + 10).normal(size=300)
    table = np.full(300, np.nan)
    table[1:] = forecasts[1:]
    by_index = {t: float(forecasts[t]) for t in range(1, 300)}
    spec = ValueForecasterSpec("external", source=table)
    fitted = fit_forecaster(spec, TimeSeries(values[:100]))
    for start in (1, 100):
        path = _walk_forward(spec, fitted, values, start, False)
        assert np.array_equal(path, _reference_walk(spec, fitted, values, start, external=by_index))


@pytest.mark.parametrize("kind", ["ses", "ar", "drift", "naive", "external"])
def test_refit_path_matches_per_step_forecasts(kind):
    values = _walk_values(400, seed + 11)
    table = np.append(np.nan, values[:-1] + 0.5)
    spec = {
        "ses": ValueForecasterSpec("ses", smoothing=0.4),
        "ar": ValueForecasterSpec("ar", order=2),
        "drift": ValueForecasterSpec("drift"),
        "naive": ValueForecasterSpec("naive"),
        "external": ValueForecasterSpec("external", source=table),
    }[kind]
    by_index = {t: float(table[t]) for t in range(1, 400)}
    fitted = fit_forecaster(spec, TimeSeries(values[:200]))
    path = _walk_forward(spec, fitted, values, 200, True)
    reference = _reference_walk(spec, fitted, values, 200, refit_each_step=True, external=by_index)
    assert np.array_equal(path, reference)
