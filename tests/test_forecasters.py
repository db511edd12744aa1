import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    NumericError,
    TimeSeries,
    ValueForecasterSpec,
    fit_forecaster,
    walk_forward_forecasts,
)
from tats.forecasters import ARModel, fit_ar
from tats.ingest import ExternalForecasts

seed = 505


def _series(values):
    return TimeSeries(np.asarray(values, dtype=float))


def test_spec_validation():
    with pytest.raises(ConfigError):
        ValueForecasterSpec(kind="ar")  # ar needs an order
    with pytest.raises(ConfigError):
        ValueForecasterSpec(kind="naive", order=2)  # naive takes no params
    with pytest.raises(ConfigError):
        ValueForecasterSpec.ar(order=0)
    with pytest.raises(ConfigError):
        ValueForecasterSpec.ses(smoothing=0.0)
    with pytest.raises(ConfigError):
        ValueForecasterSpec.ses(smoothing=1.5)
    with pytest.raises(ConfigError):
        ValueForecasterSpec(kind="nonsense")


def test_naive():
    model = fit_forecaster(ValueForecasterSpec.naive(), _series([1.0, 2.0, 7.0]))
    assert model.forecast_one(np.array([3.0, 4.0])) == 4.0


def test_drift_freezes_training_mean_step():
    # mean training step 0.25, last observed value 8 -> 8.25
    train = _series([7.0, 7.25, 7.5, 7.75, 8.0])
    model = fit_forecaster(ValueForecasterSpec.drift(), train)
    assert model.forecast_one(train.values) == 8.25
    # same frozen step applied to an unrelated history
    assert model.forecast_one(np.array([100.0])) == 100.25


def test_ses_limits_and_recursion():
    train = _series([2.0, 4.0, 4.0])
    one = fit_forecaster(ValueForecasterSpec.ses(smoothing=1.0), train)
    assert one.forecast_one(np.array([5.0, 9.0])) == 9.0  # lambda=1 is naive
    half = fit_forecaster(ValueForecasterSpec.ses(smoothing=0.5), train)
    assert half.forecast_one(np.array([2.0, 4.0])) == 3.0
    # independent recursion check
    rng = np.random.default_rng(seed)
    history = rng.normal(size=20)
    lam = 0.3
    level = history[0]
    for x in history[1:]:
        level = lam * x + (1 - lam) * level
    model = fit_forecaster(ValueForecasterSpec.ses(smoothing=lam), train)
    assert model.forecast_one(history) == pytest.approx(level, rel=1e-12)


def test_ses_forecast_is_pure():
    model = fit_forecaster(ValueForecasterSpec.ses(smoothing=0.4), _series([1.0, 2.0]))
    h = np.array([1.0, 3.0, 2.0])
    assert model.forecast_one(h) == model.forecast_one(h)


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
    assert model.forecast_one(np.array([5.0, 5.0])) == pytest.approx(5.0, abs=1e-6)


def test_ar_worked_example():
    model = ARModel(intercept=0.0, coefficients=np.array([0.6]), degenerate=False)
    assert model.forecast_one(np.array([4.0, 10.0])) == 6.0


def test_ar_lag_order():
    # forecast = c + phi1*y_{t-1} + phi2*y_{t-2}
    model = ARModel(intercept=1.0, coefficients=np.array([2.0, 3.0]), degenerate=False)
    assert model.forecast_one(np.array([5.0, 7.0])) == 1.0 + 2.0 * 7.0 + 3.0 * 5.0


def test_ar_too_short():
    with pytest.raises(DataError):
        fit_ar(_series([1.0, 2.0]), order=2)


def test_walk_forward_naive_is_shifted_actuals():
    rng = np.random.default_rng(seed + 3)
    values = np.cumsum(rng.normal(size=30)) + 10.0
    train = _series(values[:20])
    test = _series(values[20:])
    out = walk_forward_forecasts(ValueForecasterSpec.naive(), train, test)
    assert np.array_equal(out, values[19:29])


def test_walk_forward_deterministic():
    rng = np.random.default_rng(seed + 4)
    values = np.cumsum(rng.normal(size=40)) + 10.0
    train, test = _series(values[:30]), _series(values[30:])
    spec = ValueForecasterSpec.ar(order=2)
    a = walk_forward_forecasts(spec, train, test)
    b = walk_forward_forecasts(spec, train, test)
    assert np.array_equal(a, b)


def test_walk_forward_params_frozen_by_default():
    # drift step comes from the training split only
    train = _series([0.0, 1.0, 2.0, 3.0])  # mean step 1
    test = _series([103.0, 203.0, 303.0])  # wildly different steps
    out = walk_forward_forecasts(ValueForecasterSpec.drift(), train, test)
    assert np.array_equal(out, np.array([4.0, 104.0, 204.0]))


def test_walk_forward_refit_each_step_differs():
    rng = np.random.default_rng(seed + 5)
    values = np.cumsum(rng.normal(size=60)) + 100.0
    train, test = _series(values[:40]), _series(values[40:])
    spec = ValueForecasterSpec.ar(order=1)
    frozen = walk_forward_forecasts(spec, train, test)
    refit = walk_forward_forecasts(spec, train, test, refit_each_step=True)
    assert frozen.shape == refit.shape
    assert not np.array_equal(frozen, refit)
    assert np.all(np.isfinite(refit))


def test_walk_forward_external_replays_file_values():
    values = np.arange(10.0) + 50.0
    train, test = _series(values[:7]), _series(values[7:])
    table = ExternalForecasts(by_index={7: 1.5, 8: 2.5, 9: 3.5})
    out = walk_forward_forecasts(ValueForecasterSpec.external(source=table), train, test)
    assert np.array_equal(out, np.array([1.5, 2.5, 3.5]))


def test_walk_forward_external_missing_index():
    values = np.arange(10.0)
    train, test = _series(values[:7]), _series(values[7:])
    spec = ValueForecasterSpec.external(source=ExternalForecasts(by_index={7: 1.0}))
    with pytest.raises(DataError):
        walk_forward_forecasts(spec, train, test)


def test_external_spec_rejects_a_path(tmp_path):
    # a path cannot be checked against the series, so it is refused up front
    path = tmp_path / "f.csv"
    path.write_text("time_index,forecast\n7,1.5\n8,2.5\n9,3.5\n")
    values = np.arange(10.0)
    train, test = _series(values[:7]), _series(values[7:])
    with pytest.raises(ConfigError, match="load_external_forecasts"):
        walk_forward_forecasts(ValueForecasterSpec.external(str(path)), train, test)


def test_fits_on_huge_values_are_numeric_errors():
    huge = _series(np.where(np.random.default_rng(3).random(40) < 0.5, 1e307, -1e307))
    with pytest.raises(NumericError, match="AR\\(2\\) fit"):
        fit_ar(huge, 2)
    with pytest.raises(NumericError, match="mean training step"):
        fit_forecaster(ValueForecasterSpec.drift(), _series([1.5e308, -1.5e308, 1.5e308]))
    # a drift step past the float64 range is inf, left to the loss check, with no warning
    drift = fit_forecaster(ValueForecasterSpec.drift(), _series([0.0, 1e308]))
    assert drift.forecast_one(np.array([0.0, 1e308])) == float("inf")
