import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    NumericError,
    diff_rdiff,
    mae,
    mape,
    mse,
    td_accuracy,
    trend_aware_loss,
)
from tats.engine import Scenario, evaluate_forecasts, sweep_alpha
from tats.metrics import EvalReport

seed = 202

# Two forecast sets over the same 5 actuals: identical squared error,
# opposite directional behaviour.
ACTUAL = np.array([7.0, 5.0, 9.0, 7.0, 8.0])
MODEL_ONE = np.array([8.0, 2.0, 14.0, 6.0, 10.0])
MODEL_TWO = np.array([6.0, 8.0, 4.0, 8.0, 6.0])


def _eval_arrays(actual, pred):
    y_prev = actual[:-1]
    return y_prev, actual[1:], pred[1:]


def test_fixture_same_mse():
    assert mse(ACTUAL, MODEL_ONE) == 8.0
    assert mse(ACTUAL, MODEL_TWO) == 8.0


def test_fixture_opposite_td_accuracy():
    assert td_accuracy(*_eval_arrays(ACTUAL, MODEL_ONE)) == 1.0
    assert td_accuracy(*_eval_arrays(ACTUAL, MODEL_TWO)) == 0.25


def test_fixture_mae():
    assert mae(ACTUAL, MODEL_ONE) == 2.4
    assert mae(ACTUAL, MODEL_TWO) == 2.4


def test_td_accuracy_strictness():
    # implied move of exactly zero is never a hit
    assert td_accuracy(np.array([5.0]), np.array([6.0]), np.array([5.0])) == 0.0
    # actual move of zero is never a hit either
    assert td_accuracy(np.array([5.0]), np.array([5.0]), np.array([6.0])) == 0.0


def test_td_accuracy_matches_brute_force():
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        y_prev = rng.normal(size=n)
        y_true = y_prev + rng.normal(size=n)
        y_pred = y_prev + rng.normal(size=n)
        if rng.random() < 0.3:  # force some flat moves into the mix
            idx = rng.integers(0, n)
            y_pred[idx] = y_prev[idx]
        hits = 0
        for p, t, f in zip(y_prev, y_true, y_pred):
            if (f - p) * (t - p) > 0:
                hits += 1
        assert td_accuracy(y_prev, y_true, y_pred) == hits / n


def test_mape_is_percentage():
    actual = np.array([100.0, 200.0])
    pred = np.array([110.0, 180.0])
    assert mape(actual, pred) == pytest.approx(10.0)


def test_mape_rejects_zero_actual():
    with pytest.raises(DataError):
        mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_sweep_leaves_mape_undefined_on_zero_actual():
    values = np.array([1.0, 2.0, 0.0, 3.0])
    trace = evaluate_forecasts(values, 1, np.array([1.5, 2.5, 1.0]), np.array([1, -1, 1]))
    sweep = sweep_alpha(trace, (1.0,))
    base, adjusted = sweep.base_report, sweep.entries[0].report
    assert base.mape is None
    assert base.to_dict()["mape"] is None
    assert base.mse == pytest.approx((0.25 + 6.25 + 4.0) / 3)
    assert adjusted.mape is None


def test_mae_mse_inequality():
    rng = np.random.default_rng(seed + 1)
    for _ in range(200):
        n = int(rng.integers(1, 100))
        a = rng.normal(size=n)
        p = rng.normal(size=n)
        assert mae(a, p) ** 2 <= mse(a, p) + 1e-12


def test_overflowing_metrics_are_numeric_errors():
    huge = np.array([1e308, -1e308, 1e308])  # the errors themselves overflow
    for metric in (mse, mae, mape, lambda t, p: trend_aware_loss(t, p, 1.0)):
        with pytest.raises(NumericError, match="overflowed float64"):
            metric(huge, -huge)
    tiny = EvalReport(tda=0.5, mse=1e-320, mae=1e-160, mape=None, n_steps=4)
    worse = EvalReport(tda=0.5, mse=1.0, mae=1.0, mape=None, n_steps=4)
    with pytest.raises(NumericError, match="relative improvement overflowed"):
        diff_rdiff(tiny, worse)
    # an overflowing direction product keeps its sign
    assert td_accuracy(np.zeros(2), np.array([1e200, -1e200]), np.array([1e200, 1e200])) == 0.5


def test_length_mismatch():
    with pytest.raises(ConfigError):
        mse(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        td_accuracy(np.array([1.0]), np.array([1.0, 2.0]), np.array([1.0]))


def test_trend_aware_loss_fixture():
    # first step has no reference move, so it adds squared error but no penalty
    assert trend_aware_loss(ACTUAL, MODEL_ONE, 10.0) == 40.0
    assert trend_aware_loss(ACTUAL, MODEL_TWO, 10.0) == 70.0


def test_trend_aware_loss_explicit_prev():
    y_prev, y_true, two = _eval_arrays(ACTUAL, MODEL_TWO)
    loss = trend_aware_loss(y_true, two, 10.0, y_prev=y_prev)
    assert loss == 39.0 + 30.0


def test_trend_aware_loss_gamma_zero_is_sse():
    rng = np.random.default_rng(seed + 2)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        y_true = rng.normal(size=n)
        y_pred = rng.normal(size=n)
        y_prev = rng.normal(size=n)
        loss = trend_aware_loss(y_true, y_pred, 0.0, y_prev=y_prev)
        sse = n * mse(y_true, y_pred)
        assert loss == pytest.approx(sse, rel=1e-12)


def test_trend_aware_loss_monotone_in_gamma():
    y_prev, y_true, pred = _eval_arrays(ACTUAL, MODEL_TWO)
    losses = [trend_aware_loss(y_true, pred, g, y_prev=y_prev) for g in (0.0, 1.0, 5.0)]
    assert losses[0] <= losses[1] <= losses[2]


def test_trend_aware_loss_monotone_under_more_errors():
    # flipping one correct direction to wrong raises the loss by exactly gamma
    y_prev, y_true, two = _eval_arrays(ACTUAL, MODEL_TWO)
    worse = two.copy()
    worse[2] = y_prev[2] + 1.0  # turn the only directional hit into a miss
    base = trend_aware_loss(y_true, two, 10.0, y_prev=y_prev)
    flipped = trend_aware_loss(y_true, worse, 10.0, y_prev=y_prev)
    extra_sse = (y_true[2] - worse[2]) ** 2 - (y_true[2] - two[2]) ** 2
    assert flipped == pytest.approx(base + 10.0 + extra_sse)


def test_trend_aware_loss_rejects_negative_gamma():
    with pytest.raises(ConfigError, match="gamma must be finite and non-negative, got -1.0"):
        trend_aware_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], -1.0)


@pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
def test_trend_aware_loss_rejects_non_finite_gamma(gamma):
    # inf * 0 wrong steps would be nan, not a loss
    with pytest.raises(ConfigError, match="gamma must be finite"):
        trend_aware_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], gamma)


def test_diff_rdiff():
    base = EvalReport(tda=0.5, mse=324.47, mae=1.0, mape=1.0, n_steps=10)
    cand = EvalReport(tda=0.6, mse=250.20, mae=1.0, mape=1.0, n_steps=10)
    d, r = diff_rdiff(base, cand)
    assert d == pytest.approx(74.27)
    assert r == pytest.approx(74.27 / 324.47)


def test_diff_rdiff_sign_convention():
    base = EvalReport(tda=0.5, mse=10.0, mae=1.0, mape=1.0, n_steps=4)
    worse = EvalReport(tda=0.5, mse=12.0, mae=1.0, mape=1.0, n_steps=4)
    d, r = diff_rdiff(base, worse)
    assert d < 0 and r < 0


def test_diff_rdiff_errors():
    base = EvalReport(tda=0.5, mse=0.0, mae=0.0, mape=0.0, n_steps=4)
    cand = EvalReport(tda=0.5, mse=1.0, mae=1.0, mape=1.0, n_steps=4)
    with pytest.raises(NumericError):
        diff_rdiff(base, cand)
    other_n = EvalReport(tda=0.5, mse=1.0, mae=1.0, mape=1.0, n_steps=5)
    with pytest.raises(DataError):
        diff_rdiff(cand, other_n)


def test_eval_report_diff_pairing():
    with pytest.raises(ConfigError):
        EvalReport(tda=0.5, mse=1.0, mae=1.0, mape=1.0, n_steps=4, r_diff=1.0)
    # a zero base MSE leaves R-Diff undefined, so diff may come alone
    alone = EvalReport(tda=0.5, mse=1.0, mae=1.0, mape=1.0, n_steps=4, diff=1.0)
    assert alone.to_dict()["r_diff"] is None


# moves below about 1e-154 make the product of two moves underflow to 0
TINY_SERIES = np.array([0.0, 1e-200, 2e-200, 1e-200, 3e-200])
TINY_FORECASTS = np.array([0.5e-200, 1.5e-200, 1.5e-200, 2e-200])  # each moves the right way


def test_direction_hits_survive_tiny_moves():
    trace = evaluate_forecasts(TINY_SERIES, 1, TINY_FORECASTS, np.array([1, 1, -1, 1]))
    assert np.all(trace.scenario == Scenario.S1)
    assert td_accuracy(trace.y_prev, trace.y_true, trace.y_hat) == 1.0


def test_trend_aware_loss_counts_tiny_wrong_moves():
    # the squared errors underflow to 0, so only the penalties remain
    assert trend_aware_loss([1e-200, 0.0], [-1e-200, 2e-200], 1.0, y_prev=[0.0, 1e-200]) == 2.0
    # a forecast equal to y_prev is flat, which is never a wrong direction
    assert trend_aware_loss([1e-200, 0.0], [-1e-200, 1e-200], 1.0, y_prev=[0.0, 1e-200]) == 1.0
