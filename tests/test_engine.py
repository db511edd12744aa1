import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    NumericError,
    Scenario,
    TatsConfig,
    TimeSeries,
    TrendPredictorSpec,
    ValueForecasterSpec,
    chronological_split,
    prepare_run,
    sweep_alpha,
)
from tats.classifiers import fit_classifier
from tats.engine import ForecastTrace, _evaluate_into, evaluate_forecasts
from tats.ingest import Dataset, build_feature_table
from tats.metrics import mae, mape, mse, td_accuracy
from tats.theory import _estimate, estimate_theory

from scalar_reference import (
    adjust,
    classify_scenario,
    indicator,
    scenario_from_signs,
    scenario_tags,
    trace_stats,
)

seed = 707
UP, DOWN = 1, -1


def test_indicator_agreement():
    assert indicator(y_hat=8.0, y_prev=7.0, direction=UP) == 1
    assert indicator(y_hat=2.0, y_prev=7.0, direction=DOWN) == 1
    assert indicator(y_hat=8.0, y_prev=7.0, direction=DOWN) == 0
    assert indicator(y_hat=2.0, y_prev=7.0, direction=UP) == 0


def test_indicator_zero_move_counts_as_agreement():
    assert indicator(y_hat=7.0, y_prev=7.0, direction=UP) == 1
    assert indicator(y_hat=7.0, y_prev=7.0, direction=DOWN) == 1


def test_adjust_passthrough_when_agreeing():
    assert adjust(y_hat=8.0, direction=UP, y_prev=7.0, alpha=2.0) == 8.0


def test_adjust_overrides_when_disagreeing():
    assert adjust(y_hat=8.0, direction=DOWN, y_prev=7.0, alpha=2.0) == 5.0
    assert adjust(y_hat=2.0, direction=UP, y_prev=7.0, alpha=2.0) == 9.0


def test_adjust_rejects_nonpositive_alpha():
    with pytest.raises(ConfigError):
        adjust(y_hat=8.0, direction=UP, y_prev=7.0, alpha=0.0)
    with pytest.raises(ConfigError):
        adjust(y_hat=8.0, direction=UP, y_prev=7.0, alpha=-1.0)


def test_adjust_override_properties_exact():
    # dyadic grid keeps y_prev + alpha exact, so the step size is exactly alpha
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        y_prev = float(rng.integers(-4000, 4000)) / 8.0
        y_hat = float(rng.integers(-4000, 4000)) / 8.0
        alpha = float(rng.integers(1, 800)) / 8.0
        d = UP if rng.random() < 0.5 else DOWN
        out = adjust(y_hat=y_hat, direction=d, y_prev=y_prev, alpha=alpha)
        if indicator(y_hat, y_prev, d) == 1:
            assert out == y_hat
        else:
            assert abs(out - y_prev) == alpha
            assert (out - y_prev) * int(d) > 0


SCENARIO_CASES = [
    # (y_prev, y_true, y_hat, direction, expected)
    (10.0, 12.0, 11.0, UP, Scenario.S1),  # both right
    (10.0, 12.0, 11.0, DOWN, Scenario.S2),  # forecast right, trend wrong
    (10.0, 12.0, 9.0, DOWN, Scenario.S3),  # both wrong
    (10.0, 12.0, 9.0, UP, Scenario.S4),  # forecast wrong, trend right
    (10.0, 8.0, 9.0, DOWN, Scenario.S1),
    (10.0, 8.0, 9.0, UP, Scenario.S2),
    (10.0, 8.0, 11.0, UP, Scenario.S3),
    (10.0, 8.0, 11.0, DOWN, Scenario.S4),
    (10.0, 10.0, 11.0, UP, Scenario.UNDEFINED),  # flat actual move
    (10.0, 12.0, 10.0, UP, Scenario.UNDEFINED),  # flat implied move
    (0.0, -0.0, 1.0, UP, Scenario.UNDEFINED),  # a -0.0 move is flat too
    (0.0, 1.0, -0.0, UP, Scenario.UNDEFINED),  # and so is a -0.0 implied move
    (-0.0, 0.0, 0.0, DOWN, Scenario.UNDEFINED),
]


@pytest.mark.parametrize("y_prev,y_true,y_hat,direction,expected", SCENARIO_CASES)
def test_classify_scenario_truth_table(y_prev, y_true, y_hat, direction, expected):
    assert classify_scenario(y_prev, y_true, y_hat, direction) is expected


def test_truth_table_trace_matches_the_reference_formulas():
    # case i is step 2i + 1; the step between two cases forecasts the next
    # case's start and calls DOWN
    values = np.array([v for y_prev, y_true, *_ in SCENARIO_CASES for v in (y_prev, y_true)])
    forecasts, directions = [], []
    for i, (_, _, y_hat, direction, _) in enumerate(SCENARIO_CASES):
        forecasts.append(y_hat)
        directions.append(direction)
        if 2 * i + 2 < values.size:
            forecasts.append(values[2 * i + 2])
            directions.append(DOWN)
    trace = evaluate_forecasts(values, 1, np.array(forecasts), np.array(directions))
    assert trace.scenario[::2].tolist() == [case[-1] for case in SCENARIO_CASES]
    expected = scenario_tags(trace.y_prev, trace.y_true, trace.y_hat, trace.direction)
    assert np.array_equal(trace.scenario, expected)
    assert estimate_theory(trace) == _estimate(*trace_stats(trace))


def test_evaluate_kernel_tags_every_sign_combination():
    # every (implied, direction, actual) in {-1, 0, 1} x {-1, 1} x {-1, 0, 1}, with int8
    # sign arrays as in a Monte-Carlo trial and with int64 ones as in evaluate_forecasts
    implied, direction, actual = np.array(list(itertools.product((-1, 0, 1), (-1, 1), (-1, 0, 1)))).T
    y_prev = np.full(implied.size, 10.0)
    y_true, y_hat = y_prev + actual, y_prev + 0.5 * implied
    expected = scenario_from_signs(implied, direction, actual)
    assert expected.tolist() == [classify_scenario(*step) for step in zip(y_prev, y_true, y_hat, direction)]
    tags = {}
    for dtype in (np.int8, np.int64):
        trace = ForecastTrace(
            t=np.arange(1, implied.size + 1), y_prev=y_prev, y_true=y_true, y_hat=y_hat,
            direction=direction.astype(dtype), indicator=np.empty(implied.size, dtype=dtype),
            loss_base=np.empty(implied.size), scenario=np.empty(implied.size, dtype=dtype),
        )
        _evaluate_into(trace, actual.astype(dtype), np.empty(implied.size, dtype=dtype))
        assert trace.indicator.tolist() == [indicator(*step) for step in zip(y_hat, y_prev, direction)]
        tags[dtype] = trace.scenario
    assert np.array_equal(tags[np.int8], expected)
    assert np.array_equal(tags[np.int64], expected)


@pytest.mark.parametrize("y_true,y_hat", [(float("nan"), 11.0), (12.0, float("nan"))])
def test_classify_scenario_rejects_non_finite_move(y_true, y_hat):
    with pytest.raises(DataError, match="step delta must be finite"):
        classify_scenario(10.0, y_true, y_hat, UP)


def test_spec_equality_and_hash_never_raise():
    table = np.array([np.nan, 101.0, 102.0])
    directions = np.array([np.nan, 1.0, -1.0])
    specs = [
        (ValueForecasterSpec.external(table), ValueForecasterSpec.external(table.copy())),
        (TrendPredictorSpec.external(directions), TrendPredictorSpec.external(directions.copy())),
    ]
    for spec, twin in specs:
        assert spec == spec
        assert (spec == twin) is False  # specs compare by identity
        assert hash(spec) == hash(spec)
    config = TatsConfig(value_forecaster=specs[0][0], trend_predictor=specs[1][0])
    twin_config = TatsConfig(value_forecaster=specs[0][1], trend_predictor=specs[1][1])
    assert config == config
    assert (config == twin_config) is False
    assert hash(config) == hash(config)


def _random_run(rng, n=40):
    values = np.cumsum(rng.normal(size=n)) + 50.0
    forecasts = values[:-1] + rng.normal(size=n - 1)
    directions = np.where(rng.random(n - 1) < 0.5, 1, -1)
    return evaluate_forecasts(values, 1, forecasts, directions)


def test_vectorized_matches_scalar_path():
    rng = np.random.default_rng(seed + 1)
    for _ in range(20):
        t = _random_run(rng)
        y_adjs, loss_adj = t.adjusted(1.0)
        for i in range(len(t)):
            y_prev, y_true, y_hat = float(t.y_prev[i]), float(t.y_true[i]), float(t.y_hat[i])
            y_adj = float(y_adjs[i])
            d = int(t.direction[i])
            assert t.indicator[i] == indicator(y_hat, y_prev, d)
            assert y_adj == adjust(y_hat, d, y_prev, alpha=1.0)
            assert Scenario(int(t.scenario[i])) is classify_scenario(y_prev, y_true, y_hat, d)
            # square via multiplication: scalar pow() can differ by one ulp
            adj_err = y_adj - y_true
            base_err = y_hat - y_true
            assert loss_adj[i] == adj_err * adj_err
            assert t.loss_base[i] == base_err * base_err


def test_adjusted_value_never_fights_the_classifier():
    rng = np.random.default_rng(seed + 2)
    for _ in range(20):
        t = _random_run(rng)
        moved = t.adjusted(1.0)[0] - t.y_prev
        assert np.all(moved * t.direction >= 0.0)
        overridden = t.indicator == 0
        assert np.all(moved[overridden] * t.direction[overridden] > 0.0)


def test_agreeing_steps_share_losses_bitwise():
    rng = np.random.default_rng(seed + 3)
    for _ in range(20):
        trace = _random_run(rng)
        y_adj, loss_adj = trace.adjusted(1.0)
        agree = trace.indicator == 1
        assert np.array_equal(y_adj[agree], trace.y_hat[agree])
        assert np.array_equal(loss_adj[agree], trace.loss_base[agree])


def test_base_trace_is_unadjusted():
    rng = np.random.default_rng(seed + 4)
    values = np.cumsum(rng.normal(size=40)) + 50.0
    forecasts = values[:-1] + rng.normal(size=39)
    directions = np.where(rng.random(39) < 0.5, 1, -1)
    trace = evaluate_forecasts(values, 1, forecasts, directions)
    # the base columns hold the given forecasts and their own losses
    assert np.array_equal(trace.y_hat, forecasts)
    assert np.array_equal(trace.loss_base, (forecasts - values[1:]) ** 2)


def test_small_alpha_limit():
    rng = np.random.default_rng(seed + 5)
    values = np.cumsum(rng.normal(size=30)) + 50.0
    forecasts = values[:-1] + rng.normal(size=29)
    directions = np.where(rng.random(29) < 0.5, 1, -1)
    trace = evaluate_forecasts(values, 1, forecasts, directions)
    overridden = trace.indicator == 0
    deltas = trace.y_true - trace.y_prev
    assert np.allclose(trace.adjusted(1e-9)[1][overridden], deltas[overridden] ** 2, rtol=1e-6)


def test_evaluate_forecasts_validation():
    values = np.arange(5, dtype=float)
    with pytest.raises(ConfigError):
        evaluate_forecasts(values, 1, np.array([]), np.array([]))
    with pytest.raises(ConfigError):
        evaluate_forecasts(values, 1, np.ones(3), np.ones(2))
    # checked as given: a cast to int would truncate 1.7 and -1.2 and warn on NaN
    for bad in ([1, 0], [1, 2], [-1, -2], [1, 1.7], [-1.2, 1], [0.0, 1], [1, np.nan], [np.inf, 1]):
        with pytest.raises(DataError, match="directions must be"):
            evaluate_forecasts(values, 1, np.ones(2), np.array(bad))
    with pytest.raises(ConfigError):
        evaluate_forecasts(values, 0, np.ones(2), np.array([1, 1]))
    with pytest.raises(ConfigError):
        evaluate_forecasts(values, 4, np.ones(2), np.array([1, 1]))


def test_evaluate_forecasts_overflow_is_a_numeric_error():
    # each squared error is finite at 1e153, but their sum is not
    values = np.tile([1e153, -1e153], 200)
    with pytest.raises(NumericError, match="summed squared forecast errors"):
        evaluate_forecasts(values, 1, values[:-1], np.ones(399, dtype=int))
    values = np.array([1e307, -1e307, 1e307])
    with pytest.raises(NumericError):
        evaluate_forecasts(values, 1, values[:-1], np.array([1, 1]))


def test_adjusted_overflow_names_alpha():
    # the base errors are small; only the steps of size alpha overflow
    values = np.array([100.0, 101.0, 99.0, 102.0])
    trace = evaluate_forecasts(values, 1, values[:-1] - 0.5, np.ones(3, dtype=int))
    with pytest.raises(NumericError, match=r"adjusted forecasts at alpha=1e\+308 "):
        trace.adjusted(1e308)


def test_scenario_tally():
    rng = np.random.default_rng(seed + 6)
    trace = _random_run(rng, n=80)
    d = trace.scenario_counts()
    assert list(d) == ["S1", "S2", "S3", "S4", "undefined"]
    assert sum(d.values()) == len(trace)
    assert d["S2"] == int(np.count_nonzero(trace.scenario == Scenario.S2))


def test_trace_step_time_axis():
    rng = np.random.default_rng(seed + 7)
    trace = _random_run(rng, n=12)
    assert np.array_equal(trace.t, np.arange(1, 12))
    assert int(trace.t[3]) == 4


def _weather_series(rng, n=120):
    return TimeSeries(np.cumsum(rng.normal(0.1, 1.0, size=n)) + 60.0)


def _trace(config, series, eval_split="test"):
    [trace] = prepare_run(config, Dataset(series), eval_splits=(eval_split,))
    return trace


def test_run_tats_naive_forecaster_is_identity():
    # naive forecast never moves, so the indicator is always 1
    rng = np.random.default_rng(seed + 8)
    for _ in range(10):
        series = _weather_series(rng)
        config = TatsConfig(
            value_forecaster=ValueForecasterSpec.naive(),
            trend_predictor=TrendPredictorSpec.oracle(accuracy=0.3, seed=1),
        )
        trace = _trace(config, series)
        assert np.array_equal(trace.adjusted(2.0)[0], trace.y_hat)
        assert np.all(trace.indicator == 1)


def test_run_tats_echo_classifier_is_identity():
    # table feeding back the forecaster's own implied direction
    rng = np.random.default_rng(seed + 9)
    series = _weather_series(rng)
    spec = ValueForecasterSpec.ar(order=2)
    forecasts = _trace(
        TatsConfig(value_forecaster=spec, trend_predictor=TrendPredictorSpec.majority()), series
    ).y_hat
    n_train = len(series) - forecasts.size
    table = np.full(len(series), np.nan)
    for i, f in enumerate(forecasts):
        t = n_train + i
        implied = f - series.values[t - 1]
        table[t] = UP if implied >= 0 else DOWN
    config = TatsConfig(
        value_forecaster=spec,
        trend_predictor=TrendPredictorSpec.external(source=table),
    )
    trace = _trace(config, series)
    y_adj, loss_adj = trace.adjusted(5.0)
    assert np.array_equal(y_adj, trace.y_hat)
    assert np.array_equal(loss_adj, trace.loss_base)


# (forecaster, classifier, refit_each_step, losses scale exactly): scaling by a power
# of two is exact for every model but AR, whose least-squares solve rounds differently
SCALED_PAIRS = [
    (ValueForecasterSpec.naive(), TrendPredictorSpec.oracle(accuracy=0.7, seed=2), False, True),
    (ValueForecasterSpec.drift(), TrendPredictorSpec.logistic(), False, True),
    (ValueForecasterSpec.drift(), TrendPredictorSpec.logistic(), True, True),
    (ValueForecasterSpec.ses(0.4), TrendPredictorSpec.knn(5), False, True),
    (ValueForecasterSpec.ar(2), TrendPredictorSpec.gaussian_nb(), False, False),
    (ValueForecasterSpec.ar(2), TrendPredictorSpec.logistic(), False, False),
]


@pytest.mark.parametrize(
    "forecaster, classifier, refit, exact", SCALED_PAIRS,
    ids=["naive-oracle", "drift-logistic", "drift-logistic-refit", "ses-knn", "ar-gaussian_nb",
         "ar-logistic"],
)
def test_scaling_series_and_alpha_by_eight_keeps_directions(forecaster, classifier, refit, exact):
    # mean-reverting levels, so every fitted classifier calls both directions
    noise = np.random.default_rng(seed + 20).normal(size=200)
    values = np.empty(200)
    values[0] = noise[0]
    for i in range(1, 200):
        values[i] = 0.5 * values[i - 1] + noise[i]
    config = TatsConfig(value_forecaster=forecaster, trend_predictor=classifier, refit_each_step=refit)
    traces = []
    for scale in (1.0, 8.0):
        dataset = Dataset(TimeSeries(scale * (60.0 + values)))
        traces.append(prepare_run(config, dataset, eval_splits=("test", "train")))
    for plain, scaled in zip(*traces):
        assert np.array_equal(scaled.direction, plain.direction)
        assert np.array_equal(scaled.indicator, plain.indicator)
        assert np.array_equal(scaled.scenario, plain.scenario)
        if exact:
            assert np.array_equal(scaled.loss_base, 64.0 * plain.loss_base)
            for alpha in (0.5, 3.0):
                assert np.array_equal(scaled.adjusted(8.0 * alpha)[1], 64.0 * plain.adjusted(alpha)[1])


def test_run_tats_deterministic():
    rng = np.random.default_rng(seed + 10)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.ar(order=2),
        trend_predictor=TrendPredictorSpec.oracle(accuracy=0.8, seed=4),
    )
    a = _trace(config, series)
    b = _trace(config, series)
    assert np.array_equal(a.adjusted(1.0)[0], b.adjusted(1.0)[0])
    assert np.array_equal(a.direction, b.direction)


def test_run_tats_perfect_oracle_never_hits_s2_s3():
    rng = np.random.default_rng(seed + 11)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.drift(),
        trend_predictor=TrendPredictorSpec.oracle(accuracy=1.0, seed=2),
    )
    counts = _trace(config, series).scenario_counts()
    assert counts["S2"] == 0
    assert counts["S3"] == 0


def test_run_tats_train_split_is_in_sample():
    rng = np.random.default_rng(seed + 12)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.ar(order=2),
        trend_predictor=TrendPredictorSpec.logistic(),
    )
    trace = _trace(config, series, eval_split="train")
    assert trace.t[-1] == len(chronological_split(series, 0.7)[0]) - 1
    assert trace.t[0] >= 1


def test_run_tats_rejects_unknown_split():
    rng = np.random.default_rng(seed + 13)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.naive(),
        trend_predictor=TrendPredictorSpec.majority(),
    )
    with pytest.raises(ConfigError):
        prepare_run(config, Dataset(series), eval_splits=("validation",))


def test_the_config_alone_sets_the_classifier_features(monkeypatch):
    rng = np.random.default_rng(seed + 30)
    series, exog = _weather_series(rng), _weather_series(rng)
    n_train = len(chronological_split(series, 0.7)[0])
    fitted_on = []

    def spy(spec, features):
        fitted_on.append(features)
        return fit_classifier(spec, features)

    monkeypatch.setattr("tats.engine.fit_classifier", spy)
    logistic = TrendPredictorSpec.logistic()
    for n_lags, exog_lag in ((2, 0), (3, 0), (3, 4)):
        config = TatsConfig(ValueForecasterSpec.naive(), logistic, n_lags=n_lags, exog_lag=exog_lag)
        prepare_run(config, Dataset(series, {"x": exog}))
        expected = build_feature_table(Dataset(series, {"x": exog}), n_lags, exog_lag).training_matrix(n_train)
        assert np.array_equal(fitted_on[-1].rows, expected.rows)
        assert fitted_on[-1].rows.shape[1] == n_lags + 1
        assert fitted_on[-1].rows[0, 0] == series.values[max(n_lags - 1, exog_lag)]  # the newest lag of the first row
    # no argument takes a ready table: a table built with other lags is refused, not fitted
    assert list(inspect.signature(prepare_run).parameters) == ["config", "dataset", "eval_splits"]
    other = build_feature_table(Dataset(series), n_lags=2)
    for spec in (logistic, TrendPredictorSpec.oracle(0.7)):
        config = TatsConfig(ValueForecasterSpec.naive(), spec, n_lags=3)
        with pytest.raises(ConfigError, match="^prepare_run needs a .*got .*FeatureTable$"):
            prepare_run(config, other)
        with pytest.raises(ConfigError, match="a dataset needs a TimeSeries target"):
            prepare_run(config, Dataset(series, {"x": other}))
    assert len(fitted_on) == 3


def test_trace_time_indices_must_increase():
    fields = {f.name: getattr(_random_run(np.random.default_rng(seed + 31), n=6), f.name)
              for f in dataclasses.fields(ForecastTrace)}
    for t in ([1, 1, 2, 3, 4], [5, 4, 3, 2, 1]):
        with pytest.raises(ConfigError, match="^trace time indices must be strictly increasing$"):
            ForecastTrace(**{**fields, "t": np.array(t)})


def test_a_one_value_train_split_is_refused():
    # a train_fraction of (k + 0.5) / n cuts exactly k values; k / n can floor to k - 1
    dataset = Dataset(TimeSeries(np.array([5.0, 6.0, 4.0, 7.0, 3.0, 8.0])))
    naive = ValueForecasterSpec.naive()
    with pytest.raises(DataError, match="^no labeled feature rows available for training$"):
        prepare_run(TatsConfig(naive, TrendPredictorSpec.majority(), n_lags=1, train_fraction=1.5 / 6), dataset)
    oracle = TatsConfig(naive, TrendPredictorSpec.oracle(accuracy=0.7), train_fraction=1.5 / 6)
    assert len(prepare_run(oracle, dataset)[0]) == 5
    with pytest.raises(DataError, match=r"^train split of length 1 leaves no in-sample steps \(first evaluable index 1\)$"):
        prepare_run(oracle, dataset, eval_splits=("train",))


def test_sweep_alpha_shares_forecasts_across_alphas():
    rng = np.random.default_rng(seed + 14)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.ar(order=2),
        trend_predictor=TrendPredictorSpec.oracle(accuracy=0.8, seed=5),
    )
    alphas = (0.5, 1.0, 2.0)
    sweep = sweep_alpha(_trace(config, series), alphas)
    assert tuple(e.alpha for e in sweep.entries) == alphas
    assert sweep.base_report.n_steps == len(chronological_split(series, 0.7)[1])


def test_sweep_alpha_single_run_consistency():
    rng = np.random.default_rng(seed + 15)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.drift(),
        trend_predictor=TrendPredictorSpec.oracle(accuracy=0.9, seed=6),
    )
    trace = _trace(config, series)
    sweep = sweep_alpha(trace, (2.0,))
    y_adj, _ = trace.adjusted(2.0)
    base, adjusted = sweep.base_report, sweep.entries[0].report
    for report, forecasts in ((base, trace.y_hat), (adjusted, y_adj)):
        assert report.mse == mse(trace.y_true, forecasts)
        assert report.mae == mae(trace.y_true, forecasts)
        assert report.mape == mape(trace.y_true, forecasts)
        assert report.tda == td_accuracy(trace.y_prev, trace.y_true, forecasts)
    assert base.diff is None and base.r_diff is None
    assert adjusted.diff == base.mse - adjusted.mse
    assert adjusted.r_diff == adjusted.diff / base.mse


def test_sweep_alpha_rejects_bad_grids():
    rng = np.random.default_rng(seed + 16)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.naive(),
        trend_predictor=TrendPredictorSpec.majority(),
    )
    trace = _trace(config, series)
    with pytest.raises(ConfigError):
        sweep_alpha(trace, ())
    with pytest.raises(ConfigError):
        sweep_alpha(trace, (1.0, -2.0))


@pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
def test_non_finite_alpha_rejected(alpha):
    rng = np.random.default_rng(seed + 17)
    series = _weather_series(rng)
    config = TatsConfig(
        value_forecaster=ValueForecasterSpec.naive(),
        trend_predictor=TrendPredictorSpec.oracle(accuracy=0.7, seed=1),
    )
    with pytest.raises(ConfigError, match="finite"):
        adjust(y_hat=8.0, direction=UP, y_prev=7.0, alpha=alpha)
    with pytest.raises(ConfigError, match="finite"):
        evaluate_forecasts(np.arange(5.0), 1, np.ones(2), np.array([1, 1])).adjusted(alpha)
    with pytest.raises(ConfigError, match="finite"):
        sweep_alpha(_trace(config, series), (1.0, alpha))
