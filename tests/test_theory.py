import numpy as np
import pytest

from tats import (
    ConfigError,
    DataError,
    Dataset,
    NumericError,
    TatsConfig,
    TimeSeries,
    TrendPredictorSpec,
    ValueForecasterSpec,
    estimate_theory,
    lower_bound,
    prepare_run,
    run_experiment,
    sweep_alpha,
)
from tats.engine import evaluate_forecasts

from scalar_reference import scenario_probabilities

seed = 303
npairs = 1000


def test_lower_bound_worked_values():
    assert lower_bound(180.45, 0.7514, 0.5236) == pytest.approx(41.10651, abs=0.02)
    assert lower_bound(147.70, 0.7514, 0.5241) == pytest.approx(33.57221, abs=0.02)


def test_scenario_probabilities_worked_value():
    # S4 (forecaster wrong, classifier right) at p_db=0.7514, p_dt=0.5236
    p = scenario_probabilities(0.7514, 0.5236)
    assert p[3] == pytest.approx(0.35796696, abs=1e-8)
    assert p[0] == pytest.approx(0.7514 * 0.5236, abs=1e-12)


rng = np.random.default_rng(seed)
prob_pairs = [(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99))) for _ in range(npairs)]


@pytest.mark.parametrize("a,b", prob_pairs[:200])
def test_probabilities_sum_to_one(a, b):
    p = scenario_probabilities(a, b)
    assert abs(sum(p) - 1.0) < 1e-12
    assert all(0.0 <= x <= 1.0 for x in p)


def test_bound_matches_definitional_bracket():
    # gap * (a - b) is the simplified form of gap * (a*(1-b) - (1-a)*b)
    r = np.random.default_rng(seed + 1)
    for _ in range(npairs):
        gap = float(r.uniform(0.0, 500.0))
        a = float(r.uniform(0.01, 0.99))
        b = float(r.uniform(0.01, 0.99))
        bracket = gap * (a * (1.0 - b) - (1.0 - a) * b)
        assert abs(lower_bound(gap, a, b) - bracket) <= 1e-12 * abs(bracket)


def test_expected_change_signs():
    assert lower_bound(10.0, 0.8, 0.5) > 0
    assert lower_bound(10.0, 0.5, 0.8) < 0
    assert lower_bound(10.0, 0.6, 0.6) == 0.0


def test_expected_change_antisymmetry():
    r = np.random.default_rng(seed + 2)
    for _ in range(200):
        gap = float(r.uniform(0.0, 100.0))
        a = float(r.uniform(0.01, 0.99))
        b = float(r.uniform(0.01, 0.99))
        assert lower_bound(gap, a, b) == -lower_bound(gap, b, a)


def test_expected_change_monotone_in_base_accuracy():
    vals = [lower_bound(50.0, a, 0.5) for a in (0.3, 0.5, 0.7, 0.9)]
    assert vals == sorted(vals)


def test_expected_change_scales_with_gap():
    assert lower_bound(20.0, 0.8, 0.5) == pytest.approx(
        2 * lower_bound(10.0, 0.8, 0.5), rel=1e-15
    )


def test_input_validation():
    with pytest.raises(ConfigError):
        lower_bound(10.0, 1.5, 0.5)
    with pytest.raises(ConfigError):
        lower_bound(10.0, 0.5, -0.1)
    with pytest.raises(ConfigError):
        lower_bound(-1.0, 0.5, 0.5)
    with pytest.raises(ConfigError):
        lower_bound(float("nan"), 0.5, 0.5)
    with pytest.raises(ConfigError):
        scenario_probabilities(0.5, 1.1)


def _toy_trace():
    # 4 evaluable steps with hand-checkable directions
    values = np.array([10.0, 12.0, 11.0, 11.0, 14.0])
    forecasts = np.array([13.0, 11.5, 10.0, 13.0])  # up, down, down, up implied
    directions = np.array([1, 1, 1, 1])
    return evaluate_forecasts(values, start=1, forecasts=forecasts, directions=directions)


def test_estimate_theory_counts():
    est = estimate_theory(_toy_trace())
    # classifier always says up; actual moves are up, down, flat, up -> 2 of 4
    assert est.p_db == 0.5
    # forecaster implied moves: up, down, down, up vs up, down, flat, up -> 3 of 4
    assert est.p_dt == 0.75
    assert est.n_steps == 4


def test_abs_gap_matches_brute_force():
    trace = _toy_trace()
    expected = np.mean(np.abs(trace.loss_base - (trace.y_true - trace.y_prev) ** 2))
    assert estimate_theory(trace).abs_gap == pytest.approx(float(expected), rel=1e-15)


def test_abs_gap_overflow_is_a_numeric_error():
    # perfect forecasts give zero losses, but the squared moves overflow
    values = np.array([0.0, 1e200, -1e200, 1e200])
    trace = evaluate_forecasts(values, 1, values[1:], np.array([1, -1, 1]))
    with pytest.raises(NumericError, match="loss gap"):
        estimate_theory(trace)


def test_estimate_theory_on_random_runs():
    r = np.random.default_rng(seed + 3)
    for _ in range(50):
        n = int(r.integers(6, 60))
        values = np.cumsum(r.normal(size=n)) + 50.0
        forecasts = values[:-1] + r.normal(size=n - 1)
        directions = np.where(r.random(n - 1) < 0.5, 1, -1)
        est = estimate_theory(evaluate_forecasts(values, 1, forecasts, directions))
        assert 0.0 <= est.p_db <= 1.0
        assert 0.0 <= est.p_dt <= 1.0
        assert est.abs_gap >= 0.0
        assert est.expected_loss_change == est.lower_bound
        assert est.prop1_holds == (est.p_db > est.p_dt)


def test_estimate_theory_on_tiny_moves():
    # every forecast and every direction is right, although each move is about 1e-200
    values = np.array([0.0, 1e-200, 2e-200, 1e-200, 3e-200])
    forecasts = np.array([0.5e-200, 1.5e-200, 1.5e-200, 2e-200])
    est = estimate_theory(evaluate_forecasts(values, 1, forecasts, np.array([1, 1, -1, 1])))
    assert est.p_db == 1.0
    assert est.p_dt == 1.0
    assert not est.prop1_holds


def _walk(n: int = 60) -> Dataset:
    return Dataset(TimeSeries(100.0 + np.cumsum(np.random.default_rng(seed + 4).standard_normal(n))))


@pytest.mark.parametrize(
    "classifier", [TrendPredictorSpec("logistic"), TrendPredictorSpec("oracle", accuracy=0.7, seed=1)]
)
def test_run_experiment_is_one_fit_its_sweep_and_its_estimate(classifier):
    dataset, alphas = _walk(), [0.5, 2.0, 1.0]
    config = TatsConfig(ValueForecasterSpec("ar", order=2), classifier)
    test_trace, train_trace = prepare_run(config, dataset, ("test", "train"))
    for theory_split, theory_trace in (("train", train_trace), ("test", test_trace)):
        run = run_experiment(config, dataset, alphas, theory_split)
        assert run.config is config and run.alphas == (0.5, 2.0, 1.0) and run.theory_split == theory_split
        assert run.n_train == 42 and np.array_equal(run.trace.t, test_trace.t)
        assert np.array_equal(run.trace.y_hat, test_trace.y_hat)
        assert np.array_equal(run.trace.direction, test_trace.direction)
        assert (run.base, run.adjusted) == sweep_alpha(test_trace, alphas)
        assert run.theory == estimate_theory(theory_trace)
        body = run.to_dict()
        assert body["n_train"] == 42 and body["n_test"] == 18 and body["eval_split"] == "test"
        assert [entry["alpha"] for entry in body["tats"]] == alphas
        assert body["config"]["theory_split"] == theory_split


def test_run_experiment_refuses_an_unknown_theory_split():
    config = TatsConfig(ValueForecasterSpec("naive"), TrendPredictorSpec("majority"))
    for split in ("validation", "Train", ""):
        with pytest.raises(ConfigError, match=f"^theory_split must be 'train' or 'test', got '{split}'$"):
            run_experiment(config, _walk(), [1.0], split)


def test_a_data_error_in_the_train_walk_says_the_test_split_avoids_it():
    dataset = _walk()
    table = np.full(60, np.nan)
    table[42:] = 1.0  # directions for the test steps only
    config = TatsConfig(ValueForecasterSpec("naive"), TrendPredictorSpec("external", source=table))
    with pytest.raises(DataError) as info:
        run_experiment(config, dataset, [1.0])
    assert str(info.value) == (
        "external directions missing time index 1 (in the train split); "
        "the theory estimate reads the train split, and --theory-split test avoids it"
    )
    assert run_experiment(config, dataset, [1.0], "test").theory.n_steps == 18
    # a gap in the test split is the test split's error under either theory split, with no hint
    table = np.ones(60)
    table[50] = np.nan
    config = TatsConfig(ValueForecasterSpec("naive"), TrendPredictorSpec("external", source=table))
    for split in ("train", "test"):
        with pytest.raises(DataError, match=r"^external directions missing time index 50 \(in the test split\)$"):
            run_experiment(config, dataset, [1.0], split)
