import numpy as np
import pytest

from tats import ConfigError, NumericError, SimConfig, estimate_theory, validate_prop1
from tats.classifiers import OracleTrendPredictor
from tats.engine import evaluate_forecasts
from tats.montecarlo import gen_random_walk, synthetic_forecaster

seed = 808


def test_walk_shape_and_start():
    w = gen_random_walk(500, drift=0.0, volatility=1.0, seed=1)
    assert len(w) == 500
    assert w.values[0] == 100.0


def test_walk_deterministic():
    a = gen_random_walk(200, 0.1, 2.0, seed=9)
    b = gen_random_walk(200, 0.1, 2.0, seed=9)
    assert np.array_equal(a.values, b.values)
    c = gen_random_walk(200, 0.1, 2.0, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_walk_increment_distribution():
    w = gen_random_walk(10000, drift=0.0, volatility=1.0, seed=123)
    d = np.diff(w.values)
    assert abs(float(d.mean())) < 0.03  # 3 sigma of the sample mean
    assert abs(float(d.std()) - 1.0) < 0.03


def test_walk_drift():
    w = gen_random_walk(10000, drift=0.5, volatility=1.0, seed=3)
    d = np.diff(w.values)
    assert abs(float(d.mean()) - 0.5) < 0.03


def test_synthetic_forecaster_hit_rate():
    w = gen_random_walk(10000, 0.0, 1.0, seed=123)
    f = synthetic_forecaster(w, p_dt=0.52, error_scale=0.5, seed=99)
    prev, true = w.values[:-1], w.values[1:]
    hits = float(np.mean((f - prev) * (true - prev) > 0))
    assert abs(hits - 0.52) < 3 * np.sqrt(0.52 * 0.48 / f.size)


def test_synthetic_forecaster_error_magnitudes():
    w = gen_random_walk(3000, 0.0, 1.0, seed=21)
    u = 0.25
    f = synthetic_forecaster(w, p_dt=0.6, error_scale=u, seed=22)
    prev, true = w.values[:-1], w.values[1:]
    delta = true - prev
    hit = (f - prev) * delta > 0
    loss = (f - true) ** 2
    assert np.allclose(loss[hit], ((1 - u) * delta[hit]) ** 2, rtol=1e-9)
    assert np.allclose(loss[~hit], ((1 + u) * delta[~hit]) ** 2, rtol=1e-9)


def test_synthetic_forecaster_rejects_flat_step():
    from tats import TimeSeries

    flat = TimeSeries(np.array([1.0, 2.0, 2.0, 3.0]))
    with pytest.raises(NumericError):
        synthetic_forecaster(flat, p_dt=0.6, error_scale=0.5, seed=1)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_steps=5)
    with pytest.raises(ConfigError):
        SimConfig(n_trials=0)
    with pytest.raises(ConfigError):
        SimConfig(p_dt=0.0)
    with pytest.raises(ConfigError):
        SimConfig(p_db=1.0)
    with pytest.raises(ConfigError):
        SimConfig(error_scale=2.5)
    with pytest.raises(ConfigError):
        SimConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        SimConfig(alpha=float("inf"))
    with pytest.raises(ConfigError):
        SimConfig(seed=-1)
    for volatility in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            SimConfig(volatility=volatility)


QUICK = SimConfig(n_steps=300, n_trials=12, seed=17)


def test_validate_prop1_deterministic():
    a = validate_prop1(QUICK)
    b = validate_prop1(QUICK)
    assert a.mean_reduction == b.mean_reduction
    assert a.std_error == b.std_error
    assert a.realized_p_db == b.realized_p_db


def test_trial_streams_are_independent():
    # changing the classifier accuracy must not disturb the walks,
    # so the realized forecaster hit rate stays identical
    a = validate_prop1(SimConfig(n_steps=300, n_trials=10, p_db=0.75, seed=5))
    b = validate_prop1(SimConfig(n_steps=300, n_trials=10, p_db=0.60, seed=5))
    assert a.realized_p_dt == b.realized_p_dt


def test_report_bookkeeping():
    rep = validate_prop1(QUICK)
    assert rep.n_steps_total == QUICK.n_steps * QUICK.n_trials
    assert sum(rep.scenario_counts.values()) == rep.n_steps_total
    assert len(rep.trials) == QUICK.n_trials
    assert 0.0 <= rep.positive_fraction <= 1.0
    d = rep.to_dict()
    assert d["mean_reduction"] == rep.mean_reduction
    assert d["config"]["seed"] == QUICK.seed


def test_realized_fields_are_estimate_theory_of_the_trial():
    config = SimConfig(n_steps=3000, n_trials=1, seed=11)
    rep = validate_prop1(config)
    # rebuild the one trial from the same spawned streams
    [child] = np.random.SeedSequence(config.seed).spawn(1)
    walk_ss, forecaster_ss, classifier_ss = child.spawn(3)
    walk = gen_random_walk(config.n_steps + 1, config.drift, config.volatility, walk_ss)
    forecasts = synthetic_forecaster(walk, config.p_dt, config.error_scale, forecaster_ss)
    oracle = OracleTrendPredictor(accuracy=config.p_db, seed=classifier_ss)
    directions = oracle.draw_many(np.sign(np.diff(walk.values)).astype(int))
    est = estimate_theory(evaluate_forecasts(walk.values, 1, forecasts, directions))
    assert rep.realized_p_db == est.p_db
    assert rep.realized_p_dt == est.p_dt
    assert rep.mean_abs_gap == est.abs_gap
    assert rep.theoretical_bound == est.lower_bound
    assert rep.n_steps_total == est.n_steps


def test_defaults_show_positive_reduction():
    rep = validate_prop1(SimConfig(n_trials=40))
    assert rep.mean_reduction > 0
    assert rep.positive_fraction > 0.9
    assert rep.bound_satisfied


def test_boundary_equal_accuracies_small_error_scale():
    # with matching accuracies and a tiny perturbation the effect vanishes
    rep = validate_prop1(SimConfig(n_trials=60, p_db=0.6, p_dt=0.6, error_scale=0.01, seed=2))
    assert abs(rep.mean_reduction) <= 3 * rep.std_error


def test_boundary_large_error_scale_shows_construction_bias():
    # at error_scale 0.5 the override saves 2 * u^2 * delta^2 on half the
    # disagreeing steps, worth about 0.12 per step at unit volatility
    rep = validate_prop1(SimConfig(n_trials=50, p_db=0.6, p_dt=0.6, error_scale=0.5, seed=3))
    assert 0.09 < rep.mean_reduction < 0.15


def test_converse_direction():
    rep = validate_prop1(SimConfig(n_trials=40, p_db=0.50, p_dt=0.70, seed=4))
    assert rep.mean_reduction < 0
    assert not rep.bound_satisfied or rep.theoretical_bound < 0


def test_walk_rejects_non_finite_settings():
    for drift, volatility in ((0.0, float("inf")), (0.0, float("nan")), (0.0, -1.0),
                              (float("inf"), 1.0), (float("nan"), 1.0)):
        with pytest.raises(ConfigError):
            gen_random_walk(10, drift, volatility, 0)


@pytest.mark.parametrize("drift, volatility", [(1e308, 1.0), (0.0, 1e308)])
def test_walk_overflow_is_a_numeric_error(drift, volatility):
    with pytest.raises(NumericError, match="random walk overflowed"):
        gen_random_walk(50, drift, volatility, 0)


@pytest.mark.parametrize("drift, volatility", [(1e100, 1.0), (0.0, 1e100), (1e200, 1.0)])
def test_validate_prop1_overflow_is_a_numeric_error(drift, volatility):
    # every walk is finite, but the trial statistics overflow
    with pytest.raises(NumericError, match="overflowed float64"):
        validate_prop1(SimConfig(n_steps=50, n_trials=2, drift=drift, volatility=volatility))
