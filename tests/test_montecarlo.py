import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tats import ConfigError, NumericError, SimConfig, TatsError, estimate_theory, lower_bound, validate_prop1
from tats import montecarlo
from tats.classifiers import OracleTrendPredictor
from tats.engine import evaluate_forecasts
from tats.montecarlo import _SEED_BLOCK, _forecast_into, _seed_states, gen_random_walk, synthetic_forecaster
from tats.theory import _estimate

from scalar_reference import scenario_tags, synthetic_forecasts, trace_stats

seed = 808
ROOT = Path(__file__).resolve().parents[1]


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


def test_forecast_kernel_matches_the_masked_formula_on_ties():
    # draws exactly at p_dt count as wrong; signed zeros show whether the negation is exact
    p_dt, below, above = 0.6, np.nextafter(0.6, 0.0), np.nextafter(0.6, 1.0)
    u = np.array([p_dt, below, above, p_dt, below, p_dt, below, 0.0, p_dt, 0.25, p_dt, 0.999])
    moves = np.array([1.5, 1.5, -2.25, 0.0, 0.0, -0.0, -0.0, 5e-324, 5e-324, -1e-300, 7.0, -7.0])
    y_prev = np.array([100.0, 100.0, -3.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 1e300, -1.0])
    forecasts = np.empty(u.size)
    got = _forecast_into(forecasts, y_prev, moves, p_dt, 1.2, u.copy())
    assert got is forecasts
    assert got.tobytes() == synthetic_forecasts(moves, y_prev, u, p_dt, 1.2).tobytes()


@pytest.mark.parametrize("move", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("draw", [0.1, 0.9])
def test_forecast_kernel_rejects_non_finite_moves(move, draw):
    with pytest.raises(NumericError, match="synthetic forecasts overflowed"):
        _forecast_into(np.empty(2), np.ones(2), np.array([1.0, move]), 0.6, 1.2, np.array([0.1, draw]))


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
    # a trial's index is one 32-bit word of its seeds; a config allocates nothing
    assert SimConfig(n_trials=2**32 - 1).n_trials == 2**32 - 1
    with pytest.raises(ConfigError, match="^n_trials=4294967296, n_steps=2000: too large to allocate$"):
        SimConfig(n_trials=2**32)


@pytest.mark.parametrize("name, value", [("seed", 3.5), ("seed", "7"), ("n_trials", 2.5), ("n_steps", 10.5),
                                         ("seed", None), ("n_steps", np.float64(20.0)), ("seed", np.array([3])),
                                         ("seed", True), ("n_trials", False), ("n_steps", np.True_)])
def test_sim_config_counts_and_seed_are_integers_not_bools(name, value):
    # a bool is refused too: True as a seed or a count is a slip, and numpy refuses np.True_ as an index
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        SimConfig(**{name: value})


def test_sim_config_stores_numpy_integers_as_ints():
    config = SimConfig(n_steps=np.int32(300), n_trials=np.uint16(12), seed=np.uint64(17))
    assert [type(v) for v in (config.n_steps, config.n_trials, config.seed)] == [int, int, int]
    assert config == QUICK
    assert json.dumps(validate_prop1(config).to_dict()) == json.dumps(validate_prop1(QUICK).to_dict())


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 7, 2**130 + 1])
def test_seed_states_are_those_of_spawned_seed_sequences(seed):
    # one to five entropy words; trial indices around a block edge and at the 32-bit limit;
    # streams of the first two attempts and of the last regeneration attempt
    trials = np.array([0, 1, 255, 256, 257, 2**31, 2**32 - 1], dtype=np.uint32)
    streams = np.array([0, 1, 2, 3, 4, 5, 297, 298, 299], dtype=np.uint32)
    got = _seed_states(seed, trials[:, None], streams)
    assert got.shape == (trials.size, streams.size, 4) and got.dtype == np.uint64
    for (a, i), (b, j) in itertools.product(enumerate(trials.tolist()), enumerate(streams.tolist())):
        expected = np.random.SeedSequence(seed, spawn_key=(i, j)).generate_state(4, np.uint64)
        assert got[a, b].tobytes() == expected.tobytes(), (i, j)
    # the same states when a trial index or a stream is broadcast alone
    assert np.array_equal(_seed_states(seed, trials[3:4], streams), got[3])
    assert np.array_equal(_seed_states(seed, trials, streams[6:7]), got[:, 6])


def test_import_tats_leaves_numpy_random_unloaded():
    # numpy.random is imported on first use, fractions only by the AR walk's exact scalar route
    # and argparse only by the CLI, so none of them slows down every import tats
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, tats; print([m for m in ('numpy.random', 'fractions', 'argparse') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stdout + done.stderr


QUICK = SimConfig(n_steps=300, n_trials=12, seed=17)


def test_validate_prop1_deterministic():
    a = validate_prop1(QUICK)
    b = validate_prop1(QUICK)
    assert a.mean_reduction == b.mean_reduction
    assert a.std_error == b.std_error
    assert a.realized_p_db == b.realized_p_db


def test_numpy_integer_seeds_give_the_same_run():
    expected = validate_prop1(QUICK).trials
    for seed in (np.int64(QUICK.seed), np.uint64(QUICK.seed)):
        assert np.array_equal(validate_prop1(SimConfig(n_steps=300, n_trials=12, seed=seed)).trials, expected)


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
    assert rep.trials.shape == (QUICK.n_trials, 2) and rep.trials.dtype == float
    reductions = [base - tats for base, tats in rep.trials.tolist()]
    assert rep.mean_reduction == math.fsum(reductions) / QUICK.n_trials
    assert rep.positive_fraction == sum(r > 0.0 for r in reductions) / QUICK.n_trials
    assert 0.0 <= rep.positive_fraction <= 1.0
    d = rep.to_dict()
    assert d["mean_reduction"] == rep.mean_reduction
    assert d["config"]["seed"] == QUICK.seed


def test_realized_fields_are_estimate_theory_of_the_trial():
    config = SimConfig(n_steps=3000, n_trials=1, seed=11)
    rep = validate_prop1(config)
    [(trace, _)] = _trial_traces(config)
    est = estimate_theory(trace)
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


def _trial_traces(config):
    """(trace, redrawn walks) of every trial of config, rebuilt from the public functions.

    Each trial spawns its walk, forecaster and classifier streams from its
    own child seed, in that order, and draws a new walk while one has a
    flat step.
    """
    for child in np.random.SeedSequence(config.seed).spawn(config.n_trials):
        redrawn = 0
        while True:
            walk_ss, forecaster_ss, classifier_ss = child.spawn(3)
            walk = gen_random_walk(config.n_steps + 1, config.drift, config.volatility, walk_ss)
            if np.all(np.diff(walk.values) != 0.0):
                break
            redrawn += 1
        forecasts = synthetic_forecaster(walk, config.p_dt, config.error_scale, forecaster_ss)
        truths = np.sign(np.diff(walk.values)).astype(int)
        directions = OracleTrendPredictor(config.p_db, classifier_ss).draw_many(truths)
        yield evaluate_forecasts(walk.values, 1, forecasts, directions), redrawn


def _rebuild(config):
    """validate_prop1's trials and pooled fields from the rebuilt traces and the reference statistics."""
    trials, counts, clf_hits, fc_hits, gap_sums = [], np.zeros(5, dtype=int), 0, 0, []
    for trace, _ in _trial_traces(config):
        trials.append((np.mean(trace.loss_base), np.mean(trace.adjusted(config.alpha)[1])))
        counts += np.bincount(trace.scenario, minlength=5)
        clf, fc, gap_sum, _ = trace_stats(trace)
        clf_hits, fc_hits = clf_hits + clf, fc_hits + fc
        gap_sums.append(gap_sum)
    n = config.n_trials * config.n_steps
    p_db, p_dt, gap = clf_hits / n, fc_hits / n, math.fsum(gap_sums) / n
    return {
        "trials": np.array(trials),
        "scenario_counts": dict(zip(["undefined", "S1", "S2", "S3", "S4"], counts.tolist())),
        "realized_p_db": p_db,
        "realized_p_dt": p_dt,
        "mean_abs_gap": gap,
        "theoretical_bound": lower_bound(gap, p_db, p_dt),
        "n_steps_total": n,
    }


REGENERATING = SimConfig(n_trials=40, n_steps=10, volatility=1e-13, seed=4)


@pytest.mark.parametrize("config", [
    SimConfig(n_steps=300, n_trials=12, seed=17),
    SimConfig(n_steps=200, n_trials=10, p_dt=0.6, p_db=0.55, error_scale=1.2, drift=0.3, seed=8),
    REGENERATING,
    SimConfig(n_steps=20, n_trials=_SEED_BLOCK + 1, seed=2**64 + 7),
    SimConfig(n_trials=_SEED_BLOCK + 1, n_steps=10, volatility=1e-13, seed=5),
], ids=["default", "drift", "regenerating", "two-blocks", "regenerating-two-blocks"])
def test_every_trial_matches_the_public_functions(config):
    # trials share reused arrays, so state left by one trial would show in the next; the seed
    # states of a run come in blocks, so the last two configs cross a block's edge
    rep = validate_prop1(config)
    fields = _rebuild(config)
    assert np.array_equal(rep.trials, fields.pop("trials"))
    for name, value in fields.items():
        assert getattr(rep, name) == value, name


def test_regenerating_config_matches_the_reference_formulas():
    traces, redrawn = zip(*_trial_traces(REGENERATING))
    assert sum(redrawn) > 0
    undefined = 0
    for trace in traces:
        expected = scenario_tags(trace.y_prev, trace.y_true, trace.y_hat, trace.direction)
        assert np.array_equal(trace.scenario, expected)
        assert estimate_theory(trace) == _estimate(*trace_stats(trace))
        undefined += int(np.count_nonzero(trace.scenario == 0))
    # forecasts that land on the previous value make flat implied moves
    assert undefined == 27


def test_bookkeeping_per_trial_stays_small():
    # the trials keep three floats each; per-trial seeds, tuples and count arrays would
    # take about 0.9 KB each, 17.9 MB here
    validate_prop1(SimConfig(n_trials=2, n_steps=10))  # lazy imports count once, not here
    tracemalloc.start()
    try:
        validate_prop1(SimConfig(n_trials=20_000, n_steps=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_walks_that_stay_flat_are_a_numeric_error():
    # a step of 1e-16 is lost when added to 100, so every walk is flat
    with pytest.raises(NumericError, match="^could not generate a walk without flat steps$"):
        validate_prop1(SimConfig(n_steps=10, n_trials=1, volatility=1e-16))


# Runs in a fresh interpreter: whether freed trial arrays go back to the
# system, to fault in again in the next trial, depends on the heap layout,
# and the history of the test process decides that layout. A block of pad
# bytes shifts it; each line printed is the faults of 200 trials at one pad.
FAULT_SCRIPT = """
import resource
from tats import SimConfig, validate_prop1

validate_prop1(SimConfig(n_trials=2, n_steps=5000))
for pad in (0, 25_000, 50_000, 75_000, 100_000):
    block = bytearray(pad)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    validate_prop1(SimConfig(n_trials=200, n_steps=5000))
    print(pad, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del block
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults with getrusage")
def test_trials_do_not_fault_pages_back_in():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    per_trial = {int(pad): int(faults) / 200 for pad, faults in map(str.split, done.stdout.splitlines())}
    assert len(per_trial) == 5
    assert max(per_trial.values()) <= 5.0, per_trial


def _run_with(monkeypatch, config, threads, rows=None):
    """validate_prop1(config) on threads threads (as if the process had that many CPUs), with rows
    trials per block (the default if None)."""
    monkeypatch.setattr(montecarlo, "_MAX_THREADS", threads)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
    if rows is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", rows * config.n_steps)
    return validate_prop1(config)


def _every_thread_runs_a_block(monkeypatch, threads=2):
    """Make each thread's first block wait until threads threads have one, so a run on fewer fails."""
    barrier, seen, run_block = threading.Barrier(threads, timeout=30), set(), montecarlo._run_block

    def spy(*args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        return run_block(*args)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    return seen


BLOCK_CONFIGS = {
    # 9 trials of 5,000 steps make blocks of 4, 4 and 1 by default
    "partial-block": SimConfig(n_steps=5000, n_trials=9, seed=12),
    # flat walks redrawn inside a block of 40 rows by default, or of 3 rows
    "regenerating": REGENERATING,
    "regenerating-two-seed-blocks": SimConfig(n_trials=_SEED_BLOCK + 1, n_steps=10, volatility=1e-13, seed=5),
    "drift": SimConfig(n_steps=200, n_trials=10, p_dt=0.6, p_db=0.55, error_scale=1.2, drift=0.3, seed=8),
}


@pytest.mark.parametrize("name", BLOCK_CONFIGS)
def test_blocks_and_threads_do_not_show_in_the_report(monkeypatch, name):
    config = BLOCK_CONFIGS[name]
    expected = _rebuild(config)
    default_rows = min(montecarlo._BLOCK_STEPS // config.n_steps, _SEED_BLOCK, config.n_trials)
    for threads, rows in itertools.product((1, 2), (1, 3, None)):
        two_threads = threads == 2 and config.n_trials > (rows or default_rows)  # a block for each
        with monkeypatch.context() as patch:
            seen = _every_thread_runs_a_block(patch) if two_threads else set()
            rep = _run_with(patch, config, threads, rows)
        assert len(seen) == (2 if two_threads else 0)
        assert rep.trials.tobytes() == expected["trials"].tobytes(), (threads, rows)
        for field, value in expected.items():
            if field != "trials":
                assert getattr(rep, field) == value, (threads, rows, field)
        assert json.dumps(rep.to_dict()) == json.dumps(validate_prop1(config).to_dict())


def test_more_threads_than_cores_lose_no_update(monkeypatch):
    # four workers on a short switch interval hand the lock and the tallies over often
    config = SimConfig(n_steps=100, n_trials=600, seed=3)
    expected = validate_prop1(config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen = _every_thread_runs_a_block(monkeypatch, threads=4)
        rep = _run_with(monkeypatch, config, threads=4, rows=1)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 4
    assert sum(rep.scenario_counts.values()) == rep.n_steps_total == 60_000
    assert rep.trials.tobytes() == expected.trials.tobytes()
    assert json.dumps(rep.to_dict()) == json.dumps(expected.to_dict())


def _first_trial_error(config):
    """(class, message) of the first trial that fails in trial order, rebuilt from the public functions."""
    try:
        for trace, _ in _trial_traces(config):
            trace.adjusted(config.alpha)
            estimate_theory(trace)
    except TatsError as exc:
        return type(exc), str(exc)
    return None


def test_a_failing_run_raises_its_first_failing_trials_error(monkeypatch):
    # trial 0 overflows only in its squared errors, but trial 1 already in its walk, so a
    # block that checks each pass for all its rows at once meets trial 1's error first
    config = SimConfig(n_steps=10, n_trials=6, volatility=3e307, seed=24)
    expected = _first_trial_error(config)
    assert expected == (NumericError, "the summed squared forecast errors overflowed float64; "
                                      "the input values are too large")
    for threads, rows in itertools.product((1, 2), (1, 3, None)):
        with monkeypatch.context() as patch, pytest.raises(NumericError) as raised:
            _run_with(patch, config, threads, rows)
        assert (type(raised.value), str(raised.value)) == expected, (threads, rows)


@pytest.mark.parametrize("late", [0, 1])
def test_the_first_failing_block_wins_whichever_fails_last(monkeypatch, late):
    # blocks 0 and 1 of one row each run on the two threads; block `late` fails only once the
    # other's failure has stopped the run, so the failures are recorded in both orders
    config = SimConfig(n_steps=10, n_trials=6, volatility=3e307, seed=24)
    barrier, stops, run_block, event = threading.Barrier(2, timeout=30), [], montecarlo._run_block, threading.Event

    def spy(*args):
        if args[1] in (0, 1):
            barrier.wait()  # both blocks are taken before either fails
            if args[1] == late:
                assert stops[0].wait(30)
        return run_block(*args)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    # the first Event that validate_prop1 makes is its stop signal, made before any thread
    monkeypatch.setattr(threading, "Event", lambda: stops.append(event()) or stops[-1])
    with pytest.raises(NumericError) as raised:
        _run_with(monkeypatch, config, threads=2, rows=1)
    assert (type(raised.value), str(raised.value)) == _first_trial_error(config)


@pytest.mark.parametrize("drift, volatility", [(1e200, 1.0), (0.0, 3e307)])
def test_worker_threads_keep_numpy_quiet(monkeypatch, drift, volatility):
    # numpy's error state is per thread; a worker that did not set its own would warn, and
    # under filterwarnings=error the warning would be raised in place of the NumericError
    config = SimConfig(n_steps=50, n_trials=8, drift=drift, volatility=volatility, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen = _every_thread_runs_a_block(monkeypatch)
        with pytest.raises(NumericError, match="overflowed float64"):
            _run_with(monkeypatch, config, threads=2, rows=1)
        assert len(seen) == 2
        # a run that does not overflow stays quiet too
        seen.clear()
        _run_with(monkeypatch, SimConfig(n_steps=50, n_trials=8, seed=1), threads=2, rows=1)
        assert len(seen) == 2


def test_threads_are_capped_by_the_blocks_and_the_cpus(monkeypatch):
    started, thread = [], threading.Thread
    monkeypatch.setattr(threading, "Thread", lambda **kw: started.append(kw) or thread(**kw))
    _run_with(monkeypatch, SimConfig(n_steps=10, n_trials=5), threads=2)  # one block of 5 rows
    assert started == []
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    validate_prop1(SimConfig(n_steps=5000, n_trials=9))  # three blocks, one CPU
    assert started == []
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    validate_prop1(SimConfig(n_steps=5000, n_trials=9))  # three blocks, eight CPUs, two threads at most
    assert len(started) == 1
