import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tats import ConfigError, NumericError, SimConfig, TatsError, estimate_theory, lower_bound, validate_prop1
from tats import montecarlo
from tats.classifiers import OracleTrendPredictor
from tats.engine import evaluate_forecasts
from tats.montecarlo import _SEED_BLOCK, _forecast_into, _seed_states, _walk_into, _walks_into, _Workspace
from tats.theory import _estimate

from scalar_reference import gen_random_walk, scenario_tags, synthetic_forecaster, synthetic_forecasts, trace_stats

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


def _walk_by_2d_cumsum(steps, drift, volatility):
    """The walk as _walk_into summed it before, with one cumsum along the last axis."""
    walk = np.empty((*steps.shape[:-1], steps.shape[-1] + 1))
    walk[..., 0] = 0.0
    np.cumsum(steps * volatility + drift, axis=-1, out=walk[..., 1:])
    return walk + montecarlo.WALK_START


@pytest.mark.parametrize("shape", [(1,), (4999,), (1, 5000), (3, 1000), (8, 5000)])
@pytest.mark.parametrize("drift, volatility", [(0.0, 1.0), (0.3, 2.5), (-1e-3, 1e-13)])
def test_the_walk_sums_each_row_as_the_2d_cumsum(shape, drift, volatility):
    steps = np.random.default_rng(seed + 7).standard_normal(shape)
    walk = np.empty((*shape[:-1], shape[-1] + 1))
    expected = _walk_by_2d_cumsum(steps, drift, volatility)
    assert _walk_into(walk, steps.copy(), drift, volatility).tobytes() == expected.tobytes()
    # gen_random_walk is the 1-D form
    steps = np.random.default_rng(seed + 8).standard_normal(shape[-1])
    walk = gen_random_walk(shape[-1] + 1, drift, volatility, seed + 8).values
    assert walk.tobytes() == _walk_by_2d_cumsum(steps, drift, volatility).tobytes()


# walks whose moves are +-0.0, subnormal, +-inf (as overflowing finite values give) or ordinary;
# rows 0 and 3 have a flat move, and a finite walk has no NaN move
SIGN_WALKS = np.array([
    [0.0, -0.0, 0.0, 5e-324, 0.0, -5e-324, 1e308, -1e308, 1e308, 2.0, 2.0, 1.0],
    [1.0, 2.0, 1.5, 5e-324, -5e-324, 1e308, -1e308, 1e308, -3.0, 3.0, -2.0, 2.0],
    [100.0, 101.0, 100.5, 99.0, 99.5, 100.0, 101.0, 100.25, 100.75, 100.5, 101.5, 101.0],
    [-0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -1.0, 0.0],
])


@pytest.mark.parametrize("rows", [[0], [1], [2], [0, 1, 2, 3], [1, 2], [2, 3]])
def test_move_signs_and_flat_rows_are_those_of_np_sign(monkeypatch, rows):
    walks = SIGN_WALKS[rows]
    monkeypatch.setattr(montecarlo, "_draw_rows", lambda out, states, method: None)
    monkeypatch.setattr(montecarlo, "_walk_into", lambda walk, *args: np.copyto(walk, walks))
    ws = _Workspace(len(rows), walks.shape[1] - 1)
    config = SimConfig(n_steps=walks.shape[1] - 1)
    with np.errstate(over="ignore"):
        flat = _walks_into(ws, np.zeros((len(rows), 3, 4), np.uint64), config)
        moves = np.diff(walks, axis=-1)
    assert ws.moves.tobytes() == moves.tobytes()
    # the signs and the flat rows as _walks_into and _run_block took them before
    assert ws.actual.tobytes() == np.sign(moves).astype(np.int8).tobytes()
    assert flat == np.flatnonzero(np.count_nonzero(moves, axis=-1) < config.n_steps).tolist()


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
# bytes shifts it. Each line printed is, at one pad, the faults of a run of
# 200 trials and of one of 400, counted in this process and in its reaped
# children, so that the forked worker's trials count too.
FAULT_SCRIPT = """
import resource
from tats import SimConfig, validate_prop1

def faults():
    return sum(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

validate_prop1(SimConfig(n_trials=2, n_steps=5000))
for pad in (0, 25_000, 50_000, 75_000, 100_000):
    block = bytearray(pad)
    counts = []
    for n_trials in (200, 400):
        before = faults()
        validate_prop1(SimConfig(n_trials=n_trials, n_steps=5000))
        counts.append(faults() - before)
    print(pad, *counts)
    del block
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults with getrusage")
def test_trials_do_not_fault_pages_back_in():
    # a run pays a fixed count (the fork, the copy-on-write pages of both processes and two fresh
    # workspaces: 2,030 to 2,075 on a 2-core host) and then each trial its own (0 to 0.1); the
    # difference of the two run lengths separates them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    counts = {int(pad): (int(short), int(long)) for pad, short, long in map(str.split, done.stdout.splitlines())}
    assert len(counts) == 5
    per_trial = {pad: (long - short) / 200 for pad, (short, long) in counts.items()}
    per_call = {pad: short - 200 * per_trial[pad] for pad, (short, _) in counts.items()}
    assert max(per_trial.values()) <= 5.0, per_trial
    assert max(per_call.values()) <= 2_500, per_call


def _run_with(monkeypatch, config, cpus, rows=None):
    """validate_prop1(config) as if the process had cpus CPUs, with rows trials per block (the default if None)."""
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if rows is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", rows * config.n_steps)
    return validate_prop1(config)


def _record_runners(monkeypatch, log, wait=False):
    """Make each process that runs a block append "pid first-trial" to the file log; gives the reader.

    If wait, this process starts its blocks only once another process has started one.
    """
    run_block, parent, log = montecarlo._run_block, os.getpid(), Path(log)

    def runs():
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()] if log.exists() else []

    def spy(*args):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)  # one write per line: lines never interleave
        try:
            os.write(fd, f"{os.getpid()} {args[1]}\n".encode())
        finally:
            os.close(fd)
        deadline = time.monotonic() + 30
        while wait and os.getpid() == parent and {pid for pid, _ in runs()} == {parent}:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return run_block(*args)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    return runs


def _assert_split(runs, forked=True):
    """Each block ran once: in this process if it is even in trial order or nothing forked, else in one child."""
    firsts = [first for _, first in runs]
    assert len(firsts) == len(set(firsts))
    pids = [pid for pid, _ in sorted(runs, key=lambda run: run[1])]
    assert set(pids[::2]) == {os.getpid()}
    odd = set(pids[1::2])
    if forked and len(pids) > 1:
        assert len(odd) == 1 and os.getpid() not in odd
    else:
        assert odd <= {os.getpid()}


BLOCK_CONFIGS = {
    # 9 trials of 5,000 steps make blocks of 8 and 1 by default
    "partial-block": SimConfig(n_steps=5000, n_trials=9, seed=12),
    # flat walks redrawn inside a block of 40 rows by default, or of 3 rows
    "regenerating": REGENERATING,
    "regenerating-two-seed-blocks": SimConfig(n_trials=_SEED_BLOCK + 1, n_steps=10, volatility=1e-13, seed=5),
    "drift": SimConfig(n_steps=200, n_trials=10, p_dt=0.6, p_db=0.55, error_scale=1.2, drift=0.3, seed=8),
}


@pytest.mark.parametrize("name", BLOCK_CONFIGS)
def test_blocks_and_processes_do_not_show_in_the_report(monkeypatch, tmp_path, name):
    config = BLOCK_CONFIGS[name]
    expected = _rebuild(config)
    for cpus, rows in itertools.product((1, 2), (1, 3, None)):
        with monkeypatch.context() as patch:
            runs = _record_runners(patch, tmp_path / f"runs-{cpus}-{rows}")
            rep = _run_with(patch, config, cpus, rows)
        _assert_split(runs(), forked=cpus == 2)
        assert rep.trials.tobytes() == expected["trials"].tobytes(), (cpus, rows)
        for field, value in expected.items():
            if field != "trials":
                assert getattr(rep, field) == value, (cpus, rows, field)
        assert json.dumps(rep.to_dict()) == json.dumps(validate_prop1(config).to_dict())


def test_the_block_configs_meet_the_default_block_as_their_comments_say():
    def default_rows(config):
        return min(montecarlo._BLOCK_STEPS // config.n_steps, _SEED_BLOCK, config.n_trials)

    assert default_rows(BLOCK_CONFIGS["partial-block"]) == 8
    for name, rows in (("regenerating", 40), ("regenerating-two-seed-blocks", _SEED_BLOCK)):
        config = BLOCK_CONFIGS[name]
        redrawn = [trial for trial, (_, count) in enumerate(_trial_traces(config)) if count]
        assert default_rows(config) == rows
        assert redrawn and min(redrawn) < rows, name  # a walk redrawn inside the first default block


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the process to one CPU")
def test_two_processes_on_one_core_lose_no_update(monkeypatch, tmp_path):
    # both processes take turns on one core, so their writes to the shared record interleave
    config = SimConfig(n_steps=100, n_trials=600, seed=3)
    expected = validate_prop1(config)
    runs = _record_runners(monkeypatch, tmp_path / "runs")
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        rep = _run_with(monkeypatch, config, cpus=2, rows=1)
    finally:
        os.sched_setaffinity(0, allowed)
    _assert_split(runs())
    assert len(runs()) == 600
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


def test_a_trial_that_overflows_twice_raises_its_adjusted_loss_error():
    # the base losses stay finite while the adjusted losses and the loss gaps overflow: a block
    # checks the adjustment before the theory statistics, as trace.adjusted before estimate_theory
    config = SimConfig(n_steps=10, n_trials=5, drift=1.5e154, p_dt=0.999, error_scale=1.0001, p_db=0.5)
    expected = _first_trial_error(config)
    assert expected[1].startswith("the summed squared errors of the adjusted forecasts")
    with pytest.raises(NumericError) as raised:
        validate_prop1(config)
    assert (type(raised.value), str(raised.value)) == expected


def test_a_failing_run_raises_its_first_failing_trials_error(monkeypatch):
    # trial 0 overflows only in its squared errors, but trial 1 already in its walk, so a
    # block that checks each pass for all its rows at once meets trial 1's error first
    config = SimConfig(n_steps=10, n_trials=6, volatility=3e307, seed=24)
    expected = _first_trial_error(config)
    assert expected == (NumericError, "the summed squared forecast errors overflowed float64; "
                                      "the input values are too large")
    for cpus, rows in itertools.product((1, 2), (1, 3, None)):
        with monkeypatch.context() as patch, pytest.raises(NumericError) as raised:
            _run_with(patch, config, cpus, rows)
        assert (type(raised.value), str(raised.value)) == expected, (cpus, rows)


def test_a_trial_that_overflows_twice_raises_its_adjusted_loss_error():
    # the base losses stay finite while the adjusted losses and the loss gaps overflow: a block
    # checks the adjustment before the theory statistics, as trace.adjusted before estimate_theory
    config = SimConfig(n_steps=10, n_trials=5, drift=1.5e154, p_dt=0.999, error_scale=1.0001, p_db=0.5)
    expected = _first_trial_error(config)
    assert expected[1].startswith("the summed squared errors of the adjusted forecasts")
    with pytest.raises(NumericError) as raised:
        validate_prop1(config)
    assert (type(raised.value), str(raised.value)) == expected


FAILING_PAIRS = {
    # blocks of one trial: trials 0 and 1 both fail, and the parent's block 0 wins
    "parent-wins": (SimConfig(n_steps=10, n_trials=6, volatility=3e307, seed=24), (0, 1)),
    # trial 0 passes, trial 1 fails in its adjusted losses and trial 2 in its forecast errors,
    # so the child's block 1 wins over the parent's block 2
    "child-wins": (SimConfig(n_steps=10, n_trials=4, volatility=3e153, seed=25), (1, 2)),
}


@pytest.mark.parametrize("late", ["child", "parent"])
@pytest.mark.parametrize("name", FAILING_PAIRS)
def test_the_first_failing_block_wins_whichever_fails_last(monkeypatch, tmp_path, name, late):
    # of the two failing blocks, the one run by `late` starts only once the other has failed
    config, pair = FAILING_PAIRS[name]
    expected = _first_trial_error(config)
    assert expected[1].startswith("the summed squared forecast errors" if name == "parent-wins"
                                  else "the summed squared errors of the adjusted forecasts")
    failed, run_block, parent = tmp_path / "failed", montecarlo._run_block, os.getpid()
    late_block = next(first for first in pair if (first % 2 == 1) == (late == "child"))

    def spy(config, first, states, ws):
        if first == late_block:
            deadline = time.monotonic() + 30
            while not failed.exists():
                assert time.monotonic() < deadline
                time.sleep(0.001)
        try:
            return run_block(config, first, states, ws)
        except TatsError:
            if first != late_block and not failed.exists():
                failed.write_text("child" if os.getpid() != parent else "parent")
            raise

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    with pytest.raises(NumericError) as raised:
        _run_with(monkeypatch, config, cpus=2, rows=1)
    assert (type(raised.value), str(raised.value)) == expected
    assert failed.read_text() == ("parent" if late == "child" else "child")  # the early block failed first


@pytest.mark.parametrize("drift, volatility", [(1e200, 1.0), (0.0, 3e307)])
def test_the_child_keeps_numpy_quiet(monkeypatch, tmp_path, capfd, drift, volatility):
    # the child writes nothing to the stderr it shares with its parent, under an error filter or
    # not: numpy's errors are ignored in each process, and each kernel checks its own results
    config = SimConfig(n_steps=50, n_trials=8, drift=drift, volatility=volatility, seed=1)
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with monkeypatch.context() as patch:
                runs = _record_runners(patch, tmp_path / f"runs-{action}", wait=True)
                with pytest.raises(NumericError, match="overflowed float64"):
                    _run_with(patch, config, cpus=2, rows=1)
            assert len({pid for pid, _ in runs()}) == 2  # the child ran a block
            # a run that does not overflow stays quiet too
            with monkeypatch.context() as patch:
                runs = _record_runners(patch, tmp_path / f"quiet-{action}")
                _run_with(patch, SimConfig(n_steps=50, n_trials=8, seed=1), cpus=2, rows=1)
            _assert_split(runs())
    assert capfd.readouterr() == ("", "")


def test_the_fork_needs_os_fork_sigchld_two_blocks_and_two_cpus(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(montecarlo.os, "fork", lambda: forks.append(1) or fork())
    _run_with(monkeypatch, SimConfig(n_steps=10, n_trials=5), cpus=2)  # one block of 5 rows
    assert forks == []
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    validate_prop1(SimConfig(n_steps=5000, n_trials=9))  # two blocks, one CPU
    assert forks == []
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    expected = validate_prop1(SimConfig(n_steps=5000, n_trials=9))  # two blocks, eight CPUs, one child at most
    assert forks == [1]
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # the system would reap a child itself
    try:
        ignored = validate_prop1(SimConfig(n_steps=5000, n_trials=9))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    monkeypatch.delattr(montecarlo.os, "fork")  # as on Windows
    rep = validate_prop1(SimConfig(n_steps=5000, n_trials=9))
    assert forks == [1]
    for run in (ignored, rep):
        assert run.trials.tobytes() == expected.trials.tobytes()
        assert json.dumps(run.to_dict()) == json.dumps(expected.to_dict())


@pytest.mark.parametrize("block", [1, 3])
def test_a_killed_child_costs_time_not_the_answer(monkeypatch, block):
    # the child kills itself as it starts its first block, or its second; the calling process
    # runs every block it did not record as done
    config = SimConfig(n_steps=200, n_trials=12, seed=17)
    expected = validate_prop1(config)
    run_block, parent = montecarlo._run_block, os.getpid()

    def spy(config, first, states, ws):
        if os.getpid() != parent and first == block:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_block(config, first, states, ws)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    rep = _run_with(monkeypatch, config, cpus=2, rows=1)
    assert rep.trials.tobytes() == expected.trials.tobytes()
    assert json.dumps(rep.to_dict()) == json.dumps(expected.to_dict())


def test_the_child_runs_no_block_once_the_calling_process_has_died(monkeypatch, tmp_path):
    # as if the calling process were killed as the child starts: the child's parent is then another process
    config = SimConfig(n_steps=200, n_trials=12, seed=17)
    expected = validate_prop1(config)
    runs, forks, fork = _record_runners(monkeypatch, tmp_path / "runs"), [], os.fork
    monkeypatch.setattr(montecarlo.os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(montecarlo.os, "getppid", lambda: -1)
    rep = _run_with(monkeypatch, config, cpus=2, rows=1)
    assert forks == [1]
    assert sorted(runs()) == [(os.getpid(), first) for first in range(12)]
    assert rep.trials.tobytes() == expected.trials.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="checks for forked children")
@pytest.mark.parametrize("ending", ["returns", "raises", "interrupted"])
def test_no_child_outlives_the_run(monkeypatch, ending):
    # where the run fails or is interrupted, the child's blocks hang, so only a kill ends it in time
    config = SimConfig(n_steps=200, n_trials=12, seed=17, **({"volatility": 3e307} if ending == "raises" else {}))
    run_block, parent = montecarlo._run_block, os.getpid()

    def spy(config, first, states, ws):
        if ending == "interrupted" and os.getpid() == parent and first == 2:
            raise KeyboardInterrupt  # as a Ctrl-C while the child runs its blocks
        if ending != "returns" and os.getpid() != parent:
            time.sleep(60)
        return run_block(config, first, states, ws)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    raised = {"returns": None, "raises": NumericError, "interrupted": KeyboardInterrupt}[ending]
    started = time.monotonic()
    if raised is None:
        _run_with(monkeypatch, config, cpus=2, rows=1)
    else:
        with pytest.raises(raised):
            _run_with(monkeypatch, config, cpus=2, rows=1)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [OSError(12, "Cannot allocate memory"), OverflowError("too large"), MemoryError()],
                         ids=["os-error", "overflow", "memory-error"])
def test_a_shared_map_that_cannot_be_allocated_is_a_config_error(monkeypatch, error):
    import mmap

    def refuse(*args):
        raise error

    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(ConfigError, match="^n_trials=9, n_steps=5000: too large to allocate$"):
        validate_prop1(SimConfig(n_steps=5000, n_trials=9))


def test_a_warning_in_the_child_hands_its_blocks_to_the_calling_process(monkeypatch, capfd):
    # the child's warnings are errors, so it stops without writing, and the calling process
    # runs the blocks it left under the caller's own filters
    config = SimConfig(n_steps=200, n_trials=12, seed=17)
    expected, run_block, parent = validate_prop1(config), montecarlo._run_block, os.getpid()

    def spy(*args):
        if os.getpid() != parent:
            warnings.warn("a warning in the child", RuntimeWarning)
        return run_block(*args)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    with warnings.catch_warnings():  # restores showwarning, which pytest's own capture would not call
        warnings.simplefilter("default")
        warnings.showwarning = lambda *args, **kwargs: os.write(2, b"a warning was shown\n")
        rep = _run_with(monkeypatch, config, cpus=2, rows=1)
    assert rep.trials.tobytes() == expected.trials.tobytes()
    assert capfd.readouterr() == ("", "")
