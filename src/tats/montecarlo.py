"""Monte-Carlo check of the expected-reduction guarantee.

Each trial draws a seeded random walk, builds a synthetic forecaster
with a dialed-in directional accuracy p_dt, and lets an oracle
classifier with accuracy p_db gate the adjustment. The forecast error
is proportional to the step size: a directionally correct step forecasts
y_prev + u*delta and a wrong one y_prev - u*delta (error scale u), so
correct-direction steps always beat standing still and wrong ones always
lose to it. Under that construction every S4 step strictly reduces the
adjusted loss and every S2 step strictly increases it (for u in (0, 2)
and alpha much smaller than typical steps), which makes the reduction's
sign track the scenario-probability imbalance sharply.

Walk, forecaster, and classifier randomness come from independent
sub-streams spawned per trial from one root seed, so results are
reproducible and one trial's outcome does not depend on the others;
aggregation uses compensated summation in a fixed trial order. Seed
states come in blocks of trials, exactly as SeedSequence.spawn gives them.
Trials run in blocks, one per row, in the calling process and in one forked
worker, which take the blocks from opposite ends and each refill their own
arrays (see :func:`validate_prop1`); a trial's bytes do not depend on its block
or its process. Each numpy call of a block costs a few microseconds whatever
its length, so blocks are long, and the scenario counts come from compares,
which cost less than np.bincount.

The realized p_db, p_dt, loss gap and bound pool the statistics that
:func:`tats.theory.estimate_theory` takes from each trial's trace, so the
check scores the estimator that ``tats run`` reports.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import warnings
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .classifiers import _directions_into
from .engine import _adjust_into, _evaluate_into, _named_counts, _scenario_counts
from .errors import ConfigError, NumericError, TatsError, _instance, _int_at_least, _real, _require_finite
from .theory import _estimate, _trace_stats

__all__ = [
    "SimConfig",
    "SimulationReport",
    "validate_prop1",
]

WALK_START = 100.0
_MAX_REGEN_ATTEMPTS = 100
_SEED_BLOCK = 256  # trials whose seed states are computed together
# steps per block: each numpy call has a fixed cost whatever its length, so longer blocks pay it
# less per step, up to what test_trials_do_not_fault_pages_back_in allows two workspaces
_BLOCK_STEPS = 40_000
_STREAMS = np.arange(3, dtype=np.uint32)  # a trial's walk, forecaster and oracle streams
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED  # numpy's SeedSequence
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF  # hash constants


@dataclass(frozen=True)
class SimConfig:
    """Scenario for one validation run; defaults are the canonical check."""

    n_steps: int = 2000
    n_trials: int = 200
    drift: float = 0.0
    volatility: float = 1.0
    p_dt: float = 0.52
    p_db: float = 0.75
    error_scale: float = 0.5
    alpha: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_steps", 10), ("n_trials", 1), ("seed", 0)):  # stored as ints
            object.__setattr__(self, name, _int_at_least(name, getattr(self, name), low))
        if self.n_trials >= 2**32:  # a trial's index is one 32-bit word of its seeds; results alone take 96 GiB
            raise ConfigError(f"n_trials={self.n_trials}, n_steps={self.n_steps}: too large to allocate")
        # error_scale lies in (0, 2) for sharp scenario signs (see the module docstring)
        for name, low, high in (("drift", -math.inf, math.inf), ("volatility", 0.0, math.inf), ("p_dt", 0.0, 1.0),
                                ("p_db", 0.0, 1.0), ("error_scale", 0.0, 2.0), ("alpha", 0.0, math.inf)):
            object.__setattr__(self, name, _real(name, getattr(self, name), low, high, "()"))


def _walk_into(walk: np.ndarray, steps: np.ndarray, drift: float, volatility: float) -> np.ndarray:
    """Walks from 100 into walk, one per row, by drift + volatility * the normal draws in steps (made the steps)."""
    steps *= volatility
    steps += drift
    walk[..., 0] = 0.0
    np.cumsum(steps, axis=-1, out=walk[..., 1:])
    walk += WALK_START
    return _require_finite(walk, "the random walk")


def _forecast_into(forecasts, y_prev, moves, p_dt: float, error_scale: float, u) -> np.ndarray:
    """y_prev +- error_scale*moves into forecasts, + where the draw in u is below p_dt; moves must not be flat."""
    # u becomes the factor -1.0 where the direction is wrong (u >= p_dt) and 1.0 elsewhere;
    # multiplying by -1.0 negates exactly, signed zeros and infinities included
    np.greater_equal(u, p_dt, out=u, casting="unsafe")
    u *= -2.0
    u += 1.0
    np.multiply(moves, error_scale, out=forecasts)
    forecasts *= u
    forecasts += y_prev
    return _require_finite(forecasts, "the synthetic forecasts")


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Aggregated outcome of a validation run."""

    config: SimConfig
    trials: np.ndarray  # (n_trials, 2) floats: each trial's (mse_base, mse_tats), in trial order
    mean_reduction: float
    std_error: float
    positive_fraction: float
    realized_p_db: float
    realized_p_dt: float
    mean_abs_gap: float
    theoretical_bound: float
    scenario_counts: dict[str, int]
    n_steps_total: int

    @property
    def bound_satisfied(self) -> bool:
        """Mean reduction at least the plug-in bound, within 3 standard errors."""
        return self.mean_reduction >= self.theoretical_bound - 3.0 * self.std_error

    def to_dict(self) -> dict:
        """Every field but trials, with the config as a dict, then bound_satisfied."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trials"}
        out.update(config=asdict(self.config), scenario_counts=dict(self.scenario_counts))
        return {**out, "bound_satisfied": self.bound_satisfied}


class _Workspace:
    """The per-step arrays of a block of trials, one row per trial, which the engine's kernels read as traces.

    Signs are int8 (all in -1..4), so the integer passes read one byte per step.
    """

    def __init__(self, rows: int, n_steps: int) -> None:
        # draws holds one stream's draws at a time, then the adjusted forecasts' losses; moves holds
        # y_t - y_{t-1} (then the loss gaps), actual their signs, implied those of the implied moves
        self.walk = np.empty((rows, n_steps + 1))
        self.y_prev, self.y_true = self.walk[:, :-1], self.walk[:, 1:]
        self.draws, self.moves, self.y_hat, self.loss_base = (np.empty((rows, n_steps)) for _ in range(4))
        self.actual, self.implied, self.direction, self.indicator, self.scenario = (
            np.empty((rows, n_steps), dtype=np.int8) for _ in range(5))

    def rows(self, lo: int, hi: int) -> _Workspace:
        """A workspace of views of rows lo..hi - 1."""
        view = object.__new__(_Workspace)
        view.__dict__.update((name, array[lo:hi]) for name, array in vars(self).items())
        return view


class _StoredSeed(NamedTuple):
    """A seed state from :func:`_seed_states`, which np.random.default_rng takes as an ISeedSequence."""

    state: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state


def _seed_states(seed: int, trials: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(i, j)).generate_state(4, np.uint64) for i in trials, j in streams.

    That key is SeedSequence(seed).spawn(n)[i].spawn(m)[j]. numpy's algorithm runs on uint32 arrays
    that broadcast, adding an axis of 4 words; scalars stay Python ints masked to 32 bits, which never overflow.
    """
    seed, const, mult = operator.index(seed), _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
        return value ^ value >> 16

    # the seed's 32-bit words, low first, padded with zeros to the pool's 4 as before a spawn key
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 128), 32)]
    pool = [hashmix(word) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in [*words[4:], trials, streams]:
        pool = [mix(value, hashmix(word)) for value in pool]
    const, mult = _INIT_B, _MULT_B
    state = np.stack([hashmix(pool[k % 4]) for k in range(8)], axis=-1)
    # as numpy reads them: pairs of words as little-endian uint64, then in native byte order
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _draw_rows(out: np.ndarray, states: np.ndarray, method: str) -> None:
    """Fill each row of out from the start of the stream of its seed state."""
    for row, state in zip(out, states):
        getattr(np.random.default_rng(_StoredSeed(state)), method)(out=row)


def _walks_into(ws: _Workspace, states: np.ndarray, config: SimConfig) -> list[int]:
    """Draw each row's walk, its moves and their signs from its walk stream; give the rows with a flat move."""
    _draw_rows(ws.draws, states[:, 0], "standard_normal")
    _walk_into(ws.walk, ws.draws, config.drift, config.volatility)
    np.subtract(ws.y_true, ws.y_prev, out=ws.moves)
    np.greater(ws.moves, 0.0, out=ws.actual.view(np.bool_))  # np.sign's values, at a third of its cost
    ws.actual -= np.less(ws.moves, 0.0, out=ws.implied.view(np.bool_)).view(np.int8)
    return [] if ws.actual.all() else np.flatnonzero(~ws.actual.all(axis=-1)).tolist()


def _blocks(config: SimConfig, rows: int, indices):
    """(index, first trial, seed states) of each block of at most rows trials, in the order of indices.

    The blocks are numbered in trial order and cut inside the seed blocks. Each index is drawn just
    before its block would run, and a seed block's states are computed as the first of its blocks is reached.
    """
    per_seed_block, start = -(-_SEED_BLOCK // rows), None
    for index in indices:
        seed_block, offset = divmod(index, per_seed_block)
        if seed_block * _SEED_BLOCK != start:
            start = seed_block * _SEED_BLOCK
            trials = np.arange(start, min(start + _SEED_BLOCK, config.n_trials), dtype=np.uint32)
            states = _seed_states(config.seed, trials[:, None], _STREAMS)
        first = start + offset * rows
        yield index, first, states[first - start : first - start + rows]


def _run_block(config: SimConfig, first: int, states: np.ndarray, ws: _Workspace):
    """Trials first, first + 1, ..., one per row of ws, from their seed states (a redrawn walk's replace them).

    Gives each trial's summed base and adjusted losses and summed gap, then the block's scenario
    counts, classifier hits and forecaster hits as one tally.
    """
    try:
        for row in _walks_into(ws, states, config):  # each row with a flat move
            for attempt in range(1, _MAX_REGEN_ATTEMPTS + 1):
                # spawn(3) number k (from 0) of trial i's SeedSequence gives streams 3k, 3k + 1 and 3k + 2
                states[row] = _seed_states(config.seed, np.array([first + row], np.uint32), _STREAMS + 3 * attempt)
                if not _walks_into(ws.rows(row, row + 1), states[row : row + 1], config):
                    break
            else:
                raise NumericError("could not generate a walk without flat steps")
        _draw_rows(ws.draws, states[:, 1], "random")
        _forecast_into(ws.y_hat, ws.y_prev, ws.moves, config.p_dt, config.error_scale, ws.draws)
        _draw_rows(ws.draws, states[:, 2], "random")
        _directions_into(ws.actual, config.p_db, ws.draws, ws.direction)
        base = _evaluate_into(ws, ws.actual, ws.implied)
        adjusted = _adjust_into(ws, config.alpha, ws.draws, ws.draws)
        counts = _scenario_counts(ws.scenario)
        clf_hits, fc_hits, gaps, _ = _trace_stats(ws, ws.moves, ws.actual, counts)
        return base, adjusted, gaps, np.append(counts, (clf_hits, fc_hits))
    except TatsError:
        if len(states) > 1:  # the block's first failing trial raises its error, as in a block of one
            for row in range(len(states)):
                _run_block(config, first + row, states[row : row + 1], ws.rows(row, row + 1))
        raise


def _shared(n_trials: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeroed (n_trials, 3) floats, (n_blocks, 8) ints and n_blocks bytes, views of one anonymous shared map.

    What a forked child writes into them its parent reads: each trial's (mse_base, mse_tats, gap
    sum), each block's tally and, last, a 1 that says the block is done, and each block's claim.
    """
    import mmap  # here, as validate_prop1's imports, so that import tats loads no more modules

    buffer = mmap.mmap(-1, 8 * (3 * n_trials + 8 * n_blocks) + n_blocks)
    return (np.ndarray((n_trials, 3), np.float64, buffer), np.ndarray((n_blocks, 8), np.int64, buffer, 24 * n_trials),
            np.ndarray(n_blocks, np.uint8, buffer, 8 * (3 * n_trials + 8 * n_blocks)))


def _claim(claims: np.ndarray, indices):
    """The indices up to the first whose claim is set, each claimed as it is drawn.

    The claim is no atomic operation: two processes that draw one index at once both take it.
    """
    for index in indices:
        if claims[index]:
            return
        claims[index] = 1
        yield index


def _run_blocks(config: SimConfig, rows: int, ws: _Workspace, shared, indices) -> None:
    """Run the blocks of indices in their order and record each in shared; the first error raises."""
    results, tallies, _ = shared
    with np.errstate(over="ignore", invalid="ignore"):  # each kernel checks its own results
        for k, first, states in _blocks(config, rows, indices):
            base, adjusted, gaps, tallies[k, :7] = _run_block(config, first, states, ws.rows(0, len(states)))
            results[first : first + len(states)] = np.stack([base / config.n_steps, adjusted / config.n_steps, gaps], 1)
            tallies[k, 7] = 1  # last, so a child killed inside a block leaves it undone


def validate_prop1(config: SimConfig) -> SimulationReport:
    """Run the trials and compare realized reduction to the plug-in bound.

    Each trial's walk, forecaster draws, and classifier draws use independent sub-streams
    spawned from config.seed, seeded for blocks of 256 trials at once. Inside those, trials
    run in blocks of about 40,000 steps, one trial per row: each trial draws into its row from
    its own streams, and every other pass runs once per block. Where os.fork exists, SIGCHLD
    is not ignored and two CPUs and two blocks are available, the calling process claims blocks in
    trial order from the first and a forked child in reverse from the last, each up to the first
    block claimed by the other, so that neither idles while the other is slow; the block where they
    meet may run in both, to the same bytes. Otherwise the calling process runs them all. Each process refills
    its own workspace of 45 bytes per step of a block (1.8 MB), and the results take a shared map
    of 24 bytes per trial and 65 per block. Both are allocated before any trial starts, and a ConfigError
    says when they cannot be. The child leaves by os._exit and is killed and reaped before this
    returns or raises; then the calling process runs every block that the child did not record
    as done. So each trial gives the bytes it gives alone, a failing run raises its first
    failing trial's error, and a child that died costs time, not the answer.
    """
    _instance("config", config, SimConfig)
    import gc  # these three here, so that import tats loads no more modules
    import signal
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_StoredSeed)
    rows = min(max(1, _BLOCK_STEPS // config.n_steps), _SEED_BLOCK, config.n_trials)
    full, rest = divmod(config.n_trials, _SEED_BLOCK)
    n_blocks = full * -(-_SEED_BLOCK // rows) + -(-rest // rows)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # no fork where SIGCHLD is ignored: the system would reap the child, whose pid could then name another process
    forks = hasattr(os, "fork") and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN
    workers = 2 if forks and min(cpus, n_blocks) > 1 else 1
    try:
        workspaces = [_Workspace(rows, config.n_steps) for _ in range(workers)]
        shared = _shared(config.n_trials, n_blocks)
    except (MemoryError, ValueError, OverflowError, OSError):  # ValueError and OverflowError: more bytes than
        # numpy's or mmap's index can count; OSError: more than the system lets mmap map
        raise ConfigError(f"n_trials={config.n_trials}, n_steps={config.n_steps}: too large to allocate") from None
    results, tallies, claims = shared
    pid = None
    try:
        if workers > 1:
            parent = os.getpid()
            with warnings.catch_warnings():
                # Python 3.12+ warns of a fork in a process with other threads, such as OpenBLAS's pool. The
                # child takes no lock that one of them may hold: it calls no BLAS routine, imports nothing and
                # does no I/O, only numpy's ufuncs, reductions and generators on its own workspace
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
                if pid == 0:  # the child enters its try at once, so that even an interrupt ends in os._exit
                    try:
                        gc.disable()  # no collection, so no finalizer of the parent's objects runs here
                        warnings.simplefilter("error")  # a warning stops the child; the parent meets it again below
                        # from the last block down, but none once the calling process has died, even by SIGKILL
                        alive = itertools.takewhile(lambda k: os.getppid() == parent, reversed(range(n_blocks)))
                        _run_blocks(config, rows, workspaces[1], shared, _claim(claims, alive))
                    finally:  # whatever happened: no exception, atexit handler or flush of the parent's buffers
                        os._exit(0)
        try:
            _run_blocks(config, rows, workspaces[0], shared, _claim(claims, range(n_blocks)))
        except TatsError:
            pass  # the failing block runs again below, after every earlier block that the child left undone
        else:
            if pid:
                os.waitpid(pid, 0)
                pid = None
    finally:
        if pid:  # a failure or an interrupt: the child's blocks are not needed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    _run_blocks(config, rows, workspaces[0], shared, (k for k in range(n_blocks) if not tallies[k, 7]))
    *counts, clf_hits, fc_hits, _ = tallies.sum(axis=0).tolist()
    total_steps = config.n_trials * config.n_steps
    trials, gap_sums = results[:, :2].copy(), results[:, 2]  # the trials out of the map, which goes when this returns
    n, reductions = config.n_trials, trials[:, 0] - trials[:, 1]
    try:  # the sums read the arrays one float at a time; a float's ** raises OverflowError
        gap_sum = math.fsum(gap_sums)
        mean_reduction = math.fsum(reductions) / n
        variance = math.fsum((r - mean_reduction) ** 2 for r in map(float, reductions)) / max(n - 1, 1)
        std_error = math.sqrt(variance / n)
    except OverflowError:
        raise NumericError(
            "trial statistics overflowed float64; the drift or volatility is too large"
        ) from None
    estimate = _estimate(clf_hits, fc_hits, gap_sum, total_steps)
    return SimulationReport(
        config=config,
        trials=trials,
        mean_reduction=mean_reduction,
        std_error=std_error,
        positive_fraction=np.count_nonzero(reductions > 0.0) / n,
        realized_p_db=estimate.p_db,
        realized_p_dt=estimate.p_dt,
        mean_abs_gap=estimate.abs_gap,
        theoretical_bound=estimate.lower_bound,
        scenario_counts=_named_counts(counts),
        n_steps_total=total_steps,
    )
