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
aggregation uses compensated summation in a fixed trial order.

The realized p_db, p_dt, loss gap and bound pool the statistics that
:func:`tats.theory.estimate_theory` takes from each trial's trace, so the
check scores the estimator that ``tats run`` reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classifiers import OracleTrendPredictor
from .core import TimeSeries
from .engine import _check_alpha, _scenario_counts, evaluate_forecasts
from .errors import ConfigError, NumericError, _require_finite
from .theory import _estimate, _trace_stats

__all__ = [
    "SimConfig",
    "SimulationReport",
    "gen_random_walk",
    "synthetic_forecaster",
    "validate_prop1",
]

WALK_START = 100.0
_MAX_REGEN_ATTEMPTS = 100


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
        if self.n_steps < 10:
            raise ConfigError(f"n_steps must be at least 10, got {self.n_steps}")
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be at least 1, got {self.n_trials}")
        if not (math.isfinite(self.volatility) and self.volatility > 0.0):
            raise ConfigError(f"volatility must be finite and positive, got {self.volatility}")
        if not math.isfinite(self.drift):
            raise ConfigError(f"drift must be finite, got {self.drift}")
        for name in ("p_dt", "p_db"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie strictly inside (0, 1), got {value}")
        if not 0.0 < self.error_scale < 2.0:
            raise ConfigError(
                f"error_scale must lie in (0, 2) for sharp scenario signs, got {self.error_scale}"
            )
        _check_alpha(self.alpha)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def gen_random_walk(
    n: int,
    drift: float,
    volatility: float,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> TimeSeries:
    """Gaussian random walk of length n starting at 100."""
    if n < 2:
        raise ConfigError(f"walk length must be at least 2, got {n}")
    if not (math.isfinite(volatility) and volatility > 0.0):
        raise ConfigError(f"volatility must be finite and positive, got {volatility}")
    if not math.isfinite(drift):
        raise ConfigError(f"drift must be finite, got {drift}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = drift + volatility * rng.standard_normal(n - 1)
        values = WALK_START + np.concatenate([[0.0], np.cumsum(steps)])
    return TimeSeries(_require_finite(values, "the random walk"))


def synthetic_forecaster(
    series: TimeSeries,
    p_dt: float,
    error_scale: float,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> np.ndarray:
    """Forecasts with dialed-in directional accuracy and proportional error.

    For each step t >= 1 with delta = y_t - y_{t-1}, the forecast is
    y_{t-1} + error_scale*delta with probability p_dt (direction right)
    and y_{t-1} - error_scale*delta otherwise (direction wrong). The
    series must have no flat steps; regenerate it if it does.
    """
    if not 0.0 < p_dt < 1.0:
        raise ConfigError(f"p_dt must lie strictly inside (0, 1), got {p_dt}")
    if not error_scale > 0.0:
        raise ConfigError(f"error_scale must be positive, got {error_scale}")
    # steps of huge walks can overflow; that shows in the forecasts checked below
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.diff(series.values)
        if np.any(deltas == 0.0):
            bad = int(np.flatnonzero(deltas == 0.0)[0])
            raise NumericError(
                f"flat step at index {bad + 1}: directional accuracy is undefined there; "
                "regenerate or perturb the series"
            )
        rng = np.random.default_rng(seed)
        correct = rng.random(deltas.size) < p_dt
        signed = np.where(correct, error_scale * deltas, -error_scale * deltas)
        forecasts = series.values[:-1] + signed
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
        return {
            "config": asdict(self.config),
            "mean_reduction": self.mean_reduction,
            "std_error": self.std_error,
            "positive_fraction": self.positive_fraction,
            "realized_p_db": self.realized_p_db,
            "realized_p_dt": self.realized_p_dt,
            "mean_abs_gap": self.mean_abs_gap,
            "theoretical_bound": self.theoretical_bound,
            "bound_satisfied": self.bound_satisfied,
            "scenario_counts": dict(self.scenario_counts),
            "n_steps_total": self.n_steps_total,
        }


def _run_trial(config: SimConfig, child: np.random.SeedSequence):
    """One trial: its two MSEs, the trace's theory statistics, its scenario counts."""
    series = None
    for _ in range(_MAX_REGEN_ATTEMPTS):
        walk_ss, forecaster_ss, classifier_ss = child.spawn(3)
        candidate = gen_random_walk(config.n_steps + 1, config.drift, config.volatility, walk_ss)
        if np.all(np.diff(candidate.values) != 0.0):
            series = candidate
            break
    if series is None:
        raise NumericError("could not generate a walk without flat steps")
    forecasts = synthetic_forecaster(series, config.p_dt, config.error_scale, forecaster_ss)
    truths = np.sign(np.diff(series.values)).astype(int)
    oracle = OracleTrendPredictor(accuracy=config.p_db, seed=classifier_ss)
    directions = oracle.draw_many(truths)
    trace = evaluate_forecasts(series.values, 1, forecasts, directions)
    mse_base = float(np.mean(trace.loss_base))
    mse_tats = float(np.mean(trace.adjusted(config.alpha)[1]))
    return mse_base, mse_tats, _trace_stats(trace), np.bincount(trace.scenario, minlength=5)


def validate_prop1(config: SimConfig) -> SimulationReport:
    """Run the trials and compare realized reduction to the plug-in bound.

    Each trial's walk, forecaster draws, and classifier draws use
    independent sub-streams spawned from config.seed. Trials run one at
    a time, so memory stays at one trial's arrays.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.n_trials)
    mse_base, mse_tats, stats, counts = zip(*(_run_trial(config, child) for child in children))
    clf_hits, fc_hits, gap_sums, steps = zip(*stats)

    trials = np.column_stack([mse_base, mse_tats])
    reductions = [b - t for b, t in zip(mse_base, mse_tats)]
    n = len(reductions)
    try:
        mean_reduction = math.fsum(reductions) / n
        if n > 1:
            variance = math.fsum((r - mean_reduction) ** 2 for r in reductions) / (n - 1)
            std_error = math.sqrt(variance / n)
        else:
            std_error = 0.0
        gap_sum = math.fsum(gap_sums)
    except OverflowError:
        raise NumericError(
            "trial statistics overflowed float64; the drift or volatility is too large"
        ) from None
    total_steps = sum(steps)
    estimate = _estimate(sum(clf_hits), sum(fc_hits), gap_sum, total_steps)
    return SimulationReport(
        config=config,
        trials=trials,
        mean_reduction=mean_reduction,
        std_error=std_error,
        positive_fraction=sum(1 for r in reductions if r > 0.0) / n,
        realized_p_db=estimate.p_db,
        realized_p_dt=estimate.p_dt,
        mean_abs_gap=estimate.abs_gap,
        theoretical_bound=estimate.lower_bound,
        scenario_counts=_scenario_counts(np.sum(counts, axis=0)),
        n_steps_total=total_steps,
    )
