"""Expected effect of direction-gated adjustment on squared error.

Let p_db be the probability that the direction classifier is right about
the next move and p_dt the probability that the base forecaster's own
implied direction is right. Conditioning a forecast correction on the
classifier changes the expected per-step squared error by

    abs_gap * (p_db * (1 - p_dt) - (1 - p_db) * p_dt)

where abs_gap is the mean absolute gap between the base model's loss and
the loss of standing still, E|l_t - (y_t - y_{t-1})^2|. The bracket
simplifies algebraically to (p_db - p_dt); :func:`lower_bound` computes
that form, and :class:`TheoryEstimate` reports it both as the expected
change and as the bound.
A positive value means the adjustment is expected to reduce error, which
happens exactly when the classifier beats the forecaster directionally.

:func:`estimate_theory` reduces a trace to hit counts and a summed loss
gap, then divides by the step count; :mod:`tats.montecarlo` pools the
same statistics over its trials and feeds them to the same estimate.
:func:`run_experiment` scores one run on its test split, with the
estimate taken on the theory split, and returns the :class:`RunReport`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .engine import ForecastTrace, TatsConfig, _SplitDataError, _check_alphas, _scenario_counts, prepare_run, sweep_alpha
from .errors import ConfigError, DataError, _instance, _real, _require_finite
from .ingest import Dataset
from .metrics import EvalReport

__all__ = [
    "RunReport",
    "TheoryEstimate",
    "estimate_theory",
    "lower_bound",
    "run_experiment",
]


def lower_bound(abs_gap: float, p_db: float, p_dt: float) -> float:
    """Guaranteed expected reduction: abs_gap * (p_db - p_dt).

    Positive whenever the classifier is directionally more accurate than
    the base forecaster.
    """
    a, b = _real("p_db", p_db, 0.0, 1.0), _real("p_dt", p_dt, 0.0, 1.0)
    return _real("abs_gap", abs_gap, 0.0) * (a - b)


@dataclass(frozen=True)
class TheoryEstimate:
    """Plug-in estimate of the adjustment's expected effect on one split."""

    p_db: float
    p_dt: float
    abs_gap: float
    expected_loss_change: float
    lower_bound: float
    prop1_holds: bool
    n_steps: int

    def to_dict(self) -> dict:
        return asdict(self)


def _trace_stats(trace: ForecastTrace, moves, actual, counts):
    """(classifier hits, forecaster hits, summed gap, steps) of a trace's base forecasts.

    moves holds y_true - y_prev, which the loss gaps overwrite, actual its signs and counts the
    :func:`_scenario_counts` of the scenarios: the forecaster hits the S1 and S2 steps. Under the
    caller's errstate, a move that overflows to +-inf keeps its sign; the gap sum is checked. Arrays
    with one trace per row give the gap sum per row and the other statistics pooled.
    """
    np.subtract(trace.loss_base, np.square(moves, out=moves), out=moves)
    gap_sum = _require_finite(np.abs(moves, out=moves).sum(axis=-1), "the summed absolute loss gap")
    clf_hits = int(np.count_nonzero(trace.direction == actual))
    return clf_hits, int(counts[1] + counts[2]), gap_sum, int(moves.size)


def _estimate(clf_hits: int, fc_hits: int, gap_sum: float, n_steps: int) -> TheoryEstimate:
    """Plug-in estimate from (possibly pooled) :func:`_trace_stats` statistics."""
    p_db, p_dt, gap = clf_hits / n_steps, fc_hits / n_steps, float(gap_sum) / n_steps
    bound = lower_bound(gap, p_db, p_dt)
    return TheoryEstimate(p_db=p_db, p_dt=p_dt, abs_gap=gap, expected_loss_change=bound, lower_bound=bound,
                          prop1_holds=p_db > p_dt, n_steps=n_steps)


def estimate_theory(trace: ForecastTrace) -> TheoryEstimate:
    """Estimate p_db, p_dt, and the expected reduction from a trace's base forecasts.

    p_dt is the trend-direction accuracy of the base forecasts y_hat. p_db
    is the classifier's hit rate against the realized strict direction on
    the same steps; a flat actual move counts as a miss for both, mirroring
    the accuracy definition. abs_gap is the mean |l_t - (y_t - y_{t-1})^2|
    over the base losses.
    """
    _instance("trace", trace, ForecastTrace)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _trace_stats
        moves = trace.y_true - trace.y_prev
        return _estimate(*_trace_stats(trace, moves, np.sign(moves), _scenario_counts(trace.scenario)))


@dataclass(frozen=True, eq=False)
class RunReport:
    """One run: the test split's trace, its base report and one adjusted report per alpha, and
    the estimate on theory_split. to_dict() is report.json less the command line's own settings."""

    config: TatsConfig
    alphas: tuple[float, ...]
    theory_split: str
    n_train: int
    trace: ForecastTrace
    base: EvalReport
    adjusted: tuple[EvalReport, ...]
    theory: TheoryEstimate

    def to_dict(self) -> dict:
        config, scenarios = self.config, self.trace.scenario_counts()
        return {
            "config": {
                "train_fraction": config.train_fraction,
                "forecaster": config.value_forecaster.label,
                "classifier": config.trend_predictor.label,
                "alphas": list(self.alphas),
                "n_lags": config.n_lags,
                "exog_lag": config.exog_lag,
                "theory_split": self.theory_split,
                "refit_each_step": config.refit_each_step,
            },
            "n_train": self.n_train,
            "n_test": len(self.trace),
            "eval_split": "test",
            "base": self.base.to_dict(),
            "tats": [{"alpha": a, "report": r.to_dict(), "scenarios": scenarios}
                     for a, r in zip(self.alphas, self.adjusted)],
            "theory": self.theory.to_dict(),
        }


def run_experiment(config: TatsConfig, dataset: Dataset, alphas, theory_split: str = "train") -> RunReport:
    """Fit once, sweep the alphas on the test split, and estimate the theory on theory_split.

    theory_split is "train" or "test". A data error in the train split's walk, which only the
    estimate reads, says that the test split avoids it.
    """
    if not (isinstance(theory_split, str) and theory_split in ("train", "test")):
        raise ConfigError(f"theory_split must be 'train' or 'test', got {theory_split!r}")
    alphas = _check_alphas(alphas)
    try:
        prepared = prepare_run(config, dataset, ("test",) if theory_split == "test" else ("test", "train"))
    except _SplitDataError as exc:
        if exc.split != "train":
            raise
        raise DataError(f"{exc}; the theory estimate reads the train split, and --theory-split test avoids it") from None
    trace = prepared[0]  # the last trace is theory_split's
    return RunReport(config, tuple(alphas), theory_split, len(dataset.target) - len(trace), trace,
                     *sweep_alpha(trace, alphas), estimate_theory(prepared[-1]))
