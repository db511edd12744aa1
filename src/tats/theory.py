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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .engine import ForecastTrace
from .errors import ConfigError, _real, _require_finite

__all__ = [
    "TheoryEstimate",
    "estimate_theory",
    "lower_bound",
    "scenario_probabilities",
]


def scenario_probabilities(p_db: float, p_dt: float) -> tuple[float, float, float, float]:
    """Probabilities of the four direction outcomes (S1, S2, S3, S4).

    S1: forecaster right, classifier right   -> p_db * p_dt
    S2: forecaster right, classifier wrong   -> (1 - p_db) * p_dt
    S3: forecaster wrong, classifier wrong   -> (1 - p_db) * (1 - p_dt)
    S4: forecaster wrong, classifier right   -> p_db * (1 - p_dt)

    Assumes the two error events are independent; the four terms sum to 1.
    """
    a, b = _real("p_db", p_db, 0.0, 1.0), _real("p_dt", p_dt, 0.0, 1.0)
    return (a * b, (1.0 - a) * b, (1.0 - a) * (1.0 - b), a * (1.0 - b))


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

    moves holds y_true - y_prev, which the loss gaps overwrite, actual its signs and counts
    the bincount of the scenarios: the forecaster hits the S1 and S2 steps. Under the caller's
    errstate, a move that overflows to +-inf keeps its sign; the gap sum is checked. Arrays
    with one trace per row give the gap sum per row and the other statistics pooled.
    """
    np.subtract(trace.loss_base, np.square(moves, out=moves), out=moves)
    gap_sum = _require_finite(np.abs(moves, out=moves).sum(axis=-1), "the summed absolute loss gap")
    clf_hits = int(np.count_nonzero(trace.direction == actual))
    return clf_hits, int(counts[1] + counts[2]), gap_sum, int(moves.size)


def _estimate(clf_hits: int, fc_hits: int, gap_sum: float, n_steps: int) -> TheoryEstimate:
    """Plug-in estimate from (possibly pooled) :func:`_trace_stats` statistics."""
    p_db = clf_hits / n_steps
    p_dt = fc_hits / n_steps
    gap = float(gap_sum) / n_steps
    bound = lower_bound(gap, p_db, p_dt)
    return TheoryEstimate(
        p_db=p_db,
        p_dt=p_dt,
        abs_gap=gap,
        expected_loss_change=bound,
        lower_bound=bound,
        prop1_holds=p_db > p_dt,
        n_steps=n_steps,
    )


def estimate_theory(trace: ForecastTrace) -> TheoryEstimate:
    """Estimate p_db, p_dt, and the expected reduction from a trace's base forecasts.

    p_dt is the trend-direction accuracy of the base forecasts y_hat. p_db
    is the classifier's hit rate against the realized strict direction on
    the same steps; a flat actual move counts as a miss for both, mirroring
    the accuracy definition. abs_gap is the mean |l_t - (y_t - y_{t-1})^2|
    over the base losses.
    """
    if not isinstance(trace, ForecastTrace):
        raise ConfigError(f"estimate_theory needs a ForecastTrace, got {type(trace).__name__}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in _trace_stats
        moves = trace.y_true - trace.y_prev
        return _estimate(*_trace_stats(trace, moves, np.sign(moves), np.bincount(trace.scenario, minlength=5)))
