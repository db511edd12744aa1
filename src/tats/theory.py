"""Expected effect of direction-gated adjustment on squared error.

Let p_db be the probability that the direction classifier is right about
the next move and p_dt the probability that the base forecaster's own
implied direction is right. Conditioning a forecast correction on the
classifier changes the expected per-step squared error by

    abs_gap * (p_db * (1 - p_dt) - (1 - p_db) * p_dt)

where abs_gap is the mean absolute gap between the base model's loss and
the loss of standing still, E|l_t - (y_t - y_{t-1})^2|. The bracket
simplifies algebraically to (p_db - p_dt), so the expected change and
its lower bound coincide; both names are kept because callers use them
for different purposes, and equality is asserted by the test suite.
A positive value means the adjustment is expected to reduce error, which
happens exactly when the classifier beats the forecaster directionally.

:func:`estimate_theory` reduces a trace to hit counts and a summed loss
gap, then divides by the step count; :mod:`tats.montecarlo` pools the
same statistics over its trials and feeds them to the same estimate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, _require_finite
from .metrics import _direction_hits

if TYPE_CHECKING:
    from .engine import ForecastTrace

__all__ = [
    "TheoryEstimate",
    "estimate_theory",
    "expected_loss_change",
    "lower_bound",
    "scenario_probabilities",
]


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def scenario_probabilities(p_db: float, p_dt: float) -> tuple[float, float, float, float]:
    """Probabilities of the four direction outcomes (S1, S2, S3, S4).

    S1: forecaster right, classifier right   -> p_db * p_dt
    S2: forecaster right, classifier wrong   -> (1 - p_db) * p_dt
    S3: forecaster wrong, classifier wrong   -> (1 - p_db) * (1 - p_dt)
    S4: forecaster wrong, classifier right   -> p_db * (1 - p_dt)

    Assumes the two error events are independent; the four terms sum to 1.
    """
    a = _check_probability("p_db", p_db)
    b = _check_probability("p_dt", p_dt)
    return (a * b, (1.0 - a) * b, (1.0 - a) * (1.0 - b), a * (1.0 - b))


def expected_loss_change(abs_gap: float, p_db: float, p_dt: float) -> float:
    """Expected per-step squared-error reduction from the adjustment.

    Definitionally abs_gap * (p_db*(1-p_dt) - (1-p_db)*p_dt); computed in
    the algebraically identical form abs_gap * (p_db - p_dt) so that it
    matches :func:`lower_bound` bit for bit.
    """
    return lower_bound(abs_gap, p_db, p_dt)


def lower_bound(abs_gap: float, p_db: float, p_dt: float) -> float:
    """Guaranteed expected reduction: abs_gap * (p_db - p_dt).

    Positive whenever the classifier is directionally more accurate than
    the base forecaster.
    """
    a = _check_probability("p_db", p_db)
    b = _check_probability("p_dt", p_dt)
    if not abs_gap >= 0.0:
        raise ConfigError(f"abs_gap must be non-negative, got {abs_gap}")
    return abs_gap * (a - b)


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


def _trace_stats(trace: "ForecastTrace") -> tuple[int, int, float, int]:
    """(classifier hits, forecaster hits, summed gap, steps) of a trace's base forecasts."""
    # a move that overflows to +-inf keeps its sign; the gap sum is checked
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = trace.y_true - trace.y_prev
        gap_sum = np.sum(np.abs(trace.loss_base - deltas**2))
    gap_sum = float(_require_finite(gap_sum, "the summed absolute loss gap"))
    clf_hits = int(np.count_nonzero(trace.direction == np.sign(deltas)))
    fc_hits = _direction_hits(trace.y_prev, trace.y_true, trace.y_hat)
    return clf_hits, fc_hits, gap_sum, int(deltas.size)


def _estimate(clf_hits: int, fc_hits: int, gap_sum: float, n_steps: int) -> TheoryEstimate:
    """Plug-in estimate from (possibly pooled) :func:`_trace_stats` statistics."""
    p_db = clf_hits / n_steps
    p_dt = fc_hits / n_steps
    gap = gap_sum / n_steps
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


def estimate_theory(trace: "ForecastTrace") -> TheoryEstimate:
    """Estimate p_db, p_dt, and the expected reduction from a trace's base forecasts.

    p_dt is the trend-direction accuracy of the base forecasts y_hat. p_db
    is the classifier's hit rate against the realized strict direction on
    the same steps; a flat actual move counts as a miss for both, mirroring
    the accuracy definition. abs_gap is the mean |l_t - (y_t - y_{t-1})^2|
    over the base losses.
    """
    return _estimate(*_trace_stats(trace))
