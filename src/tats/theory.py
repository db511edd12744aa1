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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, _require_finite
from .metrics import td_accuracy

if TYPE_CHECKING:
    from .engine import ForecastTrace

__all__ = [
    "TheoryEstimate",
    "abs_gap_from_trace",
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


def abs_gap_from_trace(trace: "ForecastTrace") -> float:
    """Mean |l_t - (y_t - y_{t-1})^2| over a trace's base losses."""
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = trace.y_true - trace.y_prev
        gap = np.mean(np.abs(trace.loss_base - deltas**2))
    return float(_require_finite(gap, "the mean absolute loss gap"))


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


def estimate_theory(base_trace: "ForecastTrace") -> TheoryEstimate:
    """Estimate p_db, p_dt, and the expected reduction from a base trace.

    p_dt is the trace's own trend-direction accuracy. p_db is the
    classifier's hit rate against the realized strict direction on the
    same steps; a flat actual move counts as a miss for both, mirroring
    the accuracy definition.
    """
    deltas = base_trace.y_true - base_trace.y_prev
    actual_sign = np.sign(deltas).astype(int)
    p_db = float(np.count_nonzero(base_trace.direction == actual_sign) / deltas.size)
    p_dt = td_accuracy(base_trace.y_prev, base_trace.y_true, base_trace.y_hat)
    gap = abs_gap_from_trace(base_trace)
    change = expected_loss_change(gap, p_db, p_dt)
    return TheoryEstimate(
        p_db=p_db,
        p_dt=p_dt,
        abs_gap=gap,
        expected_loss_change=change,
        lower_bound=lower_bound(gap, p_db, p_dt),
        prop1_holds=p_db > p_dt,
        n_steps=int(deltas.size),
    )
