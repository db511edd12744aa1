"""Scalar, one-step forms of the adjustment: the truth-table reference.

The library evaluates whole traces at once (``evaluate_forecasts`` and
``ForecastTrace.adjusted``). These per-step functions state the same
rules for a single step, and the tests check the vectorized path
against them.
"""

import math

import numpy as np

from tats.engine import Scenario, _check_alpha
from tats.errors import DataError


def indicator(y_hat: float, y_prev: float, direction: int) -> int:
    """1 when the forecast's implied move agrees with the predicted direction (+1/-1).

    Agreement is (y_hat - y_prev) * direction >= 0, so a forecast equal
    to the previous value never triggers an adjustment.
    """
    return 1 if (y_hat - y_prev) * direction >= 0.0 else 0


def adjust(y_hat: float, direction: int, y_prev: float, alpha: float) -> float:
    """Direction-gated forecast: keep y_hat or step alpha the predicted way."""
    _check_alpha(alpha)
    if indicator(y_hat, y_prev, direction):
        return y_hat
    return y_prev + direction * alpha


def classify_scenario(y_prev: float, y_true: float, y_hat: float, direction: int) -> Scenario:
    """Tag a step by whether forecast and classifier (+1/-1) called the move right."""
    moves = (y_true - y_prev, y_hat - y_prev)
    for move in moves:
        if not math.isfinite(move):
            raise DataError(f"step delta must be finite, got {move!r}")
    actual, implied = np.sign(moves)
    if actual == 0 or implied == 0:
        return Scenario.UNDEFINED
    if implied == actual:
        return Scenario.S1 if direction == actual else Scenario.S2
    return Scenario.S4 if direction == actual else Scenario.S3
