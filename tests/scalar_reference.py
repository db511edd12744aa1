"""Reference forms of the adjustment, the trial kernels and the theory statistics.

The library evaluates whole traces at once (``evaluate_forecasts`` and
``ForecastTrace.adjusted``). The per-step functions state the same rules
for a single step. ``scenario_tags`` and ``trace_stats`` are the earlier
whole-trace formulas, kept as oracles: a nested selection for the
scenario tags, and for the theory statistics hit counts taken from fresh
signs of the moves with the gap sum beside them. ``synthetic_forecasts``,
``oracle_draws`` and ``scenario_from_signs`` are the earlier Monte-Carlo
trial formulas, which negate or tag through boolean masks. The tests
check the library against all of them.
"""

import math

import numpy as np

from tats.engine import Scenario
from tats.errors import DataError, _real


def indicator(y_hat: float, y_prev: float, direction: int) -> int:
    """1 when the forecast's implied move agrees with the predicted direction (+1/-1).

    Agreement is (y_hat - y_prev) * direction >= 0, so a forecast equal
    to the previous value never triggers an adjustment.
    """
    return 1 if (y_hat - y_prev) * direction >= 0.0 else 0


def adjust(y_hat: float, direction: int, y_prev: float, alpha: float) -> float:
    """Direction-gated forecast: keep y_hat or step alpha the predicted way."""
    _real("alpha", alpha, 0.0, ends="()")
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


def scenario_tags(y_prev, y_true, y_hat, directions) -> np.ndarray:
    """The Scenario value of every step, selected by nested np.where."""
    with np.errstate(over="ignore", invalid="ignore"):
        actual = np.sign(y_true - y_prev).astype(int)
        implied = np.sign(y_hat - y_prev).astype(int)
    return np.where(
        (actual == 0) | (implied == 0),
        int(Scenario.UNDEFINED),
        np.where(
            implied == actual,
            np.where(directions == actual, int(Scenario.S1), int(Scenario.S2)),
            np.where(directions == actual, int(Scenario.S4), int(Scenario.S3)),
        ),
    )


def trace_stats(trace) -> tuple[int, int, float, int]:
    """(classifier hits, forecaster hits, summed gap, steps) of a trace's base forecasts.

    The classifier hits a step when it calls the strict sign of the move,
    the forecaster when its implied move has the move's strict sign, and
    the gap of a step is |loss_base - move**2|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = trace.y_true - trace.y_prev
        gap_sum = float(np.sum(np.abs(trace.loss_base - deltas**2)))
        fc_hits = int(np.count_nonzero(np.sign(trace.y_hat - trace.y_prev) * np.sign(deltas) > 0))
    clf_hits = int(np.count_nonzero(trace.direction == np.sign(deltas)))
    return clf_hits, fc_hits, gap_sum, int(deltas.size)


def synthetic_forecasts(moves, y_prev, u, p_dt: float, error_scale: float) -> np.ndarray:
    """y_prev + error_scale*move, the move negated where its draw u >= p_dt (direction wrong)."""
    forecasts = np.multiply(moves, error_scale)
    np.negative(forecasts, out=forecasts, where=u >= p_dt)
    return forecasts + y_prev


def oracle_draws(truths, u, accuracy: float) -> np.ndarray:
    """The oracle's calls: a flat truth is UP below the draw 0.5, any other truth is negated where u >= accuracy."""
    flat = truths == 0
    out = truths + flat
    return np.negative(out, out=out, where=np.where(flat, u >= 0.5, u >= accuracy))


def scenario_from_signs(implied, direction, actual) -> np.ndarray:
    """1 + 2*fc_wrong + (fc_wrong xor clf_wrong), or 0 where the implied or actual sign is flat."""
    fc_wrong = implied != actual
    tags = 1 + 2 * fc_wrong.astype(int) + (fc_wrong ^ (direction != actual))
    return tags * (implied * actual != 0)

