"""Forecast evaluation metrics: trend-direction accuracy, MSE, MAE, MAPE,
pairwise improvement (Diff, R-Diff), and a trend-aware penalty loss."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, NumericError, _int_at_least, _real, _require_finite, _vector

if TYPE_CHECKING:
    from .engine import ForecastTrace

__all__ = [
    "EvalReport",
    "diff_rdiff",
    "mae",
    "mape",
    "mse",
    "td_accuracy",
    "trend_aware_loss",
]


def _aligned(*arrays) -> list[np.ndarray]:
    """Actuals, forecasts and any previous values as 1-D float arrays of one shape, not empty."""
    arrays = [_vector(name, a) for name, a in zip(("actuals", "forecasts", "y_prev"), arrays)]
    if len({a.shape for a in arrays}) > 1:
        raise ConfigError(f"actuals, forecasts and any y_prev must be aligned, got shapes {[a.shape for a in arrays]}")
    if arrays[0].size == 0:
        raise ConfigError("metrics need at least one step")
    return arrays


def td_accuracy(y_prev, y_true, y_pred) -> float:
    """Fraction of steps whose forecast moves the same way as the actual.

    A step counts as correct only when y_pred - y_prev and y_true - y_prev
    have the same strict sign; flat moves on either side count as
    incorrect. The denominator is the total number of steps.
    """
    t, p, prev = _aligned(y_true, y_pred, y_prev)
    # signs, not the product of the moves, which underflows to 0 below about
    # 1e-154; a move that overflows to +-inf keeps its sign
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.count_nonzero(np.sign(p - prev) * np.sign(t - prev) > 0) / t.size)


def mse(y_true, y_pred) -> float:
    """Mean squared error."""
    t, p = _aligned(y_true, y_pred)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_require_finite(np.mean((t - p) ** 2), "MSE"))


def mae(y_true, y_pred) -> float:
    """Mean absolute error."""
    t, p = _aligned(y_true, y_pred)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_require_finite(np.mean(np.abs(t - p)), "MAE"))


def mape(y_true, y_pred) -> float:
    """Mean absolute percentage error, in percent.

    Undefined when any actual is zero; that raises instead of returning inf.
    """
    t, p = _aligned(y_true, y_pred)
    if np.any(t == 0.0):
        bad = int(np.flatnonzero(t == 0.0)[0])
        raise DataError(f"MAPE undefined: actual value at step {bad} is zero")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_require_finite(100.0 * np.mean(np.abs((t - p) / t)), "MAPE"))


def trend_aware_loss(y_true, y_pred, gamma: float, y_prev=None) -> float:
    """Sum of squared errors plus gamma (finite, >= 0) per wrong-direction step.

    A step is penalized when y_pred - y_prev and y_true - y_prev have
    opposite strict signs.
    When ``y_prev`` is omitted it is taken from the actuals themselves,
    in which case the first step has no previous value and is exempt
    from the penalty (but still contributes its squared error).
    """
    gamma = _real("gamma", gamma, 0.0)
    t, p, *given = _aligned(y_true, y_pred, *([] if y_prev is None else [y_prev]))
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(_require_finite(np.sum((t - p) ** 2), "the sum of squared errors"))
    prev, tt, pp = (given[0], t, p) if given else (t[:-1], t[1:], p[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # as in td_accuracy
        wrong = int(np.count_nonzero(np.sign(pp - prev) * np.sign(tt - prev) < 0))
    return sse + gamma * wrong


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle for one forecast trace.

    diff and r_diff compare against a baseline report. r_diff needs
    diff; diff comes alone when the baseline MSE is zero, where r_diff
    is undefined.
    """

    tda: float
    mse: float
    mae: float
    mape: float | None
    n_steps: int
    diff: float | None = None
    r_diff: float | None = None

    def __post_init__(self) -> None:
        if self.diff is None and self.r_diff is not None:
            raise ConfigError("r_diff needs diff")
        object.__setattr__(self, "n_steps", _int_at_least("a report's n_steps", self.n_steps, 1))

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.diff is None:  # no baseline
            del out["diff"], out["r_diff"]
        return out


def diff_rdiff(base: EvalReport, candidate: EvalReport) -> tuple[float, float]:
    """Absolute and relative MSE improvement of candidate over base.

    Diff = base.mse - candidate.mse; R-Diff = Diff / base.mse.
    Positive values mean the candidate is better.
    """
    if base.n_steps != candidate.n_steps:
        raise DataError(
            f"reports cover different step counts: {base.n_steps} vs {candidate.n_steps}"
        )
    if base.mse == 0.0:
        raise NumericError("relative improvement undefined: base MSE is zero")
    d = base.mse - candidate.mse
    r = d / base.mse
    if not np.isfinite(r):
        raise NumericError(f"relative improvement overflowed float64: base MSE {base.mse!r} is too small")
    return d, r


def _report(trace: "ForecastTrace", forecasts: np.ndarray) -> EvalReport:
    """Metrics of forecasts for the steps of a trace; MAPE is None on a zero actual."""
    return EvalReport(
        tda=td_accuracy(trace.y_prev, trace.y_true, forecasts),
        mse=mse(trace.y_true, forecasts),
        mae=mae(trace.y_true, forecasts),
        mape=None if np.any(trace.y_true == 0.0) else mape(trace.y_true, forecasts),
        n_steps=len(trace),
    )
