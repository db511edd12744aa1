"""Forecast evaluation metrics: trend-direction accuracy, MSE, MAE, MAPE,
pairwise improvement (Diff, R-Diff), and a trend-aware penalty loss."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, NumericError, _require_finite

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


def _aligned(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    if t.shape != p.shape or t.ndim != 1:
        raise ConfigError(f"actuals and forecasts must be 1-D and aligned, got {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ConfigError("metrics need at least one step")
    return t, p


def td_accuracy(y_prev, y_true, y_pred) -> float:
    """Fraction of steps whose forecast moves the same way as the actual.

    A step counts as correct only when y_pred - y_prev and y_true - y_prev
    have the same strict sign; flat moves on either side count as
    incorrect. The denominator is the total number of steps.
    """
    t, p = _aligned(y_true, y_pred)
    prev = np.asarray(y_prev, dtype=float)
    if prev.shape != t.shape:
        raise ConfigError(f"y_prev must align with actuals, got {prev.shape} vs {t.shape}")
    return float(_direction_hits(prev, t, p) / t.size)


def _direction_hits(y_prev: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray) -> int:
    """Number of steps where the forecast and the actual move the same strict way."""
    # signs, not the product of the moves, which underflows to 0 below about
    # 1e-154; a move that overflows to +-inf keeps its sign
    with np.errstate(over="ignore", invalid="ignore"):
        return int(np.count_nonzero(np.sign(y_pred - y_prev) * np.sign(y_true - y_prev) > 0))


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
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ConfigError(f"gamma must be finite and non-negative, got {gamma}")
    t, p = _aligned(y_true, y_pred)
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(_require_finite(np.sum((t - p) ** 2), "the sum of squared errors"))
    if y_prev is None:
        if t.size < 2:
            return sse
        prev, tt, pp = t[:-1], t[1:], p[1:]
    else:
        prev = np.asarray(y_prev, dtype=float)
        if prev.shape != t.shape:
            raise ConfigError(f"y_prev must align with actuals, got {prev.shape} vs {t.shape}")
        tt, pp = t, p
    with np.errstate(over="ignore", invalid="ignore"):  # as in _direction_hits
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
        if self.n_steps < 1:
            raise ConfigError("a report must cover at least one step")

    def to_dict(self) -> dict:
        out = {
            "tda": self.tda,
            "mse": self.mse,
            "mae": self.mae,
            "mape": self.mape,
            "n_steps": self.n_steps,
        }
        if self.diff is not None:
            out["diff"] = self.diff
            out["r_diff"] = self.r_diff
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
