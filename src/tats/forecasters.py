"""One-step-ahead value forecasters with a frozen-parameter walk-forward.

Parameters are fit once on the training split and never touched again;
walking forward only appends realized values to the history each model
conditions on. Forecasting is a pure function of (model, history), so
traces are reproducible and models can be shared across runs. A config
flag allows refitting at every step for callers who want it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, concat
from .errors import ConfigError, DataError, NumericError, _require_finite
from .ingest import ExternalForecasts

__all__ = [
    "ARModel",
    "DriftForecaster",
    "ExternalForecaster",
    "ForecasterKind",
    "NaiveForecaster",
    "SESForecaster",
    "ValueForecasterSpec",
    "fit_ar",
    "fit_forecaster",
    "walk_forward_forecasts",
]

AR_RIDGE_PENALTY = 1e-8


class ForecasterKind(enum.Enum):
    NAIVE = "naive"
    DRIFT = "drift"
    AR = "ar"
    SES = "ses"
    EXTERNAL = "external"


@dataclass(frozen=True)
class ValueForecasterSpec:
    """Declarative forecaster choice; parameters must match the kind.

    order: AR lag count (AR only).
    smoothing: exponential smoothing weight in (0, 1] (SES only).
    source: a preloaded ExternalForecasts table (EXTERNAL only); read a
        time_index,forecast CSV with load_external_forecasts, which
        checks its indices against the series.
    """

    kind: ForecasterKind
    order: int | None = None
    smoothing: float | None = None
    source: ExternalForecasts | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ForecasterKind):
            try:
                object.__setattr__(self, "kind", ForecasterKind(self.kind))
            except ValueError:
                raise ConfigError(f"unknown forecaster kind: {self.kind!r}") from None
        if self.kind is ForecasterKind.AR:
            if self.order is None or self.order < 1:
                raise ConfigError(f"AR forecaster needs order >= 1, got {self.order}")
        elif self.kind is ForecasterKind.SES:
            if self.smoothing is None or not 0.0 < self.smoothing <= 1.0:
                raise ConfigError(f"SES smoothing must lie in (0, 1], got {self.smoothing}")
        elif self.kind is ForecasterKind.EXTERNAL:
            if not isinstance(self.source, ExternalForecasts):
                raise ConfigError(
                    "external forecaster needs an ExternalForecasts table, got "
                    f"{self.source!r}; read a file with load_external_forecasts(path, series)"
                )
        own = {
            ForecasterKind.AR: "order",
            ForecasterKind.SES: "smoothing",
            ForecasterKind.EXTERNAL: "source",
        }.get(self.kind)
        for name in ("order", "smoothing", "source"):
            if name != own and getattr(self, name) is not None:
                raise ConfigError(f"{name} is not a parameter of the {self.kind.value} forecaster")

    @classmethod
    def naive(cls) -> "ValueForecasterSpec":
        return cls(ForecasterKind.NAIVE)

    @classmethod
    def drift(cls) -> "ValueForecasterSpec":
        return cls(ForecasterKind.DRIFT)

    @classmethod
    def ar(cls, order: int = 2) -> "ValueForecasterSpec":
        return cls(ForecasterKind.AR, order=order)

    @classmethod
    def ses(cls, smoothing: float) -> "ValueForecasterSpec":
        return cls(ForecasterKind.SES, smoothing=smoothing)

    @classmethod
    def external(cls, source: ExternalForecasts) -> "ValueForecasterSpec":
        return cls(ForecasterKind.EXTERNAL, source=source)


@dataclass(frozen=True)
class NaiveForecaster:
    """Forecasts the last observed value."""

    required_history: int = 1

    def forecast_one(self, history: np.ndarray) -> float:
        return float(history[-1])


@dataclass(frozen=True)
class DriftForecaster:
    """Forecasts the last value plus the mean training step."""

    mean_step: float
    required_history: int = 1

    def forecast_one(self, history: np.ndarray) -> float:
        # Python float arithmetic: an overflow gives inf, which the loss check reports
        return float(history[-1]) + self.mean_step


@dataclass(frozen=True)
class ARModel:
    """Autoregression y_t = intercept + sum_i coefficients[i-1] * y_{t-i}.

    degenerate is True when the least-squares system was rank deficient
    and a small ridge penalty was used instead.
    """

    intercept: float
    coefficients: np.ndarray
    degenerate: bool = False

    @property
    def order(self) -> int:
        return int(self.coefficients.size)

    @property
    def required_history(self) -> int:
        return self.order

    def forecast_one(self, history: np.ndarray) -> float:
        lags = history[-1 : -self.order - 1 : -1]
        return float(self.intercept + float(np.dot(self.coefficients, lags)))


@dataclass(frozen=True)
class SESForecaster:
    """Exponential smoothing: level = smoothing*y + (1-smoothing)*level.

    The level is recomputed from the given history on every call, which
    keeps forecasting a pure function; smoothing is the only parameter.
    """

    smoothing: float
    required_history: int = 1

    def forecast_one(self, history: np.ndarray) -> float:
        level = float(history[0])
        lam = self.smoothing
        for value in history[1:]:
            level = lam * float(value) + (1.0 - lam) * level
        return level


@dataclass(frozen=True)
class ExternalForecaster:
    """Replays forecasts from a table keyed by series position.

    Relies on histories being full series prefixes, so the next time
    index equals len(history).
    """

    forecasts: ExternalForecasts
    required_history: int = 1

    def forecast_one(self, history: np.ndarray) -> float:
        return self.forecasts.value_at(int(len(history)))


def fit_ar(series: TimeSeries, order: int) -> ARModel:
    """Least-squares autoregression of the given order.

    Minimizes the sum of squared one-step residuals. A rank-deficient
    design (constant series, too few rows) falls back to a ridge solve
    with penalty 1e-8 and is flagged degenerate.
    """
    if order < 1:
        raise ConfigError(f"AR order must be at least 1, got {order}")
    y = series.values
    if y.size < order + 1:
        raise DataError(
            f"series too short for AR({order}): need at least {order + 1} values, got {y.size}"
        )
    targets = y[order:]
    design = np.column_stack(
        [np.ones(targets.size)] + [y[order - k : y.size - k] for k in range(1, order + 1)]
    )
    # huge values overflow inside the solve; the coefficients are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
        degenerate = rank < design.shape[1]
        if degenerate:
            gram = design.T @ design + AR_RIDGE_PENALTY * np.eye(design.shape[1])
            try:
                solution = np.linalg.solve(gram, design.T @ targets)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"AR({order}) fit failed even with ridge fallback: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise NumericError(f"AR({order}) fit produced non-finite coefficients")
    coeffs = solution[1:].copy()
    coeffs.flags.writeable = False
    return ARModel(intercept=float(solution[0]), coefficients=coeffs, degenerate=degenerate)


def fit_forecaster(spec: ValueForecasterSpec, train: TimeSeries):
    """Fit the forecaster described by ``spec`` on the training split."""
    if spec.kind is ForecasterKind.NAIVE:
        return NaiveForecaster()
    if spec.kind is ForecasterKind.DRIFT:
        if len(train) < 2:
            raise DataError("drift forecaster needs at least 2 training values")
        with np.errstate(over="ignore", invalid="ignore"):
            mean_step = _require_finite(np.mean(np.diff(train.values)), "the mean training step")
        return DriftForecaster(mean_step=float(mean_step))
    if spec.kind is ForecasterKind.AR:
        return fit_ar(train, spec.order)
    if spec.kind is ForecasterKind.SES:
        return SESForecaster(smoothing=spec.smoothing)
    if spec.kind is ForecasterKind.EXTERNAL:
        return ExternalForecaster(forecasts=spec.source)
    raise ConfigError(f"unknown forecaster kind: {spec.kind}")


def walk_forward_forecasts(
    spec: ValueForecasterSpec,
    train: TimeSeries,
    test: TimeSeries,
    refit_each_step: bool = False,
) -> np.ndarray:
    """Forecast each test value from all values before it.

    The model is fit on the train split once (or refit on the growing
    history when refit_each_step is set) and then fed true values as
    they are revealed.
    """
    if len(test) < 1:
        raise DataError("test split is empty")
    values = concat(train, test).values
    n_train = len(train)
    if n_train < 1:
        raise DataError("train split is empty")
    fitted = fit_forecaster(spec, train)
    return _walk_forward(spec, fitted, values, n_train, refit_each_step)


def _walk_forward(spec, fitted, values: np.ndarray, start: int, refit_each_step: bool) -> np.ndarray:
    """Forecast values[t] from values[:t] for every t from start on.

    start must be at least ``fitted.required_history``, so no step checks
    its history length: in-sample walks start there or later, and every
    fit needs at least that many training values. ``fitted`` serves every
    step unless refit_each_step is set, in which case each step after the
    first refits ``spec`` on its history.
    """
    out = np.empty(values.size - start, dtype=float)
    for i, t in enumerate(range(start, values.size)):
        if refit_each_step and t > start:
            fitted = fit_forecaster(spec, TimeSeries(values[:t]))
        out[i] = fitted.forecast_one(values[:t])
    return out
