"""One-step-ahead value forecasters with a frozen-parameter walk-forward.

Parameters are fit once on the training split and never touched again;
walking forward only appends realized values to the history each model
conditions on. Every fitted model has one hook, forecast_path(values,
start), which forecasts values[t] from values[:t] for each t from start
to the end in one call; a start below its required_history or past the
end raises a ConfigError. It is a pure function of (model, values), so
traces are reproducible and models can be shared across runs. A config
flag allows refitting at every step for callers who want it; only AR and
drift read the history when fit, so only they are refit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import TimeSeries
from .errors import ConfigError, DataError, NumericError, _require_finite
from .ingest import _table_slice

__all__ = [
    "ARModel",
    "DriftForecaster",
    "ExternalForecaster",
    "NaiveForecaster",
    "SESForecaster",
    "ValueForecasterSpec",
    "fit_ar",
    "fit_forecaster",
]

AR_RIDGE_PENALTY = 1e-8
FORECASTER_KINDS = ("naive", "drift", "ar", "ses", "external")


@dataclass(frozen=True, eq=False)
class ValueForecasterSpec:
    """Declarative forecaster choice; parameters must match the kind.

    kind: one of FORECASTER_KINDS.
    order: AR lag count (ar only).
    smoothing: exponential smoothing weight in (0, 1] (ses only).
    source: forecasts indexed by series position, NaN where absent
        (external only); read a time_index,forecast CSV with
        load_external_forecasts, which checks its indices against the series.

    Specs compare and hash by identity, as an array source has no single
    truth value.
    """

    kind: str
    order: int | None = None
    smoothing: float | None = None
    source: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in FORECASTER_KINDS:
            raise ConfigError(f"unknown forecaster kind: {self.kind!r}")
        if self.kind == "ar":
            if self.order is None or self.order < 1:
                raise ConfigError(f"AR forecaster needs order >= 1, got {self.order}")
        elif self.kind == "ses":
            if self.smoothing is None or not 0.0 < self.smoothing <= 1.0:
                raise ConfigError(f"SES smoothing must lie in (0, 1], got {self.smoothing}")
        elif self.kind == "external":
            if not isinstance(self.source, np.ndarray):
                raise ConfigError(
                    "external forecaster needs a position-indexed forecast array, got "
                    f"{self.source!r}; read a file with load_external_forecasts(path, series)"
                )
        own = {"ar": "order", "ses": "smoothing", "external": "source"}.get(self.kind)
        for name in ("order", "smoothing", "source"):
            if name != own and getattr(self, name) is not None:
                raise ConfigError(f"{name} is not a parameter of the {self.kind} forecaster")

    @property
    def label(self) -> str:
        """The model's name in reports: ar(2), ses(0.4), or the kind."""
        if self.kind == "ar":
            return f"ar({self.order})"
        if self.kind == "ses":
            return f"ses({self.smoothing:g})"
        return self.kind

    @classmethod
    def naive(cls) -> "ValueForecasterSpec":
        return cls("naive")

    @classmethod
    def drift(cls) -> "ValueForecasterSpec":
        return cls("drift")

    @classmethod
    def ar(cls, order: int = 2) -> "ValueForecasterSpec":
        return cls("ar", order=order)

    @classmethod
    def ses(cls, smoothing: float) -> "ValueForecasterSpec":
        return cls("ses", smoothing=smoothing)

    @classmethod
    def external(cls, source: np.ndarray) -> "ValueForecasterSpec":
        return cls("external", source=source)


def _check_start(label: str, required: int, values: np.ndarray, start: int) -> None:
    """The start of every forecast_path: at least required, at most values.size."""
    if not required <= start <= values.size:
        raise ConfigError(f"{label} forecasts need {required} values of history, got start {start} "
                          f"for a series of {values.size} values")


@dataclass(frozen=True)
class NaiveForecaster:
    """Forecasts the last observed value."""

    required_history: int = 1

    def forecast_path(self, values: np.ndarray, start: int) -> np.ndarray:
        _check_start("naive", self.required_history, values, start)
        return values[start - 1 : -1]


@dataclass(frozen=True)
class DriftForecaster:
    """Forecasts the last value plus the mean training step."""

    mean_step: float
    required_history: int = 1

    def forecast_path(self, values: np.ndarray, start: int) -> np.ndarray:
        _check_start("drift", self.required_history, values, start)
        # an overflow gives inf, which the loss check reports
        with np.errstate(over="ignore"):
            return values[start - 1 : -1] + self.mean_step


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

    def forecast_path(self, values: np.ndarray, start: int) -> np.ndarray:
        # one dot per step over a negative-stride view of the lags, newest
        # first, which keeps numpy's non-BLAS loop: a lag-matrix product
        # rounds differently
        order = self.order
        _check_start(f"AR({order})", order, values, start)
        lags = sliding_window_view(values, order)[start - order : values.size - order, ::-1]
        return self.intercept + np.array(list(map(self.coefficients.dot, lags)), dtype=float)


@dataclass(frozen=True)
class SESForecaster:
    """Exponential smoothing: level = smoothing*y + (1-smoothing)*level.

    The level starts at values[0] and is carried forward one value at a
    time; the forecast of values[t] is the level after values[t - 1].
    Smoothing is the only parameter.
    """

    smoothing: float
    required_history: int = 1

    def forecast_path(self, values: np.ndarray, start: int) -> np.ndarray:
        _check_start("SES", self.required_history, values, start)
        lam = self.smoothing
        level = float(values[0])
        path = []
        for t, value in enumerate(values[1:].tolist(), start=1):
            if t >= start:
                path.append(level)
            level = lam * value + (1.0 - lam) * level
        return np.array(path, dtype=float)


@dataclass(frozen=True)
class ExternalForecaster:
    """Replays forecasts from an array indexed by series position.

    values must be a prefix of the series the table was loaded for.
    """

    forecasts: np.ndarray
    required_history: int = 1

    def forecast_path(self, values: np.ndarray, start: int) -> np.ndarray:
        _check_start("external", self.required_history, values, start)
        return _table_slice(self.forecasts, start, values.size, "forecasts")


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
    if spec.kind == "naive":
        return NaiveForecaster()
    if spec.kind == "drift":
        if len(train) < 2:
            raise DataError("drift forecaster needs at least 2 training values")
        with np.errstate(over="ignore", invalid="ignore"):
            mean_step = _require_finite(np.mean(np.diff(train.values)), "the mean training step")
        return DriftForecaster(mean_step=float(mean_step))
    if spec.kind == "ar":
        return fit_ar(train, spec.order)
    if spec.kind == "ses":
        return SESForecaster(smoothing=spec.smoothing)
    if spec.kind == "external":
        return ExternalForecaster(forecasts=spec.source)
    raise ConfigError(f"unknown forecaster kind: {spec.kind}")


def _walk_forward(spec, fitted, values: np.ndarray, start: int, refit_each_step: bool) -> np.ndarray:
    """Forecast values[t] from values[:t] for each t from start on; forecast_path checks start.

    ``fitted`` serves every step unless refit_each_step is set and ``spec``
    is AR or drift, in which case each step after the first refits
    ``spec`` on its history. Naive, SES and external fits build the same
    model from any history.
    """
    if not refit_each_step or spec.kind not in ("ar", "drift"):
        return fitted.forecast_path(values, start)
    out = np.empty(values.size - start, dtype=float)
    for i, t in enumerate(range(start, values.size)):
        if t > start:
            fitted = fit_forecaster(spec, TimeSeries(values[:t]))
        out[i] = fitted.forecast_path(values[: t + 1], t)[0]
    return out
