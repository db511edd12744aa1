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

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
from .errors import ConfigError, DataError, NumericError, _int_at_least, _real, _require_finite
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
# Veltkamp's splitter for 53-bit significands, and the bounds of the range where _fma is exact
_SPLITTER = 2.0**27 + 1.0
_SPLIT_MAX, _PRODUCT_MIN, _TERM_MAX = 2.0**995, 2.0**-968, 2.0**1021


def _split(x):
    """Veltkamp's split: hi + lo == x, each of 26 bits or fewer, for |x| <= _SPLIT_MAX."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


def _two_sum(x, y):
    """Knuth's TwoSum: s + e == x + y exactly, s the rounded sum, where nothing overflows."""
    s = x + y
    t = s - x
    return s, (x - (s - t)) + (y - t)


def _fma(a, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a*b + c rounded once (IEEE 754 fma) for each element; a may be a scalar.

    Dekker's product (Numer. Math. 18, 1971) gives a*b == p + pl, TwoSum gives c + p == s + sl,
    and s + RO(sl + pl), RO rounding to odd, is a*b + c rounded once (Boldo & Melquiond, IEEE
    Trans. Computers 57(4), 2008). That is exact for finite operands with |a|, |b| <= _SPLIT_MAX
    (the split cannot overflow), |c|, |p| <= _TERM_MAX (no sum overflows) and |p| >= _PRODUCT_MIN
    (its error term cannot underflow) or a*b == 0. Other elements go through _fma_exact.
    """
    with np.errstate(all="ignore"):
        p = a * b
        (ah, al), (bh, bl) = _split(a), _split(b)
        s, sl = _two_sum(c, p)
        v, e = _two_sum(sl, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
        # round v to odd: truncate it towards zero, then set its last bit where it was inexact
        inexact, bits = e != 0, v.view(np.int64)
        bits -= inexact & (np.signbit(e) != np.signbit(v))
        bits |= inexact
        z = s + v
        np.add(p, c, out=z, where=z == 0)  # an exact zero takes the sign of IEEE addition
        size = np.abs(p)
        inside = ((size <= _TERM_MAX) & ((size >= _PRODUCT_MIN) | (a == 0) | (b == 0))
                  & (np.abs(a) <= _SPLIT_MAX) & (np.abs(b) <= _SPLIT_MAX) & (np.abs(c) <= _TERM_MAX))
    outside = np.flatnonzero(~inside)
    if outside.size:
        a, b, c = (np.broadcast_to(x, z.shape)[outside].tolist() for x in (a, b, c))
        z[outside] = list(map(_fma_exact, a, b, c))
    return z


def _fma_exact(a: float, b: float, c: float) -> float:
    """a*b + c rounded once by IEEE 754 rules, from exact rationals."""
    from fractions import Fraction  # only operands outside _fma's range come here

    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return a * b + c if not (math.isfinite(a) and math.isfinite(b)) else c  # as inf and NaN are exact
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:  # a zero sum is exact in floats too, where it takes the sign of IEEE addition
        return float(exact) if exact else a * b + c
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


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
            object.__setattr__(self, "order", _int_at_least("AR order", self.order, 1))
        elif self.kind == "ses":
            object.__setattr__(self, "smoothing", _real("SES smoothing", self.smoothing, 0.0, 1.0, "(]"))
        elif self.kind == "external":
            if not (isinstance(self.source, np.ndarray) and self.source.ndim == 1):
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
        _check_start(f"AR({self.order})", self.order, values, start)
        return _ar_path(self.intercept, self.coefficients, values, start)


def _ar_path(intercept, coefficients: np.ndarray, values: np.ndarray, start: int) -> np.ndarray:
    """AR forecasts of values[t] for t from start on, with one model or one (intercept, row of
    coefficients) per step. The sum of coefficient times lag, newest first, is a chain of fused
    multiply-adds from +0.0: OpenBLAS's dot of under 16 terms on an FMA kernel, on any CPU."""
    order = coefficients.shape[-1]
    lags, acc = values[start - order : values.size - 1], np.zeros(values.size - start)
    with np.errstate(all="ignore"):  # an overflow gives inf, which the loss check reports
        for k in range(order):
            acc = _fma(coefficients[..., k], lags[order - 1 - k : lags.size - k], acc)
        return intercept + acc


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
    order = _int_at_least("AR order", order, 1)
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
    path = fitted.forecast_path(values, start)  # a refit walk starts with this model's first step too
    if not refit_each_step or spec.kind not in ("ar", "drift"):
        return path
    models = [fitted] + [fit_forecaster(spec, TimeSeries(values[:t])) for t in range(start + 1, values.size)]
    if spec.kind == "ar":
        return _ar_path(np.array([m.intercept for m in models]), np.stack([m.coefficients for m in models]), values, start)
    with np.errstate(over="ignore"):
        return values[start - 1 : -1] + np.array([m.mean_step for m in models])
