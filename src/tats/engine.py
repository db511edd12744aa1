"""Direction-gated forecast adjustment.

Each step t has a base forecast y_hat and a predicted direction c for
the move from the previous value y_prev. The indicator checks whether
the forecast already moves the predicted way:

    indicator = 1  if (y_hat - y_prev) * c >= 0  else 0

(a forecast exactly at y_prev counts as agreeing with either direction).
When they agree the forecast is kept; when they disagree the forecast is
replaced by a minimal step of size alpha in the predicted direction:

    y_adj = indicator * y_hat + (1 - indicator) * (y_prev + c * alpha)

alpha is in absolute value units and must be finite and positive; it
enters only :meth:`ForecastTrace.adjusted`. Each evaluated step is also
tagged with the direction outcome scenario:

    S1 forecast right, classifier right    S2 forecast right, classifier wrong
    S3 forecast wrong, classifier wrong    S4 forecast wrong, classifier right

measured against the realized direction; steps where either move is flat
are tagged UNDEFINED and excluded from scenario-conditional statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import OracleTrendPredictor, TrendPredictorSpec, fit_classifier
from .core import chronological_split
from .errors import ConfigError, DataError, NumericError, _int_at_least, _real, _require_finite, _vector
from .forecasters import ValueForecasterSpec, _walk_forward, fit_forecaster
from .ingest import Dataset, _table_slice, build_feature_table
from .metrics import EvalReport, _report, diff_rdiff

__all__ = [
    "ForecastTrace",
    "Scenario",
    "SweepEntry",
    "SweepResult",
    "TatsConfig",
    "evaluate_forecasts",
    "prepare_run",
    "sweep_alpha",
]


class Scenario(enum.IntEnum):
    UNDEFINED = 0
    S1 = 1
    S2 = 2
    S3 = 3
    S4 = 4

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"no scenario has the value {value!r}")


def _check_alphas(alphas) -> list[float]:
    """An alpha grid as floats: non-empty, every alpha finite and positive."""
    if not np.iterable(alphas):
        raise ConfigError(f"alphas must be a sequence of numbers, got {type(alphas).__name__}")
    alphas = [_real("alpha", a, 0.0, ends="()") for a in alphas]
    if not alphas:
        raise ConfigError("alpha sweep needs at least one alpha")
    return alphas


@dataclass(frozen=True, eq=False)
class ForecastTrace:
    """Aligned per-step arrays for one evaluated forecast sequence.

    Nothing here depends on alpha: each step carries the base forecast
    y_hat with its loss_base, the predicted direction, the indicator and
    the scenario tag. :meth:`adjusted` gives the adjusted forecasts and
    their losses at one alpha.
    """

    t: np.ndarray
    y_prev: np.ndarray
    y_true: np.ndarray
    y_hat: np.ndarray
    direction: np.ndarray
    indicator: np.ndarray
    loss_base: np.ndarray
    scenario: np.ndarray

    def __post_init__(self) -> None:
        for name in ("t", "y_prev", "y_true", "y_hat", "direction", "indicator", "loss_base", "scenario"):
            if not (isinstance(value := getattr(self, name), np.ndarray) and value.shape == (self.t.size,)):
                raise ConfigError(f"trace field {name} must be a 1-D array that aligns with t")
        n = self.t.size
        if n == 0:
            raise ConfigError("a trace must contain at least one step")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ConfigError("trace time indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.t.size)

    def adjusted(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(y_adj, loss_adj) at alpha: the module docstring's y_adj per step, and its squared errors."""
        alpha = _real("alpha", alpha, 0.0, ends="()")
        y_adj, loss_adj = np.empty(len(self)), np.empty(len(self))
        with np.errstate(over="ignore", invalid="ignore"):  # the kernel checks the summed loss
            _adjust_into(self, alpha, y_adj, loss_adj)
        return y_adj, loss_adj

    def scenario_counts(self) -> dict[str, int]:
        """Steps per scenario, keyed S1..S4 then undefined."""
        return _scenario_counts(np.bincount(self.scenario, minlength=5))


def _scenario_counts(counts: np.ndarray) -> dict[str, int]:
    """Keyed counts from a bincount indexed by Scenario value."""
    named = {s.name: int(counts[s]) for s in (Scenario.S1, Scenario.S2, Scenario.S3, Scenario.S4)}
    return {**named, "undefined": int(counts[Scenario.UNDEFINED])}


def _adjust_into(trace: ForecastTrace, alpha: float, y_adj: np.ndarray, loss_adj: np.ndarray):
    """:meth:`ForecastTrace.adjusted` at a checked alpha, under the caller's errstate; gives sum(loss_adj).

    Per row, like :func:`_evaluate_into`; y_adj and loss_adj may be one array.
    """
    np.multiply(trace.direction, alpha, out=y_adj)
    y_adj += trace.y_prev
    np.putmask(y_adj, trace.indicator == 1, trace.y_hat)
    np.square(np.subtract(y_adj, trace.y_true, out=loss_adj), out=loss_adj)
    loss_sum = loss_adj.sum(axis=-1)
    if not np.isfinite(loss_sum).all():
        raise NumericError(
            f"the summed squared errors of the adjusted forecasts at alpha={alpha!r} "
            "overflowed float64; alpha or the moves of the series are too large"
        )
    return loss_sum


@dataclass(frozen=True)
class TatsConfig:
    """Everything the fit of one run needs besides the data itself.

    The adjustment runs on the fitted outputs, so one fit serves every
    alpha (see :func:`prepare_run`).
    """

    value_forecaster: ValueForecasterSpec
    trend_predictor: TrendPredictorSpec
    n_lags: int = 2
    refit_each_step: bool = False
    exog_lag: int = 0
    train_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not (isinstance(self.value_forecaster, ValueForecasterSpec)
                and isinstance(self.trend_predictor, TrendPredictorSpec)):
            raise ConfigError("a config needs a ValueForecasterSpec and a TrendPredictorSpec")
        if not isinstance(self.refit_each_step, (bool, np.bool_)):
            raise ConfigError(f"refit_each_step must be a bool, got {self.refit_each_step!r}")
        object.__setattr__(self, "refit_each_step", bool(self.refit_each_step))
        object.__setattr__(self, "n_lags", _int_at_least("n_lags", self.n_lags, 1))
        object.__setattr__(self, "exog_lag", _int_at_least("exog_lag", self.exog_lag, 0))
        object.__setattr__(self, "train_fraction", _real("train_fraction", self.train_fraction, 0.0, 1.0, "()"))


def evaluate_forecasts(
    values: np.ndarray,
    start: int,
    forecasts: np.ndarray,
    directions: np.ndarray,
) -> ForecastTrace:
    """The trace of precomputed forecasts and directions, ready for any alpha.

    values is the full series; forecasts[i] and directions[i] describe
    step start + i. The trace's y_prev and y_true are views of values;
    its indicator and scenario follow the rules in the module docstring.
    """
    values, forecasts = _vector("values", values), _vector("forecasts", forecasts)
    directions, start = _vector("directions", directions), _int_at_least("start", start, 1)
    m = forecasts.size  # the trace refuses m == 0
    if directions.size != m:
        raise ConfigError(f"{m} forecasts but {directions.size} directions")
    # checked before the cast, which would truncate 1.7 to 1 and warn on NaN
    if not np.all(np.abs(directions) == 1):
        raise DataError("directions must be +1 or -1")
    directions = directions.astype(int, copy=False)
    if start + m > values.size:
        raise ConfigError(
            f"evaluation range [{start}, {start + m}) outside series of length {values.size}"
        )
    trace = ForecastTrace(
        t=np.arange(start, start + m), y_prev=values[start - 1 : start - 1 + m],
        y_true=values[start : start + m], y_hat=forecasts, direction=directions,
        indicator=np.empty(m, dtype=int), loss_base=np.empty(m), scenario=np.empty(m, dtype=int),
    )
    # a move that overflows to +-inf keeps its sign; a NaN one fails the loss check
    with np.errstate(over="ignore", invalid="ignore"):
        actual = np.sign(trace.y_true - trace.y_prev).astype(int)
        _evaluate_into(trace, actual, np.empty(m, dtype=int))
    return trace


def _evaluate_into(trace: ForecastTrace, actual: np.ndarray, implied: np.ndarray):
    """Fill the indicator, loss_base and scenario of a trace; give sum(loss_base).

    The arrays may hold one trace per row, as a Monte-Carlo block does; the sum is then per row.
    actual holds the int signs of y_true - y_prev; implied receives those of y_hat - y_prev.
    Under the caller's errstate, a difference that overflows to +-inf keeps its sign; the losses are checked.
    """
    loss = trace.loss_base
    np.subtract(trace.y_hat, trace.y_prev, out=loss)  # the implied moves, until the losses
    np.sign(loss, out=implied, casting="unsafe")
    np.square(np.subtract(trace.y_hat, trace.y_true, out=loss), out=loss)
    loss_sum = _require_finite(loss.sum(axis=-1), "the summed squared forecast errors")
    # (y_hat - y_prev) * c >= 0 holds exactly when sign(y_hat - y_prev) * c >= 0
    np.greater_equal(np.multiply(implied, trace.direction, out=trace.indicator), 0, out=trace.indicator)
    # with f = implied*actual and c = direction*actual, S1..S4 are (5 - f*(c + 2)) >> 1 for
    # (f, c) = (1, 1), (1, -1), (-1, -1), (-1, 1); the factor f*f makes a flat sign UNDEFINED
    f, scenario = np.multiply(implied, actual, out=implied), trace.scenario
    np.multiply(trace.direction, actual, out=scenario)
    scenario += 2
    scenario *= f
    np.subtract(5, scenario, out=scenario)
    scenario >>= 1
    scenario *= np.square(f, out=f)
    return loss_sum


class _SplitDataError(DataError):
    """A data error met while forecasting or predicting one evaluation split."""

    def __init__(self, split: str, message: str) -> None:
        super().__init__(f"{message} (in the {split} split)")
        self.split = split


def prepare_run(config: TatsConfig, dataset: Dataset, eval_splits: tuple[str, ...] = ("test",)) -> list[ForecastTrace]:
    """Fit both sub-models once on the train split; give the trace of each evaluation split.

    The train split is the first part of chronological_split(dataset.target,
    config.train_fraction), and the test split the rest. Returns one
    :class:`ForecastTrace` per entry of eval_splits, in that order. "test"
    walks forward over the test split, appending true values to the history
    as they are revealed; "train" walks in-sample over the train split (for
    plug-in theory estimates). The fit and the trace do not depend on alpha,
    so one trace serves every alpha: pass it to :func:`sweep_alpha`, or call
    its :meth:`ForecastTrace.adjusted`.

    A classifier that reads features is fitted on the rows of
    :func:`build_feature_table` over the whole dataset, with config.n_lags
    and config.exog_lag, whose labels lie in the train split.
    """
    if not (isinstance(config, TatsConfig) and isinstance(dataset, Dataset)):
        raise ConfigError("prepare_run needs a TatsConfig and a Dataset, "
                          f"got {type(config).__name__} and {type(dataset).__name__}")
    if not (isinstance(eval_splits, (tuple, list))
            and all(isinstance(split, str) and split in ("train", "test") for split in eval_splits)):
        raise ConfigError(f"eval_splits must be a tuple or list of 'train' and 'test', got {eval_splits!r}")
    train, _ = chronological_split(dataset.target, config.train_fraction)
    values, n_train = dataset.target.values, len(train)
    clf_spec = config.trend_predictor
    if feature_based := clf_spec.reads_features:
        features = build_feature_table(dataset, config.n_lags, config.exog_lag)
    fitted = fit_forecaster(config.value_forecaster, train)
    classifier = fit_classifier(clf_spec, features.training_matrix(n_train) if feature_based else None)

    prepared = []
    for eval_split in eval_splits:
        if eval_split == "test":
            start, stop = n_train, values.size
        else:
            start = max(1, int(fitted.required_history))
            if feature_based:
                start = max(start, features.first + 1)
            stop = n_train
            if start >= stop:
                raise DataError(
                    f"train split of length {n_train} leaves no in-sample steps "
                    f"(first evaluable index {start})"
                )

        try:
            forecasts = _walk_forward(
                config.value_forecaster, fitted, values[:stop], start, config.refit_each_step
            )
            if isinstance(classifier, OracleTrendPredictor):
                with np.errstate(over="ignore"):  # the sign survives overflow to +-inf
                    truths = np.sign(np.diff(values[start - 1 : stop])).astype(int)
                directions = classifier.draw_many(truths)
            elif not feature_based:  # an external direction table
                directions = _table_slice(classifier, start, stop, "directions")
            else:
                directions = classifier.predict_matrix(features.rows_for_steps(start, stop))
        except DataError as exc:
            raise _SplitDataError(eval_split, str(exc)) from None
        prepared.append(evaluate_forecasts(values, start, forecasts, directions))
    return prepared


@dataclass(frozen=True)
class SweepEntry:
    alpha: float
    report: EvalReport


@dataclass(frozen=True)
class SweepResult:
    base_report: EvalReport
    entries: tuple[SweepEntry, ...]


def sweep_alpha(trace: ForecastTrace, alphas) -> SweepResult:
    """Report a trace's base forecasts once, then its adjusted ones at each alpha.

    Entries follow the order of alphas. Each adjusted report carries
    Diff/R-Diff against the base report; R-Diff is None when the base MSE
    is zero, where it is undefined. MAPE is None where :func:`~tats.metrics.mape`
    refuses: on a zero actual, or when the ratios overflow on tiny actuals.
    """
    if not isinstance(trace, ForecastTrace):
        raise ConfigError(f"sweep_alpha needs a ForecastTrace, got {type(trace).__name__}")
    alphas = _check_alphas(alphas)
    base = _report(trace, trace.y_hat)
    entries = []
    for a in alphas:
        report = _report(trace, trace.adjusted(a)[0])
        diff = base.mse - report.mse
        r_diff = None if base.mse == 0.0 else diff_rdiff(base, report)[1]
        entries.append(SweepEntry(alpha=a, report=replace(report, diff=diff, r_diff=r_diff)))
    return SweepResult(base_report=base, entries=tuple(entries))
