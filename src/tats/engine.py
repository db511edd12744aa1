"""Direction-gated forecast adjustment.

Each step t has a base forecast y_hat and a predicted direction c for
the move from the previous value y_prev. The indicator checks whether
the forecast already moves the predicted way:

    indicator = 1  if (y_hat - y_prev) * c >= 0  else 0

(a forecast exactly at y_prev counts as agreeing with either direction).
When they agree the forecast is kept; when they disagree the forecast is
replaced by a minimal step of size alpha in the predicted direction:

    y_adj = indicator * y_hat + (1 - indicator) * (y_prev + c * alpha)

alpha is in absolute value units and must be finite and positive. Each
evaluated step is also tagged with the direction outcome scenario:

    S1 forecast right, classifier right    S2 forecast right, classifier wrong
    S3 forecast wrong, classifier wrong    S4 forecast wrong, classifier right

measured against the realized direction; steps where either move is flat
are tagged UNDEFINED and excluded from scenario-conditional statistics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import OracleTrendPredictor, TrendPredictorSpec, fit_classifier
from .core import TimeSeries
from .errors import ConfigError, DataError, NumericError, _require_finite
from .forecasters import ValueForecasterSpec, _walk_forward, fit_forecaster
from .ingest import Dataset, FeatureTable, _table_slice, build_feature_table
from .metrics import EvalReport, evaluate_trace

__all__ = [
    "ForecastTrace",
    "Scenario",
    "SweepEntry",
    "SweepResult",
    "TatsConfig",
    "adjust",
    "classify_scenario",
    "evaluate_forecasts",
    "indicator",
    "prepare_run",
    "sweep_alpha",
]


class Scenario(enum.IntEnum):
    UNDEFINED = 0
    S1 = 1
    S2 = 2
    S3 = 3
    S4 = 4


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ConfigError(f"alpha must be finite and positive, got {alpha}")


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


@dataclass(frozen=True, eq=False)
class ForecastTrace:
    """Aligned per-step arrays for one evaluated forecast sequence.

    Each step carries both forecasts the method compares: the base
    forecast y_hat with its loss_base, and the adjusted forecast y_adj
    with its loss_adj.
    """

    t: np.ndarray
    y_prev: np.ndarray
    y_true: np.ndarray
    y_hat: np.ndarray
    direction: np.ndarray
    indicator: np.ndarray
    y_adj: np.ndarray
    loss_base: np.ndarray
    loss_adj: np.ndarray
    scenario: np.ndarray

    def __post_init__(self) -> None:
        n = self.t.size
        for name in ("y_prev", "y_true", "y_hat", "direction", "indicator",
                     "y_adj", "loss_base", "loss_adj", "scenario"):
            if getattr(self, name).size != n:
                raise ConfigError(f"trace field {name} does not align with t")
        if n == 0:
            raise ConfigError("a trace must contain at least one step")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ConfigError("trace time indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.t.size)

    def scenario_counts(self) -> dict[str, int]:
        """Steps per scenario, keyed S1..S4 then undefined."""
        return _scenario_counts(np.bincount(self.scenario, minlength=5))


def _scenario_counts(counts: np.ndarray) -> dict[str, int]:
    """Keyed counts from a bincount indexed by Scenario value."""
    named = {s.name: int(counts[s]) for s in (Scenario.S1, Scenario.S2, Scenario.S3, Scenario.S4)}
    return {**named, "undefined": int(counts[Scenario.UNDEFINED])}


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

    def __post_init__(self) -> None:
        if self.n_lags < 1:
            raise ConfigError(f"n_lags must be at least 1, got {self.n_lags}")


def evaluate_forecasts(
    values: np.ndarray,
    start: int,
    forecasts: np.ndarray,
    directions: np.ndarray,
    alpha: float,
) -> ForecastTrace:
    """Apply the adjustment to precomputed forecasts and directions.

    values is the full series; forecasts[i] and directions[i] describe
    step start + i. This is the vectorized equivalent of calling
    :func:`indicator`, :func:`adjust`, and :func:`classify_scenario`
    once per step.
    """
    _check_alpha(alpha)
    values = np.asarray(values, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    directions = np.asarray(directions)
    m = forecasts.size
    if m == 0:
        raise ConfigError("no steps to evaluate")
    if directions.size != m:
        raise ConfigError(f"{m} forecasts but {directions.size} directions")
    # checked before the cast, which would truncate 1.7 to 1 and warn on NaN
    if not np.all(np.abs(directions) == 1):
        raise DataError("directions must be +1 or -1")
    directions = directions.astype(int, copy=False)
    if start < 1 or start + m > values.size:
        raise ConfigError(
            f"evaluation range [{start}, {start + m}) outside series of length {values.size}"
        )
    t = np.arange(start, start + m)
    y_prev = values[t - 1]
    y_true = values[t]
    # a difference that overflows to +-inf keeps its sign; the losses are checked
    with np.errstate(over="ignore", invalid="ignore"):
        fdelta = forecasts - y_prev
        ind = (fdelta * directions >= 0.0).astype(int)
        y_adj = np.where(ind == 1, forecasts, y_prev + directions * alpha)
        loss_base = (forecasts - y_true) ** 2
        loss_adj = (y_adj - y_true) ** 2
        actual_sign = np.sign(y_true - y_prev).astype(int)
        # summing can overflow too, so the checks stay inside the errstate block
        _require_finite(loss_base.sum(), "the summed squared forecast errors")
        if not np.isfinite(loss_adj.sum()):
            raise NumericError(
                f"the summed squared errors of the adjusted forecasts at alpha={alpha!r} "
                "overflowed float64; alpha or the moves of the series are too large"
            )
    implied_sign = np.sign(fdelta).astype(int)
    undefined = (actual_sign == 0) | (implied_sign == 0)
    scenario = np.where(
        undefined,
        int(Scenario.UNDEFINED),
        np.where(
            implied_sign == actual_sign,
            np.where(directions == actual_sign, int(Scenario.S1), int(Scenario.S2)),
            np.where(directions == actual_sign, int(Scenario.S4), int(Scenario.S3)),
        ),
    )
    return ForecastTrace(
        t=t, y_prev=y_prev, y_true=y_true, y_hat=forecasts, direction=directions,
        indicator=ind, y_adj=y_adj, loss_base=loss_base, loss_adj=loss_adj,
        scenario=scenario,
    )


class _SplitDataError(DataError):
    """A data error met while forecasting or predicting one evaluation split."""

    def __init__(self, split: str, message: str) -> None:
        super().__init__(f"{message} (in the {split} split)")
        self.split = split


def prepare_run(
    config: TatsConfig,
    train: TimeSeries,
    test: TimeSeries,
    features: FeatureTable | None = None,
    eval_splits: tuple[str, ...] = ("test",),
) -> list[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
    """Fit both sub-models once on train; give the inputs of each evaluation split.

    Returns one (values, start, forecasts, directions) tuple per entry of
    eval_splits, in that order. "test" walks forward over the test split,
    appending true values to the history as they are revealed; "train"
    walks in-sample over the train split (for plug-in theory estimates).
    Forecasts and directions do not depend on alpha, so one tuple serves
    every alpha: pass it to :func:`evaluate_forecasts` as
    ``evaluate_forecasts(*inputs, alpha)``, or to :func:`sweep_alpha`.

    ``features`` supplies classifier rows built from a richer dataset
    (exogenous columns); without it, rows are built from target lags.
    """
    for eval_split in eval_splits:
        if eval_split not in ("train", "test"):
            raise ConfigError(f"eval_split must be 'train' or 'test', got {eval_split!r}")
    values = np.concatenate([train.values, test.values])
    n_train = len(train)
    fitted = fit_forecaster(config.value_forecaster, train)

    clf_spec = config.trend_predictor
    feature_based = clf_spec.kind.reads_features
    training = None
    if feature_based:
        if features is None:
            features = build_feature_table(Dataset(target=TimeSeries(values), exogenous={}), config.n_lags)
        if n_train < 2:
            raise DataError("train split too short to label classifier rows")
        training = features.training_matrix(n_train - 2)
    classifier = fit_classifier(clf_spec, training)

    prepared = []
    for eval_split in eval_splits:
        if eval_split == "test":
            start = n_train
            stop = values.size
        else:
            start = max(1, int(fitted.required_history))
            if feature_based:
                start = max(start, int(features.row_time_index[0]) + 1)
            stop = n_train
            if start >= stop:
                raise DataError(
                    f"train split of length {n_train} leaves no in-sample steps "
                    f"(first evaluable index {start})"
                )

        eval_t = np.arange(start, stop)
        try:
            forecasts = _walk_forward(
                config.value_forecaster, fitted, values[:stop], start, config.refit_each_step
            )
            if isinstance(classifier, OracleTrendPredictor):
                with np.errstate(over="ignore"):  # the sign survives overflow to +-inf
                    truths = np.sign(values[eval_t] - values[eval_t - 1]).astype(int)
                directions = classifier.draw_many(truths)
            elif not feature_based:  # an external direction table
                directions = _table_slice(classifier, start, stop, "directions")
            else:
                directions = classifier.predict_matrix(features.rows_at(eval_t - 1))
        except DataError as exc:
            raise _SplitDataError(eval_split, str(exc)) from None
        prepared.append((values, start, forecasts, directions))
    return prepared


@dataclass(frozen=True)
class SweepEntry:
    alpha: float
    report: EvalReport
    scenarios: dict[str, int]


@dataclass(frozen=True)
class SweepResult:
    base_report: EvalReport
    entries: tuple[SweepEntry, ...]


def sweep_alpha(inputs: tuple, alphas) -> SweepResult:
    """Evaluate one prepared split at each alpha, in the given order.

    ``inputs`` is one (values, start, forecasts, directions) tuple from
    :func:`prepare_run`; only the adjustment arithmetic is repeated.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigError("alpha sweep needs at least one alpha")
    for a in alphas:
        _check_alpha(a)
    entries = []
    for a in alphas:
        trace = evaluate_forecasts(*inputs, a)
        base_report, report = evaluate_trace(trace)
        entries.append(SweepEntry(alpha=a, report=report, scenarios=trace.scenario_counts()))
    return SweepResult(base_report=base_report, entries=tuple(entries))
