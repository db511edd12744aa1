"""Trend-adjusted time series forecasting.

A base forecaster produces a one-step-ahead value; a direction
classifier predicts whether the series moves up or down next. When the
forecast's implied direction disagrees with the classifier, the forecast
is replaced by a minimal step of size alpha in the predicted direction.
If the classifier calls directions more reliably than the forecaster
does, the adjustment reduces expected squared error; :mod:`tats.theory`
quantifies the expected reduction and :mod:`tats.montecarlo` checks it
empirically.
"""

from .classifiers import (
    ClassifierKind,
    GaussianNBClassifier,
    KNNClassifier,
    LogisticClassifier,
    MajorityClassifier,
    OracleTrendPredictor,
    TrendPredictorSpec,
    fit_classifier,
)
from .core import TimeSeries, chronological_split
from .engine import (
    ForecastTrace,
    Scenario,
    SweepEntry,
    SweepResult,
    TatsConfig,
    adjust,
    classify_scenario,
    evaluate_forecasts,
    indicator,
    prepare_run,
    sweep_alpha,
)
from .errors import ConfigError, DataError, NumericError, TatsError
from .forecasters import (
    ARModel,
    ForecasterKind,
    ValueForecasterSpec,
    fit_ar,
    fit_forecaster,
)
from .ingest import (
    Dataset,
    FeatureMatrix,
    FeatureTable,
    build_feature_table,
    load_csv,
    load_external_directions,
    load_external_forecasts,
)
from .metrics import (
    EvalReport,
    diff_rdiff,
    mae,
    mape,
    mse,
    td_accuracy,
    trend_aware_loss,
)
from .montecarlo import (
    SimConfig,
    SimulationReport,
    TrialResult,
    gen_random_walk,
    synthetic_forecaster,
    validate_prop1,
)
from .theory import (
    TheoryEstimate,
    estimate_theory,
    expected_loss_change,
    lower_bound,
    scenario_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "ARModel",
    "ClassifierKind",
    "ConfigError",
    "DataError",
    "Dataset",
    "EvalReport",
    "FeatureMatrix",
    "FeatureTable",
    "ForecastTrace",
    "ForecasterKind",
    "GaussianNBClassifier",
    "KNNClassifier",
    "LogisticClassifier",
    "MajorityClassifier",
    "NumericError",
    "OracleTrendPredictor",
    "Scenario",
    "SimConfig",
    "SimulationReport",
    "SweepEntry",
    "SweepResult",
    "TatsConfig",
    "TatsError",
    "TheoryEstimate",
    "TimeSeries",
    "TrendPredictorSpec",
    "TrialResult",
    "ValueForecasterSpec",
    "adjust",
    "build_feature_table",
    "chronological_split",
    "classify_scenario",
    "diff_rdiff",
    "estimate_theory",
    "evaluate_forecasts",
    "expected_loss_change",
    "fit_ar",
    "fit_classifier",
    "fit_forecaster",
    "gen_random_walk",
    "indicator",
    "load_csv",
    "load_external_directions",
    "load_external_forecasts",
    "lower_bound",
    "mae",
    "mape",
    "mse",
    "prepare_run",
    "scenario_probabilities",
    "sweep_alpha",
    "synthetic_forecaster",
    "td_accuracy",
    "trend_aware_loss",
    "validate_prop1",
]
