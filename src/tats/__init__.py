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
    TatsConfig,
    evaluate_forecasts,
    prepare_run,
    sweep_alpha,
)
from .errors import ConfigError, DataError, NumericError, TatsError
from .forecasters import (
    ARModel,
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
    gen_random_walk,
    synthetic_forecaster,
    validate_prop1,
)
from .theory import (
    RunReport,
    TheoryEstimate,
    estimate_theory,
    lower_bound,
    run_experiment,
    scenario_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "ARModel",
    "ConfigError",
    "DataError",
    "Dataset",
    "EvalReport",
    "FeatureMatrix",
    "FeatureTable",
    "ForecastTrace",
    "GaussianNBClassifier",
    "KNNClassifier",
    "LogisticClassifier",
    "MajorityClassifier",
    "NumericError",
    "OracleTrendPredictor",
    "RunReport",
    "Scenario",
    "SimConfig",
    "SimulationReport",
    "TatsConfig",
    "TatsError",
    "TheoryEstimate",
    "TimeSeries",
    "TrendPredictorSpec",
    "ValueForecasterSpec",
    "build_feature_table",
    "chronological_split",
    "diff_rdiff",
    "estimate_theory",
    "evaluate_forecasts",
    "fit_ar",
    "fit_classifier",
    "fit_forecaster",
    "gen_random_walk",
    "load_csv",
    "load_external_directions",
    "load_external_forecasts",
    "lower_bound",
    "mae",
    "mape",
    "mse",
    "prepare_run",
    "run_experiment",
    "scenario_probabilities",
    "sweep_alpha",
    "synthetic_forecaster",
    "td_accuracy",
    "trend_aware_loss",
    "validate_prop1",
]
