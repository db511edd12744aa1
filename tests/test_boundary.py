"""Only a TatsError escapes the public functions and constructors of tats.

Every parameter of every export in ``tats.__all__`` is sorted into one of
the groups below, so a new export or parameter fails
``test_every_export_parameter_is_sorted`` until it is placed:

* int, real and array parameters, the run path's object parameters
  (``TatsConfig``'s specs and ``prepare_run``'s arguments), the trace of
  ``estimate_theory`` and ``sweep_alpha``, the series of
  ``synthetic_forecaster``, the config of ``validate_prop1`` and the flag
  ``refit_each_step`` are probed with values of the wrong type or shape
  (``BAD``), and each probe must raise a TatsError;
* the other parameters that take one of the package's objects, a path, a
  column name or a flag (``NOT_PROBED``) are typed by their annotations
  and not probed here;
* a record whose every field is called with wrong values by the tests
  at the end (``RECORD_CASES``) is sorted there;
* the other records that the library builds and returns, the scenario
  enum and the exception classes (``NOT_CALLED``) are not probed
  parameter by parameter; the records whose constructors check their
  fields, and the scenario enum, are called with wrong values by the
  tests at the end.

numpy integers, floats and bools stay valid wherever an int, a real or a flag is.
"""

import dataclasses
import inspect
import math
from functools import partial

import numpy as np
import pytest

import tats
from tats import (
    ConfigError,
    DataError,
    Dataset,
    FeatureMatrix,
    FeatureTable,
    ForecastTrace,
    Scenario,
    SimConfig,
    TatsConfig,
    TatsError,
    TimeSeries,
    TrendPredictorSpec,
    ValueForecasterSpec,
    build_feature_table,
    chronological_split,
    estimate_theory,
    evaluate_forecasts,
    fit_ar,
    gen_random_walk,
    lower_bound,
    mae,
    mape,
    mse,
    prepare_run,
    scenario_probabilities,
    sweep_alpha,
    synthetic_forecaster,
    td_accuracy,
    trend_aware_loss,
    validate_prop1,
)

SERIES = TimeSeries(100.0 + np.cumsum(np.random.default_rng(0).standard_normal(60)))
VALUES = SERIES.values
TRACE = evaluate_forecasts(VALUES, 1, VALUES[:-1] + 0.5, np.ones(VALUES.size - 1))

# the wrong types and shapes; a float is wrong only where an int is due
BAD = {
    "float": 2.5,
    "string": "x",
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bool": True,
    "0-d-array": np.array(3),
    "2-d-array": np.ones((2, 2)),
}
INT, REAL, ARRAY, OBJECT, FLAG = "int", "real", "array", "object", "flag"
# the BAD values that a kind of parameter takes; an object parameter takes none of them
VALID_BY_KIND = {REAL: {"float"}, FLAG: {"bool"}}
NAIVE = ValueForecasterSpec.naive()

# label: (export, callable with its object arguments bound, valid probed arguments, their kinds)
CALLS = {
    "SimConfig": ("SimConfig", SimConfig, dict(
        n_steps=20, n_trials=2, drift=0.0, volatility=1.0, p_dt=0.5, p_db=0.7, error_scale=0.5, alpha=1e-6, seed=0,
    ), dict(n_steps=INT, n_trials=INT, seed=INT, drift=REAL, volatility=REAL, p_dt=REAL, p_db=REAL,
            error_scale=REAL, alpha=REAL)),
    "TatsConfig": ("TatsConfig", TatsConfig, dict(
        value_forecaster=NAIVE, trend_predictor=TrendPredictorSpec.logistic(), n_lags=2, refit_each_step=False,
        exog_lag=0, train_fraction=0.7,
    ), dict(value_forecaster=OBJECT, trend_predictor=OBJECT, n_lags=INT, refit_each_step=FLAG, exog_lag=INT,
            train_fraction=REAL)),
    "TimeSeries": ("TimeSeries", TimeSeries, dict(values=VALUES), dict(values=ARRAY)),
    # each spec classmethod passes its arguments to the spec's fields of the same names
    "TrendPredictorSpec.knn": ("TrendPredictorSpec", TrendPredictorSpec.knn, dict(k=3), dict(k=INT)),
    "TrendPredictorSpec.oracle": ("TrendPredictorSpec", TrendPredictorSpec.oracle, dict(accuracy=0.7, seed=1),
                                  dict(accuracy=REAL, seed=INT)),
    "TrendPredictorSpec.external": ("TrendPredictorSpec", TrendPredictorSpec.external, dict(source=np.ones(60)),
                                    dict(source=ARRAY)),
    "ValueForecasterSpec.ar": ("ValueForecasterSpec", ValueForecasterSpec.ar, dict(order=2), dict(order=INT)),
    "ValueForecasterSpec.ses": ("ValueForecasterSpec", ValueForecasterSpec.ses, dict(smoothing=0.5),
                                dict(smoothing=REAL)),
    "ValueForecasterSpec.external": ("ValueForecasterSpec", ValueForecasterSpec.external, dict(source=np.ones(60)),
                                     dict(source=ARRAY)),
    "ForecastTrace.adjusted": ("ForecastTrace", TRACE.adjusted, dict(alpha=1.0), dict(alpha=REAL)),
    "build_feature_table": ("build_feature_table", partial(build_feature_table, Dataset(SERIES, {})),
                            dict(n_lags=2, exog_lag=0), dict(n_lags=INT, exog_lag=INT)),
    "chronological_split": ("chronological_split", partial(chronological_split, SERIES), dict(train_fraction=0.7),
                            dict(train_fraction=REAL)),
    "evaluate_forecasts": ("evaluate_forecasts", evaluate_forecasts, dict(
        values=VALUES, start=1, forecasts=VALUES[:-1], directions=np.ones(VALUES.size - 1),
    ), dict(values=ARRAY, start=INT, forecasts=ARRAY, directions=ARRAY)),
    "fit_ar": ("fit_ar", partial(fit_ar, SERIES), dict(order=2), dict(order=INT)),
    "gen_random_walk": ("gen_random_walk", gen_random_walk, dict(n=10, drift=0.0, volatility=1.0, seed=0),
                        dict(n=INT, drift=REAL, volatility=REAL, seed=INT)),
    "lower_bound": ("lower_bound", lower_bound, dict(abs_gap=1.0, p_db=0.6, p_dt=0.5),
                    dict(abs_gap=REAL, p_db=REAL, p_dt=REAL)),
    "prepare_run": ("prepare_run", prepare_run, dict(
        config=TatsConfig(NAIVE, TrendPredictorSpec.majority()), dataset=Dataset(SERIES), eval_splits=("test",),
    ), dict(config=OBJECT, dataset=OBJECT, eval_splits=OBJECT)),
    "scenario_probabilities": ("scenario_probabilities", scenario_probabilities, dict(p_db=0.6, p_dt=0.5),
                               dict(p_db=REAL, p_dt=REAL)),
    "estimate_theory": ("estimate_theory", estimate_theory, dict(trace=TRACE), dict(trace=OBJECT)),
    "sweep_alpha": ("sweep_alpha", sweep_alpha, dict(trace=TRACE, alphas=[1.0, 2.0]), dict(trace=OBJECT, alphas=ARRAY)),
    "synthetic_forecaster": ("synthetic_forecaster", synthetic_forecaster, dict(
        series=SERIES, p_dt=0.5, error_scale=0.5, seed=0,
    ), dict(series=OBJECT, p_dt=REAL, error_scale=REAL, seed=INT)),
    "validate_prop1": ("validate_prop1", validate_prop1, dict(config=SimConfig(n_steps=10, n_trials=2)),
                       dict(config=OBJECT)),
    **{name: (name, fn, dict(y_true=VALUES, y_pred=VALUES + 1.0), dict(y_true=ARRAY, y_pred=ARRAY))
       for name, fn in (("mae", mae), ("mape", mape), ("mse", mse))},
    "td_accuracy": ("td_accuracy", td_accuracy, dict(y_prev=VALUES[:-1], y_true=VALUES[1:], y_pred=VALUES[1:]),
                    dict(y_prev=ARRAY, y_true=ARRAY, y_pred=ARRAY)),
    "trend_aware_loss": ("trend_aware_loss", trend_aware_loss,
                         dict(y_true=VALUES, y_pred=VALUES, gamma=1.0, y_prev=VALUES - 1.0),
                         dict(y_true=ARRAY, y_pred=ARRAY, gamma=REAL, y_prev=ARRAY)),
}
# a value that a parameter takes although BAD lists it
VALID_BAD = {("trend_aware_loss", "y_prev", "none")}
# export: its parameters that take the package's objects, paths, names or flags
NOT_PROBED = {
    "Dataset": {"target", "exogenous"},
    "TrendPredictorSpec": {"kind"},
    "ValueForecasterSpec": {"kind"},
    "build_feature_table": {"dataset"},
    "chronological_split": {"series"},
    "diff_rdiff": {"base", "candidate"},
    "fit_ar": {"series"},
    "fit_classifier": {"spec", "features"},
    "fit_forecaster": {"spec", "train"},
    "load_csv": {"path", "target_column", "exogenous_columns", "label_column"},
    "load_external_directions": {"path", "series"},
    "load_external_forecasts": {"path", "series"},
}
NOT_CALLED = {
    "ARModel", "EvalReport", "FeatureMatrix", "ForecastTrace", "GaussianNBClassifier",
    "KNNClassifier", "LogisticClassifier", "MajorityClassifier", "OracleTrendPredictor", "Scenario",
    "SimulationReport", "SweepEntry", "SweepResult", "TheoryEstimate",
}
PROBES = [
    pytest.param(label, param, bad, id=f"{label}-{param}-{bad}")
    for label, (_, _, kwargs, kinds) in CALLS.items()
    for param in kwargs
    for bad in BAD
    if bad not in VALID_BY_KIND.get(kinds[param], ()) and (label, param, bad) not in VALID_BAD
]


@pytest.mark.parametrize("label", CALLS)
def test_valid_arguments_pass(label):
    _, fn, kwargs, kinds = CALLS[label]
    assert set(kinds) == set(kwargs)
    fn(**kwargs)


@pytest.mark.parametrize("label, param, bad", PROBES)
def test_wrong_type_or_shape_raises_a_tats_error(label, param, bad):
    _, fn, kwargs, _ = CALLS[label]
    with pytest.raises(TatsError):
        fn(**{**kwargs, param: BAD[bad]})


@pytest.mark.parametrize("label", CALLS)
def test_numpy_scalars_stay_valid(label):
    _, fn, kwargs, kinds = CALLS[label]
    cast = {INT: np.int64, REAL: np.float64, FLAG: np.bool_}
    fn(**{p: cast[kinds[p]](v) if kinds[p] in cast else v for p, v in kwargs.items()})


def test_every_export_parameter_is_sorted():
    probed = {}
    for export, _, kwargs, _ in CALLS.values():
        probed.setdefault(export, set()).update(kwargs)
    for record, _, field, _, _ in (case.values for case in RECORD_CASES):
        probed.setdefault(record.__name__, set()).add(field)
    for name in tats.__all__:
        obj = getattr(tats, name)
        if name in NOT_CALLED or (isinstance(obj, type) and issubclass(obj, TatsError)):
            continue
        params = set(inspect.signature(obj).parameters)
        assert params == probed.get(name, set()) | NOT_PROBED.get(name, set()), name


def test_ints_and_reals_are_stored_as_python_numbers():
    spec = ValueForecasterSpec.ar(np.int32(3))
    assert type(spec.order) is int and spec.label == "ar(3)"
    config = SimConfig(p_dt=np.float32(0.5), drift=1)
    assert type(config.p_dt) is float and type(config.drift) is float
    assert type(TrendPredictorSpec.knn(np.uint8(4)).k) is int


def test_seeds_may_be_numpy_seed_objects():
    seq = np.random.SeedSequence(5)
    assert np.array_equal(gen_random_walk(10, 0.0, 1.0, seq).values, gen_random_walk(10, 0.0, 1.0, 5).values)
    assert gen_random_walk(10, 0.0, 1.0, np.random.default_rng(5)).values.size == 10


def _wrong_fields(n: int) -> dict:
    """Values that are not a 1-D array of n elements, by name."""
    return {"string": "x", "none": None, "list": [1.0] * n, "0-d-array": np.array(3.0),
            "column": np.ones((n, 1)), "short": np.ones(n - 1)}


TRACE_FIELDS = {f.name: getattr(TRACE, f.name) for f in dataclasses.fields(ForecastTrace)}
MATRIX_FIELDS = dict(rows=np.ones((3, 2)), labels=np.array([1, -1, 1]), n_flat_dropped=0)
MATRIX_ROWS = {"string": "x", "none": None, "list": [[1.0, 2.0]] * 3, "1-d-array": np.ones(3),
               "3-d-array": np.ones((3, 2, 1)), "short": np.ones((2, 2))}
TABLE_FIELDS = dict(rows=np.ones((3, 2)), first=1, next_delta=np.array([1.0, -1.0, 0.0]))
TABLE_FIRSTS = {"float": 1.0, "string": "x", "none": None, "bool": True, "0-d-array": np.array(1), "negative": -1}
RECORD_CASES = [
    *[pytest.param(ForecastTrace, TRACE_FIELDS, field, wrong, ConfigError, id=f"ForecastTrace-{field}-{label}")
      for field in TRACE_FIELDS for label, wrong in _wrong_fields(len(TRACE)).items()],
    *[pytest.param(FeatureMatrix, MATRIX_FIELDS, "labels", wrong, DataError, id=f"FeatureMatrix-labels-{label}")
      for label, wrong in _wrong_fields(3).items()],
    *[pytest.param(FeatureMatrix, MATRIX_FIELDS, "rows", wrong, DataError, id=f"FeatureMatrix-rows-{label}")
      for label, wrong in MATRIX_ROWS.items()],
    *[pytest.param(FeatureTable, TABLE_FIELDS, "rows", wrong, DataError, id=f"FeatureTable-rows-{label}")
      for label, wrong in MATRIX_ROWS.items()],
    *[pytest.param(FeatureTable, TABLE_FIELDS, "next_delta", wrong, DataError, id=f"FeatureTable-next_delta-{label}")
      for label, wrong in _wrong_fields(3).items()],
    *[pytest.param(FeatureTable, TABLE_FIELDS, "first", wrong, ConfigError, id=f"FeatureTable-first-{label}")
      for label, wrong in TABLE_FIRSTS.items()],
]


@pytest.mark.parametrize("record, fields, field, wrong, error", RECORD_CASES)
def test_records_fail_closed(record, fields, field, wrong, error):
    record(**fields)
    with pytest.raises(error):
        record(**{**fields, field: wrong})


@pytest.mark.parametrize("value", [7, -1, "x", "S1", None, 1.5])
def test_unknown_scenario_values_raise_a_config_error(value):
    with pytest.raises(ConfigError):
        Scenario(value)


DATASET_CASES = {
    "target-array": dict(target=VALUES, exogenous={}),
    "target-list": dict(target=list(VALUES), exogenous={}),
    "target-none": dict(target=None, exogenous={}),
    "exogenous-list": dict(target=SERIES, exogenous=[SERIES]),
    "exogenous-array": dict(target=SERIES, exogenous=np.ones((60, 1))),
    "exogenous-none": dict(target=SERIES, exogenous=None),
    "exogenous-value-array": dict(target=SERIES, exogenous={"x": VALUES}),
    "exogenous-value-list": dict(target=SERIES, exogenous={"x": list(VALUES)}),
}


@pytest.mark.parametrize("case", DATASET_CASES)
def test_datasets_of_wrong_types_raise_a_config_error(case):
    Dataset(SERIES, {"x": SERIES})
    with pytest.raises(ConfigError, match="a dataset needs a TimeSeries target"):
        Dataset(**DATASET_CASES[case])


def test_the_run_flag_is_stored_as_a_bool_and_eval_splits_may_be_a_list():
    for flag in (True, False, np.bool_(True), np.bool_(False)):
        config = TatsConfig(NAIVE, TrendPredictorSpec.majority(), refit_each_step=flag)
        assert type(config.refit_each_step) is bool and config.refit_each_step == flag
    config = TatsConfig(NAIVE, TrendPredictorSpec.majority())
    as_list = prepare_run(config, Dataset(SERIES), ["test", "train"])
    as_tuple = prepare_run(config, Dataset(SERIES), ("test", "train"))
    assert [trace.t.tolist() for trace in as_list] == [trace.t.tolist() for trace in as_tuple]
    for splits in (["test", 1], ("test", None), "test", {"test"}):
        with pytest.raises(ConfigError, match="^eval_splits must be a tuple or list of 'train' and 'test'"):
            prepare_run(config, Dataset(SERIES), splits)
