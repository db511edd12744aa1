"""Only a TatsError escapes the public functions and constructors of tats.

Every parameter of every export in ``tats.__all__`` is sorted into one of
the groups below, so a new export or parameter fails
``test_every_export_parameter_is_sorted`` until it is placed:

* int, real and array parameters, flags, and the parameters that take
  one of the package's objects, a path, a column name or a list of them
  (``CALLS``) are probed with values of the wrong type or shape
  (``BAD``), and each probe must raise a TatsError;
* a record whose every field is called with wrong values by the tests
  at the end (``RECORD_CASES``) is sorted there;
* the other records that the library builds and returns, the scenario
  enum and the exception classes (``NOT_CALLED``) are not probed
  parameter by parameter; the records whose constructors check their
  fields, and the scenario enum, are called with wrong values by the
  tests at the end.

numpy integers, floats and bools stay valid wherever an int, a real or a flag is.
``scenario_probabilities``, ``gen_random_walk`` and ``synthetic_forecaster``
of ``scalar_reference`` are probed like exports.
"""

import dataclasses
import inspect
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tats
from tats import (
    ConfigError,
    DataError,
    Dataset,
    EvalReport,
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
    diff_rdiff,
    estimate_theory,
    evaluate_forecasts,
    fit_ar,
    fit_classifier,
    fit_forecaster,
    load_csv,
    load_external_directions,
    load_external_forecasts,
    lower_bound,
    mae,
    mape,
    mse,
    prepare_run,
    run_experiment,
    sweep_alpha,
    td_accuracy,
    trend_aware_loss,
    validate_prop1,
)

from scalar_reference import gen_random_walk, scenario_probabilities, synthetic_forecaster

SERIES = TimeSeries(100.0 + np.cumsum(np.random.default_rng(0).standard_normal(60)))
VALUES = SERIES.values
TRACE = evaluate_forecasts(VALUES, 1, VALUES[:-1] + 0.5, np.ones(VALUES.size - 1))
REPORT = EvalReport(tda=0.5, mse=1.0, mae=1.0, mape=None, n_steps=3)
FEATURES = FeatureMatrix(rows=np.ones((3, 2)), labels=np.array([1, -1, 1]), n_flat_dropped=0)
# one file serves load_csv and both external-table loaders: time_index,forecast,direction
TABLE_CSV = Path(__file__).resolve().parent / "data" / "boundary_table.csv"

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
NAIVE = ValueForecasterSpec("naive")
# three feature columns, so that BAD's 2-by-2 array is of the wrong width for the classifiers fit on them
FEATURES_3 = build_feature_table(Dataset(SERIES), 3).training_matrix()
FORECAST_MODELS = {
    "ARModel": (fit_forecaster(ValueForecasterSpec("ar", order=2), SERIES), 2),
    "SESForecaster": (fit_forecaster(ValueForecasterSpec("ses", smoothing=0.5), SERIES), 1),
    "ExternalForecaster": (fit_forecaster(ValueForecasterSpec("external", source=VALUES), SERIES), 1),
}
CLASSIFIER_MODELS = {
    type(model).__name__: model
    for model in (fit_classifier(spec, FEATURES_3) for spec in (
        TrendPredictorSpec("majority"), TrendPredictorSpec("logistic"), TrendPredictorSpec("gaussian_nb"),
        TrendPredictorSpec("knn", k=3),
    ))
}
ORACLE = fit_classifier(TrendPredictorSpec("oracle", accuracy=0.7, seed=1))

# label: (export, callable with its object arguments bound, valid probed arguments, their kinds)
CALLS = {
    "SimConfig": ("SimConfig", SimConfig, dict(
        n_steps=20, n_trials=2, drift=0.0, volatility=1.0, p_dt=0.5, p_db=0.7, error_scale=0.5, alpha=1e-6, seed=0,
    ), dict(n_steps=INT, n_trials=INT, seed=INT, drift=REAL, volatility=REAL, p_dt=REAL, p_db=REAL,
            error_scale=REAL, alpha=REAL)),
    "TatsConfig": ("TatsConfig", TatsConfig, dict(
        value_forecaster=NAIVE, trend_predictor=TrendPredictorSpec("logistic"), n_lags=2, refit_each_step=False,
        exog_lag=0, train_fraction=0.7,
    ), dict(value_forecaster=OBJECT, trend_predictor=OBJECT, n_lags=INT, refit_each_step=FLAG, exog_lag=INT,
            train_fraction=REAL)),
    "TimeSeries": ("TimeSeries", TimeSeries, dict(values=VALUES), dict(values=ARRAY)),
    "Dataset": ("Dataset", Dataset, dict(target=SERIES, exogenous={}), dict(target=OBJECT, exogenous=OBJECT)),
    "TrendPredictorSpec": ("TrendPredictorSpec", TrendPredictorSpec, dict(kind="majority"), dict(kind=OBJECT)),
    "ValueForecasterSpec": ("ValueForecasterSpec", ValueForecasterSpec, dict(kind="naive"), dict(kind=OBJECT)),
    # each spec's own parameters, under the kind that takes them
    "TrendPredictorSpec.knn": ("TrendPredictorSpec", partial(TrendPredictorSpec, "knn"), dict(k=3), dict(k=INT)),
    "TrendPredictorSpec.oracle": ("TrendPredictorSpec", partial(TrendPredictorSpec, "oracle"),
                                  dict(accuracy=0.7, seed=1), dict(accuracy=REAL, seed=INT)),
    "TrendPredictorSpec.external": ("TrendPredictorSpec", partial(TrendPredictorSpec, "external"),
                                    dict(source=np.ones(60)), dict(source=ARRAY)),
    "ValueForecasterSpec.ar": ("ValueForecasterSpec", partial(ValueForecasterSpec, "ar"), dict(order=2),
                               dict(order=INT)),
    "ValueForecasterSpec.ses": ("ValueForecasterSpec", partial(ValueForecasterSpec, "ses"), dict(smoothing=0.5),
                                dict(smoothing=REAL)),
    "ValueForecasterSpec.external": ("ValueForecasterSpec", partial(ValueForecasterSpec, "external"),
                                     dict(source=np.ones(60)), dict(source=ARRAY)),
    "ForecastTrace.adjusted": ("ForecastTrace", TRACE.adjusted, dict(alpha=1.0), dict(alpha=REAL)),
    "build_feature_table": ("build_feature_table", build_feature_table, dict(dataset=Dataset(SERIES, {}), n_lags=2,
                            exog_lag=0), dict(dataset=OBJECT, n_lags=INT, exog_lag=INT)),
    "chronological_split": ("chronological_split", chronological_split, dict(series=SERIES, train_fraction=0.7),
                            dict(series=OBJECT, train_fraction=REAL)),
    "diff_rdiff": ("diff_rdiff", diff_rdiff, dict(base=REPORT, candidate=REPORT), dict(base=OBJECT, candidate=OBJECT)),
    "evaluate_forecasts": ("evaluate_forecasts", evaluate_forecasts, dict(
        values=VALUES, start=1, forecasts=VALUES[:-1], directions=np.ones(VALUES.size - 1),
    ), dict(values=ARRAY, start=INT, forecasts=ARRAY, directions=ARRAY)),
    "fit_ar": ("fit_ar", fit_ar, dict(series=SERIES, order=2), dict(series=OBJECT, order=INT)),
    "fit_classifier": ("fit_classifier", fit_classifier, dict(spec=TrendPredictorSpec("majority"), features=FEATURES),
                       dict(spec=OBJECT, features=OBJECT)),
    "fit_forecaster": ("fit_forecaster", fit_forecaster, dict(spec=NAIVE, train=SERIES), dict(spec=OBJECT, train=OBJECT)),
    # not an export: the 1-D form of the trial walk
    "gen_random_walk": ("gen_random_walk", gen_random_walk, dict(n=10, drift=0.0, volatility=1.0, seed=0),
                        dict(n=INT, drift=REAL, volatility=REAL, seed=INT)),
    "load_csv": ("load_csv", load_csv, dict(
        path=TABLE_CSV, target_column="forecast", exogenous_columns=["direction"], label_column="time_index",
    ), dict(path=OBJECT, target_column=OBJECT, exogenous_columns=OBJECT, label_column=OBJECT)),
    **{name: (name, fn, dict(path=TABLE_CSV, series=SERIES), dict(path=OBJECT, series=OBJECT))
       for name, fn in (("load_external_directions", load_external_directions),
                        ("load_external_forecasts", load_external_forecasts))},
    "lower_bound": ("lower_bound", lower_bound, dict(abs_gap=1.0, p_db=0.6, p_dt=0.5),
                    dict(abs_gap=REAL, p_db=REAL, p_dt=REAL)),
    "prepare_run": ("prepare_run", prepare_run, dict(
        config=TatsConfig(NAIVE, TrendPredictorSpec("majority")), dataset=Dataset(SERIES), eval_splits=("test",),
    ), dict(config=OBJECT, dataset=OBJECT, eval_splits=OBJECT)),
    "run_experiment": ("run_experiment", run_experiment, dict(
        config=TatsConfig(NAIVE, TrendPredictorSpec("majority")), dataset=Dataset(SERIES), alphas=[1.0, 2.0],
        theory_split="train",
    ), dict(config=OBJECT, dataset=OBJECT, alphas=ARRAY, theory_split=OBJECT)),
    # not an export: the independence reference, which the acceptance tests feed realized rates
    "scenario_probabilities": ("scenario_probabilities", scenario_probabilities, dict(p_db=0.6, p_dt=0.5),
                               dict(p_db=REAL, p_dt=REAL)),
    "estimate_theory": ("estimate_theory", estimate_theory, dict(trace=TRACE), dict(trace=OBJECT)),
    "sweep_alpha": ("sweep_alpha", sweep_alpha, dict(trace=TRACE, alphas=[1.0, 2.0]), dict(trace=OBJECT, alphas=ARRAY)),
    # not an export: the 1-D form of the trial forecasts
    "synthetic_forecaster": ("synthetic_forecaster", synthetic_forecaster, dict(
        series=SERIES, p_dt=0.5, error_scale=0.5, seed=0,
    ), dict(series=OBJECT, p_dt=REAL, error_scale=REAL, seed=INT)),
    # the methods of the fitted models, under the name of the model's class
    **{f"{name}.forecast_path": (name, model.forecast_path, dict(values=VALUES, start=start),
                                 dict(values=ARRAY, start=INT))
       for name, (model, start) in FORECAST_MODELS.items()},
    **{f"{name}.predict_matrix": (name, model.predict_matrix, dict(rows=FEATURES_3.rows),
                                  dict(rows=ARRAY)) for name, model in CLASSIFIER_MODELS.items()},
    "OracleTrendPredictor.draw_many": ("OracleTrendPredictor", ORACLE.draw_many,
                                       dict(truths=np.array([1, -1, 0, 1])), dict(truths=ARRAY)),
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
VALID_BAD = {
    ("trend_aware_loss", "y_prev", "none"),
    ("load_csv", "exogenous_columns", "none"),
    ("load_csv", "label_column", "none"),
    ("MajorityClassifier.predict_matrix", "rows", "2-d-array"),  # majority reads no feature
}
NOT_CALLED = {
    "ARModel", "EvalReport", "FeatureMatrix", "ForecastTrace", "GaussianNBClassifier",
    "KNNClassifier", "LogisticClassifier", "MajorityClassifier", "OracleTrendPredictor", "RunReport", "Scenario",
    "SimulationReport", "TheoryEstimate",
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
        assert set(inspect.signature(obj).parameters) == probed.get(name, set()), name


def test_ints_and_reals_are_stored_as_python_numbers():
    spec = ValueForecasterSpec("ar", order=np.int32(3))
    assert type(spec.order) is int and spec.label == "ar(3)"
    config = SimConfig(p_dt=np.float32(0.5), drift=1)
    assert type(config.p_dt) is float and type(config.drift) is float
    assert type(TrendPredictorSpec("knn", k=np.uint8(4)).k) is int


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
        config = TatsConfig(NAIVE, TrendPredictorSpec("majority"), refit_each_step=flag)
        assert type(config.refit_each_step) is bool and config.refit_each_step == flag
    config = TatsConfig(NAIVE, TrendPredictorSpec("majority"))
    as_list = prepare_run(config, Dataset(SERIES), ["test", "train"])
    as_tuple = prepare_run(config, Dataset(SERIES), ("test", "train"))
    assert [trace.t.tolist() for trace in as_list] == [trace.t.tolist() for trace in as_tuple]
    for splits in (["test", 1], ("test", None), "test", {"test"}):
        with pytest.raises(ConfigError, match="^eval_splits must be a tuple or list of 'train' and 'test'"):
            prepare_run(config, Dataset(SERIES), splits)


@pytest.mark.parametrize("call, message", [
    (lambda: load_csv(None, "y"), "path must be of type str or PathLike, got NoneType"),
    (lambda: load_external_forecasts(None, SERIES), "path must be of type str or PathLike, got NoneType"),
    (lambda: load_csv(TABLE_CSV, "forecast", "direction"),
     "exogenous_columns must be of type list or tuple or None, got str"),
    (lambda: chronological_split(2.5, 0.7), "series must be of type TimeSeries, got float"),
    (lambda: fit_ar(np.ones(5), 2), "series must be of type TimeSeries, got ndarray"),
    (lambda: fit_forecaster(None, SERIES), "spec must be of type ValueForecasterSpec, got NoneType"),
    (lambda: fit_classifier(None), "spec must be of type TrendPredictorSpec, got NoneType"),
    # the oracle reads no features, but a wrong object for them is still refused
    (lambda: fit_classifier(TrendPredictorSpec("oracle", accuracy=0.7, seed=0), "x"),
     "features must be of type FeatureMatrix or None, got str"),
    (lambda: diff_rdiff(None, None), "base must be of type EvalReport, got NoneType"),
    (lambda: build_feature_table(2.5, 2, 0), "dataset must be of type Dataset, got float"),
])
def test_a_wrong_object_names_the_parameter_and_the_types_it_takes(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


# what BAD does not hold: lists, text and other shapes of rows, and truths outside -1, 0 and +1
METHOD_CASES = [
    *[pytest.param(model.predict_matrix, wrong, id=f"{name}-rows-{label}")
      for name, model in CLASSIFIER_MODELS.items()
      for label, wrong in {"list": FEATURES_3.rows.tolist(), "1-d-array": np.ones(3), "3-d-array": np.ones((2, 3, 1)),
                           "text": np.full((2, 3), "1"), "objects": FEATURES_3.rows.astype(object)}.items()],
    *[pytest.param(ORACLE.draw_many, wrong, id=f"OracleTrendPredictor-truths-{label}")
      for label, wrong in {"list": [1, -1], "two": np.array([1, 2]), "half": np.array([0.5, 1.0]),
                           "nan": np.array([1.0, np.nan]), "bools": np.array([True, False]),
                           "text": np.array(["1"])}.items()],
]


@pytest.mark.parametrize("method, wrong", METHOD_CASES)
def test_fitted_model_methods_fail_closed(method, wrong):
    with pytest.raises(ConfigError):
        method(wrong)


def test_fitted_model_methods_check_the_width_and_take_lists_of_values():
    for name, model in CLASSIFIER_MODELS.items():
        wide = np.ones((2, 4))
        if name == "MajorityClassifier":
            assert model.predict_matrix(wide).tolist() == [model.direction] * 2
            continue
        message = r"^rows must be a 2-D array of numbers with 3 columns, got float64 of shape \(2, 4\)$"
        with pytest.raises(ConfigError, match=message):
            model.predict_matrix(wide)
    for model, start in FORECAST_MODELS.values():
        assert np.array_equal(model.forecast_path(list(VALUES), start), model.forecast_path(VALUES, start))
    message = r"^truths must be a 1-D array of -1, 0 and \+1, got int64 of shape \(1, 1\)$"
    with pytest.raises(ConfigError, match=message):
        ORACLE.draw_many(np.array([[1]]))


# two fits of one input, each as it is built from scratch
FITS = {
    "ARModel": lambda: fit_ar(SERIES, 2),
    "ARModel-naive": lambda: fit_forecaster(NAIVE, SERIES),
    "ExternalForecaster": lambda: fit_forecaster(ValueForecasterSpec("external", source=VALUES.copy()), SERIES),
    "LogisticClassifier": lambda: fit_classifier(TrendPredictorSpec("logistic"), FEATURES_3),
    "GaussianNBClassifier": lambda: fit_classifier(TrendPredictorSpec("gaussian_nb"), FEATURES_3),
    "KNNClassifier": lambda: fit_classifier(TrendPredictorSpec("knn", k=3), FEATURES_3),
    "FeatureMatrix": lambda: build_feature_table(Dataset(SERIES), 3).training_matrix(),
    "FeatureTable": lambda: build_feature_table(Dataset(SERIES), 3),
    "Dataset": lambda: Dataset(SERIES, {"x": SERIES}),
}


@pytest.mark.parametrize("name", FITS)
def test_fitted_records_compare_and_hash_by_identity(name):
    # an array field has no single truth value, so these records compare and hash by identity
    first, second = FITS[name](), FITS[name]()
    assert type(first).__name__ == name.split("-")[0]
    assert first == first and first != second and not first == second
    assert len({first, second, first}) == 2 and hash(first) == hash(first)
