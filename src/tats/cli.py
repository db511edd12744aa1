"""Experiment driver: run, sweep, simulate, metrics.

Settings come from an optional flat key=value config file, overridable
flag by flag on the command line. Runs are deterministic for a fixed
config and seed: rerunning writes byte-identical reports. Outputs land
in --out, the config's out_dir, the TATS_OUT_DIR environment variable,
or the working directory, in that order of preference.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .classifiers import ClassifierKind, TrendPredictorSpec
from .core import chronological_split
from .engine import TatsConfig, evaluate_forecasts, run_tats, sweep_alpha
from .errors import ConfigError, DataError, NumericError
from .forecasters import ValueForecasterSpec
from .ingest import (
    build_feature_table,
    load_csv,
    load_external_directions,
    load_external_forecasts,
)
from .metrics import mae, mape, mse, td_accuracy
from .montecarlo import SimConfig, validate_prop1
from .svgchart import line_chart
from .theory import estimate_theory

ENV_OUT_DIR = "TATS_OUT_DIR"
RESULTS_HEADER = ("model", "split", "alpha", "TDA", "MSE", "MAE", "MAPE", "Diff", "R-Diff")
DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

_FORECASTER_NAMES = ("naive", "drift", "ar", "ses", "external")
_CLASSIFIER_NAMES = ("majority", "logistic", "gaussian_nb", "knn", "oracle", "external")
_CONFIG_KEYS = (
    "data", "target_column", "exogenous_columns", "label_column", "train_fraction",
    "forecaster", "ar_order", "ses_smoothing", "external_forecasts",
    "classifier", "knn_k", "logistic_learning_rate", "logistic_iterations",
    "oracle_accuracy", "external_directions",
    "alphas", "n_lags", "include_exogenous", "exog_lag", "seed",
    "theory_split", "refit_each_step", "out_dir",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key = value config file (# starts a comment line)."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file not found: {p}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{p}: line {lineno}: unknown config key '{key}'")
        if key in out:
            raise ConfigError(f"{p}: line {lineno}: duplicate config key '{key}'")
        out[key] = value
    return out


def _as_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"config key '{key}' must be a number, got {value!r}") from None


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"config key '{key}' must be an integer, got {value!r}") from None


def _as_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config key '{key}' must be true or false, got {value!r}")


def _as_float_list(value: str, key: str) -> list[float]:
    return [_as_float(item.strip(), key) for item in value.split(",") if item.strip()]


def _as_str_list(value: str, key: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


@dataclass
class RunSettings:
    data: str
    target_column: str
    exogenous_columns: list[str]
    label_column: str | None
    train_fraction: float
    forecaster: str
    ar_order: int
    ses_smoothing: float | None
    external_forecasts: str | None
    classifier: str
    knn_k: int
    logistic_learning_rate: float
    logistic_iterations: int
    oracle_accuracy: float | None
    external_directions: str | None
    alphas: list[float] | None
    n_lags: int
    include_exogenous: bool
    exog_lag: int
    seed: int
    theory_split: str
    refit_each_step: bool
    out_dir: Path


def _resolve_settings(args: argparse.Namespace) -> RunSettings:
    file_vals = parse_config_file(args.config) if args.config else {}

    def pick(key: str, flag_value, convert, default):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            return convert(file_vals[key], key)
        return default

    flag_exog = None if args.exogenous_columns is None else _as_str_list(args.exogenous_columns, "exogenous_columns")
    flag_alphas = None if args.alphas is None else _as_float_list(args.alphas, "alphas")
    data = pick("data", args.data, lambda v, k: v, None)
    if data is None:
        raise ConfigError("no data file given (use --data or a config file)")
    target = pick("target_column", args.target_column, lambda v, k: v, None)
    if target is None:
        raise ConfigError("no target column given (use --target-column or a config file)")
    forecaster = pick("forecaster", args.forecaster, lambda v, k: v, "ar")
    if forecaster not in _FORECASTER_NAMES:
        raise ConfigError(f"unknown forecaster '{forecaster}' (choose from {', '.join(_FORECASTER_NAMES)})")
    classifier = pick("classifier", args.classifier, lambda v, k: v, "logistic")
    if classifier not in _CLASSIFIER_NAMES:
        raise ConfigError(f"unknown classifier '{classifier}' (choose from {', '.join(_CLASSIFIER_NAMES)})")
    theory_split = pick("theory_split", getattr(args, "theory_split", None), lambda v, k: v, "train")
    if theory_split not in ("train", "test"):
        raise ConfigError(f"theory_split must be 'train' or 'test', got '{theory_split}'")
    out_dir = pick("out_dir", args.out, lambda v, k: v, None)
    if out_dir is None:
        out_dir = os.environ.get(ENV_OUT_DIR, ".")
    return RunSettings(
        data=data,
        target_column=target,
        exogenous_columns=pick("exogenous_columns", flag_exog, _as_str_list, []),
        label_column=pick("label_column", args.label_column, lambda v, k: v, None),
        train_fraction=pick("train_fraction", args.train_fraction, _as_float, 0.7),
        forecaster=forecaster,
        ar_order=pick("ar_order", args.ar_order, _as_int, 2),
        ses_smoothing=pick("ses_smoothing", args.ses_smoothing, _as_float, None),
        external_forecasts=pick("external_forecasts", args.external_forecasts, lambda v, k: v, None),
        classifier=classifier,
        knn_k=pick("knn_k", args.knn_k, _as_int, 5),
        logistic_learning_rate=pick("logistic_learning_rate", args.logistic_learning_rate, _as_float, 0.1),
        logistic_iterations=pick("logistic_iterations", args.logistic_iterations, _as_int, 1000),
        oracle_accuracy=pick("oracle_accuracy", args.oracle_accuracy, _as_float, None),
        external_directions=pick("external_directions", args.external_directions, lambda v, k: v, None),
        alphas=pick("alphas", flag_alphas, _as_float_list, None),
        n_lags=pick("n_lags", args.n_lags, _as_int, 2),
        include_exogenous=pick("include_exogenous", args.include_exogenous, _as_bool, True),
        exog_lag=pick("exog_lag", args.exog_lag, _as_int, 0),
        seed=pick("seed", args.seed, _as_int, 0),
        theory_split=theory_split,
        refit_each_step=pick("refit_each_step", getattr(args, "refit_each_step", None), _as_bool, False),
        out_dir=Path(out_dir),
    )


def _forecaster_spec(settings: RunSettings, full_series) -> ValueForecasterSpec:
    name = settings.forecaster
    if name == "naive":
        return ValueForecasterSpec.naive()
    if name == "drift":
        return ValueForecasterSpec.drift()
    if name == "ar":
        return ValueForecasterSpec.ar(order=settings.ar_order)
    if name == "ses":
        if settings.ses_smoothing is None:
            raise ConfigError("SES forecaster needs ses_smoothing")
        return ValueForecasterSpec.ses(settings.ses_smoothing)
    if settings.external_forecasts is None:
        raise ConfigError("external forecaster needs external_forecasts")
    return ValueForecasterSpec.external(
        load_external_forecasts(settings.external_forecasts, full_series)
    )


def _classifier_spec(settings: RunSettings, full_series) -> TrendPredictorSpec:
    name = settings.classifier
    if name == "majority":
        return TrendPredictorSpec.majority()
    if name == "logistic":
        return TrendPredictorSpec.logistic(
            learning_rate=settings.logistic_learning_rate,
            iterations=settings.logistic_iterations,
        )
    if name == "gaussian_nb":
        return TrendPredictorSpec.gaussian_nb()
    if name == "knn":
        return TrendPredictorSpec.knn(k=settings.knn_k)
    if name == "oracle":
        if settings.oracle_accuracy is None:
            raise ConfigError("oracle classifier needs oracle_accuracy")
        return TrendPredictorSpec.oracle(accuracy=settings.oracle_accuracy, seed=settings.seed)
    if settings.external_directions is None:
        raise ConfigError("external classifier needs external_directions")
    return TrendPredictorSpec.external(
        load_external_directions(settings.external_directions, full_series)
    )


def _describe_forecaster(settings: RunSettings) -> str:
    if settings.forecaster == "ar":
        return f"ar({settings.ar_order})"
    if settings.forecaster == "ses":
        return f"ses({settings.ses_smoothing:g})"
    return settings.forecaster


def _describe_classifier(settings: RunSettings) -> str:
    if settings.classifier == "knn":
        return f"knn(k={settings.knn_k})"
    if settings.classifier == "oracle":
        return f"oracle(p={settings.oracle_accuracy:g})"
    return settings.classifier


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_results_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            writer.writerow([_cell(row[key]) for key in RESULTS_HEADER])


def _results_rows(settings: RunSettings, sweep, split: str) -> list[dict]:
    base_model = _describe_forecaster(settings)
    tats_model = f"tats({base_model}+{_describe_classifier(settings)})"
    rows = [{
        "model": base_model, "split": split, "alpha": None,
        "TDA": sweep.base_report.tda, "MSE": sweep.base_report.mse,
        "MAE": sweep.base_report.mae, "MAPE": sweep.base_report.mape,
        "Diff": None, "R-Diff": None,
    }]
    for entry in sweep.entries:
        rows.append({
            "model": tats_model, "split": split, "alpha": entry.alpha,
            "TDA": entry.report.tda, "MSE": entry.report.mse,
            "MAE": entry.report.mae, "MAPE": entry.report.mape,
            "Diff": entry.report.diff, "R-Diff": entry.report.r_diff,
        })
    return rows


def _prepare_experiment(settings: RunSettings):
    dataset = load_csv(
        settings.data, settings.target_column,
        settings.exogenous_columns, settings.label_column,
    )
    train, test = chronological_split(dataset.target, settings.train_fraction)
    forecaster = _forecaster_spec(settings, dataset.target)
    classifier = _classifier_spec(settings, dataset.target)
    features = None
    if classifier.kind not in (ClassifierKind.ORACLE, ClassifierKind.EXTERNAL):
        features = build_feature_table(
            dataset, settings.n_lags, settings.include_exogenous, settings.exog_lag
        )
    alphas = settings.alphas if settings.alphas is not None else list(DEFAULT_ALPHAS)
    config = TatsConfig(
        alpha=alphas[0] if alphas else 1.0,
        value_forecaster=forecaster,
        trend_predictor=classifier,
        n_lags=settings.n_lags,
        include_exogenous=settings.include_exogenous,
        exog_lag=settings.exog_lag,
        refit_each_step=settings.refit_each_step,
    )
    return dataset, train, test, features, config, alphas


def _print_sweep(settings: RunSettings, sweep) -> None:
    base = sweep.base_report
    print(
        f"base {_describe_forecaster(settings)}: "
        f"TDA={base.tda:.6g} MSE={base.mse:.6g} MAE={base.mae:.6g} MAPE={base.mape:.6g}"
    )
    for entry in sweep.entries:
        r = entry.report
        print(
            f"alpha={entry.alpha:g}: TDA={r.tda:.6g} MSE={r.mse:.6g} "
            f"Diff={r.diff:.6g} R-Diff={r.r_diff:.6g}"
        )


def _sweep_chart(sweep) -> str:
    xs = [entry.alpha for entry in sweep.entries]
    return line_chart(
        "MSE vs alpha",
        [
            ("adjusted", xs, [entry.report.mse for entry in sweep.entries]),
            ("base", [xs[0], xs[-1]], [sweep.base_report.mse, sweep.base_report.mse]),
        ],
        x_label="alpha",
        y_label="MSE",
    )


def cmd_run(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    _, train, test, features, config, alphas = _prepare_experiment(settings)
    sweep = sweep_alpha(config, alphas, train, test, features)
    theory_run = run_tats(config, train, test, features, eval_split=settings.theory_split)
    theory = estimate_theory(theory_run.base)

    out = settings.out_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = _results_rows(settings, sweep, split="test")
    _write_results_csv(out / "results.csv", rows)

    report = {
        "config": {
            "data": settings.data,
            "target_column": settings.target_column,
            "exogenous_columns": list(settings.exogenous_columns),
            "label_column": settings.label_column,
            "train_fraction": settings.train_fraction,
            "forecaster": _describe_forecaster(settings),
            "classifier": _describe_classifier(settings),
            "alphas": list(alphas),
            "n_lags": settings.n_lags,
            "include_exogenous": settings.include_exogenous,
            "exog_lag": settings.exog_lag,
            "seed": settings.seed,
            "theory_split": settings.theory_split,
            "refit_each_step": settings.refit_each_step,
        },
        "n_train": len(train),
        "n_test": len(test),
        "eval_split": "test",
        "base": sweep.base_report.to_dict(),
        "tats": [
            {
                "alpha": entry.alpha,
                "report": entry.report.to_dict(),
                "scenarios": entry.tally.to_dict(),
            }
            for entry in sweep.entries
        ],
        "theory": theory.to_dict(),
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    best = min(sweep.entries, key=lambda e: e.report.mse)
    best_run = evaluate_forecasts(*sweep.inputs, best.alpha)
    xs = [float(t) for t in best_run.tats.t]
    forecast_svg = line_chart(
        f"Test forecasts (alpha={best.alpha:g})",
        [
            ("actual", xs, list(best_run.tats.y_true)),
            ("base", xs, list(best_run.base.y_adj)),
            ("adjusted", xs, list(best_run.tats.y_adj)),
        ],
        x_label="t",
        y_label=settings.target_column,
    )
    (out / "forecasts.svg").write_text(forecast_svg)
    (out / "mse_vs_alpha.svg").write_text(_sweep_chart(sweep))

    _print_sweep(settings, sweep)
    print(
        f"theory[{settings.theory_split}]: p_db={theory.p_db:.6g} p_dt={theory.p_dt:.6g} "
        f"abs_gap={theory.abs_gap:.6g} bound={theory.lower_bound:.6g} "
        f"prop1_holds={theory.prop1_holds}"
    )
    print(f"wrote {out / 'report.json'}, {out / 'results.csv'}, and 2 charts")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    if settings.alphas is None:
        raise ConfigError("sweep needs --alphas (or alphas in the config file)")
    _, train, test, features, config, alphas = _prepare_experiment(settings)
    sweep = sweep_alpha(config, alphas, train, test, features)
    out = settings.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_results_csv(out / "results.csv", _results_rows(settings, sweep, split="test"))
    (out / "mse_vs_alpha.svg").write_text(_sweep_chart(sweep))
    _print_sweep(settings, sweep)
    print(f"wrote {out / 'results.csv'} and 1 chart")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(
        n_steps=args.n_steps, n_trials=args.n_trials, drift=args.drift,
        volatility=args.volatility, p_dt=args.p_dt, p_db=args.p_db,
        error_scale=args.error_scale, alpha=args.alpha, seed=args.seed,
    )
    report = validate_prop1(config)
    out = Path(args.out if args.out is not None else os.environ.get(ENV_OUT_DIR, "."))
    out.mkdir(parents=True, exist_ok=True)
    (out / "simulation.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    with (out / "trials.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("trial", "mse_base", "mse_tats", "reduction"))
        for i, trial in enumerate(report.trials):
            writer.writerow((i, repr(trial.mse_base), repr(trial.mse_tats), repr(trial.reduction)))
    print(
        f"mean_reduction={report.mean_reduction:.6g} (SE {report.std_error:.3g}) "
        f"bound={report.theoretical_bound:.6g} positive_fraction={report.positive_fraction:.4g} "
        f"bound_satisfied={report.bound_satisfied}"
    )
    print(f"wrote {out / 'simulation.json'} and {out / 'trials.csv'}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data, args.actual_column, [args.forecast_column])
    actual = dataset.target.values
    forecast = dataset.exogenous[args.forecast_column].values
    print(f"MSE {mse(actual, forecast)!r}")
    print(f"MAE {mae(actual, forecast)!r}")
    print(f"MAPE {mape(actual, forecast)!r}")
    if actual.size < 2:
        raise DataError("trend-direction accuracy needs at least 2 rows")
    tda = td_accuracy(actual[:-1], actual[1:], forecast[1:])
    print(f"TDA {tda!r}")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser, with_theory: bool) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--data", help="input CSV with one row per period")
    parser.add_argument("--target-column", help="name of the forecast target column")
    parser.add_argument("--exogenous-columns", help="comma-separated exogenous column names")
    parser.add_argument("--label-column", help="strictly increasing label column (dates, ids)")
    parser.add_argument("--train-fraction", type=float, help="chronological train share (default 0.7)")
    parser.add_argument("--forecaster", choices=_FORECASTER_NAMES, help="value forecaster (default ar)")
    parser.add_argument("--ar-order", type=int, help="AR lag count (default 2)")
    parser.add_argument("--ses-smoothing", type=float, help="SES smoothing weight in (0, 1]")
    parser.add_argument("--external-forecasts", help="time_index,forecast CSV for the external forecaster")
    parser.add_argument("--classifier", choices=_CLASSIFIER_NAMES, help="trend classifier (default logistic)")
    parser.add_argument("--knn-k", type=int, help="KNN neighbor count (default 5)")
    parser.add_argument("--logistic-learning-rate", type=float, help="gradient step (default 0.1)")
    parser.add_argument("--logistic-iterations", type=int, help="gradient steps (default 1000)")
    parser.add_argument("--oracle-accuracy", type=float, help="oracle hit probability")
    parser.add_argument("--external-directions", help="time_index,direction CSV for the external classifier")
    parser.add_argument("--alphas", help="comma-separated adjustment step sizes")
    parser.add_argument("--n-lags", type=int, help="classifier feature lag count (default 2)")
    parser.add_argument(
        "--include-exogenous", action=argparse.BooleanOptionalAction, default=None,
        help="use exogenous columns as classifier features (default on)",
    )
    parser.add_argument("--exog-lag", type=int, help="uniform lag applied to exogenous features (default 0)")
    parser.add_argument("--seed", type=int, help="seed for stochastic components (default 0)")
    parser.add_argument(
        "--refit-each-step", action=argparse.BooleanOptionalAction, default=None,
        help="refit the forecaster at every walk-forward step (default off)",
    )
    if with_theory:
        parser.add_argument(
            "--theory-split", choices=("train", "test"),
            help="split used for plug-in theory estimates (default train)",
        )
    parser.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or .)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tats", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="full experiment: sweep, theory estimate, report, charts")
    _add_run_flags(run, with_theory=True)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="evaluate a list of alphas, write results.csv")
    _add_run_flags(sweep, with_theory=False)
    sweep.set_defaults(func=cmd_sweep)

    simulate = sub.add_parser("simulate", help="Monte-Carlo check of the reduction guarantee")
    simulate.add_argument("--n-steps", type=int, default=SimConfig.n_steps, help="steps per trial")
    simulate.add_argument("--n-trials", type=int, default=SimConfig.n_trials, help="number of trials")
    simulate.add_argument("--drift", type=float, default=SimConfig.drift, help="walk drift per step")
    simulate.add_argument("--volatility", type=float, default=SimConfig.volatility, help="walk step stddev")
    simulate.add_argument("--p-dt", type=float, default=SimConfig.p_dt, help="forecaster direction accuracy")
    simulate.add_argument("--p-db", type=float, default=SimConfig.p_db, help="classifier direction accuracy")
    simulate.add_argument("--error-scale", type=float, default=SimConfig.error_scale, help="forecast error scale u in (0, 2)")
    simulate.add_argument("--alpha", type=float, default=SimConfig.alpha, help="adjustment step size")
    simulate.add_argument("--seed", type=int, default=SimConfig.seed, help="root seed")
    simulate.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or .)")
    simulate.set_defaults(func=cmd_simulate)

    metrics = sub.add_parser("metrics", help="TDA/MSE/MAE/MAPE for an actual,forecast CSV")
    metrics.add_argument("--data", required=True, help="CSV with actual and forecast columns")
    metrics.add_argument("--actual-column", default="actual", help="actuals column name")
    metrics.add_argument("--forecast-column", default="forecast", help="forecasts column name")
    metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
