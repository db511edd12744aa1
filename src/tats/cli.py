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
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .classifiers import CLASSIFIER_KINDS, TrendPredictorSpec
from .engine import TatsConfig, _check_alphas, prepare_run, sweep_alpha
from .errors import ConfigError, DataError, NumericError
from .forecasters import FORECASTER_KINDS, ValueForecasterSpec
from .ingest import _read_text, load_csv, load_external_directions, load_external_forecasts
from .metrics import mae, mape, mse, td_accuracy
from .montecarlo import SimConfig, validate_prop1
from .svgchart import line_chart
from .theory import run_experiment

ENV_OUT_DIR = "TATS_OUT_DIR"
RESULTS_HEADER = ("model", "split", "alpha", "TDA", "MSE", "MAE", "MAPE", "Diff", "R-Diff")
DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


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
    for lineno, line in enumerate(_read_text(p).splitlines(), start=1):
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


def _as_str(value: str, key: str) -> str:
    return value


def _as_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_bool(value: str | bool, key: str) -> bool:
    # a --flag/--no-flag pair already yields a bool, which str() turns into true/false
    lowered = str(value).lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _as_float_list(value: str, key: str) -> list[float]:
    return [_as_float(item.strip(), key) for item in value.split(",") if item.strip()]


def _as_str_list(value: str, key: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


# The run/sweep settings, one row each: (config key, converter, default,
# allowed values or None, flag help). Config keys, flags, their help's
# defaults and resolution all come from this table; the order is the order
# of the flags in --help. The fit's defaults are TatsConfig's own.
_SETTINGS = (
    ("data", _as_str, None, None, "input CSV with one row per period"),
    ("target_column", _as_str, None, None, "name of the forecast target column"),
    ("exogenous_columns", _as_str_list, (), None, "comma-separated exogenous column names"),
    ("label_column", _as_str, None, None, "strictly increasing label column (dates, ids)"),
    ("train_fraction", _as_float, TatsConfig.train_fraction, None, "chronological train share"),
    ("forecaster", _as_str, "ar", FORECASTER_KINDS, "value forecaster"),
    ("ar_order", _as_int, 2, None, "AR lag count"),
    ("ses_smoothing", _as_float, None, None, "SES smoothing weight in (0, 1]"),
    ("external_forecasts", _as_str, None, None, "time_index,forecast CSV for the external forecaster"),
    ("classifier", _as_str, "logistic", CLASSIFIER_KINDS, "trend classifier"),
    ("knn_k", _as_int, 5, None, "KNN neighbor count"),
    ("oracle_accuracy", _as_float, None, None, "oracle hit probability"),
    ("external_directions", _as_str, None, None, "time_index,direction CSV for the external classifier"),
    ("alphas", _as_float_list, None, None, "comma-separated adjustment step sizes"),
    ("n_lags", _as_int, TatsConfig.n_lags, None, "classifier feature lag count"),
    ("exog_lag", _as_int, TatsConfig.exog_lag, None, "uniform lag applied to exogenous features"),
    ("seed", _as_int, 0, None, "seed for stochastic components"),
    ("refit_each_step", _as_bool, TatsConfig.refit_each_step, None, "refit the forecaster at every walk-forward step"),
    ("theory_split", _as_str, "train", ("train", "test"), "split used for plug-in theory estimates"),
    ("out_dir", _as_str, None, None, f"output directory (default ${ENV_OUT_DIR} or .)"),
)
_CONFIG_KEYS = tuple(row[0] for row in _SETTINGS)


def _flag(key: str) -> str:
    """The command-line flag of a setting; out_dir is the one spelled --out."""
    return "--out" if key == "out_dir" else "--" + key.replace("_", "-")


def _out_dir(value: str | None) -> Path:
    return Path(value if value is not None else os.environ.get(ENV_OUT_DIR, "."))


def _resolve_settings(args: argparse.Namespace) -> None:
    """Set every run/sweep setting on args: flag, else config value, else default."""
    file_vals = parse_config_file(args.config) if args.config else {}
    for key, convert, default, choices, _ in _SETTINGS:
        raw = getattr(args, _flag(key)[2:].replace("-", "_"), None)
        if raw is None:
            raw = file_vals.get(key)
        value = default if raw is None else convert(raw, key)
        if choices is not None and value not in choices:
            raise ConfigError(f"unknown {key} '{value}' (choose from {', '.join(choices)})")
        setattr(args, key, value)
    if args.data is None:
        raise ConfigError("no data file given (use --data or a config file)")
    if args.target_column is None:
        raise ConfigError("no target column given (use --target-column or a config file)")
    if args.alphas is not None:
        args.alphas = _check_alphas(args.alphas)
    args.out_dir = _out_dir(args.out_dir)


def _forecaster_spec(args: argparse.Namespace, full_series) -> ValueForecasterSpec:
    name = args.forecaster
    if name == "ar":
        return ValueForecasterSpec("ar", order=args.ar_order)
    if name == "ses":
        if args.ses_smoothing is None:
            raise ConfigError("SES forecaster needs ses_smoothing")
        return ValueForecasterSpec("ses", smoothing=args.ses_smoothing)
    if name == "external":
        if args.external_forecasts is None:
            raise ConfigError("external forecaster needs external_forecasts")
        return ValueForecasterSpec(
            "external", source=load_external_forecasts(args.external_forecasts, full_series)
        )
    return ValueForecasterSpec(name)


def _classifier_spec(args: argparse.Namespace, full_series) -> TrendPredictorSpec:
    name = args.classifier
    if name == "knn":
        return TrendPredictorSpec("knn", k=args.knn_k)
    if name == "oracle":
        if args.oracle_accuracy is None:
            raise ConfigError("oracle classifier needs oracle_accuracy")
        return TrendPredictorSpec("oracle", accuracy=args.oracle_accuracy, seed=args.seed)
    if name == "external":
        if args.external_directions is None:
            raise ConfigError("external classifier needs external_directions")
        return TrendPredictorSpec(
            "external", source=load_external_directions(args.external_directions, full_series)
        )
    return TrendPredictorSpec(name)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_outputs(out: Path, texts: dict[str, str]) -> None:
    """Write each rendered artifact into out, all or none.

    A failed write removes every file this call opened, the failed one
    included, so no artifact of a failed run is left behind.
    """
    out.mkdir(parents=True, exist_ok=True)
    opened = []
    try:
        for name, text in texts.items():
            with (out / name).open("w", encoding="utf-8", newline="") as fh:
                opened.append(out / name)
                fh.write(text)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def _results_csv(config: TatsConfig, alphas, base, adjusted) -> str:
    base_model = config.value_forecaster.label
    tats_model = f"tats({base_model}+{config.trend_predictor.label})"
    # one tuple per row, in RESULTS_HEADER order
    rows = [(base_model, "test", None, base.tda, base.mse, base.mae, base.mape, None, None)]
    rows += [
        (tats_model, "test", alpha, r.tda, r.mse, r.mae, r.mape, r.diff, r.r_diff)
        for alpha, r in zip(alphas, adjusted)
    ]
    # no label or number needs CSV quoting
    return "".join(",".join(map(_cell, row)) + "\n" for row in [RESULTS_HEADER, *rows])


def _prepare_experiment(args: argparse.Namespace):
    dataset = load_csv(args.data, args.target_column, args.exogenous_columns, args.label_column)
    forecaster = _forecaster_spec(args, dataset.target)
    classifier = _classifier_spec(args, dataset.target)
    alphas = args.alphas if args.alphas is not None else list(DEFAULT_ALPHAS)
    config = TatsConfig(
        value_forecaster=forecaster, trend_predictor=classifier, n_lags=args.n_lags,
        refit_each_step=args.refit_each_step, exog_lag=args.exog_lag, train_fraction=args.train_fraction,
    )
    return dataset, config, alphas


def _print_sweep(config: TatsConfig, alphas, base, adjusted) -> None:
    base_mape = "n/a" if base.mape is None else f"{base.mape:.6g}"
    print(
        f"base {config.value_forecaster.label}: "
        f"TDA={base.tda:.6g} MSE={base.mse:.6g} MAE={base.mae:.6g} MAPE={base_mape}"
    )
    for alpha, r in zip(alphas, adjusted):
        r_diff = "n/a" if r.r_diff is None else f"{r.r_diff:.6g}"
        print(
            f"alpha={alpha:g}: TDA={r.tda:.6g} MSE={r.mse:.6g} "
            f"Diff={r.diff:.6g} R-Diff={r_diff}"
        )


def _sweep_chart(alphas, base, adjusted) -> str:
    return line_chart(
        "MSE vs alpha",
        [
            ("adjusted", list(alphas), [r.mse for r in adjusted]),
            ("base", [alphas[0], alphas[-1]], [base.mse, base.mse]),
        ],
        x_label="alpha", y_label="MSE",
    )


def cmd_run(args: argparse.Namespace) -> int:
    _resolve_settings(args)
    dataset, config, alphas = _prepare_experiment(args)
    run = run_experiment(config, dataset, alphas, args.theory_split)
    report = run.to_dict()
    report["config"].update(
        data=args.data, target_column=args.target_column, exogenous_columns=list(args.exogenous_columns),
        label_column=args.label_column, seed=args.seed,
    )
    # the first alpha of least test MSE
    best = min(zip(run.alphas, run.adjusted), key=lambda pair: pair[1].mse)[0]
    trace = run.trace
    y_adj, _ = trace.adjusted(best)
    xs = trace.t.astype(float).tolist()
    forecast_svg = line_chart(
        f"Test forecasts (alpha={best:g})",
        [("actual", xs, trace.y_true.tolist()), ("base", xs, trace.y_hat.tolist()), ("adjusted", xs, y_adj.tolist())],
        x_label="t", y_label=args.target_column,
    )
    out = args.out_dir
    _write_outputs(out, {
        "results.csv": _results_csv(config, run.alphas, run.base, run.adjusted),
        "report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
        "forecasts.svg": forecast_svg,
        "mse_vs_alpha.svg": _sweep_chart(run.alphas, run.base, run.adjusted),
    })
    _print_sweep(config, run.alphas, run.base, run.adjusted)
    theory = run.theory
    print(f"theory[{args.theory_split}]: p_db={theory.p_db:.6g} p_dt={theory.p_dt:.6g} "
          f"abs_gap={theory.abs_gap:.6g} bound={theory.lower_bound:.6g} prop1_holds={theory.prop1_holds}")
    print(f"wrote {out / 'report.json'}, {out / 'results.csv'}, and 2 charts")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _resolve_settings(args)
    if args.alphas is None:
        raise ConfigError("sweep needs --alphas (or alphas in the config file)")
    dataset, config, alphas = _prepare_experiment(args)
    [test_trace] = prepare_run(config, dataset)
    base, adjusted = sweep_alpha(test_trace, alphas)
    out = args.out_dir
    _write_outputs(out, {
        "results.csv": _results_csv(config, alphas, base, adjusted),
        "mse_vs_alpha.svg": _sweep_chart(alphas, base, adjusted),
    })
    _print_sweep(config, alphas, base, adjusted)
    print(f"wrote {out / 'results.csv'} and 1 chart")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    report = validate_prop1(SimConfig(**{field.name: getattr(args, field.name) for field in fields(SimConfig)}))
    # repr of a float never needs CSV quoting; each row is formatted from one trial's floats
    rows = (f"{i},{b!r},{t!r},{(b - t)!r}\n" for i, (b, t) in enumerate(row.tolist() for row in report.trials))
    out = _out_dir(args.out)
    _write_outputs(out, {
        "simulation.json": json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
        "trials.csv": "trial,mse_base,mse_tats,reduction\n" + "".join(rows),
    })
    print(
        f"mean_reduction={report.mean_reduction:.6g} (SE {report.std_error:.3g}) "
        f"bound={report.theoretical_bound:.6g} positive_fraction={report.positive_fraction:.4g} "
        f"bound_satisfied={report.bound_satisfied}"
    )
    print(f"wrote {out / 'simulation.json'} and {out / 'trials.csv'}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.forecast_column == args.actual_column:
        raise ConfigError(f"--actual-column and --forecast-column both name '{args.actual_column}'")
    dataset = load_csv(args.data, args.actual_column, [args.forecast_column])
    actual = dataset.target.values
    forecast = dataset.exogenous[args.forecast_column].values
    if actual.size < 2:
        raise DataError("trend-direction accuracy needs at least 2 rows")
    # every metric is computed before the first line, so an error prints nothing
    lines = [
        f"MSE {mse(actual, forecast)!r}",
        f"MAE {mae(actual, forecast)!r}",
        f"MAPE {mape(actual, forecast)!r}",
        f"TDA {td_accuracy(actual[:-1], actual[1:], forecast[1:])!r}",
    ]
    print("\n".join(lines))
    return 0


def _add_run_flags(parser: argparse.ArgumentParser, with_theory: bool) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    for key, convert, default, choices, help_text in _SETTINGS:
        if key == "theory_split" and not with_theory:
            continue
        if default not in (None, ()):
            help_text += f" (default {('on' if default else 'off') if convert is _as_bool else default})"
        if convert is _as_bool:
            parser.add_argument(_flag(key), action=argparse.BooleanOptionalAction, help=help_text)
        else:
            parser.add_argument(_flag(key), choices=choices, help=help_text)


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
    # one flag per SimConfig field, of the field's type and default
    sim_help = dict(
        n_steps="steps per trial", n_trials="number of trials", drift="walk drift per step",
        volatility="walk step stddev", p_dt="forecaster direction accuracy", p_db="classifier direction accuracy",
        error_scale="forecast error scale u in (0, 2)", alpha="adjustment step size", seed="root seed",
    )
    for field in fields(SimConfig):
        simulate.add_argument(_flag(field.name), type=type(field.default), default=field.default,
                              help=sim_help[field.name])
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
    # reads raise DataError, so an OSError here comes from writing the outputs
    except (_UsageError, ConfigError, OSError) as exc:
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
