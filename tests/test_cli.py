import argparse
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tats.engine
from tats.classifiers import TrendPredictorSpec
from tats.cli import (
    _CONFIG_KEYS,
    _SETTINGS,
    DEFAULT_ALPHAS,
    RESULTS_HEADER,
    _build_parser,
    _classifier_spec,
    _flag,
    _forecaster_spec,
    _resolve_settings,
    main,
    parse_config_file,
)
from tats.core import chronological_split
from tats.engine import TatsConfig, prepare_run
from tats.forecasters import ValueForecasterSpec
from tats.ingest import load_csv, load_external_directions
from tats.montecarlo import SimConfig
from tats.theory import run_experiment

seed = 909
ROOT = Path(__file__).resolve().parents[1]


def _write_prices(path, n=120, rng_seed=42):
    rng = np.random.default_rng(rng_seed)
    gold = np.cumsum(rng.normal(0.2, 1.0, size=n)) + 100.0
    ftse = np.cumsum(rng.normal(0.0, 2.0, size=n)) + 400.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "gold", "ftse"])
        for i in range(n):
            w.writerow([i, repr(float(gold[i])), repr(float(ftse[i]))])
    return path


def _write_fixture(path):
    path.write_text(
        "actual,forecast\n7,8\n5,2\n9,14\n7,6\n8,10\n"
    )
    return path


def _run_args(data, out, extra=()):
    return [
        "run",
        "--data", str(data),
        "--target-column", "gold",
        "--classifier", "oracle",
        "--oracle-accuracy", "0.8",
        "--seed", "3",
        "--out", str(out),
        *extra,
    ]


def test_run_writes_artifacts(tmp_path, capsys):
    data = _write_prices(tmp_path / "prices.csv")
    out = tmp_path / "out"
    assert main(_run_args(data, out)) == 0
    for name in ("report.json", "results.csv", "forecasts.svg", "mse_vs_alpha.svg"):
        assert (out / name).is_file(), name
    captured = capsys.readouterr().out
    assert "theory[" in captured


def test_results_csv_header_and_rows(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    out = tmp_path / "out"
    main(_run_args(data, out))
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == RESULTS_HEADER
    assert len(rows) == 1 + 1 + len(DEFAULT_ALPHAS)  # header, base, one per alpha
    assert rows[1][0].startswith("ar(")
    assert rows[1][2] == ""  # base row has no alpha
    assert all(r[1] == "test" for r in rows[1:])


def test_run_is_byte_deterministic(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(_run_args(data, out1))
    main(_run_args(data, out2))
    for name in ("report.json", "results.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_report_structure(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    out = tmp_path / "out"
    main(_run_args(data, out, extra=("--alphas", "1,2")))
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["alphas"] == [1.0, 2.0]
    assert report["n_train"] == 84
    assert report["n_test"] == 36
    assert len(report["tats"]) == 2
    assert {"p_db", "p_dt", "abs_gap", "lower_bound"} <= set(report["theory"])
    assert report["base"]["n_steps"] == 36


def test_config_file_and_flag_precedence(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment settings\n"
        f"data = {data}\n"
        "target_column = gold\n"
        "train_fraction = 0.8\n"
        "classifier = oracle\n"
        "oracle_accuracy = 0.8\n"
        "alphas = 1\n"
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(cfg), "--train-fraction", "0.6", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train_fraction"] == 0.6  # flag beats file
    assert report["config"]["alphas"] == [1.0]  # file beats default


def test_out_dir_env_var(tmp_path, monkeypatch):
    data = _write_prices(tmp_path / "prices.csv")
    target = tmp_path / "from_env"
    monkeypatch.setenv("TATS_OUT_DIR", str(target))
    args = [a for a in _run_args(data, "unused") if a != "--out" and a != "unused"]
    assert main(args) == 0
    assert (target / "report.json").is_file()


def test_sweep_requires_alphas(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    code = main(
        [
            "sweep",
            "--data", str(data),
            "--target-column", "gold",
            "--classifier", "oracle",
            "--oracle-accuracy", "0.7",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1


def test_sweep_writes_results(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--data", str(data),
            "--target-column", "gold",
            "--classifier", "oracle",
            "--oracle-accuracy", "0.7",
            "--alphas", "0.5,1,2",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header, base, 3 alphas


def test_sweep_with_one_huge_alpha_draws_its_chart(tmp_path, capsys):
    # 1e20 + 1.0 == 1e20, so a one-alpha axis needs more than a unit of width
    data = _write_prices(tmp_path / "prices.csv", n=2000)
    out = tmp_path / "out"
    argv = ["sweep", "--data", str(data), "--target-column", "gold", "--forecaster", "naive",
            "--classifier", "majority", "--alphas", "1e20", "--out", str(out)]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    svg = (out / "mse_vs_alpha.svg").read_text()
    assert "nan" not in svg.lower() and "inf" not in svg.lower()


def test_simulate_writes_report(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--n-steps", "200",
            "--n-trials", "10",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    sim = json.loads((out / "simulation.json").read_text())
    assert sim["config"]["n_trials"] == 10
    assert "mean_reduction" in sim
    with open(out / "trials.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "mse_base", "mse_tats", "reduction"]
    assert len(rows) == 11
    assert "mean_reduction" in capsys.readouterr().out


# Runs tats simulate and then checks, in the same process, that it forked once where it may
# use two CPUs, that no child is left, and that the child imported nothing; each failure
# writes to stderr.
FORKING_SIMULATE = """
import os, sys
parent, forks = os.getpid(), []

def audit(event, args):
    if event == "os.fork":
        forks.append(event)
    elif event == "import" and os.getpid() != parent:
        os.write(2, f"the child imported {args[0]}\\n".encode())

sys.addaudithook(audit)
from tats.cli import main
code = main(sys.argv[1:])
try:
    sys.exit(f"a child outlived the command: {os.waitpid(-1, os.WNOHANG)}")
except ChildProcessError:
    pass
if len(forks) != (len(os.sched_getaffinity(0)) > 1):
    sys.exit(f"{len(forks)} forks")
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="forks on Linux")
def test_simulate_forks_quietly_under_dev_mode_and_warnings_as_errors(tmp_path):
    # -X dev shows ResourceWarnings and -W error makes every warning, numpy's and a fork's
    # DeprecationWarning included, an error, so none can reach a user's terminal unseen
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", FORKING_SIMULATE, "simulate",
         "--n-trials", "40", "--n-steps", "5000", "--out", str(tmp_path / "sim")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "mean_reduction" in done.stdout
    assert sorted(p.name for p in (tmp_path / "sim").iterdir()) == ["simulation.json", "trials.csv"]


@pytest.mark.parametrize("size", [
    ["--n-steps", "1000000000000000", "--n-trials", "1"],
    ["--n-trials", "1000000000000000"],
    ["--n-trials", "100000000000000000000"],
    ["--n-trials", "4294967296"],
], ids=["steps", "trials", "trials-past-int64", "trials-past-32-bits"])
def test_simulate_sizes_that_cannot_be_allocated_exit_1(size, tmp_path):
    # each size needs more than 2**47 bytes, past what a 64-bit address space maps, so nothing
    # is allocated, but 2**32 trials, whose results take 96 GiB, are refused before allocating
    # since a trial's index is one 32-bit word of its seeds; a fresh process with a timeout,
    # since a regression may grow until killed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "tats", "simulate", *size, "--out", str(tmp_path / "sim")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert re.fullmatch(r"error: n_trials=\d+, n_steps=\d+: too large to allocate\n", done.stderr)
    assert not (tmp_path / "sim").exists()


def test_metrics_output(tmp_path, capsys):
    data = _write_fixture(tmp_path / "fc.csv")
    code = main(["metrics", "--data", str(data)])
    assert code == 0
    out = capsys.readouterr().out
    assert "MSE 8.0" in out
    assert "MAE 2.4" in out
    assert "TDA 1.0" in out


def test_metrics_custom_columns(tmp_path, capsys):
    path = tmp_path / "fc.csv"
    path.write_text("y,yhat\n7,8\n5,2\n9,14\n7,6\n8,10\n")
    code = main(
        ["metrics", "--data", str(path), "--actual-column", "y", "--forecast-column", "yhat"]
    )
    assert code == 0
    assert "MSE 8.0" in capsys.readouterr().out


@pytest.mark.parametrize("flags, column", [
    (["--actual-column", "actual", "--forecast-column", "actual"], "actual"),
    (["--forecast-column", "actual"], "actual"),
    (["--actual-column", "forecast"], "forecast"),
], ids=["both", "forecast-only", "actual-only"])
def test_metrics_refuses_one_column_for_both_sides(tmp_path, capsys, flags, column):
    # the message names the two flags, not the exogenous columns that load_csv would name
    data = _write_fixture(tmp_path / "fc.csv")
    assert main(["metrics", "--data", str(data), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --actual-column and --forecast-column both name '{column}'\n"


@pytest.mark.parametrize("text, cell, column, row", [
    ("actual,forecast\n7,8\n5,2\n9,inf\n7,6\n", "inf", "forecast", 3),
    ("actual,forecast\n7,8\n5,2\n9,14\n-Infinity,6\n", "-Infinity", "actual", 4),
    ("actual,forecast\n7,8\n5, nan \n9,14\n7,6\n", "nan", "forecast", 2),
    ("actual,forecast\n7,8\n5,1e400\n9,14\n7,6\n", "1e400", "forecast", 2),
], ids=["forecast-inf", "actual-inf", "forecast-nan", "forecast-overflow"])
def test_metrics_names_the_column_and_row_of_a_non_finite_cell(tmp_path, capsys, text, cell, column, row):
    path = tmp_path / "fc.csv"
    path.write_text(text)
    assert main(["metrics", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {path}: non-finite value '{cell}' in column '{column}', data row {row}\n"


def test_metrics_one_row_prints_nothing(tmp_path, capsys):
    path = tmp_path / "fc.csv"
    path.write_text("actual,forecast\n7,8\n")
    assert main(["metrics", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trend-direction accuracy needs at least 2 rows" in captured.err


def test_metrics_zero_actual_prints_nothing(tmp_path, capsys):
    path = tmp_path / "fc.csv"
    path.write_text("actual,forecast\n0,1\n2,3\n")
    assert main(["metrics", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAPE undefined: actual value at step 0 is zero" in captured.err


def test_metrics_tda_on_tiny_moves(tmp_path, capsys):
    # every forecast moves the way the actual does, by about 1e-200
    path = tmp_path / "fc.csv"
    path.write_text("actual,forecast\n1e-200,1e-200\n2e-200,1.5e-200\n1e-200,1.5e-200\n3e-200,2e-200\n")
    assert main(["metrics", "--data", str(path)]) == 0
    assert "TDA 1.0\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("classifier", ["logistic", "oracle", "external"])
def test_negative_exog_lag_is_a_config_error(tmp_path, capsys, command, classifier):
    data = _write_prices(tmp_path / "prices.csv")
    directions = tmp_path / "dirs.csv"
    directions.write_text("time_index,direction\n" + "".join(f"{t},1\n" for t in range(1, 120)))
    extra = {
        "logistic": [],
        "oracle": ["--oracle-accuracy", "0.7"],
        "external": ["--external-directions", str(directions)],
    }[classifier]
    out = tmp_path / "o"
    argv = [command, "--data", str(data), "--target-column", "gold", "--classifier", classifier,
            *extra, "--alphas", "1", "--exog-lag", "-3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: exog_lag must be non-negative, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("drop, extra, message", [
    pytest.param("--data", [], "no data file given (use --data or a config file)", id="no-data"),
    pytest.param("--target-column", [], "no target column given (use --target-column or a config file)",
                 id="no-target"),
    pytest.param(None, ["--forecaster", "ses"], "SES forecaster needs ses_smoothing", id="ses"),
    pytest.param(None, ["--forecaster", "external"], "external forecaster needs external_forecasts",
                 id="external-forecaster"),
    pytest.param(None, ["--classifier", "oracle"], "oracle classifier needs oracle_accuracy", id="oracle"),
    pytest.param(None, ["--classifier", "external"], "external classifier needs external_directions",
                 id="external-classifier"),
])
def test_missing_settings_are_config_errors(tmp_path, capsys, drop, extra, message):
    data, out = _write_prices(tmp_path / "prices.csv"), tmp_path / "o"
    given = {"--data": str(data), "--target-column": "gold", "--out": str(out)}
    argv = ["run", *[part for flag, value in given.items() if flag != drop for part in (flag, value)], *extra]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_exit_code_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 1
    data = _write_prices(tmp_path / "prices.csv")
    bad_fraction = main(
        _run_args(data, tmp_path / "o", extra=("--train-fraction", "1.5"))
    )
    assert bad_fraction == 1


def test_exit_code_data_errors(tmp_path):
    missing = main(
        ["run", "--data", str(tmp_path / "nope.csv"), "--target-column", "gold",
         "--out", str(tmp_path / "o")]
    )
    assert missing == 2
    data = _write_prices(tmp_path / "prices.csv")
    bad_column = main(
        ["run", "--data", str(data), "--target-column", "nope",
         "--out", str(tmp_path / "o")]
    )
    assert bad_column == 2


def test_exit_code_numeric_error(tmp_path):
    # an external forecaster that calls every rise a fall is overridden
    # wherever the oracle is right, and steps of alpha=1e308 overflow
    n = 10
    values = [float(100 + i) for i in range(n)]
    data = tmp_path / "tiny.csv"
    data.write_text("gold\n" + "\n".join(str(v) for v in values) + "\n")
    fc = tmp_path / "wrong.csv"
    fc.write_text(
        "time_index,forecast\n"
        + "\n".join(f"{t},{values[t - 1] - 1.0}" for t in range(1, n))
        + "\n"
    )
    code = main(
        [
            "run",
            "--data", str(data),
            "--target-column", "gold",
            "--forecaster", "external",
            "--external-forecasts", str(fc),
            "--classifier", "oracle",
            "--oracle-accuracy", "0.8",
            "--alphas", "1e308",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 3


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_external_forecast_exits_two(tmp_path, capsys, cell):
    data = _write_prices(tmp_path / "prices.csv", n=60)
    values = load_csv(data, "gold").target.values
    fc = tmp_path / "fc.csv"
    fc.write_text("time_index,forecast\n" + "".join(
        f"{t},{cell if t == 50 else repr(float(values[t - 1]))}\n" for t in range(1, 60)
    ))
    argv = ["run", "--data", str(data), "--target-column", "gold", "--forecaster", "external",
            "--external-forecasts", str(fc), "--classifier", "oracle", "--oracle-accuracy", "0.7",
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {fc}: forecast at time_index 50 is not finite, got {cell}"
    ]


def _label_cells(kind, n):
    cells = [str(i) for i in range(n)]
    if kind == "decreasing":
        cells.reverse()
    elif kind == "duplicate":
        cells[30] = cells[29]
    elif kind == "nan":
        cells[30] = "nan"
    elif kind == "mixed-types":
        cells[-1] = "x"  # every label now compares as text, and "9" > "10"
    return cells


@pytest.mark.parametrize(
    "kind, message",
    [
        ("decreasing", "labels must be strictly increasing, violated at position 1"),
        ("duplicate", "labels must be strictly increasing, violated at position 30"),
        ("nan", "labels must be strictly increasing, violated at position 30"),
        ("mixed-types", "labels must be strictly increasing, violated at position 10"),
        ("nan-target", "{data}: non-finite value 'nan' in column 'gold', data row 4"),
    ],
)
def test_bad_label_column_exits_two_with_one_line(tmp_path, capsys, kind, message):
    n = 60
    data = tmp_path / "labeled.csv"
    gold = [repr(100.0 + 0.5 * i) for i in range(n)]
    if kind == "nan-target":
        gold[3] = "nan"
        labels = _label_cells("decreasing", n)
    else:
        labels = _label_cells(kind, n)
    data.write_text("day,gold\n" + "".join(f"{d},{g}\n" for d, g in zip(labels, gold)))
    argv = _run_args(data, tmp_path / "o", extra=("--label-column", "day"))
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message.format(data=data)}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["forecasts", "directions"])
def test_test_split_only_external_table_names_the_train_split(tmp_path, capsys, kind):
    # the paper's setting: external values exist for the test split only
    data = _write_prices(tmp_path / "prices.csv", n=60)
    values = load_csv(data, "gold").target.values
    n_train = len(chronological_split(load_csv(data, "gold").target, 0.7)[0])
    table = tmp_path / "table.csv"
    if kind == "forecasts":
        table.write_text("time_index,forecast\n" + "".join(
            f"{t},{float(values[t - 1])!r}\n" for t in range(n_train, 60)
        ))
        extra = ["--forecaster", "external", "--external-forecasts", str(table),
                 "--classifier", "oracle", "--oracle-accuracy", "0.7"]
        first_missing = 1
    else:
        table.write_text("time_index,direction\n" + "".join(
            f"{t},{1 if t % 2 else -1}\n" for t in range(n_train, 60)
        ))
        extra = ["--classifier", "external", "--external-directions", str(table)]
        first_missing = 2  # the ar(2) in-sample walk starts at index 2
    argv = ["run", "--data", str(data), "--target-column", "gold", *extra, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: external {kind} missing time index {first_missing} (in the train split); "
        "the theory estimate reads the train split, and --theory-split test avoids it"
    ]
    assert main([*argv, "--theory-split", "test"]) == 0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_run_help_states_each_default(capsys):
    assert main(["run", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in (
        "chronological train share (default 0.7)", "value forecaster (default ar)", "AR lag count (default 2)",
        "trend classifier (default logistic)", "KNN neighbor count (default 5)",
        "classifier feature lag count (default 2)", "uniform lag applied to exogenous features (default 0)",
        "seed for stochastic components (default 0)", "refit the forecaster at every walk-forward step (default off)",
        "split used for plug-in theory estimates (default train)", "output directory (default $TATS_OUT_DIR or .)",
        "comma-separated exogenous column names --label-column",
    ):
        assert phrase in text, phrase


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\n\ndata = x.csv\nseed = 4\n")
    assert parse_config_file(cfg) == {"data": "x.csv", "seed": "4"}


def test_parse_config_file_errors(tmp_path):
    from tats import ConfigError, DataError

    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError):
        parse_config_file(dup)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(unknown)
    broken = tmp_path / "broken.cfg"
    broken.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(broken)
    with pytest.raises(DataError):
        parse_config_file(tmp_path / "missing.cfg")


@pytest.mark.parametrize(
    "where, content, offset",
    [
        pytest.param("data", b"day,gold\n0,1.0\n1,caf\xe9\n", 20, id="data"),
        pytest.param("external", b"time_index,direction\n1,1\n# caf\xe9\n", 30, id="external"),
        pytest.param("config", b"# caf\xe9\nseed = 1\n", 5, id="config"),
    ],
)
def test_undecodable_input_exits_two_with_one_line(tmp_path, capsys, where, content, offset):
    data = _write_prices(tmp_path / "prices.csv")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(content)
    argv = _run_args(bad if where == "data" else data, tmp_path / "o")
    if where == "external":
        argv += ["--classifier", "external", "--external-directions", str(bad)]
    elif where == "config":
        argv += ["--config", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"data error: {bad}: not UTF-8 text (invalid continuation byte at byte {offset})"
    ]
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_byte_order_mark_is_ignored(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    assert np.array_equal(load_csv(bom, "day").target.values, load_csv(data, "day").target.values)
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 4\n")
    assert parse_config_file(cfg) == {"seed": "4"}


@pytest.mark.parametrize("command", ["run", "sweep", "simulate"])
def test_unwritable_out_exits_one_with_one_line(tmp_path, capsys, command):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "out"
    if command == "simulate":
        argv = ["simulate", "--n-steps", "50", "--n-trials", "2", "--out", str(out)]
    else:
        argv = [command, *_run_args(_write_prices(tmp_path / "prices.csv"), out, ("--alphas", "1"))[1:]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, blocked", [("run", "report.json"), ("simulate", "trials.csv")])
def test_failed_write_leaves_no_artifact(tmp_path, capsys, command, blocked):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    if command == "simulate":
        argv = ["simulate", "--n-steps", "50", "--n-trials", "2", "--out", str(out)]
    else:
        argv = _run_args(_write_prices(tmp_path / "prices.csv"), out)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [blocked]


def test_unknown_config_key_maps_to_exit_one(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data = {data}\nwibble = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("flag, config_line", [
    pytest.param(["--no-include-exogenous"], "", id="flag"),
    pytest.param([], "include_exogenous = false", id="config-key"),
])
def test_the_removed_exogenous_switch_exits_one_with_one_line(tmp_path, capsys, flag, config_line):
    # listing the exogenous columns is the one switch for the classifier's exogenous features
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line + "\n")
    out = tmp_path / "out"
    argv = _run_args(_write_prices(tmp_path / "prices.csv"), out, extra=("--config", str(cfg), *flag))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_an_empty_exogenous_flag_overrides_the_config_files_columns(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    listed, unlisted = tmp_path / "listed.cfg", tmp_path / "unlisted.cfg"
    unlisted.write_text(f"data = {data}\ntarget_column = gold\n")
    listed.write_text(unlisted.read_text() + "exogenous_columns = ftse\n")
    assert main(["run", "--config", str(listed), "--exogenous-columns", "", "--out", str(tmp_path / "dropped")]) == 0
    assert main(["run", "--config", str(unlisted), "--out", str(tmp_path / "none")]) == 0
    assert main(["run", "--config", str(listed), "--out", str(tmp_path / "used")]) == 0
    for name in ("report.json", "results.csv", "forecasts.svg", "mse_vs_alpha.svg"):
        dropped = (tmp_path / "dropped" / name).read_bytes()
        assert dropped == (tmp_path / "none" / name).read_bytes(), name
    # the column changes the classifier's features, so the comparison is not vacuous
    assert dropped != (tmp_path / "used" / "mse_vs_alpha.svg").read_bytes()


@pytest.mark.parametrize("key, owner, param", [
    ("theory_split", run_experiment, "theory_split"),
    *[(key, TatsConfig, key) for key in ("train_fraction", "n_lags", "exog_lag", "refit_each_step")],
])
def test_the_cli_states_the_library_defaults(key, owner, param):
    # a default changed on one side fails here instead of drifting silently
    default = next(row[2] for row in _SETTINGS if row[0] == key)
    assert default == inspect.signature(owner).parameters[param].default


def test_the_cli_owns_the_defaults_of_the_ar_order_the_knn_k_and_the_oracle_seed():
    # the specs take no default for these, so the command line is their one owner
    def specs(*flags):
        args = _build_parser().parse_args(["run", "--data", "d.csv", "--target-column", "y", *flags])
        _resolve_settings(args)
        return _forecaster_spec(args, None), _classifier_spec(args, None)

    ar, knn = specs("--classifier", "knn")
    _, oracle = specs("--classifier", "oracle", "--oracle-accuracy", "0.7")
    assert vars(ar) == vars(ValueForecasterSpec("ar", order=2))
    assert vars(knn) == vars(TrendPredictorSpec("knn", k=5))
    assert vars(oracle) == vars(TrendPredictorSpec("oracle", accuracy=0.7, seed=0))


def test_simulate_has_one_flag_per_sim_config_field():
    [subparsers] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = subparsers.choices["simulate"]._actions
    for field in dataclasses.fields(SimConfig):
        [action] = [a for a in actions if a.dest == field.name]
        assert action.option_strings == [_flag(field.name)]
        assert action.type is type(field.default) and action.default == field.default
    assert {a.dest for a in actions} == {f.name for f in dataclasses.fields(SimConfig)} | {"help", "out"}


def test_config_file_and_flags_write_identical_artifacts(tmp_path):
    data = _write_prices(tmp_path / "prices.csv")
    (tmp_path / "fc.csv").write_text("time_index,forecast\n1,100.0\n")
    (tmp_path / "dirs.csv").write_text("time_index,direction\n1,1\n")
    # every setting off its default, valid for ses + knn (the others go unused)
    settings = {
        "data": str(data), "target_column": "gold", "exogenous_columns": "ftse",
        "label_column": "day", "train_fraction": "0.6", "forecaster": "ses",
        "ar_order": "3", "ses_smoothing": "0.4", "external_forecasts": str(tmp_path / "fc.csv"),
        "classifier": "knn", "knn_k": "3", "oracle_accuracy": "0.6",
        "external_directions": str(tmp_path / "dirs.csv"), "alphas": "0.5,3", "n_lags": "3",
        "exog_lag": "1", "seed": "7",
        "refit_each_step": "true", "theory_split": "test",
    }
    cfg_out, flag_out = tmp_path / "cfg", tmp_path / "flags"
    assert set(settings) | {"out_dir"} == set(_CONFIG_KEYS)
    for key, convert, default, _, _ in _SETTINGS:
        if key != "out_dir":
            assert convert(settings[key], key) != default, key
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()) + f"out_dir = {cfg_out}\n")
    flags = []
    for key, value in settings.items():
        flag = key.replace("_", "-")
        if value in ("true", "false"):
            flags.append(f"--{flag}" if value == "true" else f"--no-{flag}")
        else:
            flags += [f"--{flag}", value]

    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", *flags, "--out", str(flag_out)]) == 0
    for name in ("report.json", "results.csv"):
        assert (cfg_out / name).read_bytes() == (flag_out / name).read_bytes(), name
    config = json.loads((cfg_out / "report.json").read_text())["config"]
    assert config == {
        "data": str(data), "target_column": "gold", "exogenous_columns": ["ftse"],
        "label_column": "day", "train_fraction": 0.6, "forecaster": "ses(0.4)",
        "classifier": "knn(k=3)", "alphas": [0.5, 3.0], "n_lags": 3,
        "exog_lag": 1, "seed": 7, "theory_split": "test",
        "refit_each_step": True,
    }


@pytest.mark.parametrize(
    "argv, config_line",
    [
        pytest.param(["run", "--train-fraction", "abc"], "", id="flag-float"),
        pytest.param(["run", "--knn-k", "x"], "", id="flag-int"),
        pytest.param(["run"], "refit_each_step = maybe", id="config-bool"),
        pytest.param(["run", "--forecaster", "bogus"], "", id="flag-choice"),
        pytest.param(["run"], "forecaster = bogus", id="config-choice"),
        pytest.param(["run", "--seed", "-1"], "", id="run-negative-seed"),
        pytest.param(["run", "--alphas", "inf"], "", id="run-infinite-alpha"),
        pytest.param(["run", "--alphas", ","], "", id="run-empty-alphas"),
        pytest.param(["sweep", "--alphas", ","], "", id="sweep-empty-alphas"),
        pytest.param(["simulate", "--alpha", "inf"], "", id="simulate-infinite-alpha"),
        pytest.param(["simulate", "--seed", "-1"], "", id="simulate-negative-seed"),
        # the logistic step size and step count are constants, so their settings are unknown
        pytest.param(
            ["run", "--classifier", "logistic", "--logistic-learning-rate", "inf"], "",
            id="run-removed-learning-rate-flag",
        ),
        pytest.param(["run", "--classifier", "logistic"], "logistic_iterations = 200",
                     id="run-removed-iterations-key"),
        pytest.param(["simulate", "--volatility", "inf"], "", id="simulate-infinite-volatility"),
        # the grid is checked before the data is read: a later --data wins, and names no file
        pytest.param(["run", "--alphas", ",", "--data", "missing.csv"], "",
                     id="run-empty-alphas-before-load"),
        pytest.param(["run", "--alphas", "1,inf", "--data", "missing.csv"], "",
                     id="run-infinite-alpha-before-load"),
        pytest.param(["sweep", "--alphas", "1,-2", "--data", "missing.csv"], "",
                     id="sweep-negative-alpha-before-load"),
    ],
)
def test_bad_value_exits_one_without_traceback(tmp_path, monkeypatch, capsys, argv, config_line):
    monkeypatch.chdir(tmp_path)
    missing_data = "missing.csv" in argv
    if argv[0] in ("run", "sweep"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_line + "\n")
        data = _write_prices(tmp_path / "prices.csv")
        argv = [argv[0], *_run_args(data, "out", extra=("--config", str(cfg), *argv[1:]))[1:]]
    else:
        argv = [*argv, "--n-steps", "50", "--n-trials", "2", "--out", "out"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    key = config_line.partition("=")[0].strip()
    if key and key not in _CONFIG_KEYS:
        assert f"unknown config key '{key}'" in err, err
    if "--logistic-learning-rate" in argv:
        assert "unrecognized arguments: --logistic-learning-rate" in err, err
    if missing_data:
        assert re.fullmatch(
            r"error: (alpha sweep needs at least one alpha|alpha must be finite and positive, got \S+)\n",
            err,
        ), err
    assert not (tmp_path / "out").exists()


def _huge_series(path, magnitude, n):
    signs = np.where(np.random.default_rng(0).random(n) < 0.5, 1.0, -1.0)
    path.write_text("gold\n" + "".join(f"{float(v)!r}\n" for v in magnitude * signs))
    return str(path)


@pytest.mark.parametrize(
    "argv, series, message",
    [
        pytest.param(["simulate", "--drift", "1e308"], None, "the random walk", id="simulate-drift"),
        pytest.param(["simulate", "--volatility", "1e308"], None, "the random walk",
                     id="simulate-volatility"),
        pytest.param(["simulate", "--drift", "1e100"], None, "trial statistics",
                     id="simulate-drift-statistics"),
        pytest.param(["run", "--forecaster", "naive", "--classifier", "oracle",
                      "--oracle-accuracy", "0.7"], (1e307, 40), "the summed squared",
                     id="run-1e307-naive-oracle"),
        pytest.param(["run", "--forecaster", "ar", "--classifier", "oracle",
                      "--oracle-accuracy", "0.7"], (1e307, 40), "AR(2) fit",
                     id="run-1e307-ar"),
        pytest.param(["run", "--forecaster", "naive"], (1e153, 400), "the summed squared",
                     id="run-1e153-naive"),
    ],
)
def test_overflow_exits_three_without_warnings(tmp_path, capsys, argv, series, message):
    if series is None:
        argv = argv + ["--n-steps", "50", "--n-trials", "2"]
    else:
        data = _huge_series(tmp_path / "huge.csv", *series)
        argv = argv + ["--data", data, "--target-column", "gold"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {message}")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("theory_split", ["train", "test"])
def test_run_fits_forecaster_and_classifier_once(tmp_path, monkeypatch, theory_split):
    calls = {}

    def counting(name):
        fit = getattr(tats.engine, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fit(*args, **kwargs)
        return wrapper

    for name in ("fit_classifier", "fit_forecaster", "_walk_forward", "evaluate_forecasts"):
        monkeypatch.setattr(tats.engine, name, counting(name))
    data = _write_prices(tmp_path / "prices.csv")
    # the test split is walked and evaluated once, and the train split once more for theory
    walks = 1 if theory_split == "test" else 2
    for classifier in (["logistic"], ["oracle", "--oracle-accuracy", "0.7"]):
        calls.clear()
        argv = ["run", "--data", str(data), "--target-column", "gold", "--exogenous-columns", "ftse",
                "--classifier", *classifier, "--theory-split", theory_split,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert calls == {"fit_classifier": 1, "fit_forecaster": 1, "_walk_forward": walks,
                         "evaluate_forecasts": walks}
        # sweep walks the test split only
        calls.clear()
        argv = ["sweep", "--data", str(data), "--target-column", "gold", "--exogenous-columns", "ftse",
                "--classifier", *classifier, "--alphas", "1,2", "--out", str(tmp_path / "s")]
        assert main(argv) == 0
        assert calls == {"fit_classifier": 1, "fit_forecaster": 1, "_walk_forward": 1,
                         "evaluate_forecasts": 1}


@pytest.mark.parametrize("theory_split", ["train", "test"])
def test_theory_block_does_not_depend_on_alphas(tmp_path, theory_split):
    data = _write_prices(tmp_path / "prices.csv")
    blocks = []
    for alphas in ("0.5", "20,0.5"):
        out = tmp_path / alphas
        argv = ["run", "--data", str(data), "--target-column", "gold", "--exogenous-columns", "ftse",
                "--theory-split", theory_split, "--alphas", alphas, "--out", str(out)]
        assert main(argv) == 0
        blocks.append(json.loads((out / "report.json").read_text())["theory"])
    assert blocks[0] == blocks[1]


@pytest.mark.parametrize("theory_split", ["train", "test"])
@pytest.mark.parametrize("classifier", ["logistic", "oracle", "external"])
def test_report_theory_matches_a_separate_run(tmp_path, classifier, theory_split):
    data = _write_prices(tmp_path / "prices.csv")
    directions = tmp_path / "dirs.csv"
    signs = np.where(np.random.default_rng(5).random(119) < 0.6, 1, -1)
    directions.write_text(
        "time_index,direction\n" + "".join(f"{t},{s}\n" for t, s in enumerate(signs, start=1))
    )
    out = tmp_path / "o"
    extra = {
        "logistic": [],
        "oracle": ["--oracle-accuracy", "0.8", "--seed", "3"],
        "external": ["--external-directions", str(directions)],
    }[classifier]
    argv = ["run", "--data", str(data), "--target-column", "gold", "--exogenous-columns", "ftse",
            "--classifier", classifier, *extra, "--theory-split", theory_split, "--out", str(out)]
    assert main(argv) == 0

    dataset = load_csv(data, "gold", ["ftse"])
    spec = {
        "logistic": TrendPredictorSpec("logistic"),
        "oracle": TrendPredictorSpec("oracle", accuracy=0.8, seed=3),
        "external": TrendPredictorSpec("external", source=load_external_directions(directions, dataset.target)),
    }[classifier]
    config = TatsConfig(value_forecaster=ValueForecasterSpec("ar", order=2), trend_predictor=spec)
    expected = run_experiment(config, dataset, DEFAULT_ALPHAS, theory_split).theory
    report = json.loads((out / "report.json").read_text())
    assert report["theory"] == json.loads(json.dumps(expected.to_dict()))


def test_an_exog_lag_beyond_the_series_names_the_setting(tmp_path, capsys):
    data = _write_prices(tmp_path / "prices.csv", n=40)
    argv = ["run", "--data", str(data), "--target-column", "gold", "--exogenous-columns", "ftse",
            "--exog-lag", "50", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: series of length 40 too short for exog_lag=50 (no labeled rows possible)"
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "forecaster, spec",
    [
        (["ar", "--ar-order", "2"], ValueForecasterSpec("ar", order=2)),
        (["ses", "--ses-smoothing", "0.3"], ValueForecasterSpec("ses", smoothing=0.3)),
        (["drift"], ValueForecasterSpec("drift")),
    ],
    ids=["ar", "ses", "drift"],
)
def test_external_replay_of_refit_forecasts_matches_the_model(tmp_path, forecaster, spec):
    values = 100.0 + np.cumsum(np.random.default_rng(8).standard_normal(300))
    data = tmp_path / "walk.csv"
    data.write_text("y\n" + "".join(f"{float(v)!r}\n" for v in values))
    common = ["run", "--data", str(data), "--target-column", "y", "--classifier", "logistic",
              "--refit-each-step", "--theory-split", "test"]
    assert main([*common, "--forecaster", *forecaster, "--out", str(tmp_path / "model")]) == 0

    config = TatsConfig(value_forecaster=spec, trend_predictor=TrendPredictorSpec("logistic"),
                        refit_each_step=True)
    [trace] = prepare_run(config, load_csv(data, "y"))
    table = tmp_path / "forecasts.csv"
    table.write_text("time_index,forecast\n" + "".join(
        f"{t},{f!r}\n" for t, f in zip(trace.t.tolist(), trace.y_hat.tolist())
    ))
    argv = [*common, "--forecaster", "external", "--external-forecasts", str(table),
            "--out", str(tmp_path / "replay")]
    assert main(argv) == 0

    results, reports = [], []
    for run in ("model", "replay"):
        with open(tmp_path / run / "results.csv", newline="") as fh:
            results.append([row[1:] for row in csv.reader(fh)])  # all but the model column
        reports.append(json.loads((tmp_path / run / "report.json").read_text()))
    assert results[0] == results[1]
    for key in ("base", "tats", "theory"):
        assert reports[0][key] == reports[1][key], key


@pytest.mark.parametrize(
    "header, extra, code, message",
    [
        ("y,y", [], 2, r"data error: \S+: column 'y' appears 2 times in the header"),
        ("y,x", ["--exogenous-columns", "x,x"], 1, r"error: exogenous column 'x' is listed twice"),
        ("y,x", ["--exogenous-columns", "y"], 1, r"error: exogenous column 'y' is the target column"),
    ],
    ids=["header-names-target-twice", "exogenous-column-listed-twice", "exogenous-column-is-target"],
)
def test_duplicate_column_exits_with_one_line(tmp_path, capsys, header, extra, code, message):
    rows = np.random.default_rng(3).standard_normal((40, 2)).cumsum(axis=0)
    data = tmp_path / "dup.csv"
    data.write_text(header + "\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))
    argv = ["run", "--data", str(data), "--target-column", "y", *extra, "--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert re.fullmatch(message + r"\n", err), err
    assert not (tmp_path / "out").exists()


def test_zero_actual_leaves_mape_null(tmp_path, capsys):
    values = 100.0 + np.cumsum(np.random.default_rng(1).standard_normal(60))
    values[50] = 0.0  # inside the 30% test split
    data = tmp_path / "zero.csv"
    data.write_text("gold\n" + "".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "out"
    code = main(
        ["run", "--data", str(data), "--target-column", "gold", "--classifier", "oracle",
         "--oracle-accuracy", "0.7", "--alphas", "1,2", "--out", str(out)]
    )
    assert code == 0
    assert "MAPE=n/a" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["base"]["mape"] is None
    assert [e["report"]["mape"] for e in report["tats"]] == [None, None]
    assert report["tats"][0]["report"]["mse"] > 0.0
    with open(out / "results.csv", newline="") as fh:
        assert [row["MAPE"] for row in csv.DictReader(fh)] == ["", "", ""]
    # tats metrics stays strict about a zero actual
    fc = tmp_path / "fc.csv"
    fc.write_text("actual,forecast\n0,1\n2,3\n")
    assert main(["metrics", "--data", str(fc)]) == 2


def test_zero_base_mse_leaves_r_diff_null(tmp_path, capsys):
    # the naive forecast is exact on a test split that repeats the last train value
    walk = 100.0 + np.cumsum(np.random.default_rng(3).standard_normal(42))
    values = np.concatenate([walk, np.full(18, walk[-1])])
    data = tmp_path / "flat.csv"
    data.write_text("gold\n" + "".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "out"
    code = main(
        ["run", "--data", str(data), "--target-column", "gold", "--forecaster", "naive",
         "--classifier", "oracle", "--oracle-accuracy", "0.7", "--train-fraction", "0.7",
         "--alphas", "1,2", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("R-Diff=n/a") == 2
    report = json.loads((out / "report.json").read_text())
    assert report["n_test"] == 18
    assert report["base"]["mse"] == 0.0
    assert [e["report"]["diff"] for e in report["tats"]] == [0.0, 0.0]
    assert [e["report"]["r_diff"] for e in report["tats"]] == [None, None]
    assert report["base"]["tda"] == 0.0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["R-Diff"] for row in rows] == ["", "", ""]
    assert [row["Diff"] for row in rows] == ["", "0.0", "0.0"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_base_mse_too_small_to_divide_by_leaves_r_diff_null(tmp_path, capsys, command):
    # a walk of tiny steps: the base MSE is 8.8e-321, and Diff / base MSE overflows float64
    values = 1e-150 + 1e-160 * np.cumsum(np.random.default_rng(0).standard_normal(400))
    data = tmp_path / "tiny.csv"
    data.write_text("y\n" + "".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "out"
    code = main(
        [command, "--data", str(data), "--target-column", "y", "--forecaster", "drift",
         "--classifier", "oracle", "--oracle-accuracy", "0.7", "--alphas", "0.5", "--out", str(out)]
    )
    assert code == 0
    assert "R-Diff=n/a" in capsys.readouterr().out
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["R-Diff"] for row in rows] == ["", ""]
    assert 0.0 < float(rows[0]["MSE"]) < 1e-300 and np.isfinite(float(rows[1]["Diff"]))


def test_readme_lists_every_config_key_in_table_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Valid keys")[1].split(".\n")[0]
    assert re.findall(r"`(\w+)`", listed) == list(_CONFIG_KEYS)
