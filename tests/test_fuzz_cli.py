"""A seeded fuzz corpus for the command line: every input maps to exit code 0-3.

Each case calls ``tats.cli.main`` in process, so a leaked exception fails
the test with its traceback, and ``filterwarnings = error`` turns a leaked
warning into a failure too. The corpus covers malformed and extreme CSV
files under seven forecaster/classifier pairs, broken config files, and
external forecast and direction tables with gaps under both theory splits.
"""

import numpy as np
import pytest

from tats.cli import main

seed = 2323
N = 60
_rng = np.random.default_rng(seed)
Y = 100.0 + np.cumsum(_rng.standard_normal(N))
X1 = 400.0 + np.cumsum(2.0 * _rng.standard_normal(N))


def _csv(y, x1) -> str:
    return "y,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(np.asarray(y).tolist(), np.asarray(x1).tolist()))


def _with_lines(text: str, at: int, *lines: str) -> str:
    """text with lines inserted before its line at (the header is line 0)."""
    rows = text.splitlines()
    return "\n".join(rows[:at] + list(lines) + rows[at:]) + "\n"


GOOD = _csv(Y, X1)
SIGNS = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
CSV_CASES = {
    "good": GOOD,
    "constant": _csv(np.full(N, 5.0), X1),
    "rows-2": _csv(Y[:2], X1[:2]),
    "rows-3": _csv(Y[:3], X1[:3]),
    "rows-6": _csv(Y[:6], X1[:6]),
    "nan": GOOD.replace(repr(float(Y[20])), "nan", 1),
    "inf": GOOD.replace(repr(float(Y[20])), "inf", 1),
    "nan-exogenous": GOOD.replace(repr(float(X1[30])), "nan", 1),
    "blank-row": _with_lines(GOOD, 25, ""),
    "whitespace-row": _with_lines(GOOD, 25, "   \t "),
    "ragged-row": _with_lines(GOOD, 25, "1.0,2.0,3.0", "4.0"),
    "huge": _csv(1e308 * SIGNS, -1e308 * SIGNS),
    "huge-walk": _csv(1e308 - 1e292 * np.arange(N), X1),
    "tiny": _csv(1e-320 * (1.0 + np.arange(N) % 3), X1),
    "empty": "",
    "header-only": "y,x1\n",
    "bom": "\ufeff" + GOOD,
    "duplicate-column": "y,x1,y\n" + "".join(f"{a!r},{b!r},{a!r}\n" for a, b in zip(Y.tolist(), X1.tolist())),
}

PAIRS = {
    "ar-logistic": [],
    "naive-majority": ["--forecaster", "naive", "--classifier", "majority"],
    "drift-refit-gaussian_nb": ["--forecaster", "drift", "--refit-each-step", "--classifier", "gaussian_nb"],
    "ses-knn": ["--forecaster", "ses", "--ses-smoothing", "0.5", "--classifier", "knn", "--knn-k", "3"],
    "ar3-refit-oracle": ["--ar-order", "3", "--refit-each-step", "--classifier", "oracle",
                         "--oracle-accuracy", "0.7"],
    "ar1-logistic-test-split": ["--ar-order", "1", "--exogenous-columns", "", "--theory-split", "test"],
    "naive-knn-exog-lag": ["--forecaster", "naive", "--classifier", "knn", "--exog-lag", "2"],
}

CONFIG_CASES = {
    "removed-iterations": b"logistic_iterations = 200\n",
    "removed-learning-rate": b"logistic_learning_rate = 0.1\n",
    "no-equals": b"ar_order 2\n",
    "duplicate-key": b"ar_order = 2\nar_order = 3\n",
    "bad-bool": b"refit_each_step = maybe\n",
    "bad-int": b"ar_order = two\n",
    "float-int": b"knn_k = 2.5\nclassifier = knn\n",
    "bad-float": b"train_fraction = abc\n",
    "nan-fraction": b"train_fraction = nan\n",
    "inf-fraction": b"train_fraction = inf\n",
    "empty-alphas": b"alphas = ,\n",
    "blank-alphas": b"alphas =\n",
    "nan-alpha": b"alphas = 1, nan\n",
    "bad-choice": b"forecaster = arima\n",
    "non-utf8": b"ar_order = 2\n# \xff\xfe\x80\n",
    "non-utf8-key": b"\xe9ar_order = 2\n",
    "only-comments": b"# nothing here\n\n",
}


def _run(argv, capsys) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    # a failure is one line of the CLI's own, never a traceback
    assert (code == 0) == (err == ""), (argv, code, err)
    assert err == "" or err.startswith(("error: ", "data error: ", "numeric error: ")), err
    return code


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_shapes_exit_0_to_3(case, pair, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(CSV_CASES[case], encoding="utf-8")
    argv = ["run", "--data", str(data), "--target-column", "y", "--exogenous-columns", "x1",
            "--out", str(tmp_path / "out"), *PAIRS[pair]]
    code = _run(argv, capsys)
    if case in ("good", "tiny"):
        assert code == 0


@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_shapes_under_sweep_and_metrics_exit_0_to_3(case, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(CSV_CASES[case], encoding="utf-8")
    _run(["sweep", "--data", str(data), "--target-column", "y", "--alphas", "1,2",
          "--out", str(tmp_path / "out")], capsys)
    _run(["metrics", "--data", str(data), "--actual-column", "y", "--forecast-column", "x1"], capsys)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", CONFIG_CASES)
def test_config_files_exit_0_to_3(case, command, tmp_path, capsys):
    data, config = tmp_path / "data.csv", tmp_path / "tats.cfg"
    data.write_text(GOOD, encoding="utf-8")
    config.write_bytes(CONFIG_CASES[case])
    # a sweep needs alphas; the flag would override a config case's own
    alphas = ["--alphas", "1,2"] if command == "sweep" and b"alphas" not in CONFIG_CASES[case] else []
    argv = [command, "--config", str(config), "--data", str(data), "--target-column", "y",
            "--out", str(tmp_path / "out"), *alphas]
    code = _run(argv, capsys)
    assert code == (0 if case == "only-comments" else 2 if case.startswith("non-utf8") else 1)


def _table(column: str, values, gap=None) -> str:
    """A time_index,<column> table over positions 1..N-1, without the row at gap."""
    return f"time_index,{column}\n" + "".join(f"{t},{float(values[t])!r}\n" for t in range(1, N) if t != gap)


FORECASTS = Y[np.arange(N) - 1] + 0.25  # position t holds a forecast of Y[t]
DIRECTIONS = np.where(np.arange(N) % 3 == 0, -1.0, 1.0)
N_TRAIN = int(0.7 * N)
GAPS = {"full": None, "train-gap": N_TRAIN // 2, "test-gap": N_TRAIN + 5, "first-gap": 1, "last-gap": N - 1}
EXTERNALS = {
    "forecasts": ["--forecaster", "external", "--classifier", "majority"],
    "directions": ["--classifier", "external"],
    "both": ["--forecaster", "external", "--classifier", "external"],
}


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("external", EXTERNALS)
def test_external_tables_with_gaps_exit_0_to_3(external, gap, split, tmp_path, capsys):
    data, forecasts, directions = tmp_path / "data.csv", tmp_path / "f.csv", tmp_path / "d.csv"
    data.write_text(GOOD, encoding="utf-8")
    forecasts.write_text(_table("forecast", FORECASTS, GAPS[gap]), encoding="utf-8")
    directions.write_text(_table("direction", DIRECTIONS, GAPS[gap]), encoding="utf-8")
    argv = ["run", "--data", str(data), "--target-column", "y", "--theory-split", split,
            "--external-forecasts", str(forecasts), "--external-directions", str(directions),
            "--out", str(tmp_path / "out"), *EXTERNALS[external]]
    code = _run(argv, capsys)
    if gap == "full":
        assert code == 0
    if gap in ("test-gap", "last-gap"):
        assert code == 2
