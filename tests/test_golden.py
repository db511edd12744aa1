"""Byte-for-byte pins of the CLI artifacts for fixed inputs and seeds.

Each case runs one ``tats`` command on a seeded in-test series and
compares every artifact it writes with the file of the same name under
``tests/golden/<case>/``. A refactor that must not change behaviour has
to keep these passing unchanged. After a deliberate change of output,
rewrite the expected files with ``python tests/test_golden.py`` and
review the diff.
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tats.classifiers import CLASSIFIER_KINDS, TrendPredictorSpec
from tats.cli import DEFAULT_ALPHAS, main
from tats.engine import TatsConfig
from tats.forecasters import FORECASTER_KINDS, ValueForecasterSpec
from tats.ingest import load_csv, load_external_directions, load_external_forecasts
from tats.theory import run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "series.csv"
FORECASTS = "forecasts.csv"
DIRECTIONS = "directions.csv"
RUN_FILES = ("report.json", "results.csv", "forecasts.svg", "mse_vs_alpha.svg")
SIM_FILES = ("simulation.json", "trials.csv")
BASE_ARGS = ["run", "--data", DATA, "--target-column", "price", "--exogenous-columns", "signal"]
RUN_ARGS = BASE_ARGS + ["--forecaster", "ar", "--ar-order", "2"]
CASES = {
    "run_ar_logistic": (RUN_ARGS + ["--classifier", "logistic"], RUN_FILES),
    "run_ar_oracle": (
        RUN_ARGS + ["--classifier", "oracle", "--oracle-accuracy", "0.7", "--seed", "3"],
        RUN_FILES,
    ),
    "run_drift_nb_refit": (
        BASE_ARGS + ["--forecaster", "drift", "--classifier", "gaussian_nb", "--refit-each-step"],
        RUN_FILES,
    ),
    "run_external": (
        BASE_ARGS + [
            "--forecaster", "external", "--external-forecasts", FORECASTS,
            "--classifier", "external", "--external-directions", DIRECTIONS,
        ],
        RUN_FILES,
    ),
    "run_ses_knn": (
        BASE_ARGS + ["--forecaster", "ses", "--ses-smoothing", "0.4", "--classifier", "knn"],
        RUN_FILES,
    ),
    "simulate": (
        ["simulate", "--n-trials", "20", "--n-steps", "200", "--seed", "5"],
        SIM_FILES,
    ),
}


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(cell) for cell in row])


def _write_inputs(workdir: Path, n: int = 400, rng_seed: int = 2024) -> None:
    """Write the series and external forecast and direction tables for it."""
    # the next target move leans on the current signal, so the logistic
    # classifier has something to learn from the exogenous column
    rng = np.random.default_rng(rng_seed)
    signal = rng.standard_normal(n)
    steps = 0.8 * signal[:-1] + rng.standard_normal(n - 1)
    price = 100.0 + np.concatenate([[0.0], np.cumsum(steps)])
    _write_csv(workdir / DATA, ["t", "price", "signal"],
               [range(n), price.tolist(), signal.tolist()])
    # external tables cover every forecastable position 1..n-1: a forecast
    # that uses the signal, and the true direction flipped 30% of the time
    ext = np.random.default_rng(rng_seed + 1)
    t = np.arange(1, n)
    forecasts = price[t - 1] + 0.8 * signal[t - 1] + 0.5 * ext.standard_normal(n - 1)
    truth = np.where(price[t] >= price[t - 1], 1, -1)
    directions = np.where(ext.random(n - 1) < 0.7, truth, -truth)
    _write_csv(workdir / FORECASTS, ["time_index", "forecast"], [t.tolist(), forecasts.tolist()])
    _write_csv(workdir / DIRECTIONS, ["time_index", "direction"], [t.tolist(), directions.tolist()])


def _artifacts(workdir: Path, case: str) -> dict[str, bytes]:
    """Run one case inside workdir and return the bytes of its artifacts."""
    args, files = CASES[case]
    _write_inputs(workdir)
    code = main(args + ["--out", case])
    assert code == 0, f"{case} exited with {code}"
    return {name: (workdir / case / name).read_bytes() for name in files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden(case, tmp_path, monkeypatch, capsys):
    # relative paths keep the working directory out of report.json
    monkeypatch.chdir(tmp_path)
    produced = _artifacts(tmp_path, case)
    capsys.readouterr()
    for name, data in produced.items():
        expected = (GOLDEN / case / name).read_bytes()
        assert data == expected, f"{case}/{name} differs from the recorded artifact"


# the specs of each run case but run_external, whose tables are read from its inputs
RUN_SPECS = {
    "run_ar_logistic": (ValueForecasterSpec("ar", order=2), TrendPredictorSpec("logistic")),
    "run_ar_oracle": (ValueForecasterSpec("ar", order=2), TrendPredictorSpec("oracle", accuracy=0.7, seed=3)),
    "run_drift_nb_refit": (ValueForecasterSpec("drift"), TrendPredictorSpec("gaussian_nb")),
    "run_ses_knn": (ValueForecasterSpec("ses", smoothing=0.4), TrendPredictorSpec("knn", k=5)),
}


@pytest.mark.parametrize("case", sorted(case for case in CASES if case.startswith("run_")))
def test_the_library_run_record_is_the_golden_report(case, tmp_path):
    _write_inputs(tmp_path)
    dataset = load_csv(tmp_path / DATA, "price", ["signal"])
    forecaster, classifier = RUN_SPECS.get(case) or (
        ValueForecasterSpec("external", source=load_external_forecasts(tmp_path / FORECASTS, dataset.target)),
        TrendPredictorSpec("external", source=load_external_directions(tmp_path / DIRECTIONS, dataset.target)),
    )
    config = TatsConfig(forecaster, classifier, refit_each_step=case == "run_drift_nb_refit")
    report = run_experiment(config, dataset, DEFAULT_ALPHAS).to_dict()
    # the five keys that only the command line knows
    report["config"].update(data=DATA, target_column="price", exogenous_columns=["signal"], label_column=None,
                            seed=3 if case == "run_ar_oracle" else 0)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == (GOLDEN / case / "report.json").read_text()


TABLE = np.array([np.nan, 1.0])
# each model kind as a golden case's arguments build it, and that case (None: no case runs it)
KIND_SPECS = {
    ("forecaster", "naive"): (ValueForecasterSpec("naive"), None),
    ("forecaster", "drift"): (ValueForecasterSpec("drift"), "run_drift_nb_refit"),
    ("forecaster", "ar"): (ValueForecasterSpec("ar", order=2), "run_ar_logistic"),
    ("forecaster", "ses"): (ValueForecasterSpec("ses", smoothing=0.4), "run_ses_knn"),
    ("forecaster", "external"): (ValueForecasterSpec("external", source=TABLE), "run_external"),
    ("classifier", "majority"): (TrendPredictorSpec("majority"), None),
    ("classifier", "logistic"): (TrendPredictorSpec("logistic"), "run_ar_logistic"),
    ("classifier", "gaussian_nb"): (TrendPredictorSpec("gaussian_nb"), "run_drift_nb_refit"),
    ("classifier", "knn"): (TrendPredictorSpec("knn", k=5), "run_ses_knn"),
    ("classifier", "oracle"): (TrendPredictorSpec("oracle", accuracy=0.7, seed=3), "run_ar_oracle"),
    ("classifier", "external"): (TrendPredictorSpec("external", source=TABLE), "run_external"),
}


@pytest.mark.parametrize(
    "role, kind",
    [("forecaster", k) for k in FORECASTER_KINDS] + [("classifier", k) for k in CLASSIFIER_KINDS],
)
def test_spec_label_is_the_golden_model_name(role, kind):
    spec, case = KIND_SPECS[role, kind]
    if case is None:  # a kind without parameters is its own label
        assert spec.label == kind
        return
    config = json.loads((GOLDEN / case / "report.json").read_text())["config"]
    assert spec.label == config[role]
    with open(GOLDEN / case / "results.csv", newline="") as fh:
        models = [row["model"] for row in csv.DictReader(fh)]
    assert models[0] == config["forecaster"]
    assert set(models[1:]) == {f"tats({config['forecaster']}+{config['classifier']})"}


if __name__ == "__main__":
    import os
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            produced = _artifacts(Path(tmp), case)
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for name, data in produced.items():
            (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)
