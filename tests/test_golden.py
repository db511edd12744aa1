"""Byte-for-byte pins of the CLI artifacts for fixed inputs and seeds.

Each case runs one ``tats`` command on a seeded in-test series and
compares every artifact it writes with the file of the same name under
``tests/golden/<case>/``. A refactor that must not change behaviour has
to keep these passing unchanged. After a deliberate change of output,
rewrite the expected files with ``python tests/test_golden.py`` and
review the diff.
"""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from tats.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "series.csv"
RUN_FILES = ("report.json", "results.csv", "forecasts.svg", "mse_vs_alpha.svg")
SIM_FILES = ("simulation.json", "trials.csv")
RUN_ARGS = [
    "run", "--data", DATA, "--target-column", "price",
    "--exogenous-columns", "signal", "--forecaster", "ar", "--ar-order", "2",
]
CASES = {
    "run_ar_logistic": (RUN_ARGS + ["--classifier", "logistic"], RUN_FILES),
    "run_ar_oracle": (
        RUN_ARGS + ["--classifier", "oracle", "--oracle-accuracy", "0.7", "--seed", "3"],
        RUN_FILES,
    ),
    "simulate": (
        ["simulate", "--n-trials", "20", "--n-steps", "200", "--seed", "5"],
        SIM_FILES,
    ),
}


def _write_series(path: Path, n: int = 400, rng_seed: int = 2024) -> None:
    # the next target move leans on the current signal, so the logistic
    # classifier has something to learn from the exogenous column
    rng = np.random.default_rng(rng_seed)
    signal = rng.standard_normal(n)
    steps = 0.8 * signal[:-1] + rng.standard_normal(n - 1)
    price = 100.0 + np.concatenate([[0.0], np.cumsum(steps)])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "price", "signal"])
        for i in range(n):
            writer.writerow([i, repr(float(price[i])), repr(float(signal[i]))])


def _artifacts(workdir: Path, case: str) -> dict[str, bytes]:
    """Run one case inside workdir and return the bytes of its artifacts."""
    args, files = CASES[case]
    _write_series(workdir / DATA)
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
