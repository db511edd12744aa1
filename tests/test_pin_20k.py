"""A sha256 pin of the default ``tats run`` artifacts on a 20k-row series.

The golden cases have 120 test points. This case walks 6,000 test and
14,000 train points through ar(2) + logistic with an exogenous column and
``--theory-split train``, the flags of the benchmark's
``run-ar-logistic-20k`` workload, so the CSV parse, the logistic fit and
the AR walk run at a size where their fast paths matter. The series is
generated here: a seeded random walk on a grid of 1e-4, written with
exactly four decimals. After a deliberate change of output, print the
new digests with ``python tests/test_pin_20k.py`` and review why they moved.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from tats.cli import main

N_ROWS = 20_000
ARGS = [
    "--target-column", "y", "--exogenous-columns", "x1", "--forecaster", "ar", "--ar-order", "2",
    "--classifier", "logistic", "--theory-split", "train", "--seed", "0",
]
DIGESTS = {
    "report.json": "4b450f9f9b92fa0528ded7b50f7101e15e892a326aaeb58445346631f70e848f",
    "results.csv": "c961c95bbec0baba13598da3c5fa07a5cafe25a80a1c3de32ffcd890ea9f9a41",
    "forecasts.svg": "8a4e7992a3e70a1d29f740c659efe6d10fb7a5160dc98b9b604d90eb0aaf0c69",
}


def _write_walks(path: Path) -> None:
    """A y,x1 CSV of two integer-tick random walks printed as exact decimals."""
    rng = np.random.default_rng(20_000)
    columns = []
    for _ in range(2):
        steps = np.rint(rng.standard_normal(N_ROWS - 1) * 10_000).astype(np.int64)
        steps[steps == 0] = 1
        ticks = np.concatenate([[0], np.cumsum(steps)])
        ticks += 1_000_000 - ticks.min()
        columns.append([f"{v // 10_000}.{v % 10_000:04d}" for v in ticks.tolist()])
    path.write_text("y,x1\n" + "".join(f"{a},{b}\n" for a, b in zip(*columns)))


def _digests() -> dict[str, str]:
    """Run the case in the working directory; relative paths keep it out of report.json."""
    _write_walks(Path("walk.csv"))
    assert main(["run", "--data", "walk.csv", *ARGS, "--out", "out"]) == 0
    return {name: hashlib.sha256(Path("out", name).read_bytes()).hexdigest() for name in DIGESTS}


def test_run_artifacts_keep_their_bytes_at_20k_rows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    produced = _digests()
    capsys.readouterr()
    assert produced == DIGESTS


if __name__ == "__main__":
    import os

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, digest in _digests().items():
            print(f'    "{name}": "{digest}",', file=sys.stderr)
