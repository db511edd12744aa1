"""sha256 pins of the ``tats simulate`` artifacts.

The golden simulate case runs 20 trials of 200 steps. These five cases
cover what it does not:

* ``full-size``: 200 trials of 5,000 steps, the step count of the
  benchmark's ``simulate-2000x5000`` workload, so every trial runs on
  full-size buffers;
* ``regenerated``: 40 trials of 10 steps at volatility 1e-13. Steps that
  small are often lost when added to a walk at 100, so some walks have a
  flat step and are drawn again, and some forecasts land exactly on the
  previous value, which leaves undefined scenario steps;
* ``thresholds``: 300 trials of 500 steps with p_dt 0.6, p_db 0.55, error
  scale 1.2 and drift 0.3, so the forecaster's and the oracle's draws are
  compared with thresholds other than the defaults;
* ``seed-three-words`` and ``seed-five-words``: 300 trials of 50 steps at
  seeds 2**64 + 7 and 2**130 + 1, whose entropy is three 32-bit words
  (fewer than the four words of a seed's pool) and five words (more);
  300 trials span more than one block of per-trial seeds.

After a deliberate change of output, print the new digests with
``python tests/test_pin_simulate.py`` and review why they moved.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from tats.cli import main

CASES = {
    "full-size": ["--n-trials", "200", "--n-steps", "5000", "--seed", "0"],
    "regenerated": ["--n-trials", "40", "--n-steps", "10", "--volatility", "1e-13", "--seed", "4"],
    "thresholds": [
        "--n-trials", "300", "--n-steps", "500", "--p-dt", "0.6", "--p-db", "0.55",
        "--error-scale", "1.2", "--drift", "0.3", "--seed", "3",
    ],
    "seed-three-words": ["--n-trials", "300", "--n-steps", "50", "--seed", "18446744073709551623"],
    "seed-five-words": [
        "--n-trials", "300", "--n-steps", "50", "--seed", "1361129467683753853853498429727072845825",
    ],
}
DIGESTS = {
    "full-size": {
        "simulation.json": "f4db81cddfdadc9a11d1acb9ac8552856296b0849cdd3584c3d63ad2341df99b",
        "trials.csv": "0def345ef3db158dcba61f02ae44712d1cb532725d60e0aca3abf6d7fff695a2",
    },
    "regenerated": {
        "simulation.json": "77db81793b426b653ff592b6ed4f6cee2dbd52d5881527cfdbfc7dab795895ac",
        "trials.csv": "fad54af92879dbb613f97eea4b75027e29479852b5205b1a8c70b39d912761b8",
    },
    "thresholds": {
        "simulation.json": "4c3736ac9fc1e1f2a4c3ac4ff971f890b7c71059097e0d49ddc8eaffae8fc455",
        "trials.csv": "fd1e09a2f8bf8cf2fd9204c96d38d56740406aeed99787bc1f708e5a625b37e5",
    },
    "seed-three-words": {
        "simulation.json": "839eb74fe1a417d75ec19d7a1273052b30c0e5b621bcbb1a2d24a0d529f82751",
        "trials.csv": "215db94ca431a3e4264d10c9b888d7e963861e74e2695e6615dacdcb3612a792",
    },
    "seed-five-words": {
        "simulation.json": "be8bbd18f873751af382f9100a63301f872f9e8cb38bec260b9ba20f21832963",
        "trials.csv": "68e30bae94a062e94976ba0fdb516af15ded348c0a56968c802636070ae2602e",
    },
}


def _digests(case: str, out: Path) -> dict[str, str]:
    assert main(["simulate", *CASES[case], "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTS[case]}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_artifacts_keep_their_bytes(case, tmp_path, capsys):
    produced = _digests(case, tmp_path)
    capsys.readouterr()
    assert produced == DIGESTS[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f'    "{case}": {{', file=sys.stderr)
            for name, digest in _digests(case, Path(tmp, case)).items():
                print(f'        "{name}": "{digest}",', file=sys.stderr)
            print("    },", file=sys.stderr)
