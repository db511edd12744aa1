"""Tiny-size self-test of the benchmark.

Usage, from the root of a source checkout: python3 perfbench/selftest.py

Runs every workload at about 2% of its size, untraced and traced, and
checks that the result line carries every metric with its unit. Then it
checks that an injected bad artifact is counted as a failed command,
that a directory without the program's source makes the benchmark exit
non-zero without a result, that the pinned-value comparison ignores new
keys but not changed values, and that BENCHMARK.json (when present)
names only workloads the code defines and the same metrics as the code.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from layers import PER_LAYER
from run import END_TO_END, HERE, ROOT, WORK, WORKLOADS

SCALE = "0.02"


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> tuple[int, str]:
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return done.returncode, done.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def check_workloads() -> None:
    for name in WORKLOADS:
        for trace, expected in (("0", END_TO_END), ("1", PER_LAYER)):
            rc, out = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", SCALE)
            result = result_line(out)
            metrics = result["metrics"]
            expect(rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: exit 0, every command correct")
            expect([(k, v["unit"]) for k, v in metrics.items()] == list(expected),
                   f"{name} trace={trace}: every metric emitted with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in metrics.values()),
                   f"{name} trace={trace}: every value is a finite number")
            expect("error_rate: 0 " in out and (trace == "1" or "wall_s_tail:" in out),
                   f"{name} trace={trace}: error_rate and wall_s_tail printed")


def check_fault_injection() -> None:
    for name in ("sweep-ses-knn-8k", "simulate-2000x5000"):
        rc, out = bench("--workload", name, "--seconds", "1", "--scale", SCALE, "--inject-fault")
        result = result_line(out)
        expect(rc == 1 and not result["correct"] and result["failed"] >= 1 and "error_rate: 0 " not in out,
               f"{name}: an injected bad artifact counts in error_rate and exits 1")


def check_without_source() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, out = bench("--workload", "run-ar-logistic-20k", "--seconds", "1", "--trace", "0",
                        cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and '"metrics"' not in out, "without src/tats: non-zero exit and no result")


def check_pinned_compare() -> None:
    pinned = {"base": {"mse": 1.5}, "tats": [{"alpha": 0.5}]}
    expect(checks.subset_mismatch(pinned, {"base": {"mse": 1.5, "new": 1}, "tats": [{"alpha": 0.5}], "x": 0}) is None,
           "pinned comparison ignores keys added later")
    expect(checks.subset_mismatch(pinned, {"base": {"mse": 1.25}, "tats": [{"alpha": 0.5}]}) is not None,
           "pinned comparison catches a changed value")


def check_benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json names only known workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
           "BENCHMARK.json end_to_end matches the code")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per_layer matches the code")


if __name__ == "__main__":
    check_pinned_compare()
    check_benchmark_json()
    check_without_source()
    check_fault_injection()
    check_workloads()
    print("selftest passed")
