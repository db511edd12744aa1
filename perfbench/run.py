"""Outside-in benchmark for the ``tats`` CLI (run, sweep, simulate).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, untraced then traced

The benchmark runs ``python3 -m tats`` against ``src/`` of the checkout,
one command at a time in a fresh process: a closed loop with one client.
Inputs are generated from ``--seed`` by perfbench/inputs.py, which does
not import ``tats``. Scratch files go to ``.perfbench_work/`` in the
checkout and are removed at exit.

``--trace 0`` repeats the workload's command until ``--seconds`` have
passed and reports the end-to-end metrics (medians over the commands).
Command times are reported in multiples of a fixed reference
computation timed before and after each command (perfbench/reference.py),
because the host's own speed drifts more than the bounds; the raw wall
time in seconds is printed above the result line.
``--trace 1`` alternates an untraced command with a command run under
perfbench/tracer.py and reports the per-layer metrics (medians over the
traced commands; counts must repeat exactly). Every command's artifacts
are checked (perfbench/checks.py) and must be byte-identical to the first
command's. The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when any command failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from layers import PER_LAYER, span_metrics
from reference import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_COMMANDS = 3
RUN_LIMIT_S = 170.0
DEFAULT_ALPHAS = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]

END_TO_END = (("wall_ref", "ref"), ("steps_per_ref", "1/ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # run | sweep | simulate
    why: str
    size: dict
    alphas: list = field(default_factory=list)
    forecaster: tuple = ()
    flags: tuple = ()

    def scaled(self, scale: float) -> dict:
        floors = {"rows": 300, "n_trials": 3, "n_steps": 50}
        return {k: max(floors[k], int(v * scale)) for k, v in self.size.items()}

    def steps(self, size: dict) -> int:
        return size["rows"] if "rows" in size else size["n_trials"] * size["n_steps"]

    def argv(self, size: dict, data: Path | None, out: Path, seed: int) -> list[str]:
        if self.kind == "simulate":
            return ["simulate", "--n-trials", str(size["n_trials"]), "--n-steps", str(size["n_steps"]),
                    "--seed", str(seed), "--out", str(out)]
        return [self.kind, "--data", str(data), "--target-column", "y", *self.flags,
                "--seed", str(seed), "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "run-ar-logistic-20k", "run",
        ("The default user path, ar(2) + logistic with six alphas, fits the classifier three "
         "times per command, so fit-once work shows here."),
        {"rows": 20_000}, DEFAULT_ALPHAS, ("ar", 2),
        ("--exogenous-columns", "x1", "--forecaster", "ar", "--ar-order", "2",
         "--classifier", "logistic", "--theory-split", "train"),
    ),
    Workload(
        "sweep-ses-knn-8k", "sweep",
        ("It runs both quadratic per-step paths, the SES level recomputed from t=0 and the "
         "per-row KNN loop, while sweep already fits once."),
        {"rows": 8_000}, [0.5, 1.0, 2.0], ("ses", 0.3),
        ("--forecaster", "ses", "--ses-smoothing", "0.3", "--classifier", "knn", "--knn-k", "5",
         "--alphas", "0.5,1,2"),
    ),
    Workload(
        "simulate-2000x5000", "simulate",
        ("Only the Monte-Carlo per-trial loop and evaluate_forecasts work here, so batching "
         "trials shows while ingest and the models stay idle."),
        {"n_trials": 2_000, "n_steps": 5_000},
    ),
    Workload(
        "run-ar-oracle-200k", "run",
        ("The largest size on a path that is linear today loads a 200k-row CSV, makes 260k "
         "forecast_one calls and writes a 60k-point SVG."),
        {"rows": 200_000}, DEFAULT_ALPHAS, ("ar", 2),
        ("--forecaster", "ar", "--ar-order", "2", "--classifier", "oracle", "--oracle-accuracy", "0.7"),
    ),
)}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(workload: Workload, size: dict, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _git_commit(), "seed": seed, "workload": workload.name, "input_size": size,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("TATS_OUT_DIR", None)
    return env


@dataclass
class Command:
    rc: int
    wall_s: float
    peak_rss_mb: float
    log: str


def run_command(argv: list[str], log_path: Path, timeout_s: float) -> Command:
    """Run one process to exit; wall time and peak RSS come from wait4 on the child."""
    with log_path.open("wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0, log_path.read_text(errors="replace"))


def tail_percentile(samples: list[float]) -> str:
    """Highest percentile with at least 10 samples beyond it, if it lies above the median."""
    n = len(samples)
    k = n - 10  # 1-based rank of that order statistic
    if k < 1 or k / n < 0.5:
        return f"unresolved (n={n} samples; a percentile above the median with 10 samples beyond needs n >= 20)"
    return f"p{100.0 * k / n:.0f} = {sorted(samples)[k - 1]:.6g} s (n={n}, 10 beyond)"


def artifact_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


class WorkloadRun:
    """One workload at one seed: inputs, commands, checks and tallies."""

    def __init__(self, workload: Workload, seed: int, scale: float, inject_fault: bool) -> None:
        self.w = workload
        self.seed = seed
        self.size = workload.scaled(scale)
        self.full_size = scale == 1.0
        self.inject_fault = inject_fault
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.data: Path | None = None
        self.values = None
        self.pinned = None

    def __enter__(self) -> "WorkloadRun":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.w.kind != "simulate":
            self.data = self.dir / "input.csv"
            inputs.write_series_csv(self.data, self.size["rows"], self.seed)
            self.values = inputs.read_series_csv(self.data)["y"]
        if self.full_size and self.seed == DEFAULT_SEED and PINNED.is_file():
            self.pinned = json.loads(PINNED.read_text())["workloads"].get(self.w.name)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def command(self, traced: bool) -> tuple[Command, Path, Path | None]:
        """Run the workload's command once and check its artifacts."""
        i = self.attempted
        self.attempted += 1
        out = self.dir / f"out{i}"
        spans = self.dir / f"spans{i}.npz" if traced else None
        cli = self.w.argv(self.size, self.data, out, self.seed)
        if traced:
            prefix = [sys.executable, str(HERE / "tracer.py"), str(spans), "--"]
        else:
            prefix = [sys.executable, "-m", "tats"]
        cmd = run_command(prefix + cli, self.dir / f"log{i}.txt", max(1.0, self.remaining()))
        problems = [] if cmd.rc == 0 else [f"exit code {cmd.rc}: {cmd.log.strip()[-300:]}"]
        if not problems:
            if self.inject_fault and i == 1:
                victim = out / checks.ARTIFACTS[self.w.kind][0]
                victim.write_bytes(victim.read_bytes() + b" ")
            problems = checks.check_outputs(self.w.kind, out, self._spec(), self.values, self.pinned)
            hashes = artifact_hashes(out)
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                changed = sorted(k for k in set(hashes) | set(self.reference)
                                 if hashes.get(k) != self.reference.get(k))
                problems.append(f"artifacts differ from the first repeat: {', '.join(changed)}")
        if problems:
            self.failed += 1
            self.problems.extend(f"command {i}: {p}" for p in problems)
        return cmd, out, spans

    def _spec(self) -> dict:
        return {"alphas": self.w.alphas, "forecaster": self.w.forecaster, **self.size}

    def probe(self) -> None:
        """Check that ``tats`` imports from the checkout's source; this also byte-compiles it."""
        code = "import sys, tats; sys.stdout.write(tats.__file__)"
        warm = run_command([sys.executable, "-c", code], self.dir / "probe.txt", 60.0)
        if warm.rc != 0 or Path(warm.log).resolve() != (SRC / "tats" / "__init__.py").resolve():
            raise SystemExit(f"perfbench: cannot import tats from {SRC}: {warm.log.strip()[-300:]}")

    def setup_seconds(self) -> float:
        """Wall time of a fresh interpreter running ``import tats``."""
        return run_command([sys.executable, "-c", "import tats"], self.dir / "setup.txt", 60.0).wall_s


def measure_end_to_end(s: WorkloadRun, seconds: float) -> dict:
    s.probe()
    # Set-up samples are spread over the run, one after each command, so that
    # their median sees the same host phases as the commands do.
    setup = [s.setup_seconds() for _ in range(SETUP_REPEATS)]
    reference_seconds()  # warm-up: the first pass pays numpy's lazy initialisation
    deadline = min(time.perf_counter() + seconds, s.started + RUN_LIMIT_S - 10)
    refs = [reference_seconds()]
    walls, ratios, rss = [], [], []
    while True:
        cmd, out, _ = s.command(traced=False)
        shutil.rmtree(out, ignore_errors=True)
        refs.append(reference_seconds())
        if cmd.rc != 0:
            break
        setup.append(s.setup_seconds())
        walls.append(cmd.wall_s)
        ratios.append(cmd.wall_s / ((refs[-2] + refs[-1]) / 2))
        rss.append(cmd.peak_rss_mb)
        next_end = time.perf_counter() + statistics.median(walls) + refs[-1] + setup[-1]
        if len(walls) >= MIN_COMMANDS and next_end > deadline:
            break
    if not walls:
        return {name: float("nan") for name, _ in END_TO_END}
    steps = s.w.steps(s.size)
    wall = statistics.median(walls)
    wall_ref = statistics.median(ratios)
    print(f"wall_s: {wall:.6g} s (median of {len(walls)} commands, as measured)")
    print(f"wall_s_tail: {tail_percentile(walls)}")
    print(f"steps_per_s: {steps / wall:.6g} 1/s ({steps} input steps)")
    print(f"ref_s: {statistics.median(refs):.6g} s (reference computation, {len(refs)} passes)")
    print(f"samples: wall_s {[round(w, 4) for w in walls]}, ref_s {[round(r, 4) for r in refs]}, "
          f"setup_s {[round(t, 4) for t in setup]}")
    return {
        "wall_ref": wall_ref,
        "steps_per_ref": steps / wall_ref,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }


def measure_layers(s: WorkloadRun, seconds: float) -> dict:
    s.probe()
    deadline = time.perf_counter() + seconds
    plain, traced, per_run = [], [], []
    while True:
        cmd, out, _ = s.command(traced=False)
        shutil.rmtree(out, ignore_errors=True)
        tcmd, tout, spans = s.command(traced=True)
        if cmd.rc != 0 or tcmd.rc != 0:
            break
        plain.append(cmd.wall_s)
        traced.append(tcmd.wall_s)
        metrics = span_metrics(spans)
        metrics["cli.bytes_written"] = sum(p.stat().st_size for p in tout.iterdir() if p.is_file())
        per_run.append(metrics)
        shutil.rmtree(tout, ignore_errors=True)
        spans.unlink()
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() + pair > min(deadline, s.started + RUN_LIMIT_S - 10):
            break
    if not per_run:
        return {name: float("nan") for name, _ in PER_LAYER}
    result = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_run]
        if unit == "s":
            result[name] = statistics.median(values)
        else:
            result[name] = values[0]
            if any(v != values[0] for v in values):
                s.failed += 1
                s.problems.append(f"count {name} differs between traced repeats: {values}")
    result["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"samples: {len(traced)} traced and {len(plain)} untraced commands")
    return result


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, scale: float,
                 inject_fault: bool) -> dict:
    units = dict(PER_LAYER if trace else END_TO_END)
    with WorkloadRun(workload, seed, scale, inject_fault) as s:
        print("env: " + json.dumps(environment(workload, s.size, seed), sort_keys=True))
        values = measure_layers(s, seconds) if trace else measure_end_to_end(s, seconds)
    for problem in s.problems:
        print(f"FAILED {problem}")
    print(f"error_rate: {s.failed / s.attempted:.6g} ({s.failed} failed / {s.attempted} attempted)")
    for name, value in values.items():
        print(f"{name}: {value if isinstance(value, int) else format(value, '.6g')} {units[name]}")
    return {
        "correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def write_pins() -> None:
    """Record default-seed outputs of every workload at full size into pinned.json."""
    pins = {}
    for w in WORKLOADS.values():
        with WorkloadRun(w, DEFAULT_SEED, 1.0, False) as s:
            cmd, out, _ = s.command(traced=False)
            if cmd.rc != 0:
                raise SystemExit(f"perfbench: {w.name} failed: {cmd.log}")
            if w.kind == "simulate":
                pins[w.name] = {"simulation.json": json.loads((out / "simulation.json").read_text())}
            else:
                pins[w.name] = {"results.csv": (out / "results.csv").read_text()}
                if w.kind == "run":
                    report = json.loads((out / "report.json").read_text())
                    pins[w.name]["report.json"] = {k: report[k] for k in ("base", "tats", "theory")}
    PINNED.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": pins}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-test only)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the second command's first artifact (self-test only)")
    parser.add_argument("--write-pins", action="store_true", help="rewrite pinned.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "tats" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'tats'} not found", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_pins:
        write_pins()
        return 0
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                              args.scale, args.inject_fault)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS.values():
            for trace in (False, True):
                print(f"== {w.name} trace={int(trace)}")
                one = run_workload(w, args.seed, args.seconds, trace, args.scale, args.inject_fault)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update({f"{w.name}/{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
