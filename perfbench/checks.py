"""Output checks for one benchmark command.

Every check returns a list of problems; an empty list means the command
passed. A command fails if it exits non-zero, if an artifact is missing
or unparseable, or if any check below finds a problem:

* structure: row counts, alphas, and agreement between ``results.csv``
  and ``report.json``; Diff and R-Diff recomputed from the MSE column;
* an independent base forecast: AR by least squares and SES by its
  recursion, recomputed here with numpy from the generated input, must
  give the same base MSE as the program;
* ``simulate``: ``bound_satisfied`` is true, counts add up, and the mean
  reduction agrees with ``trials.csv``;
* byte-identical artifacts across repeats of one seed (see run.py);
* for the default seed at full size, values pinned in ``pinned.json``.
  Only keys present in the pinned file are compared, so new report keys
  do not count as failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

RESULTS_HEADER = ["model", "split", "alpha", "TDA", "MSE", "MAE", "MAPE", "Diff", "R-Diff"]
ARTIFACTS = {
    "run": ("report.json", "results.csv", "forecasts.svg", "mse_vs_alpha.svg"),
    "sweep": ("results.csv", "mse_vs_alpha.svg"),
    "simulate": ("simulation.json", "trials.csv"),
}
REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def subset_mismatch(pinned, actual, where: str = "") -> str | None:
    """First place where ``actual`` differs from ``pinned``; extra dict keys are allowed."""
    if isinstance(pinned, dict):
        if not isinstance(actual, dict):
            return f"{where}: expected an object"
        for key, value in pinned.items():
            if key not in actual:
                return f"{where}/{key}: missing"
            found = subset_mismatch(value, actual[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(pinned, list):
        if not isinstance(actual, list) or len(actual) != len(pinned):
            return f"{where}: expected a list of {len(pinned)}"
        for i, (p, a) in enumerate(zip(pinned, actual)):
            found = subset_mismatch(p, a, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if pinned == actual else f"{where}: {actual!r} != pinned {pinned!r}"


def base_forecasts(values: np.ndarray, n_train: int, forecaster: tuple) -> np.ndarray:
    """One-step forecasts for the test split, fitted on the train split."""
    kind, param = forecaster
    if kind == "ar":
        order = int(param)
        train = values[:n_train]
        design = np.column_stack(
            [np.ones(n_train - order)] + [train[order - k: n_train - k] for k in range(1, order + 1)]
        )
        coef = np.linalg.lstsq(design, train[order:], rcond=None)[0]
        t = np.arange(n_train, values.size)
        lags = np.column_stack([values[t - k] for k in range(1, order + 1)])
        return coef[0] + lags @ coef[1:]
    if kind == "ses":
        lam = float(param)
        level = float(values[0])
        out = np.empty(values.size - n_train)
        for t in range(1, values.size):
            if t >= n_train:
                out[t - n_train] = level
            level = lam * float(values[t]) + (1.0 - lam) * level
        return out
    raise ValueError(f"no reference forecaster for {kind}")


def _read_results(path: Path) -> list[dict]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    if not rows or rows[0] != RESULTS_HEADER:
        raise ValueError(f"results.csv header is {rows[0] if rows else None}")
    return [dict(zip(RESULTS_HEADER, r)) for r in rows[1:]]


def _check_results(rows: list[dict], spec: dict, values: np.ndarray) -> list[str]:
    problems = []
    alphas = spec["alphas"]
    if len(rows) != 1 + len(alphas):
        return [f"results.csv has {len(rows)} rows, expected {1 + len(alphas)}"]
    base = rows[0]
    if base["alpha"] != "" or base["Diff"] != "":
        problems.append("results.csv base row carries an alpha or Diff")
    base_mse = float(base["MSE"])
    for row, alpha in zip(rows[1:], alphas):
        if float(row["alpha"]) != alpha:
            problems.append(f"results.csv alpha {row['alpha']} != {alpha}")
        diff = base_mse - float(row["MSE"])
        if float(row["Diff"]) != diff or not _close(float(row["R-Diff"]), diff / base_mse):
            problems.append(f"results.csv Diff/R-Diff inconsistent at alpha {alpha}")
        if not 0.0 <= float(row["TDA"]) <= 1.0:
            problems.append(f"results.csv TDA out of range at alpha {alpha}")
    n_train = math.floor(0.7 * values.size)
    forecasts = base_forecasts(values, n_train, spec["forecaster"])
    ref_mse = float(np.mean((values[n_train:] - forecasts) ** 2))
    if not _close(base_mse, ref_mse):
        problems.append(f"base MSE {base_mse!r} != reference {ref_mse!r}")
    return problems


def _check_report(report: dict, rows: list[dict], spec: dict, n_rows: int) -> list[str]:
    problems = []
    if report.get("n_train", 0) + report.get("n_test", 0) != n_rows:
        problems.append("report.json n_train + n_test != input rows")
    base = report["base"]
    for key, col in (("tda", "TDA"), ("mse", "MSE"), ("mae", "MAE"), ("mape", "MAPE")):
        if base[key] != float(rows[0][col]):
            problems.append(f"report.json base.{key} disagrees with results.csv")
    if [e["alpha"] for e in report["tats"]] != spec["alphas"]:
        problems.append("report.json alphas differ from the requested alphas")
    for entry, row in zip(report["tats"], rows[1:]):
        if entry["report"]["mse"] != float(row["MSE"]):
            problems.append(f"report.json mse at alpha {entry['alpha']} disagrees with results.csv")
        if sum(entry["scenarios"].values()) != report["n_test"]:
            problems.append(f"scenario counts at alpha {entry['alpha']} do not sum to n_test")
    theory = report["theory"]
    if theory["prop1_holds"] != (theory["p_db"] > theory["p_dt"]):
        problems.append("theory.prop1_holds disagrees with p_db > p_dt")
    if not _close(theory["lower_bound"], theory["abs_gap"] * (theory["p_db"] - theory["p_dt"]), 1e-6):
        problems.append("theory.lower_bound != abs_gap * (p_db - p_dt)")
    return problems


def _check_simulation(sim: dict, trials_csv: str, spec: dict) -> list[str]:
    problems = []
    if sim.get("bound_satisfied") is not True:
        problems.append("simulate reports bound_satisfied != true")
    total = spec["n_trials"] * spec["n_steps"]
    if sim["n_steps_total"] != total:
        problems.append(f"n_steps_total {sim['n_steps_total']} != {total}")
    if sum(sim["scenario_counts"].values()) != total:
        problems.append("scenario counts do not sum to n_steps_total")
    rows = list(csv.reader(io.StringIO(trials_csv)))[1:]
    if len(rows) != spec["n_trials"]:
        problems.append(f"trials.csv has {len(rows)} trials, expected {spec['n_trials']}")
    elif not _close(math.fsum(float(r[3]) for r in rows) / len(rows), sim["mean_reduction"]):
        problems.append("mean_reduction disagrees with trials.csv")
    return problems


def check_outputs(kind: str, out: Path, spec: dict, values: np.ndarray | None, pinned: dict | None) -> list[str]:
    """All problems with one command's artifacts in ``out``."""
    missing = [name for name in ARTIFACTS[kind] if not (out / name).is_file()]
    if missing:
        return [f"missing artifact(s): {', '.join(missing)}"]
    try:
        for name in ARTIFACTS[kind]:
            if name.endswith(".svg"):
                ET.fromstring((out / name).read_bytes())
        if kind == "simulate":
            sim = json.loads((out / "simulation.json").read_text())
            problems = _check_simulation(sim, (out / "trials.csv").read_text(), spec)
            if pinned:
                found = subset_mismatch(pinned["simulation.json"], sim, "simulation.json")
                problems += [found] if found else []
            return problems
        rows = _read_results(out / "results.csv")
        problems = _check_results(rows, spec, values)
        if pinned and (out / "results.csv").read_text() != pinned["results.csv"]:
            problems.append("results.csv differs from the pinned default-seed file")
        if kind == "run":
            report = json.loads((out / "report.json").read_text())
            problems += _check_report(report, rows, spec, values.size)
            if pinned:
                found = subset_mismatch(pinned["report.json"], report, "report.json")
                problems += [found] if found else []
        return problems
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return [f"unparseable artifact: {type(exc).__name__}: {exc}"]
