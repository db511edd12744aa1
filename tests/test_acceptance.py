"""End-to-end checks, one per shipped guarantee; each prints PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are part of the contract and are asserted as
stated, not loosened.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tats import (
    SimConfig,
    TatsConfig,
    TimeSeries,
    TrendPredictorSpec,
    ValueForecasterSpec,
    adjust,
    chronological_split,
    evaluate_forecasts,
    expected_loss_change,
    indicator,
    load_csv,
    lower_bound,
    mse,
    prepare_run,
    scenario_probabilities,
    td_accuracy,
    trend_aware_loss,
    validate_prop1,
)
from tats.cli import RESULTS_HEADER, main
from tats.forecasters import fit_ar

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "sample_forecasts.csv"


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def main_simulation():
    t0 = time.perf_counter()
    report = validate_prop1(SimConfig())
    return report, time.perf_counter() - t0


def test_c01_fixture_metrics():
    ds = load_csv(FIXTURE, target_column="actual", exogenous_columns=["model_one", "model_two"])
    actual = ds.target.values
    one = ds.exogenous["model_one"].values
    two = ds.exogenous["model_two"].values
    mse_one, mse_two = mse(actual, one), mse(actual, two)
    tda_one = td_accuracy(actual[:-1], actual[1:], one[1:])
    tda_two = td_accuracy(actual[:-1], actual[1:], two[1:])
    ok = mse_one == 8.0 and mse_two == 8.0 and tda_one == 1.0 and tda_two == 0.25
    _report(
        "C01 equal-mse-opposite-tda",
        ok,
        f"MSE {mse_one}/{mse_two} (want 8.0/8.0), TDA {tda_one}/{tda_two} (want 1.0/0.25)",
    )


def test_c02_bound_worked_values():
    b1 = lower_bound(180.45, 0.7514, 0.5236)
    b2 = lower_bound(147.70, 0.7514, 0.5241)
    ok = abs(b1 - 41.10651) <= 0.02 and abs(b2 - 33.57221) <= 0.02
    _report(
        "C02 bound-worked-values",
        ok,
        f"{b1:.5f} (want 41.10651 +/- 0.02), {b2:.5f} (want 33.57221 +/- 0.02)",
    )


def test_c03_adjustment_contract():
    rng = np.random.default_rng(1234)
    n = 10_000
    t0 = time.perf_counter()
    failures = 0
    for _ in range(n):
        # dyadic grid: y_prev + alpha is exact, so the step is exactly alpha
        y_prev = float(rng.integers(-40_000, 40_000)) / 16.0
        y_hat = float(rng.integers(-40_000, 40_000)) / 16.0
        alpha = float(rng.integers(1, 4_000)) / 16.0
        d = 1 if rng.random() < 0.5 else -1
        out = adjust(y_hat=y_hat, direction=d, y_prev=y_prev, alpha=alpha)
        if indicator(y_hat, y_prev, d) == 1:
            if out != y_hat:
                failures += 1
        else:
            if abs(out - y_prev) != alpha or (out - y_prev) * int(d) <= 0:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 1.0
    _report(
        "C03 adjustment-contract",
        ok,
        f"{n} random tuples, {failures} violations, {elapsed:.3f}s (< 1s)",
    )


def test_c04_identity_configurations():
    rng = np.random.default_rng(77)
    mismatches_naive = 0
    mismatches_echo = 0
    for _ in range(100):
        values = np.cumsum(rng.normal(0.1, 1.0, size=60)) + 80.0
        series = TimeSeries(values)
        train, test = chronological_split(series, 0.7)

        naive_cfg = TatsConfig(
            value_forecaster=ValueForecasterSpec.naive(),
            trend_predictor=TrendPredictorSpec.oracle(accuracy=0.3, seed=9),
        )
        [run] = prepare_run(naive_cfg, train, test)
        y_adj, loss_adj = run.adjusted(2.0)
        if not (
            np.array_equal(y_adj, run.y_hat)
            and np.array_equal(loss_adj, run.loss_base)
        ):
            mismatches_naive += 1

        fc_spec = ValueForecasterSpec.ar(order=2)
        ar_cfg = TatsConfig(value_forecaster=fc_spec, trend_predictor=TrendPredictorSpec.majority())
        forecasts = prepare_run(ar_cfg, train, test)[0].y_hat
        table = np.full(values.size, np.nan)
        for i, f in enumerate(forecasts):
            t = len(train) + i
            implied = f - values[t - 1]
            table[t] = 1 if implied >= 0 else -1
        echo_cfg = TatsConfig(
            value_forecaster=fc_spec,
            trend_predictor=TrendPredictorSpec.external(source=table),
        )
        [run] = prepare_run(echo_cfg, train, test)
        if not np.array_equal(run.adjusted(5.0)[0], run.y_hat):
            mismatches_echo += 1
    ok = mismatches_naive == 0 and mismatches_echo == 0
    _report(
        "C04 identity-config-equivalence",
        ok,
        f"100 series: naive mismatches {mismatches_naive}, echo mismatches {mismatches_echo}",
    )


def test_c05_reduction_guarantee(main_simulation):
    report, main_secs = main_simulation
    t0 = time.perf_counter()
    boundary = validate_prop1(
        SimConfig(p_db=0.6, p_dt=0.6, error_scale=0.01)
    )
    converse = validate_prop1(SimConfig(p_db=0.50, p_dt=0.70))
    elapsed = main_secs + (time.perf_counter() - t0)

    main_ok = (
        report.mean_reduction > 0.0
        and report.positive_fraction >= 0.95
        and report.mean_reduction >= report.theoretical_bound - 3.0 * report.std_error
    )
    boundary_ok = abs(boundary.mean_reduction) <= 3.0 * boundary.std_error
    converse_ok = converse.mean_reduction < 0.0
    ok = main_ok and boundary_ok and converse_ok and elapsed < 60.0
    _report(
        "C05 reduction-guarantee",
        ok,
        (
            f"main mean {report.mean_reduction:.5f} >= bound {report.theoretical_bound:.5f}"
            f" - 3SE ({report.std_error:.5f}), positive {report.positive_fraction:.0%};"
            f" boundary |{boundary.mean_reduction:.2e}| <= {3 * boundary.std_error:.2e};"
            f" converse {converse.mean_reduction:.4f} < 0; {elapsed:.1f}s (< 60s)"
        ),
    )


def test_c06_scenario_frequencies(main_simulation):
    report, _ = main_simulation
    probs = scenario_probabilities(report.realized_p_db, report.realized_p_dt)
    n = report.n_steps_total
    worst = 0.0
    for key, p in zip(("S1", "S2", "S3", "S4"), probs):
        observed = report.scenario_counts[key]
        sigma = np.sqrt(n * p * (1.0 - p))
        pull = abs(observed - n * p) / sigma
        worst = max(worst, pull)
    ok = worst <= 3.0
    _report(
        "C06 scenario-frequencies",
        ok,
        f"worst |observed - expected| = {worst:.2f} sigma over {n} steps (<= 3)",
    )


def test_c07_bound_equals_expected_change():
    rng = np.random.default_rng(4321)
    mismatch = 0
    worst_sum = 0.0
    for _ in range(1000):
        gap = float(rng.uniform(0.0, 300.0))
        a = float(rng.uniform(0.01, 0.99))
        b = float(rng.uniform(0.01, 0.99))
        if expected_loss_change(gap, a, b) != lower_bound(gap, a, b):
            mismatch += 1
        worst_sum = max(worst_sum, abs(sum(scenario_probabilities(a, b)) - 1.0))
    ok = mismatch == 0 and worst_sum < 1e-12
    _report(
        "C07 bound-identity",
        ok,
        f"1000 triples: {mismatch} inequalities, worst probability-sum error {worst_sum:.2e}",
    )


def test_c08_tda_brute_force():
    rng = np.random.default_rng(2468)
    mismatch = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        y_prev = rng.normal(size=n)
        y_true = y_prev + rng.normal(size=n)
        y_pred = y_prev + rng.normal(size=n)
        if rng.random() < 0.25:
            i = int(rng.integers(0, n))
            y_pred[i] = y_prev[i]  # force a flat implied move
        hits = sum(
            1 for p, t, f in zip(y_prev, y_true, y_pred) if (f - p) * (t - p) > 0
        )
        if td_accuracy(y_prev, y_true, y_pred) != hits / n:
            mismatch += 1
    ok = mismatch == 0
    _report("C08 tda-brute-force", ok, f"1000 random traces: {mismatch} mismatches")


def test_c09_ar_recovery():
    rng = np.random.default_rng(11)
    values = [0.0]
    for _ in range(999):
        values.append(0.6 * values[-1] + rng.normal(0.0, 0.1))
    noisy = fit_ar(TimeSeries(np.asarray(values)), order=1)
    phi = float(noisy.coefficients[0])

    exact_values = [1.0]
    for _ in range(11):
        exact_values.append(2.0 * exact_values[-1])
    exact = fit_ar(TimeSeries(np.asarray(exact_values)), order=1)
    exact_err = max(abs(float(exact.coefficients[0]) - 2.0), abs(float(exact.intercept)))

    ok = 0.5 <= phi <= 0.7 and exact_err <= 1e-9
    _report(
        "C09 ar-recovery",
        ok,
        f"noisy phi {phi:.4f} in [0.5, 0.7]; noiseless error {exact_err:.2e} (<= 1e-9)",
    )


def test_c10_cli_determinism(tmp_path):
    rng = np.random.default_rng(42)
    n = 120
    gold = np.cumsum(rng.normal(0.2, 1.0, size=n)) + 100.0
    data = tmp_path / "prices.csv"
    with data.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gold"])
        for v in gold:
            w.writerow([repr(float(v))])

    def run(out):
        return main(
            [
                "run",
                "--data", str(data),
                "--target-column", "gold",
                "--classifier", "oracle",
                "--oracle-accuracy", "0.8",
                "--seed", "7",
                "--out", str(out),
            ]
        )

    code1, code2 = run(tmp_path / "a"), run(tmp_path / "b")
    report_same = (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    results_same = (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()
    header = (tmp_path / "a" / "results.csv").read_text().splitlines()[0]
    header_ok = header == ",".join(RESULTS_HEADER)
    parsed = json.loads((tmp_path / "a" / "report.json").read_text())
    ok = (
        code1 == 0 and code2 == 0 and report_same and results_same
        and header_ok and "theory" in parsed
    )
    _report(
        "C10 cli-determinism",
        ok,
        (
            f"exit codes {code1}/{code2}, report.json identical {report_same}, "
            f"results.csv identical {results_same}, header ok {header_ok}"
        ),
    )


def test_c11_trend_aware_loss():
    ds = load_csv(FIXTURE, target_column="actual", exogenous_columns=["model_one", "model_two"])
    actual = ds.target.values
    one = ds.exogenous["model_one"].values
    two = ds.exogenous["model_two"].values
    fixture_one = trend_aware_loss(actual, one, 10.0)
    fixture_two = trend_aware_loss(actual, two, 10.0)

    rng = np.random.default_rng(13579)
    worst_rel = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 60))
        y_true = rng.normal(size=m)
        y_pred = rng.normal(size=m)
        y_prev = rng.normal(size=m)
        loss = trend_aware_loss(y_true, y_pred, 0.0, y_prev=y_prev)
        sse = float(np.sum((y_true - y_pred) ** 2))
        worst_rel = max(worst_rel, abs(loss - sse) / max(sse, 1e-300))
    ok = fixture_one == 40.0 and fixture_two == 70.0 and worst_rel < 1e-12
    _report(
        "C11 trend-aware-loss",
        ok,
        (
            f"fixture {fixture_one}/{fixture_two} (want 40.0/70.0); "
            f"gamma=0 vs SSE worst rel err {worst_rel:.2e} (< 1e-12)"
        ),
    )
