"""A full walk-forward experiment on synthetic daily prices.

Fits an AR(2) value forecaster and a logistic direction classifier on
the first 70% of a series, then walks forward through the test range
applying the direction-gated adjustment at several step sizes alpha.
Ends with the plug-in estimate of the expected error reduction.

Run: python demos/03_walk_forward_experiment.py
Charts land in demos/output/.
"""

from pathlib import Path

import numpy as np

from tats import (
    TatsConfig,
    TimeSeries,
    TrendPredictorSpec,
    ValueForecasterSpec,
    chronological_split,
    estimate_theory,
    prepare_run,
    sweep_alpha,
)
from tats.svgchart import line_chart

rng = np.random.default_rng(2024)
n = 250
prices = TimeSeries(np.cumsum(rng.normal(0.15, 1.2, size=n)) + 100.0)
train, test = chronological_split(prices, 0.7)
print(f"{n} synthetic prices, {len(train)} train / {len(test)} test")

config = TatsConfig(
    value_forecaster=ValueForecasterSpec.ar(order=2),
    trend_predictor=TrendPredictorSpec.logistic(),
    n_lags=2,
)
# one fit gives the trace of both splits; alpha only enters the adjustment
test_trace, train_trace = prepare_run(config, train, test, eval_splits=("test", "train"))

alphas = (0.25, 0.5, 1.0, 2.0, 4.0)
sweep = sweep_alpha(test_trace, alphas)

base = sweep.base_report
print()
print(f"base AR(2): MSE={base.mse:.4f} TDA={base.tda:.4f}")
print()
print(f"{'alpha':>6} {'MSE':>8} {'TDA':>7} {'Diff':>8} {'R-Diff':>8}")
for entry in sweep.entries:
    r = entry.report
    print(f"{entry.alpha:>6g} {r.mse:>8.4f} {r.tda:>7.4f} {r.diff:>8.4f} {r.r_diff:>8.4f}")

print()
print("Diff > 0 means the adjusted forecasts beat the base model. Small")
print("alphas track the base closely; large ones overshoot whenever the")
print("classifier is wrong, so MSE is not monotone in alpha.")

# the plug-in estimate of the expected reduction, from in-sample behavior
theory = estimate_theory(train_trace)
print()
print(
    f"in-sample estimate: p_db={theory.p_db:.4f} (classifier) vs "
    f"p_dt={theory.p_dt:.4f} (forecaster direction)"
)
print(
    f"expected per-step reduction {theory.expected_loss_change:.5f} "
    f"(positive iff the classifier is directionally better: {theory.prop1_holds})"
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

best = min(sweep.entries, key=lambda e: e.report.mse)
y_adj, _ = test_trace.adjusted(best.alpha)
xs = [float(t) for t in test_trace.t]
chart = line_chart(
    f"Test forecasts (alpha={best.alpha:g})",
    [
        ("actual", xs, list(test_trace.y_true)),
        ("base", xs, list(test_trace.y_hat)),
        ("adjusted", xs, list(y_adj)),
    ],
    x_label="t",
    y_label="price",
)
(out_dir / "walk_forward.svg").write_text(chart)
sweep_chart = line_chart(
    "MSE vs alpha",
    [
        ("adjusted", list(alphas), [e.report.mse for e in sweep.entries]),
        ("base", [alphas[0], alphas[-1]], [base.mse, base.mse]),
    ],
    x_label="alpha",
    y_label="MSE",
)
(out_dir / "mse_vs_alpha.svg").write_text(sweep_chart)
print()
print(f"wrote {out_dir / 'walk_forward.svg'} and {out_dir / 'mse_vs_alpha.svg'}")
