"""How the direction-gated adjustment rewrites a forecast, step by step.

A value forecaster proposes the next level; a trend classifier proposes
the next direction. When the two agree (or the forecast is flat), the
forecast passes through untouched. When they disagree, the forecast is
replaced by last value +/- alpha in the classifier's direction.

Run: python demos/01_adjustment_mechanics.py
"""

import numpy as np

from tats import Scenario, evaluate_forecasts

UP, DOWN = 1, -1  # directions are +1/-1 ints
NAME = {UP: "UP", DOWN: "DOWN"}

print("=== Single steps ===")
print()
cases = [
    ("agreement, pass through", 7.0, 8.4, UP, 1.0),
    ("disagreement, override", 7.0, 8.4, DOWN, 1.0),
    ("flat forecast counts as agreement", 7.0, 7.0, DOWN, 1.0),
    ("larger alpha, larger override step", 7.0, 6.1, UP, 2.5),
]
for label, y_prev, y_hat, direction, alpha in cases:
    # a one-step trace; the realized value (here y_hat) does not enter the adjustment
    step = evaluate_forecasts(np.array([y_prev, y_hat]), 1, np.array([y_hat]), np.array([direction]))
    ind = step.indicator[0]
    out = step.adjusted(alpha)[0][0]
    print(f"{label}:")
    print(
        f"  last value {y_prev}, forecast {y_hat}, classifier says {NAME[direction]},"
        f" alpha={alpha}"
    )
    print(f"  indicator={ind} -> adjusted forecast {out}")
    print()

print("=== A short trajectory ===")
print()
values = np.array([100.0, 101.5, 100.8, 102.2, 101.0, 103.5])
forecasts = np.array([101.0, 102.3, 101.2, 102.8, 101.8])
directions = np.array([1, -1, 1, -1, 1])
alpha = 0.5

tr = evaluate_forecasts(values, 1, forecasts, directions)
y_adj, loss_adj = tr.adjusted(alpha)
print(f"{'t':>2} {'prev':>7} {'true':>7} {'base':>7} {'dir':>4} {'ind':>3} "
      f"{'adjusted':>8} {'scenario':>9}")
for i in range(len(tr)):
    print(
        f"{tr.t[i]:>2} {tr.y_prev[i]:>7.2f} {tr.y_true[i]:>7.2f} {tr.y_hat[i]:>7.2f} "
        f"{NAME[tr.direction[i]]:>4} {tr.indicator[i]:>3} "
        f"{y_adj[i]:>8.2f} {Scenario(int(tr.scenario[i])).name:>9}"
    )
print()
print(f"base MSE     {np.mean(tr.loss_base):.4f}")
print(f"adjusted MSE {np.mean(loss_adj):.4f}")
print()
print("The override only ever moves the forecast to the classifier's side")
print("of the last value; agreeing steps are reproduced bit for bit.")

# The scenario tag names the four direction outcomes after the fact:
# S1 both right, S2 forecast right but classifier wrong, S3 both wrong,
# S4 forecast wrong but classifier right (the case the override rescues).
example = evaluate_forecasts(np.array([10.0, 12.0]), 1, np.array([9.0]), np.array([UP]))
print()
print(f"scenario of (prev=10, true=12, forecast=9, dir=UP) -> {Scenario(int(example.scenario[0])).name}")
