"""A fixed reference computation that measures how fast the host is right now.

On a shared host the speed of one core drifts by up to a third for tens
of seconds at a time, so two runs of the same command can differ more
than any change worth detecting. The benchmark times this computation
in its own process right before and right after every measured command
and reports the command's wall time in multiples of it ("ref"): both
see the same host speed, so the ratio keeps what the program does and
drops most of what the neighbours do.

The mix follows the work the CLI does: an interpreter loop of small
numpy calls, float formatting and parsing, matrix-vector products,
argsorts and random draws. It never imports ``tats``. Changing it
changes every ``ref`` metric, so it must stay fixed.
"""

from __future__ import annotations

import time

import numpy as np


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference computation (about 0.15 s)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(30_000)
    coef = np.array([0.3, -0.2])
    acc = 0.0
    for i in range(2, x.size):
        acc += float(np.dot(coef, x[i - 2: i]))
    text = ",".join(f"{v:.6g}" for v in x.tolist())
    acc += float(np.sum([float(c) for c in text.split(",")]))
    m = rng.standard_normal((14_000, 4))
    w = np.zeros(4)
    for _ in range(400):
        w -= 0.1 * (m.T @ (1.0 / (1.0 + np.exp(-(m @ w))) - 0.5)) / m.shape[0]
    base = rng.standard_normal((4_000, 3))
    for row in base[:60]:
        acc += float(np.argsort(np.sum((base - row) ** 2, axis=1), kind="stable")[1])
    acc += float(np.sum(rng.random(200_000) < 0.5))
    if not np.isfinite(acc + w.sum()):
        raise ArithmeticError("reference computation produced a non-finite value")
    return time.perf_counter() - t0
