"""Seeded synthetic inputs for the benchmark, built with numpy alone.

Nothing here imports ``tats``: a change to the program under test cannot
change what it is fed. Each series is a random walk on a grid of 1e-4,
so the CSV text is exact and no step is flat (a zero tick is bumped to
one tick). Every column is shifted so its minimum is 100, which keeps
all actuals non-zero for MAPE.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TICKS_PER_UNIT = 10_000
FLOOR_TICKS = 100 * TICKS_PER_UNIT
COLUMNS = ("y", "x1")


def walk_ticks(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer random walk of length n with unit-variance steps and no flat step."""
    steps = np.rint(rng.standard_normal(n - 1) * TICKS_PER_UNIT).astype(np.int64)
    steps[steps == 0] = 1
    level = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(steps)])
    return level - level.min() + FLOOR_TICKS


def write_series_csv(path: Path, n_rows: int, seed: int) -> None:
    """Write a ``y,x1`` CSV of n_rows rows: target walk plus one exogenous walk."""
    rng = np.random.default_rng([seed, n_rows])
    columns = [walk_ticks(rng, n_rows) for _ in COLUMNS]
    cells = [
        [f"{v // TICKS_PER_UNIT}.{v % TICKS_PER_UNIT:04d}" for v in col.tolist()]
        for col in columns
    ]
    lines = [",".join(COLUMNS)] + [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n")


def read_series_csv(path: Path) -> dict[str, np.ndarray]:
    """Read back a CSV written by :func:`write_series_csv` (for output checks)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(COLUMNS)}
