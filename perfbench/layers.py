"""Per-layer metrics from the spans one traced command wrote (see tracer.py).

A layer is a module of ``tats``. A span's self time is its duration
minus the durations of its direct children; spans nest strictly because
the CLI is single-threaded. An "outer" time sums only the spans of a set
that have no ancestor in the same set, so recursion or a wrapper calling
a wrapped method is not counted twice.
"""

from __future__ import annotations

import json

import numpy as np

from tracer import LAYERS, PREDICT_METHODS

# (metric, unit) in the order they are printed.
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [
        ("ingest.load_s", "s"), ("ingest.rows_loaded", "count"), ("ingest.row_lookups", "count"),
        ("forecasters.fit_calls", "count"), ("forecasters.fit_s", "s"),
        ("forecasters.forecast_calls", "count"), ("forecasters.walk_s", "s"),
        ("classifiers.fit_calls", "count"), ("classifiers.fit_s", "s"), ("classifiers.predict_s", "s"),
        ("classifiers.rows_predicted", "count"), ("classifiers.redundant_fits", "count"),
        ("engine.evaluate_calls", "count"), ("engine.evaluate_s", "s"), ("engine.steps_evaluated", "count"),
        ("montecarlo.trials", "count"), ("montecarlo.walk_s", "s"), ("montecarlo.forecast_s", "s"),
        ("svgchart.points", "count"), ("svgchart.bytes", "bytes"), ("cli.bytes_written", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)

HOOK_COUNTERS = (
    "ingest.rows_loaded", "classifiers.rows_predicted", "classifiers.redundant_fits",
    "engine.steps_evaluated", "montecarlo.trials", "svgchart.points", "svgchart.bytes",
)


def _is_walk(span: str) -> bool:
    return span in ("forecasters.forecast_one", "forecasters.walk_forward_forecasts") or (
        span.startswith("forecasters.") and span.endswith(".forecast_one")
    )


def _is_predict(span: str) -> bool:
    return span.startswith("classifiers.") and span.rsplit(".", 1)[-1] in PREDICT_METHODS


OUTER_TIMES = {
    "ingest.load_s": lambda s: s == "ingest.load_csv",
    "forecasters.fit_s": lambda s: s in ("forecasters.fit_forecaster", "forecasters.fit_ar"),
    "forecasters.walk_s": _is_walk,
    "classifiers.fit_s": lambda s: s == "classifiers.fit_classifier",
    "classifiers.predict_s": _is_predict,
    "engine.evaluate_s": lambda s: s == "engine.evaluate_forecasts",
    "montecarlo.walk_s": lambda s: s == "montecarlo.gen_random_walk",
    "montecarlo.forecast_s": lambda s: s == "montecarlo.synthetic_forecaster",
}
CALL_COUNTS = {
    "ingest.row_lookups": ("ingest.FeatureTable.row_at",),
    "forecasters.fit_calls": ("forecasters.fit_forecaster",),
    "forecasters.forecast_calls": ("forecasters.forecast_one",),
    "classifiers.fit_calls": ("classifiers.fit_classifier",),
    "engine.evaluate_calls": ("engine.evaluate_forecasts",),
}


def _has_ancestor_in(member: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For each span, whether any ancestor is a member (pointer jumping, depth-many steps)."""
    flag = np.zeros(member.size, dtype=bool)
    up = parent.copy()
    live = up >= 0
    while live.any():
        flag[live] |= member[up[live]]
        up[live] = parent[up[live]]
        live = up >= 0
    return flag


def span_metrics(path) -> dict[str, float]:
    """Every per-layer metric except cli.bytes_written and trace.overhead_s."""
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
    names = meta["names"]
    out: dict[str, float] = {key: int(meta["counters"].get(key, 0)) for key in HOOK_COUNTERS}

    def member(pred) -> np.ndarray:
        return np.array([pred(s) for s in names], dtype=bool)[name] if names else np.zeros(0, bool)

    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    for layer in LAYERS:
        sel = member(lambda s, layer=layer: s.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = float(self_time[sel].sum())
        out[f"{layer}.calls"] = int(sel.sum())
    for metric, pred in OUTER_TIMES.items():
        sel = member(pred)
        out[metric] = float(dur[sel & ~_has_ancestor_in(sel, parent)].sum())
    for metric, spans in CALL_COUNTS.items():
        out[metric] = int(member(lambda s: s in spans).sum())
    return out
