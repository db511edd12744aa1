"""Run one ``tats`` CLI command with spans around every public entry point.

Usage: python3 perfbench/tracer.py SPANS.npz -- <tats CLI arguments>

The wrappers are installed from outside the package. For each layer
(a module of ``tats``) the tracer resolves, by name and at run time, the
functions the module exports (``__all__``, or its own public functions
when it has none) and the public methods of its exported classes. Each
function wrapper replaces the original in every ``tats`` namespace that
imported it; each method wrapper replaces the method on its class. A
name that no longer exists is skipped, so deleting a function drops its
span instead of breaking the benchmark.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written with a few counters once the command ends. Counters that need
an argument or a result (rows loaded, rows predicted, redundant fits,
steps evaluated, trials, chart points and bytes) are taken in hooks that
run after the span has closed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "cli", "core", "ingest", "forecasters", "classifiers",
    "engine", "metrics", "theory", "montecarlo", "svgchart",
)
PREDICT_METHODS = ("predict_matrix", "predict_row", "predict_direction", "draw", "draw_many",
                   "direction_at", "oracle_predict")


class Recorder:
    """Span store: parallel arrays indexed by span id, in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.fit_keys: set[bytes] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str, hook=None):
        nid = self.name_id(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            up = stack[-1]
            name.append(nid)
            parent.append(up)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self, up, args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        meta = {"names": self.names, "counters": dict(self.counters)}
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


# --- counter hooks: (recorder, parent span id, args, kwargs, result) -------------

def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hook_load_csv(rec, up, args, kwargs, result):
    rec.counters["ingest.rows_loaded"] += len(result.target)


def _hook_fit_classifier(fn):
    def hook(rec, up, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        digest = hashlib.blake2b(repr(bound.get("spec")).encode(), digest_size=16)
        features = bound.get("features")
        if features is not None:
            digest.update(np.ascontiguousarray(features.rows).tobytes())
            digest.update(np.ascontiguousarray(features.labels).tobytes())
        key = digest.digest()
        if key in rec.fit_keys:
            rec.counters["classifiers.redundant_fits"] += 1
        rec.fit_keys.add(key)
    return hook


def _hook_predict(predict_ids: set[int], rec, up, args, kwargs, result):
    if up >= 0 and rec.name[up] in predict_ids:
        return  # rows already counted by the enclosing prediction call
    rows = np.asarray(result)
    rec.counters["classifiers.rows_predicted"] += int(rows.size) if rows.ndim else 1


def _hook_evaluate(fn):
    def hook(rec, up, args, kwargs, result):
        rec.counters["engine.steps_evaluated"] += int(np.size(_bound(fn, args, kwargs)["forecasts"]))
    return hook


def _hook_validate(rec, up, args, kwargs, result):
    rec.counters["montecarlo.trials"] += len(result.trials)


def _hook_line_chart(fn):
    def hook(rec, up, args, kwargs, result):
        series = _bound(fn, args, kwargs)["series"]
        rec.counters["svgchart.points"] += sum(len(xs) for _, xs, _ in series)
        rec.counters["svgchart.bytes"] += len(result.encode("utf-8"))
    return hook


# Hook factories by span name: each takes the wrapped function, returns the hook.
HOOKS = {
    "ingest.load_csv": lambda fn: _hook_load_csv,
    "classifiers.fit_classifier": _hook_fit_classifier,
    "engine.evaluate_forecasts": _hook_evaluate,
    "montecarlo.validate_prop1": lambda fn: _hook_validate,
    "svgchart.line_chart": _hook_line_chart,
}


def _exported(module):
    """(name, object) pairs a module exports; names that no longer exist are skipped."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, v in vars(module).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__
        ]
    for n in names:
        obj = getattr(module, n, None)
        if obj is not None:
            yield n, obj


def install(rec: Recorder) -> None:
    """Wrap every exported function and public method of each layer module."""
    modules = {layer: importlib.import_module(f"tats.{layer}") for layer in LAYERS}
    predict_ids: set[int] = set()
    replaced: dict[int, object] = {}

    def hook_for(span: str, fn):
        if span.startswith("classifiers.") and span.rsplit(".", 1)[-1] in PREDICT_METHODS:
            predict_ids.add(rec.name_id(span))
            return functools.partial(_hook_predict, predict_ids)
        make = HOOKS.get(span)
        return make(fn) if make else None

    for layer, module in modules.items():
        for name, obj in _exported(module):
            owner = getattr(obj, "__module__", "")
            if not owner.startswith("tats.") or owner.split(".", 1)[1] not in modules:
                continue
            owner_layer = owner.split(".", 1)[1]
            if inspect.isfunction(obj):
                if id(obj) not in replaced:
                    span = f"{owner_layer}.{name}"
                    replaced[id(obj)] = rec.wrap(obj, span, hook_for(span, obj))
            elif inspect.isclass(obj) and owner == module.__name__:
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{owner_layer}.{name}.{attr}"
                    if isinstance(raw, (staticmethod, classmethod)):
                        fn = raw.__func__
                        setattr(obj, attr, type(raw)(rec.wrap(fn, span, hook_for(span, fn))))
                    elif inspect.isfunction(raw):
                        setattr(obj, attr, rec.wrap(raw, span, hook_for(span, raw)))

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tats" or mod_name.startswith("tats.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <tats arguments>", file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    cli = sys.modules["tats.cli"]
    try:
        return cli.main(cli_args)
    finally:
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
