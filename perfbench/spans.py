"""Tracing from outside the package: wrap eciou's public functions at run time.

Each wrapped call records a span (name, parent span, start, end) in flat
arrays; self time is a span's duration minus the durations of its direct
children. Wrappers replace the function in its defining module and in
every loaded ``eciou`` module that imported it by name, otherwise calls
through those names would bypass them. Methods are replaced on the class.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def load_functions() -> dict[str, dict]:
    with open(LAYERS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["functions"]


def _resolve(target: str):
    """'pkg.module:Class.attr' -> (owner object, attribute name, original)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _clip_probe(counters, args, result):
    x, _, counts = result
    counters["batch.clip_quads_xy.rows"] += args[0].shape[0]
    counters["batch.clip_quads_xy.filled"] += int(counts.sum())
    counters["batch.clip_quads_xy.slots"] += x.size


def _intersect_probe(counters, args, result):
    counters["geometry.intersect_convex.empty"] += result.is_empty


def _parse_probe(counters, args, result):
    counters["evaluate.parse_records.records"] += len(result)


# Counts taken from a call's arguments or result, by span name.
PROBES = {
    "batch.clip_quads_xy": _clip_probe,
    "geometry.intersect_convex": _intersect_probe,
    "evaluate.parse_records": _parse_probe,
}


class Tracer:
    """Span recorder; install() patches the functions named in layers.json."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        probe = PROBES.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(counters, args, result)
            return result

        return traced

    def install(self, functions: dict[str, dict]) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "eciou" or n.startswith("eciou.")]
        for name, spec in functions.items():
            owner, attr, original = _resolve(spec["target"])
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, and inclusive call durations."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = np.bincount(ids, weights=dur - child_time, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[nid]),
                "self_s": float(self_time[nid]),
                "durations": dur[ids == nid],
            }
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of `name` whose parent span is a `parent_name` span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid, pid = self.names.index(name), self.names.index(parent_name)
        mine = (ids == nid) & (parent >= 0)
        return int((ids[parent[mine]] == pid).sum())


def layer_metrics(tracer: Tracer, workload: str, functions: dict[str, dict], pair_count: int) -> dict:
    """Every per-layer figure the traced pass can give, keyed by metric name.

    Raises RuntimeError when a function the workload must exercise recorded
    no calls: the wrapper was bypassed or the workload changed.
    """
    spans = tracer.summary()
    idle = [n for n, spec in functions.items() if workload in spec["exercised_by"] and spans[n]["calls"] == 0]
    if idle:
        raise RuntimeError(f"traced functions recorded no calls on {workload}: {', '.join(idle)}")
    c = tracer.counters
    out: dict[str, float] = {}
    for name, span in spans.items():
        out[f"{name}.calls"] = span["calls"]
        out[f"{name}.self_s"] = span["self_s"]
        d = span["durations"]
        out[f"{name}.p50_us"] = float(np.median(d)) * 1e6 if len(d) else 0.0
    clip_slots = c["batch.clip_quads_xy.slots"]
    out["batch.clip_quads_xy.rows"] = c["batch.clip_quads_xy.rows"]
    out["batch.clip_quads_xy.fill_ratio"] = c["batch.clip_quads_xy.filled"] / clip_slots if clip_slots else 0.0
    out["batch.scores.curve_calls"] = tracer.calls_under("batch.scores", "simulate.run_simulation")
    n_clip = spans["geometry.intersect_convex"]["calls"]
    out["geometry.intersect_convex.empty_share"] = (
        c["geometry.intersect_convex.empty"] / n_clip if n_clip else 0.0
    )
    out["evaluate.parse_records.records"] = c["evaluate.parse_records.records"]
    metric_calls = sum(span["calls"] for name, span in spans.items() if name.startswith("metrics."))
    out["evaluate.scores_per_pair"] = metric_calls / pair_count if workload == "eval" and pair_count else 0.0
    return out
