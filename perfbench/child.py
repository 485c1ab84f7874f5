"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py --workload eval --inputs IN.json --t0 T [--trace]
    python3 perfbench/child.py --warmup --t0 T

--t0 is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers interpreter
start through `import eciou` plus the library-side input building. Reading
the generated inputs is in neither setup_s nor the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from time import perf_counter

from gen import CLASSES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_eciou():
    sys.path.insert(0, SRC)
    import eciou

    if not os.path.abspath(eciou.__file__).startswith(SRC + os.sep):
        raise ImportError(f"eciou imported from {eciou.__file__}, not from {SRC}")
    return eciou


# Each workload: read(inputs) -> raw, untimed; build(eciou, raw) -> state,
# part of setup_s; run(eciou, state) -> (output text, attempted, failed),
# the timed region.

def read_sim(inputs):
    return inputs["config"]


def build_sim(eciou, config):
    import numpy as np

    cfg = eciou.ScenarioConfig.from_dict(config)
    # The case list and the stacking run_simulation also does inside itself,
    # timed here as set-up so that work moved out of the timed region shows.
    cases = eciou.build_scenario(cfg)
    anchors = np.array([(c.anchor.x, c.anchor.y, c.anchor.l, c.anchor.w, c.anchor.theta) for c in cases])
    targets = np.array([(c.target.x, c.target.y, c.target.l, c.target.w, c.target.theta) for c in cases])
    return {"cfg": cfg, "anchors": anchors, "targets": targets}


def run_sim(eciou, state):
    res = eciou.run_simulation(state["cfg"], eciou.ALL_KINDS, threads=1)
    if res.case_count != len(state["anchors"]):
        raise RuntimeError(f"run_simulation ran {res.case_count} cases, expected {len(state['anchors'])}")
    return res.curves.to_csv(), res.case_count * len(eciou.ALL_KINDS), sum(res.failures.values())


def read_eval(inputs):
    return inputs


def build_eval(eciou, paths):
    return dict(paths)


def run_eval(eciou, state):
    from eciou import evaluate

    preds = evaluate.parse_records(state["preds"], evaluate.PREDICTIONS)
    gts = evaluate.parse_records(state["gts"], evaluate.GROUND_TRUTHS)
    report = evaluate.evaluate_detections(
        preds, gts, list(CLASSES), eciou.WeightConfig(alpha=1.0),
        thresholds=None, tp_distance=2.0,
        count_affinity=evaluate.IOU_AFFINITY, mode=evaluate.MODE_3D,
    )
    text = report.to_json()
    state["records"] = (preds, gts)
    return text, 1, 0


def same_frame_pairs(state) -> int:
    """Number of same-frame, same-class (pred, gt) pairs."""
    preds, gts = state["records"]
    per_key = {}
    for g in gts:
        key = (g.frame_id, g.class_label)
        per_key[key] = per_key.get(key, 0) + 1
    return sum(per_key.get((p.frame_id, p.class_label), 0) for p in preds)


WORKLOADS = {
    "sim": (read_sim, build_sim, run_sim),
    "eval": (read_eval, build_eval, run_eval),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--inputs")
    ap.add_argument("--t0", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warmup", action="store_true", help="import eciou and exit")
    args = ap.parse_args(argv)

    eciou = import_eciou()
    if args.warmup:
        return 0
    t_imported = time.monotonic()
    read, build, run = WORKLOADS[args.workload]
    with open(args.inputs, encoding="utf-8") as fh:
        raw = read(json.load(fh))

    t = perf_counter()
    state = build(eciou, raw)
    build_s = perf_counter() - t

    if args.trace:
        import spans

        functions = spans.load_functions()
        tracer = spans.Tracer()
        tracer.install(functions)

    t = perf_counter()
    try:
        text, attempted, failed = run(eciou, state)
    except Exception as exc:  # a pass that raises counts as failed
        print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        text, attempted, failed = None, 1, 1
    wall_s = perf_counter() - t

    result = {
        "wall_s": wall_s,
        "setup_s": (t_imported - args.t0) + build_s,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest() if text is not None else None,
    }
    if text is not None and args.trace:
        pair_count = same_frame_pairs(state) if args.workload == "eval" else 0
        layers = spans.layer_metrics(tracer, args.workload, functions, pair_count)
        layers["simulate.failed_descents"] = failed if args.workload == "sim" else 0
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
