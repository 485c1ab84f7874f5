"""eciou benchmark: one workload, repeated passes, one JSON result line.

    python3 perfbench/run.py --workload {sim,eval} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/` directory and metric names and units come from
BENCHMARK.json at its root. The seed picks one of gen.VARIANTS input sets.
Each pass runs in a fresh interpreter (perfbench/child.py) with one
thread, one pass after another, until the next pass would end after S
seconds. Every metric is the median over passes, and a line before the
result records the machine and every pass.

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
alternates untraced and traced passes and reports the per-layer metrics;
trace.overhead is median traced over median untraced wall time, minus 1.

Every pass's output is hashed and compared with references.json, captured
from the unchanged package for every input variant; a mismatch counts all
operations of that pass as failed and the command exits 1. The command
exits 2, printing no result, when the benchmark itself cannot run.
--capture-references rewrites references.json; use it only when the
workloads themselves change, never to accept a changed output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
MIN_PASSES = 2
WORKLOADS = ("sim", "eval")
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run: missing source, a crashed pass."""


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def pass_args(workload: str, inputs_path: str, traced: bool) -> list[str]:
    return ["--workload", workload, "--inputs", inputs_path] + (["--trace"] if traced else [])


def run_one(args: list[str], out_prefix: str, traced: bool = False) -> dict:
    """One pass in a fresh child process; its stdout and stderr go to files."""
    out_path, err_path = out_prefix + ".out", out_prefix + ".err"
    t0 = time.monotonic()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args, "--t0", repr(t0)],
            stdout=out, stderr=err, env=dict(os.environ, **SINGLE_THREAD), cwd=ROOT,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass ran longer than {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    elapsed = time.monotonic() - t0
    with open(err_path, encoding="utf-8") as fh:
        err_text = fh.read()
    if proc.returncode != 0:
        raise BenchError(f"pass {' '.join(args)} exited {proc.returncode}:\n{err_text.strip()}")
    print(err_text, end="", file=sys.stderr)
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result.update(elapsed_s=elapsed, traced=traced)
    return result


def prepare(workload: str, seed: int, size: str) -> tuple[str, int]:
    """Write the seed's inputs under the work directory; returns (inputs file, variant)."""
    variant = gen.variant_of(seed)
    work_dir = os.path.join(WORK, workload)
    inputs = gen.write_inputs(workload, variant, size, work_dir)
    path = os.path.join(work_dir, "inputs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    return path, variant


def measure(workload: str, inputs_path: str, seconds: float, trace: bool) -> list[dict]:
    """Passes one after another until the next would end after `seconds`,
    and at least MIN_PASSES. With trace, untraced and traced passes alternate."""
    work_dir = os.path.dirname(inputs_path)
    run_one(["--warmup"], os.path.join(work_dir, "warmup"))  # compiles bytecode before setup_s is timed
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(p["elapsed_s"] for p in passes) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        prefix = os.path.join(work_dir, "pass")
        passes.append(run_one(pass_args(workload, inputs_path, traced), prefix, traced))
    return passes


def check(passes: list[dict], workload: str, variant: int, size: str) -> bool:
    """Compare each pass's digest with the reference; a mismatch fails the whole pass."""
    with open(REFERENCES, encoding="utf-8") as fh:
        expected = json.load(fh)[size][workload].get(str(variant))
    correct = True
    for p in passes:
        if p["digest"] is None or p["digest"] != expected:
            correct = False
            p["failed"] = p["attempted"]
    return correct


def figures(passes: list[dict], trace: bool) -> dict:
    """Medians over passes: end-to-end figures from untraced passes, per-layer
    figures from traced ones."""
    plain = [p for p in passes if not p["traced"]]
    median = lambda key, ps: statistics.median(p[key] for p in ps)  # noqa: E731
    if not trace:
        return {k: median(k, plain) for k in ("wall_s", "setup_s", "peak_rss_mb")}
    traced = [p["layers"] for p in passes if p["traced"] and "layers" in p]
    if not traced:
        raise BenchError("no traced pass completed")
    out = {k: median(k, traced) for k in traced[0]}
    out["trace.overhead"] = median("wall_s", [p for p in passes if p["traced"]]) / median("wall_s", plain) - 1.0
    return out


def result_line(passes: list[dict], trace: bool, correct: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = figures(passes, trace)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def capture_references() -> None:
    """One untraced pass per size, workload and variant; writes references.json."""
    refs: dict = {}
    for size in gen.SIZES:
        for workload in WORKLOADS:
            for variant in range(gen.VARIANTS):
                path, _ = prepare(workload, variant, size)
                p = run_one(pass_args(workload, path, False), os.path.join(WORK, workload, "capture"))
                if p["digest"] is None or p["failed"]:
                    raise BenchError(f"{size} {workload} variant {variant}: {p['failed']} failed operations")
                refs.setdefault(size, {}).setdefault(workload, {})[str(variant)] = p["digest"]
                print(size, workload, variant, p["digest"], f"{p['wall_s']:.2f}s", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                    help="tiny is for the benchmark's own smoke test")
    ap.add_argument("--capture-references", action="store_true")
    args = ap.parse_args(argv)
    # SystemExit unwinds through run_one(), which kills and reaps a running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "eciou", "__init__.py")):
            raise BenchError(f"no eciou source under {os.path.join(ROOT, 'src')}")
        if args.capture_references:
            capture_references()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        inputs_path, variant = prepare(args.workload, args.seed, args.size)
        passes = measure(args.workload, inputs_path, args.seconds, bool(args.trace))
        correct = check(passes, args.workload, variant, args.size)
        line = result_line(passes, bool(args.trace), correct)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    facts = {
        "machine": machine_facts(),
        "workload": args.workload, "seed": args.seed, "variant": variant, "size": args.size,
        "passes": [
            {k: p.get(k) for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "failed")}
            for p in passes
        ],
    }
    print(json.dumps(facts))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
