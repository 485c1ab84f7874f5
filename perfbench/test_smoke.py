"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a changed program output is caught, and that the benchmark refuses to
run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--size", "tiny", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


def copy_checkout(dest, with_src: bool = True) -> str:
    root = str(dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"), ignore=ignore)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sim", "eval"])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_changed_output_counts_every_operation_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    path = os.path.join(root, "src", "eciou", "evaluate.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    corrupted = text.replace("json.dumps(payload, indent=2", "json.dumps(payload, indent=1")
    assert corrupted != text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corrupted)
    proc = bench(root, "--workload", "eval", "--seed", "1", "--trace", "0")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_package_source(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = bench(root, "--workload", "eval", "--seed", "1", "--trace", "0")
    assert proc.returncode not in (0, None)
    assert "correct" not in proc.stdout
