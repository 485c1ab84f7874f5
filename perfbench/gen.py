"""Seeded inputs for the benchmark workloads.

Pure Python (``random.Random``), so the same variant gives the same bytes
on every platform, and nothing here imports the package under test. The
benchmark's ``--seed`` selects one of ``VARIANTS`` input sets; every variant
has a reference digest in ``references.json``.
"""

from __future__ import annotations

import math
import os
import random

VARIANTS = 8

# Per-size knobs. "full" is what the benchmark measures; "tiny" only feeds
# the smoke test. sim keeps criterion 7's 180 iterations, loss kinds and
# targets but only 162 cases, as its 1350 cases take over a minute a pass:
# a 3x3 anchor grid (the target centre and +-3 m) of unit-scale anchors.
# The centred row keeps overlapping starts in the mix (11% of cases, 17% in
# criterion 7), so every kind's curve rises; a 2x2 grid starts every case
# disjoint, where the iou and ec-iou descents never move. 500 eval
# frames is where evaluate's per-frame grouping, quadratic in frames, and
# the pair scoring each take at least a quarter of a pass.
SIZES = {
    "full": {"frames": 500, "sim": {"grid_points_per_axis": 3, "anchor_scales": [1.0]}},
    "tiny": {"frames": 6, "sim": {"grid_points_per_axis": 1, "anchor_scales": [1.0], "iterations": 4}},
}

CLASSES = ("car", "pedestrian")
GTS_PER_CLASS = 6
PREDS_PER_GT = 2
# (l, w, h) ranges in metres per class.
DIMS = {
    "car": ((3.5, 5.0), (1.6, 2.0), (1.4, 1.8)),
    "pedestrian": ((0.5, 1.0), (0.5, 1.0), (1.5, 1.9)),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _jitter(rng: random.Random, box: tuple[float, ...]) -> tuple[float, ...]:
    """Perturbed copy of an (x, y, z, l, w, h, theta) box, usually overlapping it."""
    x, y, z, l, w, h, theta = box
    return (
        x + rng.uniform(-0.3, 0.3) * l,
        y + rng.uniform(-0.3, 0.3) * w,
        z + rng.uniform(-0.2, 0.2) * h,
        l * rng.uniform(0.7, 1.3),
        w * rng.uniform(0.7, 1.3),
        h * rng.uniform(0.7, 1.3),
        theta + rng.uniform(-0.3, 0.3),
    )


def _line(frame: str, label: str, box: tuple[float, ...], score: float | None = None) -> str:
    fields = [frame, label] + [f"{v:.6f}" for v in box]
    if score is not None:
        fields.append(f"{score:.6f}")
    return " ".join(fields) + "\n"


def eval_records(variant: int, frames: int) -> tuple[str, str]:
    """(predictions, ground truths) record-file texts.

    Per frame, GTS_PER_CLASS ground truths of each class sit 5-50 m ahead
    of the ego; each gets PREDS_PER_GT jittered copies with uniform scores.
    """
    rng = random.Random(f"eval-{variant}")
    preds, gts = [], []
    for f in range(frames):
        frame = f"{f:06d}"
        for label in CLASSES:
            (l_lo, l_hi), (w_lo, w_hi), (h_lo, h_hi) = DIMS[label]
            for _ in range(GTS_PER_CLASS):
                h = rng.uniform(h_lo, h_hi)
                gt = (
                    rng.uniform(5.0, 50.0),
                    rng.uniform(-15.0, 15.0),
                    0.5 * h,
                    rng.uniform(l_lo, l_hi),
                    rng.uniform(w_lo, w_hi),
                    h,
                    rng.uniform(-math.pi, math.pi),
                )
                gts.append(_line(frame, label, gt))
                for _ in range(PREDS_PER_GT):
                    preds.append(_line(frame, label, _jitter(rng, gt), rng.random()))
    return "".join(preds), "".join(gts)


def sim_config(variant: int, size: str) -> dict:
    """ScenarioConfig fields: the criterion-7 layout with fewer cases, its
    target family rotated about the ego by a per-variant angle.

    Golden-angle steps keep any two variants from being half a turn apart,
    which would make their curves identical (the scores depend on distance
    to the ego only).
    """
    cfg = dict(SIZES[size]["sim"])
    rho = math.hypot(6.0, 6.0)
    phi = math.pi / 4.0 + math.pi * (3.0 - math.sqrt(5.0)) * variant
    cfg["target_center"] = [rho * math.cos(phi), rho * math.sin(phi)]
    return cfg


def write_inputs(workload: str, variant: int, size: str, work_dir: str) -> dict:
    """Write one workload's inputs under work_dir; returns what the pass needs."""
    os.makedirs(work_dir, exist_ok=True)
    if workload == "eval":
        preds, gts = eval_records(variant, SIZES[size]["frames"])
        paths = {"preds": os.path.join(work_dir, "preds.txt"), "gts": os.path.join(work_dir, "gts.txt")}
        for key, text in (("preds", preds), ("gts", gts)):
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        return paths
    if workload == "sim":
        return {"config": sim_config(variant, size)}
    raise ValueError(f"unknown workload {workload!r}")
