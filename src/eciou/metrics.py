"""IoU and ego-centric IoU scores for oriented boxes, in BEV and 3D.

The ego-centric variant replaces the intersection and ground-truth areas
with importance-weighted ones, so predictions covering the near side of an
object score higher. Both weighted terms use the same evaluation method, so
a perfect prediction scores exactly 1. Approximate scores are clamped into
[0, 1]; the clamped flag records when the raw value exceeded 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .geometry import (
    Box3D,
    ConvexPolygon,
    OrientedBoxBEV,
    box_to_polygon,
    intersect_convex,
    polygon_area,
)
from .weighting import GEOMETRIC, WeightConfig, weighted_area, weighted_areas


@dataclass(frozen=True)
class MetricScore:
    """Score in [0, 1]; clamped is set when the raw value exceeded 1."""

    value: float
    clamped: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value out of range: {self.value}")


def _clamp(raw: float) -> MetricScore:
    if raw > 1.0:
        return MetricScore(1.0, clamped=True)
    return MetricScore(max(raw, 0.0))


def iou_bev(p: OrientedBoxBEV, g: OrientedBoxBEV) -> MetricScore:
    """Plain intersection-over-union of the two box footprints."""
    poly_p = box_to_polygon(p)
    poly_g = box_to_polygon(g)
    inter = polygon_area(intersect_convex(poly_p, poly_g))
    union = polygon_area(poly_g) + polygon_area(poly_p) - inter
    return MetricScore(min(max(inter / union, 0.0), 1.0))


def ec_iou_bev(p: OrientedBoxBEV, g: OrientedBoxBEV, cfg: WeightConfig) -> MetricScore:
    """Ego-centric IoU: weighted intersection over weighted-gt + extra area."""
    poly_g = box_to_polygon(g)
    return _ec_iou_bev(p, g, poly_g, (cfg,), weighted_areas(g, poly_g, (cfg,)))[0]


def _ec_iou_bev(
    p: OrientedBoxBEV,
    g: OrientedBoxBEV,
    poly_g: ConvexPolygon,
    cfgs: Sequence[WeightConfig],
    wa_g: Sequence[float],
) -> list[MetricScore]:
    """ec_iou_bev under each of cfgs, given g's weighted area under each."""
    poly_p = box_to_polygon(p)
    inter = intersect_convex(poly_p, poly_g)
    # Grouping the prediction's extra area keeps ec_iou(g, g) exactly 1.
    extra = polygon_area(poly_p) - polygon_area(inter)
    return [_clamp(wa / (wa_gt + extra)) for wa, wa_gt in zip(weighted_areas(g, inter, cfgs), wa_g)]


def _vertical_overlap(p: Box3D, g: Box3D) -> float:
    top = min(p.z + 0.5 * p.h, g.z + 0.5 * g.h)
    bottom = max(p.z - 0.5 * p.h, g.z - 0.5 * g.h)
    return max(top - bottom, 0.0)


def iou_3d(p: Box3D, g: Box3D) -> MetricScore:
    """Volume IoU: BEV areas times heights, with the shared vertical overlap."""
    v = _vertical_overlap(p, g)
    poly_p = box_to_polygon(p)
    poly_g = box_to_polygon(g)
    inter_vol = polygon_area(intersect_convex(poly_p, poly_g)) * v
    union = polygon_area(poly_p) * p.h + polygon_area(poly_g) * g.h - inter_vol
    return MetricScore(min(max(inter_vol / union, 0.0), 1.0))


def ec_iou_3d(p: Box3D, g: Box3D, cfg: WeightConfig) -> MetricScore:
    """3D ego-centric IoU; the weighting ignores the gravity axis."""
    v = _vertical_overlap(p, g)
    poly_p = box_to_polygon(p)
    poly_g = box_to_polygon(g)
    inter = intersect_convex(poly_p, poly_g)
    extra = polygon_area(poly_p) * p.h - polygon_area(inter) * v
    raw = weighted_area(g, inter, cfg) * v / (weighted_area(g, poly_g, cfg) * g.h + extra)
    return _clamp(raw)


@dataclass(frozen=True)
class SweepRow:
    x: float
    iou: float
    ec_iou: tuple[float, ...]


@dataclass(frozen=True)
class SweepTable:
    """IoU and per-alpha EC-IoU for predictions slid along the x axis."""

    alphas: tuple[float, ...]
    method: str
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        header = "x,iou," + ",".join(f"eciou_a{_fmt_alpha(a)}" for a in self.alphas)
        lines = [header]
        for row in self.rows:
            cells = [f"{row.x:.6g}", f"{row.iou:.6g}"] + [f"{v:.6g}" for v in row.ec_iou]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _fmt_alpha(alpha: float) -> str:
    return str(int(alpha)) if float(alpha).is_integer() else f"{alpha:g}"


def sweep_curve(
    g: OrientedBoxBEV,
    x_range: tuple[float, float],
    step: float,
    alphas: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    method: str = GEOMETRIC,
    mc_samples: int = 6000,
    mc_seed: int = 0,
) -> SweepTable:
    """Slide a copy of g along the x axis and score it at every sample.

    One row per sample x in [x_lo, x_hi] at the given step; the prediction
    keeps g's dimensions, heading, and y coordinate. With monte-carlo, each
    polygon's points are drawn once and weighted at every alpha, and g's
    once per call.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x_lo, x_hi = x_range
    n_steps = int(math.floor((x_hi - x_lo) / step + 1e-9))
    configs = [
        WeightConfig(alpha=a, method=method, mc_samples=mc_samples, mc_seed=mc_seed)
        for a in alphas
    ]
    poly_g = box_to_polygon(g)
    wa_g = weighted_areas(g, poly_g, configs)
    rows = []
    for i in range(n_steps + 1):
        x = x_lo + i * step
        p = OrientedBoxBEV(x, g.y, g.l, g.w, g.theta)
        rows.append(
            SweepRow(
                x=x,
                iou=iou_bev(p, g).value,
                ec_iou=tuple(s.value for s in _ec_iou_bev(p, g, poly_g, configs, wa_g)),
            )
        )
    return SweepTable(alphas=tuple(alphas), method=method, rows=tuple(rows))
