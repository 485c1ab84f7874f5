"""IoU and ego-centric IoU scores for oriented boxes, in BEV and 3D.

The ego-centric variant replaces the intersection and ground-truth areas
with importance-weighted ones, so predictions covering the near side of an
object score higher. Both weighted terms use the same evaluation method, so
a perfect prediction scores 1. Approximate scores are clamped into [0, 1];
the clamped flag records when the raw value exceeded 1. The BEV scores are
the 3D ratios with the heights and the vertical overlap set to 1.
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
from .weighting import GEOMETRIC, WeightConfig, weight_extremes, weighted_area, weighted_areas

# Most rows one sweep_curve call may write; the same bound as simulate.MAX_CASES.
MAX_SWEEP_ROWS = 100_000


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


def _scores(
    p: OrientedBoxBEV,
    g: OrientedBoxBEV,
    poly_g: ConvexPolygon,
    cfgs: Sequence[WeightConfig],
    wa_g: Sequence[float],
    v: float,
    h_p: float,
    h_g: float,
) -> tuple[MetricScore, list[MetricScore]]:
    """IoU and the EC-IoU under each of cfgs, from one clip of the footprints
    extruded to heights h_p, h_g that share the vertical overlap v. wa_g holds
    g's weighted area under each of cfgs; the weighting ignores the gravity axis."""
    poly_p = box_to_polygon(p)
    inter = intersect_convex(poly_p, poly_g)
    vol_i = polygon_area(inter) * v
    vol_p = polygon_area(poly_p) * h_p
    iou = MetricScore(min(max(vol_i / (vol_p + polygon_area(poly_g) * h_g - vol_i), 0.0), 1.0))
    # Grouping the extra volume keeps ec_iou(g, g) exactly 1 where v rounds to h_g.
    extra = vol_p - vol_i
    wa_i = weighted_areas(g, inter, cfgs) if cfgs else []
    ec_ious = []
    for cfg, wa, wa_gt in zip(cfgs, wa_i, wa_g):
        denom = wa_gt * h_g + extra
        if not 0.0 < denom < math.inf:  # the weights under- or overflowed
            raise ValueError(f"EC-IoU is undefined at alpha {cfg.alpha:g} (denominator {denom:g})")
        ec_ious.append(_clamp(wa * v / denom))
    return iou, ec_ious


def iou_bev(p: OrientedBoxBEV, g: OrientedBoxBEV) -> MetricScore:
    """Plain intersection-over-union of the two box footprints."""
    return _scores(p, g, box_to_polygon(g), (), (), 1.0, 1.0, 1.0)[0]


def scores_bev(
    p: OrientedBoxBEV, g: OrientedBoxBEV, cfg: WeightConfig
) -> tuple[MetricScore, MetricScore]:
    """(IoU, EC-IoU) of the two box footprints, both from one clip."""
    poly_g = box_to_polygon(g)
    iou, (ec_iou,) = _scores(p, g, poly_g, (cfg,), (weighted_area(g, poly_g, cfg),), 1.0, 1.0, 1.0)
    return iou, ec_iou


def ec_iou_bev(p: OrientedBoxBEV, g: OrientedBoxBEV, cfg: WeightConfig) -> MetricScore:
    """Ego-centric IoU: weighted intersection over weighted-gt + extra area."""
    return scores_bev(p, g, cfg)[1]


def _vertical_overlap(p: Box3D, g: Box3D) -> float:
    top = min(p.z + 0.5 * p.h, g.z + 0.5 * g.h)
    bottom = max(p.z - 0.5 * p.h, g.z - 0.5 * g.h)
    return max(top - bottom, 0.0)


def iou_3d(p: Box3D, g: Box3D) -> MetricScore:
    """Volume IoU: BEV areas times heights, with the shared vertical overlap."""
    return _scores(p, g, box_to_polygon(g), (), (), _vertical_overlap(p, g), p.h, g.h)[0]


def scores_3d(p: Box3D, g: Box3D, cfg: WeightConfig) -> tuple[MetricScore, MetricScore]:
    """(3D IoU, 3D EC-IoU), both from one clip; the weighting ignores the gravity axis."""
    poly_g, v = box_to_polygon(g), _vertical_overlap(p, g)
    iou, (ec_iou,) = _scores(p, g, poly_g, (cfg,), (weighted_area(g, poly_g, cfg),), v, p.h, g.h)
    return iou, ec_iou


def ec_iou_3d(p: Box3D, g: Box3D, cfg: WeightConfig) -> MetricScore:
    """3D ego-centric IoU; the weighting ignores the gravity axis."""
    return scores_3d(p, g, cfg)[1]


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
    once per call. A g the ego lies on or inside raises
    DegenerateDistanceError. A range that is not finite or runs backwards, a
    step that is not finite and positive, no alphas, two alphas that give
    one column name, or more than MAX_SWEEP_ROWS rows raise ValueError.
    """
    x_lo, x_hi = x_range
    if not (math.isfinite(x_lo) and math.isfinite(x_hi) and x_lo <= x_hi):
        raise ValueError(f"range must be finite with LO <= HI, got {x_lo:g} {x_hi:g}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step:g}")
    if not alphas:
        raise ValueError("alphas must name at least one alpha")
    columns: set[str] = set()
    for a in alphas:
        column = f"eciou_a{_fmt_alpha(a)}"
        if column in columns:
            raise ValueError(f"alpha {a!r} repeats the column {column}")
        columns.add(column)
    # At most MAX_SWEEP_ROWS - 1 steps give at most MAX_SWEEP_ROWS rows; an
    # inf quotient fails the test too.
    if not (x_hi - x_lo) / step <= MAX_SWEEP_ROWS - 1:
        raise ValueError(f"range and step give more than {MAX_SWEEP_ROWS} rows")
    weight_extremes(g, 1.0)  # EC-IoU weights are undefined on the ego
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
        iou, ec_ious = _scores(p, g, poly_g, configs, wa_g, 1.0, 1.0, 1.0)
        rows.append(SweepRow(x=x, iou=iou.value, ec_iou=tuple(s.value for s in ec_ious)))
    return SweepTable(alphas=tuple(alphas), method=method, rows=tuple(rows))
