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


def _iou(p: OrientedBoxBEV, g: OrientedBoxBEV, v: float, h_p: float, h_g: float) -> MetricScore:
    """Volume IoU of footprints extruded to heights h_p, h_g that share v."""
    poly_p = box_to_polygon(p)
    poly_g = box_to_polygon(g)
    inter = polygon_area(intersect_convex(poly_p, poly_g)) * v
    union = polygon_area(poly_p) * h_p + polygon_area(poly_g) * h_g - inter
    return MetricScore(min(max(inter / union, 0.0), 1.0))


def _ec_ious(
    p: OrientedBoxBEV,
    g: OrientedBoxBEV,
    poly_g: ConvexPolygon,
    cfgs: Sequence[WeightConfig],
    wa_g: Sequence[float],
    v: float,
    h_p: float,
    h_g: float,
) -> list[MetricScore]:
    """EC-IoU under each of cfgs, given g's weighted area under each; heights
    and vertical overlap as in _iou. The weighting ignores the gravity axis."""
    poly_p = box_to_polygon(p)
    inter = intersect_convex(poly_p, poly_g)
    # Grouping the extra volume keeps ec_iou(g, g) exactly 1 where v rounds to h_g.
    extra = polygon_area(poly_p) * h_p - polygon_area(inter) * v
    scores = []
    for cfg, wa, wa_gt in zip(cfgs, weighted_areas(g, inter, cfgs), wa_g):
        denom = wa_gt * h_g + extra
        if not 0.0 < denom < math.inf:  # the weights under- or overflowed
            raise ValueError(f"EC-IoU is undefined at alpha {cfg.alpha:g} (denominator {denom:g})")
        scores.append(_clamp(wa * v / denom))
    return scores


def iou_bev(p: OrientedBoxBEV, g: OrientedBoxBEV) -> MetricScore:
    """Plain intersection-over-union of the two box footprints."""
    return _iou(p, g, 1.0, 1.0, 1.0)


def ec_iou_bev(p: OrientedBoxBEV, g: OrientedBoxBEV, cfg: WeightConfig) -> MetricScore:
    """Ego-centric IoU: weighted intersection over weighted-gt + extra area."""
    poly_g = box_to_polygon(g)
    return _ec_ious(p, g, poly_g, (cfg,), (weighted_area(g, poly_g, cfg),), 1.0, 1.0, 1.0)[0]


def _vertical_overlap(p: Box3D, g: Box3D) -> float:
    top = min(p.z + 0.5 * p.h, g.z + 0.5 * g.h)
    bottom = max(p.z - 0.5 * p.h, g.z - 0.5 * g.h)
    return max(top - bottom, 0.0)


def iou_3d(p: Box3D, g: Box3D) -> MetricScore:
    """Volume IoU: BEV areas times heights, with the shared vertical overlap."""
    return _iou(p, g, _vertical_overlap(p, g), p.h, g.h)


def ec_iou_3d(p: Box3D, g: Box3D, cfg: WeightConfig) -> MetricScore:
    """3D ego-centric IoU; the weighting ignores the gravity axis."""
    poly_g = box_to_polygon(g)
    wa_g = (weighted_area(g, poly_g, cfg),)
    return _ec_ious(p, g, poly_g, (cfg,), wa_g, _vertical_overlap(p, g), p.h, g.h)[0]


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
    step that is not finite and positive, no alphas, or more than
    MAX_SWEEP_ROWS rows raise ValueError.
    """
    x_lo, x_hi = x_range
    if not (math.isfinite(x_lo) and math.isfinite(x_hi) and x_lo <= x_hi):
        raise ValueError(f"range must be finite with LO <= HI, got {x_lo:g} {x_hi:g}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step:g}")
    if not alphas:
        raise ValueError("alphas must name at least one alpha")
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
        rows.append(
            SweepRow(
                x=x,
                iou=iou_bev(p, g).value,
                ec_iou=tuple(
                    s.value for s in _ec_ious(p, g, poly_g, configs, wa_g, 1.0, 1.0, 1.0)
                ),
            )
        )
    return SweepTable(alphas=tuple(alphas), method=method, rows=tuple(rows))
