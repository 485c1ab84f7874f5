"""Distance-based safety weighting over ground-truth boxes.

A point inside a ground truth is weighted by (rho_center / rho_point)^alpha,
so points nearer the ego origin count more; the box center always weighs 1.
Weighted areas are computed either by a vertex-mean approximation (geometric
or arithmetic mean of the vertex weights times the plain area) or by Monte
Carlo integration, which serves as the numerical reference for the former.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon, OrientedBoxBEV, polygon_area, AREA_EPS

# Distances to the ego below this make the weight undefined.
DEGENERATE_DISTANCE = 1e-9

GEOMETRIC = "geometric"
ARITHMETIC = "arithmetic"
MONTE_CARLO = "monte-carlo"
METHODS = (GEOMETRIC, ARITHMETIC, MONTE_CARLO)


class DegenerateDistanceError(ValueError):
    """The ego origin coincides with (or lies inside) the queried geometry."""


@dataclass(frozen=True)
class WeightConfig:
    """Weighting exponent plus the weighted-area evaluation method."""

    alpha: float = 1.0
    method: str = GEOMETRIC
    mc_samples: int = 6000
    mc_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")


def _center_distance(gt: OrientedBoxBEV) -> float:
    rho = math.hypot(gt.x, gt.y)
    if rho < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("ground-truth center coincides with the ego origin")
    return rho


def point_weight(gt: OrientedBoxBEV, pt: tuple[float, float], alpha: float) -> float:
    """Weight of a point relative to gt: (rho(center)/rho(pt))^alpha."""
    rho_c = _center_distance(gt)
    rho_p = math.hypot(pt[0], pt[1])
    if rho_p < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("point coincides with the ego origin")
    return (rho_c / rho_p) ** alpha


def mean_vertex_weight(gt: OrientedBoxBEV, poly: ConvexPolygon, cfg: WeightConfig) -> float:
    """Central tendency of the polygon's vertex weights.

    Geometric mean: (prod w_i)^(1/m), evaluated in the log domain so large
    alpha stays stable. Arithmetic mean: sum(w_i)/m.

    Either mean only approximates the average weight over the polygon, and
    its error grows with alpha. On the reference sweep (gt (10, 0, 4, 2, 0),
    prediction slid along x), the geometric mean's EC-IoU is at most 0.0076
    from exact quadrature up to alpha = 4, and 0.0785 at x = 7.7 for
    alpha = 8.
    """
    if poly.is_empty:
        raise ValueError("mean_vertex_weight needs a non-empty polygon")
    rho_c = _center_distance(gt)
    if cfg.method == GEOMETRIC:
        log_sum = 0.0
        for vx, vy in poly.vertices:
            rho = math.hypot(vx, vy)
            if rho < DEGENERATE_DISTANCE:
                raise DegenerateDistanceError("polygon vertex coincides with the ego origin")
            log_sum += math.log(rho)
        return math.exp(cfg.alpha * (math.log(rho_c) - log_sum / len(poly.vertices)))
    if cfg.method == ARITHMETIC:
        total = 0.0
        for vx, vy in poly.vertices:
            rho = math.hypot(vx, vy)
            if rho < DEGENERATE_DISTANCE:
                raise DegenerateDistanceError("polygon vertex coincides with the ego origin")
            total += (rho_c / rho) ** cfg.alpha
        return total / len(poly.vertices)
    raise ValueError(f"vertex mean is undefined for method {cfg.method!r}")


def _polygon_rng(poly: ConvexPolygon, seed: int) -> np.random.Generator:
    # Seed derived from the vertex coordinates so each polygon gets its own
    # stream regardless of evaluation order.
    digest = hashlib.blake2b(
        np.asarray(poly.vertices, dtype=np.float64).tobytes(), digest_size=8
    ).digest()
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest, "little")])


def sample_in_polygon(poly: ConvexPolygon, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points inside a convex polygon, shape (n, 2).

    Fan-triangulates from vertex 0, picks a triangle with probability
    proportional to area, then samples barycentrically.
    """
    verts = np.asarray(poly.vertices, dtype=np.float64)
    if len(verts) < 3:
        raise ValueError("cannot sample a polygon with fewer than 3 vertices")
    a = verts[0]
    b = verts[1:-1]
    c = verts[2:]
    tri_areas = 0.5 * np.abs(
        (b[:, 0] - a[0]) * (c[:, 1] - a[1]) - (b[:, 1] - a[1]) * (c[:, 0] - a[0])
    )
    total = tri_areas.sum()
    if total <= 0.0:
        raise ValueError("cannot sample a polygon with zero area")
    idx = rng.choice(len(tri_areas), size=n, p=tri_areas / total)
    u = np.sqrt(rng.random(n))[:, None]
    v = rng.random(n)[:, None]
    return (1.0 - u) * a + u * (1.0 - v) * b[idx] + u * v * c[idx]


def weighted_area(gt: OrientedBoxBEV, poly: ConvexPolygon, cfg: WeightConfig) -> float:
    """Importance-weighted area of a polygon inside gt.

    Vertex-mean methods multiply the mean vertex weight by the plain area;
    the monte-carlo method averages point weights over uniform samples
    (deterministic for a fixed mc_seed). The vertex-mean error grows with
    alpha: on the reference sweep the geometric EC-IoU is at most 0.0076
    from exact quadrature up to alpha = 4, and 0.0785 at x = 7.7 for
    alpha = 8 (see mean_vertex_weight).
    """
    if poly.is_empty:
        return 0.0
    area = polygon_area(poly)
    if area <= AREA_EPS:
        return 0.0
    if cfg.method in (GEOMETRIC, ARITHMETIC):
        return mean_vertex_weight(gt, poly, cfg) * area
    return _sampled_mean_weights(gt, poly, (cfg,))[0] * area


def weighted_areas(
    gt: OrientedBoxBEV, poly: ConvexPolygon, cfgs: Sequence[WeightConfig]
) -> list[float]:
    """weighted_area(gt, poly, cfg) for each of cfgs, which differ only in alpha.

    Monte Carlo points depend only on the polygon, mc_samples and mc_seed,
    so one draw serves every alpha, and each value equals its single call.
    """
    sampled = bool(cfgs) and cfgs[0].method == MONTE_CARLO
    if not sampled or poly.is_empty or polygon_area(poly) <= AREA_EPS:
        return [weighted_area(gt, poly, cfg) for cfg in cfgs]
    area = polygon_area(poly)
    return [m * area for m in _sampled_mean_weights(gt, poly, cfgs)]


def _sampled_mean_weights(
    gt: OrientedBoxBEV, poly: ConvexPolygon, cfgs: Sequence[WeightConfig]
) -> list[float]:
    """Mean point weight over one Monte Carlo draw in poly, at each cfg's alpha."""
    rho_c = _center_distance(gt)
    pts = sample_in_polygon(poly, cfgs[0].mc_samples, _polygon_rng(poly, cfgs[0].mc_seed))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    if float(rho.min()) < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("sampled point coincides with the ego origin")
    return [float(np.mean((rho_c / rho) ** cfg.alpha)) for cfg in cfgs]


def weight_extremes(gt: OrientedBoxBEV, alpha: float) -> tuple[float, float]:
    """(min, max) of the weighting function over the whole box region.

    The maximum sits at the point of the box closest to the origin (the
    origin's projection onto the rectangle), the minimum at the farthest
    corner. Raises DegenerateDistanceError when the origin lies on or
    inside the box.
    """
    rho_c = _center_distance(gt)
    c, s = math.cos(gt.theta), math.sin(gt.theta)
    # Ego origin in box-local coordinates.
    ox = -(c * gt.x + s * gt.y)
    oy = -(-s * gt.x + c * gt.y)
    hl, hw = 0.5 * gt.l, 0.5 * gt.w
    nx = min(max(ox, -hl), hl)
    ny = min(max(oy, -hw), hw)
    rho_near = math.hypot(ox - nx, oy - ny)
    if rho_near < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("ego origin lies on or inside the ground truth")
    rho_far = max(math.hypot(ox - px, oy - py) for px in (-hl, hl) for py in (-hw, hw))
    return (rho_c / rho_far) ** alpha, (rho_c / rho_near) ** alpha
