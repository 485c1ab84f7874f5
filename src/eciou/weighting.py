"""Distance-based safety weighting over ground-truth boxes.

A point inside a ground truth is weighted by (rho_center / rho_point)^alpha,
so points nearer the ego origin count more; the box center always weighs 1.
Weighted areas are computed either by a vertex-mean approximation (geometric
or arithmetic mean of the vertex weights times the plain area) or by Monte
Carlo integration, which serves as the numerical reference for the former.
"""

from __future__ import annotations

import contextlib
import math
import numbers
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

# Most Monte Carlo points one weighted area may draw. A weighted area holds
# several float arrays of this length at once: one `metric` call at the
# bound peaks near 800 MiB (x86-64, numpy 2.4.6).
MAX_MC_SAMPLES = 10_000_000


def is_finite_real(value) -> bool:
    """Whether value is a finite real number; bools are not numbers here."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            return math.isfinite(value)
    return False


def is_integer(value) -> bool:
    """Whether value is an integer (numpy's included) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not (is_finite_real(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be a finite number >= 0, got {self.alpha!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        # Stored as Python numbers: numpy integers cannot seed the sample
        # stream, and a Python float raises where a weight overflows.
        object.__setattr__(self, "alpha", float(self.alpha))
        for name in ("mc_samples", "mc_seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if not 1 <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ValueError(f"mc_samples must be in [1, {MAX_MC_SAMPLES}], got {self.mc_samples}")


def _center_distance(gt: OrientedBoxBEV) -> float:
    rho = math.hypot(gt.x, gt.y)
    if rho < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("ground-truth center coincides with the ego origin")
    return rho


def _overflow(alpha: float) -> ValueError:
    return ValueError(f"alpha {alpha:g} overflows the EC-IoU weights")


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
    alpha stays stable. Arithmetic mean: sum(w_i)/m. An alpha whose weights
    overflow a float is refused with ValueError.

    Either mean only approximates the average weight over the polygon, and
    its error grows with alpha. On the reference sweep (gt (10, 0, 4, 2, 0),
    prediction slid along x), the geometric mean's EC-IoU is at most 0.0076
    from exact quadrature up to alpha = 4, and 0.0785 at x = 7.7 for
    alpha = 8.
    """
    if poly.is_empty:
        raise ValueError("mean_vertex_weight needs a non-empty polygon")
    rho_c = _center_distance(gt)
    rhos = [math.hypot(vx, vy) for vx, vy in poly.vertices]
    if min(rhos) < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("polygon vertex coincides with the ego origin")
    # Explicit left-to-right sums: from Python 3.12 float sum() compensates.
    try:
        if cfg.method == GEOMETRIC:
            log_sum = 0.0
            for rho in rhos:
                log_sum += math.log(rho)
            return math.exp(cfg.alpha * (math.log(rho_c) - log_sum / len(rhos)))
        if cfg.method == ARITHMETIC:
            total = 0.0
            for rho in rhos:
                total += (rho_c / rho) ** cfg.alpha
            return total / len(rhos)
    except OverflowError:
        raise _overflow(cfg.alpha) from None
    raise ValueError(f"vertex mean is undefined for method {cfg.method!r}")


def _polygon_rng(poly: ConvexPolygon, seed: int) -> np.random.Generator:
    # Seed derived from the vertex coordinates so each polygon gets its own
    # stream regardless of evaluation order. hashlib loads OpenSSL, which
    # only this Monte Carlo seed needs, so it is imported here.
    import hashlib

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


def weighted_areas(
    gt: OrientedBoxBEV, poly: ConvexPolygon, cfgs: Sequence[WeightConfig]
) -> list[float]:
    """Importance-weighted area of a polygon inside gt under each of cfgs,
    which differ only in alpha.

    Vertex-mean methods multiply the mean vertex weight by the plain area;
    the monte-carlo method averages point weights over uniform samples
    (deterministic for a fixed mc_seed). The points depend only on the
    polygon, mc_samples and mc_seed, so one draw serves every alpha. The
    vertex-mean error grows with alpha (see mean_vertex_weight).
    """
    area = polygon_area(poly)
    if area <= AREA_EPS:
        return [0.0] * len(cfgs)
    if not (cfgs and cfgs[0].method == MONTE_CARLO):
        return [mean_vertex_weight(gt, poly, cfg) * area for cfg in cfgs]
    rho_c = _center_distance(gt)
    pts = sample_in_polygon(poly, cfgs[0].mc_samples, _polygon_rng(poly, cfgs[0].mc_seed))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    if float(rho.min()) < DEGENERATE_DISTANCE:
        raise DegenerateDistanceError("sampled point coincides with the ego origin")
    try:
        with np.errstate(over="raise"):
            return [float(np.mean((rho_c / rho) ** cfg.alpha)) * area for cfg in cfgs]
    except FloatingPointError:  # weights above 1 grow with alpha: the largest overflowed
        raise _overflow(max(cfg.alpha for cfg in cfgs)) from None


def weighted_area(gt: OrientedBoxBEV, poly: ConvexPolygon, cfg: WeightConfig) -> float:
    """Importance-weighted area of a polygon inside gt (see weighted_areas)."""
    return weighted_areas(gt, poly, (cfg,))[0]


def weight_extremes(gt: OrientedBoxBEV, alpha: float) -> tuple[float, float]:
    """(min, max) of the weighting function over the whole box region.

    The maximum sits at the point of the box closest to the origin (the
    origin's projection onto the rectangle), the minimum at the farthest
    corner. Raises DegenerateDistanceError when the origin lies on or
    inside the box, or within 2 * DEGENERATE_DISTANCE of it: box_to_polygon
    computes the corners in world coordinates, which round differently from
    these box-local ones, and the margin keeps an admitted box's corners
    clear of DEGENERATE_DISTANCE.
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
    if rho_near < 2.0 * DEGENERATE_DISTANCE:
        raise DegenerateDistanceError(
            "ego origin lies on a corner or an edge of the ground truth, or inside it"
        )
    rho_far = max(math.hypot(ox - px, oy - py) for px in (-hl, hl) for py in (-hw, hw))
    return (rho_c / rho_far) ** alpha, (rho_c / rho_near) ** alpha
