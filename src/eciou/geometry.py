"""Oriented-box and convex-polygon primitives on the BEV plane.

Everything here is a pure function of its inputs; boxes and polygons are
immutable and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_TWO_PI = 2.0 * math.pi

# Consecutive vertices closer than this are merged; intersection areas
# below it are treated as empty.
DEDUP_TOL = 1e-12
AREA_EPS = 1e-12
# Relative slack on the circumcircle test of circumcircles_disjoint.
DISJOINT_MARGIN = 1e-9
# Smallest box side as a fraction of max(1, the center's distance to the
# ego). The shoelace area's rounding noise grows with the square of the
# coordinates; below this floor it can exceed AREA_EPS and flip a box's
# winding. The floor also keeps every box's area at 4 * AREA_EPS or more,
# so that no box measures as empty.
MIN_RELATIVE_SIDE = 2e-6


@dataclass(frozen=True)
class OrientedBoxBEV:
    """Oriented bounding box on the ground plane.

    (x, y) is the center with the ego at the origin, l the side along the
    box-local x axis, w the side along local y, theta the heading in
    radians. The heading is canonicalized into [-pi, pi) on construction.
    """

    x: float
    y: float
    l: float
    w: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "l", "w", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} must be finite")
        floor = MIN_RELATIVE_SIDE * max(1.0, math.hypot(self.x, self.y))
        if self.l < floor or self.w < floor:
            raise ValueError(
                f"box sides must be at least {floor:g} ({MIN_RELATIVE_SIDE:g} of max(1, distance "
                f"to the ego)), got l={self.l} w={self.w}"
            )
        if not -math.pi <= self.theta < math.pi:
            object.__setattr__(self, "theta", (self.theta + math.pi) % _TWO_PI - math.pi)


@dataclass(frozen=True)
class Box3D(OrientedBoxBEV):
    """Oriented box with vertical center z and height h along gravity."""

    z: float
    h: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.z) and math.isfinite(self.h)):
            raise ValueError("z and h must be finite")
        if self.h <= 0.0:
            raise ValueError(f"box height must be positive, got h={self.h}")


def _signed_area(vertices) -> float:
    if len(vertices) < 3:
        return 0.0
    total = 0.0
    px, py = vertices[-1]
    for qx, qy in vertices:
        total += px * qy - qx * py
        px, py = qx, qy
    return 0.5 * total


def _dedup(vertices):
    """Drop consecutive vertices (wrap included) closer than DEDUP_TOL."""
    out = []
    for v in vertices:
        if not out or math.hypot(v[0] - out[-1][0], v[1] - out[-1][1]) > DEDUP_TOL:
            out.append(v)
    while len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) <= DEDUP_TOL:
        out.pop()
    return out


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon as counter-clockwise vertices; () is the empty region."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        verts = tuple(_dedup(verts))
        if _signed_area(verts) < -AREA_EPS:
            raise ValueError("polygon vertices must wind counter-clockwise")
        object.__setattr__(self, "vertices", verts)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def is_empty(self) -> bool:
        return not self.vertices


EMPTY_POLYGON = ConvexPolygon(())


def box_to_polygon(box: OrientedBoxBEV) -> ConvexPolygon:
    """Corner polygon of an oriented box, CCW from the (+l/2, +w/2) corner."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hl, hw = 0.5 * box.l, 0.5 * box.w
    return ConvexPolygon(
        (
            (box.x + c * hl - s * hw, box.y + s * hl + c * hw),
            (box.x - c * hl - s * hw, box.y - s * hl + c * hw),
            (box.x - c * hl + s * hw, box.y - s * hl - c * hw),
            (box.x + c * hl + s * hw, box.y + s * hl - c * hw),
        )
    )


def polygon_area(p: ConvexPolygon) -> float:
    """Shoelace area; 0 for polygons with fewer than 3 vertices."""
    return max(_signed_area(p.vertices), 0.0)


def intersect_convex(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two CCW convex polygons (Sutherland-Hodgman).

    Returns the empty polygon when the inputs are disjoint or the overlap
    degenerates to (numerically) zero area. For two oriented boxes the
    result has at most 8 vertices.
    """
    output = list(a.vertices)
    clip = b.vertices
    if not output or not clip:
        return EMPTY_POLYGON

    cx1, cy1 = clip[-1]
    for cx2, cy2 in clip:
        if not output:
            break
        ex, ey = cx2 - cx1, cy2 - cy1
        source, output = output, []
        sx, sy = source[-1]
        s_in = ex * (sy - cy1) - ey * (sx - cx1) >= 0.0
        for px, py in source:
            p_in = ex * (py - cy1) - ey * (px - cx1) >= 0.0
            if p_in != s_in:
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = (ey * (sx - cx1) - ex * (sy - cy1)) / denom
                    output.append((sx + t * dx, sy + t * dy))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
        cx1, cy1 = cx2, cy2

    output = _dedup(output)
    if len(output) < 3 or _signed_area(output) < AREA_EPS:
        return EMPTY_POLYGON
    return ConvexPolygon(tuple(output))


def circumcircles_disjoint(a: OrientedBoxBEV, b: OrientedBoxBEV) -> bool:
    """True when the centers are farther apart than the two circumradii
    0.5 * hypot(l, w) together, with a relative margin of DISJOINT_MARGIN.

    Each footprint lies inside its circumcircle, so such boxes share no
    point, whatever their headings. The margin keeps the answer exact under
    rounding: intersect_convex returns the empty polygon for every such
    pair, since no box has a side below MIN_RELATIVE_SIDE of its distance
    to the ego.
    """
    reach = 0.5 * (math.hypot(a.l, a.w) + math.hypot(b.l, b.w))
    return math.hypot(a.x - b.x, a.y - b.y) > reach * (1.0 + DISJOINT_MARGIN)


def enclosing_aabb(a: OrientedBoxBEV, b: OrientedBoxBEV) -> tuple[float, float, float, float]:
    """Smallest axis-aligned box containing all 8 corners, as (min_x, min_y, max_x, max_y)."""
    pts = box_to_polygon(a).vertices + box_to_polygon(b).vertices
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)

