"""Oriented-box and convex-polygon primitives on the BEV plane.

Everything here is a pure function of its inputs; boxes and polygons are
immutable and freely shareable.

Boxes are checked where they are built, footprint and height by one rule
(_check_extents): finite fields, a reach within MAX_REACH, and every extent
at least MIN_RELATIVE_SIDE of max(1, the center's distance, the largest
extent), the two that bound the box's largest coordinate. A record file's
boxes are checked all at once, by the same rule (evaluate._admit), and built
through _trusted_box, which checks nothing again. Polygons built with
ConvexPolygon(...) are checked too. The polygons this module builds for
itself, the corners of box_to_polygon and the rings of intersect_convex, are
not checked again: those checks could change no vertex and refuse none (see
ConvexPolygon).

Boxes are slotted: without an instance __dict__ a Box3D takes about 100
bytes less, which counts where eval holds a box per record of the class it
scores. slots=True replaces the class with a new one, while zero-argument
super() in a method still names the class the method was defined in, of
which the box is no instance, and raises TypeError (Python 3.11). So
Box3D.__post_init__ calls OrientedBoxBEV.__post_init__ by name.
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
# Smallest extent of a box as a fraction of max(1, its distance, its largest
# extent): a footprint's l and w against hypot(x, y), a Box3D's h against
# abs(z). The two bound the box's largest coordinate, and the shoelace area's
# rounding noise grows with its square; below the floor that noise can exceed
# AREA_EPS and flip a box's winding, or an area or vertical overlap rounds to 0.
MIN_RELATIVE_SIDE = 2e-6
# Largest reach of a box, its distance plus half the hypot of its extents,
# in meters: hypot(x, y) + hypot(l, w) / 2, and abs(z) + h / 2. Every
# coordinate of two admitted boxes is then at most 1e100, so every shoelace
# and clip product stays below about 1e201 and every volume below 1e301.
MAX_REACH = 1e100


def _check_extents(distance: float, extents: tuple[float, ...], names: str, origin: str, measure: str) -> None:
    """Refuse a reach distance + hypot(extents) / 2 past MAX_REACH, then an
    extent below MIN_RELATIVE_SIDE * max(1, distance, largest extent)."""
    reach = distance + 0.5 * math.hypot(*extents)
    if not reach <= MAX_REACH:
        raise ValueError(f"box must lie within {MAX_REACH:g} m of {origin} ({measure} + hypot({names}) / 2), "
                         f"got {reach:g}")
    floor = MIN_RELATIVE_SIDE * max(1.0, distance, *extents)
    if min(extents) < floor:
        got = " ".join(f"{name}={value}" for name, value in zip(names.split(", "), extents))
        raise ValueError(f"box {names} must be at least {floor:g} ({MIN_RELATIVE_SIDE:g} of max(1, {measure}, "
                         f"{names})), got {got}")


@dataclass(frozen=True, slots=True)
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
        _check_extents(math.hypot(self.x, self.y), (self.l, self.w), "l, w", "the ego", "hypot(x, y)")
        if not -math.pi <= self.theta < math.pi:
            object.__setattr__(self, "theta", (self.theta + math.pi) % _TWO_PI - math.pi)


@dataclass(frozen=True, slots=True)
class Box3D(OrientedBoxBEV):
    """Oriented box with vertical center z and height h along gravity."""

    z: float
    h: float

    def __post_init__(self) -> None:
        OrientedBoxBEV.__post_init__(self)
        if not (math.isfinite(self.z) and math.isfinite(self.h)):
            raise ValueError("z and h must be finite")
        _check_extents(abs(self.z), (self.h,), "h", "the ground plane", "abs(z)")


# Each field's slot setter, which skips the frozen __setattr__.
_SET_X, _SET_Y, _SET_L, _SET_W, _SET_THETA, _SET_Z, _SET_H = (
    getattr(Box3D, name).__set__ for name in ("x", "y", "l", "w", "theta", "z", "h")
)


def _trusted_box(x: float, y: float, l: float, w: float, theta: float, z: float, h: float) -> Box3D:
    """Box3D over fields as given: Python floats that Box3D(...) accepts and
    keeps as they are, theta in [-pi, pi) included."""
    box = object.__new__(Box3D)
    _SET_X(box, x)
    _SET_Y(box, y)
    _SET_L(box, l)
    _SET_W(box, w)
    _SET_THETA(box, theta)
    _SET_Z(box, z)
    _SET_H(box, h)
    return box


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
    """Convex polygon as counter-clockwise vertices; () is the empty region.

    ConvexPolygon(...) converts each coordinate to a float, merges vertices
    closer than DEDUP_TOL and refuses clockwise input. box_to_polygon and
    intersect_convex build their results through _trusted_polygon, which
    skips these steps, since they could change nothing there:
    - the coordinates are already Python floats;
    - a box's corners lie at least the size floor of _check_extents apart
      and wind counter-clockwise, and MAX_REACH keeps the shoelace finite;
    - intersect_convex dedups its ring and checks its area itself, and
      _dedup changes nothing in a ring it has already deduped.
    """

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


def _trusted_polygon(vertices: tuple[tuple[float, float], ...]) -> ConvexPolygon:
    """ConvexPolygon over vertices as given: CCW, deduped Python floats."""
    poly = object.__new__(ConvexPolygon)
    object.__setattr__(poly, "vertices", vertices)
    return poly


def box_to_polygon(box: OrientedBoxBEV) -> ConvexPolygon:
    """Corner polygon of an oriented box, CCW from the (+l/2, +w/2) corner."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    # Python floats, whatever number types the box holds.
    x, y = float(box.x), float(box.y)
    hl, hw = 0.5 * float(box.l), 0.5 * float(box.w)
    return _trusted_polygon(
        (
            (x + c * hl - s * hw, y + s * hl + c * hw),
            (x - c * hl - s * hw, y - s * hl + c * hw),
            (x - c * hl + s * hw, y - s * hl - c * hw),
            (x + c * hl + s * hw, y + s * hl - c * hw),
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
    return _trusted_polygon(tuple(output))


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

