"""Shared helpers: random box factories, a Hypothesis pair strategy,
independent geometry oracles and a fixture that records the metrics' clips.

The oracles here deliberately avoid the library's clipping path: containment
is tested in box-local coordinates straight from the tuple parameters, so
Monte Carlo area estimates are an independent check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

import eciou.metrics
from eciou.geometry import OrientedBoxBEV, intersect_convex

# When a @given test fails, Hypothesis's pytest plugin imports this module to
# write a patch of the failing example. Where libcst is installed, that import
# warns (mypy_extensions.TypedDict is deprecated), and inside a test marked
# filterwarnings("error") the warning would end the session with
# INTERNALERROR before the falsifying example is shown. Imported once here,
# the module is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin writes no patch
        pass


def random_box(rng: np.random.Generator, center_span: float = 20.0,
               dim_lo: float = 0.5, dim_hi: float = 6.0) -> OrientedBoxBEV:
    x, y = rng.uniform(-center_span, center_span, size=2)
    l, w = rng.uniform(dim_lo, dim_hi, size=2)
    theta = rng.uniform(-math.pi, math.pi)
    return OrientedBoxBEV(x, y, l, w, theta)


def random_offside_gt(rng: np.random.Generator, dist_lo: float = 4.0,
                      dist_hi: float = 30.0) -> OrientedBoxBEV:
    """Ground truth whose region is guaranteed not to contain the origin."""
    rho = rng.uniform(dist_lo, dist_hi)
    phi = rng.uniform(-math.pi, math.pi)
    l, w = rng.uniform(0.5, 4.0, size=2)
    theta = rng.uniform(-math.pi, math.pi)
    return OrientedBoxBEV(rho * math.cos(phi), rho * math.sin(phi), l, w, theta)


def driving_scale_gt(rng: np.random.Generator, margin: float = 5.0,
                     span: float = 26.0) -> OrientedBoxBEV:
    """Ground truth at least `margin` diagonals away from the ego.

    The vertex-mean approximation can genuinely exceed 1 at alpha <= 8 when
    a box sits within a few of its own diagonals from the origin; this
    factory stays in the regime where the clamp never fires.
    """
    l, w = rng.uniform(0.5, 4.0, size=2)
    diag = math.hypot(l, w)
    rho = rng.uniform(margin * diag, margin * diag + span)
    phi = rng.uniform(-math.pi, math.pi)
    theta = rng.uniform(-math.pi, math.pi)
    return OrientedBoxBEV(rho * math.cos(phi), rho * math.sin(phi), l, w, theta)


def nearby_box(rng: np.random.Generator, g: OrientedBoxBEV,
               shift_scale: float = 0.3) -> OrientedBoxBEV:
    """Perturbed copy of g, usually overlapping it."""
    dx = rng.uniform(-shift_scale, shift_scale) * g.l
    dy = rng.uniform(-shift_scale, shift_scale) * g.w
    dl = g.l * rng.uniform(0.7, 1.3)
    dw = g.w * rng.uniform(0.7, 1.3)
    dth = g.theta + rng.uniform(-0.3, 0.3)
    return OrientedBoxBEV(g.x + dx, g.y + dy, dl, dw, dth)


def points_in_box(box: OrientedBoxBEV, pts: np.ndarray) -> np.ndarray:
    """Membership test in box-local coordinates; pts is (n, 2)."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    dx = pts[:, 0] - box.x
    dy = pts[:, 1] - box.y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= 0.5 * box.l) & (np.abs(ly) <= 0.5 * box.w)


def mc_intersection_area(a: OrientedBoxBEV, b: OrientedBoxBEV, n: int,
                         rng: np.random.Generator) -> tuple[float, float]:
    """Hit-count estimate of area(a intersect b) and its standard error."""
    ra = 0.5 * math.hypot(a.l, a.w)
    rb = 0.5 * math.hypot(b.l, b.w)
    lo_x = min(a.x - ra, b.x - rb)
    hi_x = max(a.x + ra, b.x + rb)
    lo_y = min(a.y - ra, b.y - rb)
    hi_y = max(a.y + ra, b.y + rb)
    box_area = (hi_x - lo_x) * (hi_y - lo_y)
    pts = np.column_stack([
        rng.uniform(lo_x, hi_x, size=n),
        rng.uniform(lo_y, hi_y, size=n),
    ])
    hits = points_in_box(a, pts) & points_in_box(b, pts)
    p = hits.mean()
    return p * box_area, box_area * math.sqrt(max(p * (1.0 - p), 0.0) / n)


# Relative headings kept at least this far from every multiple of pi/2. Near
# one, two boxes can come to share an edge line, where both clippers emit a
# spurious collinear vertex that moves the vertex-mean weight; those pairs
# wait for the clipper's collinear-vertex fix.
QUARTER_TURN_CLEARANCE = 1e-3


@st.composite
def turned_pairs(draw):
    """(prediction, target): a target 8 to 40 m from the ego and a shifted,
    resized prediction whose relative heading keeps QUARTER_TURN_CLEARANCE."""
    rho, phi = draw(st.floats(8.0, 40.0)), draw(st.floats(-math.pi, math.pi))
    l, w = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
    theta = draw(st.floats(-math.pi, math.pi))
    g = OrientedBoxBEV(rho * math.cos(phi), rho * math.sin(phi), l, w, theta)
    turn = draw(st.integers(-2, 1)) * math.pi / 2 + draw(
        st.floats(QUARTER_TURN_CLEARANCE, math.pi / 2 - QUARTER_TURN_CLEARANCE))
    p = OrientedBoxBEV(
        g.x + draw(st.floats(-1.0, 1.0)) * l, g.y + draw(st.floats(-1.0, 1.0)) * w,
        l * draw(st.floats(0.5, 1.5)), w * draw(st.floats(0.5, 1.5)), theta + turn,
    )
    return p, g


def rotated_about_ego(box: OrientedBoxBEV, angle: float) -> OrientedBoxBEV:
    c, s = math.cos(angle), math.sin(angle)
    return OrientedBoxBEV(c * box.x - s * box.y, s * box.x + c * box.y, box.l, box.w, box.theta + angle)


def collinear_pairs() -> list[tuple[OrientedBoxBEV, OrientedBoxBEV]]:
    """252 (prediction, target) pairs whose boxes share both long edge lines.

    Targets (10, 5, 4, 2, 0.1 k) for k = -31..31; each prediction is its
    target moved -1, -0.5, 0.5 or 1 m along the heading. Both clippers
    leave a spurious vertex on some of these rings.
    """
    pairs = []
    for k in range(-31, 32):
        g = OrientedBoxBEV(10.0, 5.0, 4.0, 2.0, 0.1 * k)
        c, s = math.cos(g.theta), math.sin(g.theta)
        for d in (-1.0, -0.5, 0.5, 1.0):
            pairs.append((OrientedBoxBEV(g.x + d * c, g.y + d * s, g.l, g.w, g.theta), g))
    return pairs


def touching_pairs(n: int = 200, seed: int = 0) -> list[tuple[OrientedBoxBEV, OrientedBoxBEV]]:
    """n seeded (prediction, target) pairs where a prediction corner lies
    within 1e-13 of a target edge, at any heading.

    Targets lie 8 to 40 m from the ego. Each prediction, up to the target's
    size, puts the corner farthest along one target edge's outward normal at
    a point of that edge, moved along the normal by at most 1e-13 either
    way, so the rest of it lies on the target's side of the edge line. Where
    the corner falls outside, the batch clipper keeps two crossings closer
    than DEDUP_TOL (1e-12), which the scalar clipper merges into one vertex.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        rho, phi = rng.uniform(8.0, 40.0), rng.uniform(-math.pi, math.pi)
        gl, gw = rng.uniform(1.0, 4.0, size=2)
        g = OrientedBoxBEV(rho * math.cos(phi), rho * math.sin(phi), gl, gw, rng.uniform(-math.pi, math.pi))
        edge = int(rng.integers(4))
        nx, ny = math.cos(g.theta + edge * math.pi / 2), math.sin(g.theta + edge * math.pi / 2)
        depth = (gl, gw)[edge % 2] / 2 + rng.uniform(-1e-13, 1e-13)
        along = rng.uniform(-0.6, 0.6) * (gw, gl)[edge % 2] / 2
        px, py = g.x + depth * nx - along * ny, g.y + depth * ny + along * nx
        l, w = gl * rng.uniform(0.5, 1.0), gw * rng.uniform(0.5, 1.0)
        theta = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        lx = math.copysign(l / 2, c * nx + s * ny)
        ly = math.copysign(w / 2, c * ny - s * nx)
        pairs.append((OrientedBoxBEV(px - (lx * c - ly * s), py - (lx * s + ly * c), l, w, theta), g))
    return pairs


@pytest.fixture
def metric_clips(monkeypatch):
    """The (subject, clip) polygons of every clip the metrics make, in order."""
    clips = []

    def recorded(a, b):
        clips.append((a, b))
        return intersect_convex(a, b)

    monkeypatch.setattr(eciou.metrics, "intersect_convex", recorded)
    return clips
