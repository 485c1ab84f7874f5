import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import collinear_pairs, mc_intersection_area, random_box
from eciou.geometry import (
    MAX_REACH,
    MIN_RELATIVE_SIDE,
    Box3D,
    ConvexPolygon,
    EMPTY_POLYGON,
    OrientedBoxBEV,
    box_to_polygon,
    enclosing_aabb,
    intersect_convex,
    polygon_area,
)
from eciou.metrics import ec_iou_bev, iou_bev
from eciou.weighting import WeightConfig


def test_box_validation():
    with pytest.raises(ValueError):
        OrientedBoxBEV(0, 0, -1, 2, 0)
    with pytest.raises(ValueError):
        OrientedBoxBEV(0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        OrientedBoxBEV(0, 0, 1, 1, math.nan)
    with pytest.raises(ValueError):
        Box3D(x=0, y=0, l=1, w=1, theta=0, z=0, h=0)
    for z, h in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="z and h must be finite"):
            Box3D(x=5, y=0, l=1, w=1, theta=0, z=z, h=h)
    with pytest.raises(ValueError, match="at least"):
        OrientedBoxBEV(300, 300, 1e-6, 1e-6, 0.3)  # below the size floor 424 m out


def test_boxes_reaching_past_the_bound_are_refused():
    # The reach is hypot(x, y) + hypot(l, w) / 2; (6e99, 8e99) lies exactly
    # MAX_REACH from the ego.
    message = re.escape(f"within {MAX_REACH:g} m of the ego")
    for x, y, l, w in ((6e99, 8e99, 1e95, 1e95), (1e160, 0.0, 4e155, 2e155), (0.0, 0.0, 1e308, 1e308)):
        with pytest.raises(ValueError, match=message):
            OrientedBoxBEV(x, y, l, w, 0.0)
        with pytest.raises(ValueError, match=message):
            Box3D(x=x, y=y, l=l, w=w, theta=0.0, z=0.0, h=1.0)
    OrientedBoxBEV(6e99, 7.9e99, 1e95, 1e95, 0.0)
    OrientedBoxBEV(0.0, 0.0, 1.4e100, 1.4e100, 0.0)
    # The same bound on the gravity axis: abs(z) + h / 2.
    for z, h in ((0.0, 1e308), (-1e100, 1e90), (2e100, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"within {MAX_REACH:g} m of the ground plane")):
            Box3D(x=10.0, y=0.0, l=4.0, w=2.0, theta=0.0, z=z, h=h)
    Box3D(x=10.0, y=0.0, l=4.0, w=2.0, theta=0.0, z=-9e99, h=2e99)


def test_each_extent_is_floored_relative_to_its_box():
    # Each extent is at least MIN_RELATIVE_SIDE of max(1, the distance, the
    # largest extent): l and w against hypot(x, y), h against abs(z). Each of
    # these boxes was admitted before that, and then crashed or scored wrongly.
    for fields in (
        dict(x=12, y=3, z=0, l=0.5, w=0.5, h=1e-323, theta=0.3),  # the volumes underflow to 0
        dict(x=10, y=0, z=0, l=0.5, w=0.5, h=5e-324, theta=0),
        dict(x=12, y=3, z=1e16, l=0.5, w=0.5, h=1.5, theta=0.3),  # the vertical overlap rounds to 0
        dict(x=10, y=0, z=0, l=4, w=2, h=1e-310, theta=0),  # clamped against itself
        dict(x=10, y=0, z=0, l=1, w=1e17, h=1.5, theta=1e17),  # the shoelace area rounds to 0
    ):
        with pytest.raises(ValueError, match="must be at least"):
            Box3D(**fields)
    with pytest.raises(ValueError, match=re.escape("box l, w must be at least 2e+11 (2e-06 of max(1, ")):
        OrientedBoxBEV(10, 0, 1, 1e17, 1e17)
    for z in (0.0, 0.5, -3e5):
        h = MIN_RELATIVE_SIDE * max(1.0, abs(z))
        Box3D(x=10, y=0, z=z, l=4, w=2, h=h, theta=0)
        with pytest.raises(ValueError, match=re.escape("box h must be at least")):
            Box3D(x=10, y=0, z=z, l=4, w=2, h=math.nextafter(h, 0.0), theta=0)
    OrientedBoxBEV(3, 4, 1e6, 1e6 * MIN_RELATIVE_SIDE, 0)
    with pytest.raises(ValueError, match=re.escape("box l, w must be at least")):
        OrientedBoxBEV(3, 4, 1e6, math.nextafter(1e6 * MIN_RELATIVE_SIDE, 0.0), 0)


def test_theta_canonicalized():
    assert OrientedBoxBEV(0, 0, 1, 1, 3 * math.pi / 2).theta == pytest.approx(-math.pi / 2)
    assert OrientedBoxBEV(0, 0, 1, 1, math.pi).theta == pytest.approx(-math.pi)
    assert OrientedBoxBEV(0, 0, 1, 1, -math.pi).theta == pytest.approx(-math.pi)
    b = OrientedBoxBEV(0, 0, 1, 1, 0.3)
    assert b.theta == 0.3


def test_corners_axis_aligned():
    poly = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, 0))
    assert poly.vertices == ((1, 1), (-1, 1), (-1, -1), (1, -1))


def test_corners_quarter_turn_same_square():
    a = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, 0))
    b = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, math.pi / 2))
    set_a = {(round(x, 9), round(y, 9)) for x, y in a.vertices}
    set_b = {(round(x, 9), round(y, 9)) for x, y in b.vertices}
    assert set_a == set_b


def test_corners_rotated_45():
    poly = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, math.pi / 4))
    r2 = math.sqrt(2.0)
    expected = [(0, r2), (-r2, 0), (0, -r2), (r2, 0)]
    for (x, y), (ex, ey) in zip(poly.vertices, expected):
        assert x == pytest.approx(ex, abs=1e-12)
        assert y == pytest.approx(ey, abs=1e-12)


def test_box_polygon_area_matches_dims():
    rng = np.random.default_rng(11)
    for _ in range(300):
        box = random_box(rng)
        area = polygon_area(box_to_polygon(box))
        assert area == pytest.approx(box.l * box.w, rel=1e-9)


def test_polygon_area_basics():
    square = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    assert polygon_area(square) == pytest.approx(1.0)
    assert polygon_area(ConvexPolygon(((0, 0), (1, 1)))) == 0.0
    assert polygon_area(EMPTY_POLYGON) == 0.0
    tri = ConvexPolygon(((0, 0), (2, 0), (0, 2)))
    assert polygon_area(tri) == pytest.approx(2.0)


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        ConvexPolygon(((0, 0), (0, 1), (1, 1), (1, 0)))


def test_polygon_dedups_vertices():
    poly = ConvexPolygon(((0, 0), (0, 0), (1, 0), (1, 1), (0, 1), (0, 1e-13)))
    assert len(poly) == 4


def test_intersect_identity():
    square = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    result = intersect_convex(square, square)
    assert polygon_area(result) == pytest.approx(1.0)
    assert result.vertices == square.vertices


def test_intersect_disjoint():
    a = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, 0))
    b = box_to_polygon(OrientedBoxBEV(10, 0, 2, 2, 0))
    assert intersect_convex(a, b).is_empty


def test_intersect_with_the_empty_polygon_is_empty():
    a = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, 0))
    assert intersect_convex(a, EMPTY_POLYGON) is EMPTY_POLYGON
    assert intersect_convex(EMPTY_POLYGON, a) is EMPTY_POLYGON


def test_intersect_partial_overlap():
    a = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, 0))
    b = box_to_polygon(OrientedBoxBEV(1, 0, 2, 2, 0))
    assert polygon_area(intersect_convex(a, b)) == pytest.approx(2.0, rel=1e-12)


def test_intersect_touching_edge_is_degenerate():
    a = box_to_polygon(OrientedBoxBEV(0, 0, 2, 2, 0))
    b = box_to_polygon(OrientedBoxBEV(2, 0, 2, 2, 0))
    assert polygon_area(intersect_convex(a, b)) == pytest.approx(0.0, abs=1e-12)


def test_intersect_contained():
    outer = box_to_polygon(OrientedBoxBEV(0, 0, 4, 4, 0.3))
    inner = box_to_polygon(OrientedBoxBEV(0.2, -0.1, 1, 1, 1.0))
    assert polygon_area(intersect_convex(outer, inner)) == pytest.approx(1.0, rel=1e-9)
    assert polygon_area(intersect_convex(inner, outer)) == pytest.approx(1.0, rel=1e-9)


def test_intersect_symmetry_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = random_box(rng, center_span=4.0)
        b = random_box(rng, center_span=4.0)
        pa, pb = box_to_polygon(a), box_to_polygon(b)
        ab = polygon_area(intersect_convex(pa, pb))
        ba = polygon_area(intersect_convex(pb, pa))
        assert ab == pytest.approx(ba, abs=1e-9)
        assert ab <= min(a.l * a.w, b.l * b.w) + 1e-9
        assert len(intersect_convex(pa, pb)) <= 8


def test_intersection_area_matches_monte_carlo():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = random_box(rng, center_span=3.0, dim_lo=1.0, dim_hi=5.0)
        b = random_box(rng, center_span=3.0, dim_lo=1.0, dim_hi=5.0)
        area = polygon_area(intersect_convex(box_to_polygon(a), box_to_polygon(b)))
        est, se = mc_intersection_area(a, b, 100_000, rng)
        assert abs(area - est) <= 3.0 * se + 1e-6


def test_enclosing_aabb_examples():
    a = OrientedBoxBEV(0, 0, 2, 2, 0)
    assert enclosing_aabb(a, a) == pytest.approx((-1.0, -1.0, 1.0, 1.0))
    b = OrientedBoxBEV(3, 0, 2, 2, 0)
    assert enclosing_aabb(a, b) == pytest.approx((-1.0, -1.0, 4.0, 1.0))


def test_enclosing_aabb_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, b = random_box(rng), random_box(rng)
        min_x, min_y, max_x, max_y = enclosing_aabb(a, b)
        assert enclosing_aabb(a, b) == enclosing_aabb(b, a)
        assert min_x < max_x and min_y < max_y


def _floor_box(x, y, theta):
    side = MIN_RELATIVE_SIDE * max(1.0, math.hypot(x, y))
    return OrientedBoxBEV(x, y, side, side, theta)


@settings(deadline=None, max_examples=300)
# About 1 m out: under a floor of 1e-6 this box's area is AREA_EPS itself,
# and its shifted copy measures as empty (an EC-IoU "denominator 0" error).
@example(log_d=4.8794616723098995e-08, phi=1.875, theta=0.0, shift=4.8794616723098995e-08, turn=0.0)
@given(log_d=st.floats(math.log(0.3), math.log(3000.0)), phi=st.floats(-math.pi, math.pi),
       theta=st.floats(-math.pi, math.pi), shift=st.floats(-1.0, 1.0), turn=st.floats(-1.0, 1.0))
def test_boxes_at_the_size_floor_build_and_score(log_d, phi, theta, shift, turn):
    # Below the floor the shoelace area's rounding noise exceeds AREA_EPS,
    # and box_to_polygon can find a box wound clockwise.
    x, y = math.exp(log_d) * math.cos(phi), math.exp(log_d) * math.sin(phi)
    g = _floor_box(x, y, theta)
    p = _floor_box(x + shift * g.l, y, theta + turn)
    for a, b in ((g, g), (p, g), (g, p)):
        box_to_polygon(a)
        for score in (iou_bev(a, b), ec_iou_bev(a, b, WeightConfig(alpha=1.0))):
            assert 0.0 <= score.value <= 1.0


@pytest.mark.xfail(strict=True, reason="collinear-clipper FOUND: a shared edge line adds a vertex")
def test_boxes_sharing_edge_lines_clip_to_a_quad_inside_the_target():
    # 51 of the 252 rings have 5 vertices, and 8 have one outside the target.
    for p, g in collinear_pairs():
        ring = intersect_convex(box_to_polygon(p), box_to_polygon(g)).vertices
        assert len(ring) == 4
        c, s = math.cos(g.theta), math.sin(g.theta)
        for vx, vy in ring:
            dx, dy = vx - g.x, vy - g.y
            assert abs(c * dx + s * dy) <= 0.5 * g.l + 1e-9
            assert abs(-s * dx + c * dy) <= 0.5 * g.w + 1e-9


def _assert_the_checks_change_nothing(p, g):
    # ConvexPolygon(...) converts, dedups and checks the winding; none of it
    # may change a polygon that box_to_polygon or intersect_convex built.
    poly_p, poly_g = box_to_polygon(p), box_to_polygon(g)
    for poly in (poly_p, poly_g, intersect_convex(poly_p, poly_g), intersect_convex(poly_g, poly_p)):
        assert ConvexPolygon(poly.vertices).vertices == poly.vertices
        assert all(type(c) is float for vertex in poly.vertices for c in vertex)


_NUMBER_TYPES = {"float": float, "numpy": np.float64, "int": lambda v: int(round(v))}


@st.composite
def _admitted_boxes(draw, near=None):
    """Boxes the size floor and the reach bound admit, with float, np.float64
    or int fields; with near, a box shifted, turned and resized from it."""
    number = _NUMBER_TYPES[draw(st.sampled_from(sorted(_NUMBER_TYPES)))]
    if near is None:
        distance = draw(st.one_of(
            st.floats(math.log(0.3), math.log(0.5 * MAX_REACH)).map(math.exp),
            st.floats(0.99 * MAX_REACH, 0.998 * MAX_REACH),
        ))
        phi = draw(st.floats(-math.pi, math.pi))
        floor = MIN_RELATIVE_SIDE * max(1.0, distance)
        x, y = distance * math.cos(phi), distance * math.sin(phi)
        l, w = floor * draw(st.floats(1.0, 1e3)), floor * draw(st.floats(1.0, 1e3))
        theta = draw(st.floats(-math.pi, math.pi))
    else:
        x = near.x + draw(st.floats(-1.0, 1.0)) * near.l
        y = near.y + draw(st.floats(-1.0, 1.0)) * near.w
        l, w = near.l * draw(st.floats(1.0, 2.0)), near.w * draw(st.floats(1.0, 2.0))
        theta = near.theta + draw(st.floats(-1.0, 1.0))
    try:
        return OrientedBoxBEV(*(number(v) for v in (x, y, l, w, theta)))
    except ValueError:  # a rounded int side or a shifted box below the floor
        assume(False)


@st.composite
def _admitted_pairs(draw):
    g = draw(_admitted_boxes())
    return draw(_admitted_boxes(near=g)), g


@settings(deadline=None, max_examples=300)
@given(pair=_admitted_pairs())
def test_polygons_built_without_the_checks_pass_them_unchanged(pair):
    _assert_the_checks_change_nothing(*pair)


def test_polygons_of_boxes_sharing_edge_lines_pass_the_checks_unchanged():
    for p, g in collinear_pairs():
        _assert_the_checks_change_nothing(p, g)
