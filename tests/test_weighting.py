import math

import numpy as np
import pytest

from conftest import points_in_box, random_offside_gt
from eciou.geometry import ConvexPolygon, OrientedBoxBEV, box_to_polygon, intersect_convex, polygon_area
from eciou.weighting import (
    ARITHMETIC,
    GEOMETRIC,
    MAX_MC_SAMPLES,
    MONTE_CARLO,
    DegenerateDistanceError,
    WeightConfig,
    mean_vertex_weight,
    point_weight,
    sample_in_polygon,
    weight_extremes,
    weighted_area,
)

G_REF = OrientedBoxBEV(10, 0, 4, 2, 0)


def test_weight_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(alpha=-1)
    with pytest.raises(ValueError):
        WeightConfig(method="nearest")
    with pytest.raises(ValueError):
        WeightConfig(mc_samples=0)
    assert WeightConfig(mc_samples=MAX_MC_SAMPLES).mc_samples == MAX_MC_SAMPLES
    # Refused before any point is drawn: the arrays would not fit in memory.
    with pytest.raises(ValueError, match=f"mc_samples must be in \\[1, {MAX_MC_SAMPLES}\\]"):
        WeightConfig(method=MONTE_CARLO, mc_samples=MAX_MC_SAMPLES + 1)


def test_point_weight_center_is_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        gt = random_offside_gt(rng)
        alpha = rng.uniform(0, 8)
        assert point_weight(gt, (gt.x, gt.y), alpha) == 1.0


def test_point_weight_examples():
    assert point_weight(G_REF, (10, 0), 1.0) == 1.0
    assert point_weight(G_REF, (3, 4), 0.0) == 1.0
    assert point_weight(G_REF, (5, 0), 1.0) == pytest.approx(2.0)
    assert point_weight(G_REF, (5, 0), 2.0) == pytest.approx(4.0)


def test_point_weight_degenerate():
    with pytest.raises(DegenerateDistanceError):
        point_weight(G_REF, (0, 0), 1.0)
    with pytest.raises(DegenerateDistanceError):
        point_weight(OrientedBoxBEV(1e-12, 0, 1, 1, 0), (1, 0), 1.0)


def test_point_weight_monotone_in_distance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        gt = random_offside_gt(rng)
        alpha = rng.uniform(0.1, 8)
        r1, r2 = sorted(rng.uniform(0.5, 40, size=2))
        phi1, phi2 = rng.uniform(-math.pi, math.pi, size=2)
        w1 = point_weight(gt, (r1 * math.cos(phi1), r1 * math.sin(phi1)), alpha)
        w2 = point_weight(gt, (r2 * math.cos(phi2), r2 * math.sin(phi2)), alpha)
        if r1 < r2:
            assert w1 >= w2
            assert w1 > w2 or r1 == r2


def test_mean_vertex_weight_examples():
    # Vertices at distances 10 and 2.5 from the ego give weights {1, 4}.
    gt = OrientedBoxBEV(10, 0, 16, 2, 0)
    poly = ConvexPolygon(((10.0, 0.0), (2.5, 0.0)))
    geo = mean_vertex_weight(gt, poly, WeightConfig(alpha=1, method=GEOMETRIC))
    ari = mean_vertex_weight(gt, poly, WeightConfig(alpha=1, method=ARITHMETIC))
    assert geo == pytest.approx(2.0, rel=1e-12)
    assert ari == pytest.approx(2.5, rel=1e-12)


def test_mean_vertex_weight_constant():
    # Square centered on the gt center: opposite corners pair up, and with
    # alpha = 0 every weight is exactly 1.
    gt = G_REF
    poly = box_to_polygon(OrientedBoxBEV(10, 0, 1, 1, 0))
    for method in (GEOMETRIC, ARITHMETIC):
        assert mean_vertex_weight(gt, poly, WeightConfig(alpha=0, method=method)) == pytest.approx(1.0)


def test_mean_vertex_weight_errors():
    with pytest.raises(ValueError):
        mean_vertex_weight(G_REF, ConvexPolygon(()), WeightConfig())
    with pytest.raises(ValueError):
        mean_vertex_weight(G_REF, box_to_polygon(G_REF), WeightConfig(method=MONTE_CARLO))
    on_ego = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(DegenerateDistanceError, match="vertex coincides with the ego"):
        mean_vertex_weight(G_REF, on_ego, WeightConfig())


def test_weights_that_overflow_are_a_value_error_naming_alpha():
    near = box_to_polygon(OrientedBoxBEV(5, 0, 1, 1, 0))
    for method in (GEOMETRIC, ARITHMETIC, MONTE_CARLO):
        cfg = WeightConfig(alpha=1e5, method=method, mc_samples=64)
        with pytest.raises(ValueError, match="alpha 100000 overflows"):
            weighted_area(G_REF, near, cfg)
    with pytest.raises(ValueError, match="alpha 100000 overflows"):
        mean_vertex_weight(G_REF, near, WeightConfig(alpha=1e5, method=ARITHMETIC))


def test_geometric_below_arithmetic():
    rng = np.random.default_rng(29)
    for _ in range(200):
        gt = random_offside_gt(rng)
        poly = box_to_polygon(gt)
        alpha = rng.uniform(0, 8)
        geo = mean_vertex_weight(gt, poly, WeightConfig(alpha=alpha, method=GEOMETRIC))
        ari = mean_vertex_weight(gt, poly, WeightConfig(alpha=alpha, method=ARITHMETIC))
        assert geo <= ari + 1e-12


def test_weighted_area_alpha_zero_is_plain_area():
    rng = np.random.default_rng(31)
    for method in (GEOMETRIC, ARITHMETIC, MONTE_CARLO):
        for _ in range(20):
            gt = random_offside_gt(rng)
            poly = box_to_polygon(gt)
            cfg = WeightConfig(alpha=0.0, method=method, mc_samples=200)
            assert weighted_area(gt, poly, cfg) == pytest.approx(polygon_area(poly), rel=1e-12)


def test_weighted_area_empty_polygon_is_zero():
    assert weighted_area(G_REF, ConvexPolygon(()), WeightConfig()) == 0.0


def test_weighted_area_geometric_close_to_monte_carlo():
    # Vertex-mean shortcut vs the sampling method on the reference footprint.
    poly = box_to_polygon(G_REF)
    geo = weighted_area(G_REF, poly, WeightConfig(alpha=1, method=GEOMETRIC))
    mc = weighted_area(G_REF, poly, WeightConfig(alpha=1, method=MONTE_CARLO, mc_samples=6000, mc_seed=9))
    assert geo == pytest.approx(mc, rel=0.02)


def test_weighted_area_far_limit():
    gt = OrientedBoxBEV(1e6, 0, 4, 2, 0.4)
    poly = box_to_polygon(gt)
    area = polygon_area(poly)
    for method in (GEOMETRIC, ARITHMETIC, MONTE_CARLO):
        cfg = WeightConfig(alpha=8, method=method, mc_samples=20_000, mc_seed=1)
        assert weighted_area(gt, poly, cfg) == pytest.approx(area, rel=1e-3)


def test_weighted_area_monte_carlo_deterministic():
    poly = box_to_polygon(G_REF)
    cfg = WeightConfig(alpha=2, method=MONTE_CARLO, mc_samples=5000, mc_seed=42)
    first = weighted_area(G_REF, poly, cfg)
    second = weighted_area(G_REF, poly, cfg)
    assert first == second
    other = weighted_area(G_REF, poly, WeightConfig(alpha=2, method=MONTE_CARLO, mc_samples=5000, mc_seed=43))
    assert other != first


def test_sample_in_polygon_uniformity():
    rng = np.random.default_rng(13)
    box = OrientedBoxBEV(4, -3, 3, 2, 0.7)
    poly = box_to_polygon(box)
    pts = sample_in_polygon(poly, 20_000, rng)
    assert points_in_box(box, pts).all()
    # Mean of uniform samples converges on the centroid.
    assert np.allclose(pts.mean(axis=0), [box.x, box.y], atol=0.05)


@pytest.mark.parametrize("vertices, message", [
    (((9, 0), (11, 0)), "fewer than 3 vertices"),
    (((9, 0), (10, 0), (11, 0)), "zero area"),
])
def test_sample_in_polygon_refuses_polygons_without_area(vertices, message):
    with pytest.raises(ValueError, match=message):
        sample_in_polygon(ConvexPolygon(vertices), 10, np.random.default_rng(0))


def test_weight_extremes_reference_case():
    lo, hi = weight_extremes(G_REF, 1.0)
    assert hi == pytest.approx(10.0 / 8.0, rel=1e-12)
    assert lo == pytest.approx(10.0 / math.sqrt(145.0), rel=1e-12)


def test_weight_extremes_alpha_zero():
    assert weight_extremes(G_REF, 0.0) == (1.0, 1.0)


def test_weight_extremes_vs_grid_search():
    rng = np.random.default_rng(37)
    for _ in range(25):
        gt = random_offside_gt(rng)
        alpha = rng.uniform(0.5, 4)
        lo, hi = weight_extremes(gt, alpha)
        assert lo <= 1.0 <= hi
        # Dense grid over the box in local coordinates.
        c, s = math.cos(gt.theta), math.sin(gt.theta)
        u = np.linspace(-0.5 * gt.l, 0.5 * gt.l, 60)
        v = np.linspace(-0.5 * gt.w, 0.5 * gt.w, 60)
        uu, vv = np.meshgrid(u, v)
        px = gt.x + c * uu - s * vv
        py = gt.y + s * uu + c * vv
        w = (math.hypot(gt.x, gt.y) / np.hypot(px, py)) ** alpha
        assert w.max() <= hi + 1e-9
        assert w.min() >= lo - 1e-9
        # The grid should come close to both extremes.
        assert w.max() >= hi - 0.05 * (hi - lo) - 1e-9
        assert w.min() <= lo + 0.05 * (hi - lo) + 1e-9


def test_weight_extremes_origin_inside_raises():
    # Inside, on an edge, on a corner: the message names each case.
    for gt in (OrientedBoxBEV(0.5, 0, 4, 2, 0), OrientedBoxBEV(0.5, 0, 1, 2, 0), OrientedBoxBEV(1, 1, 2, 2, 0)):
        with pytest.raises(DegenerateDistanceError, match="on a corner or an edge .*, or inside it"):
            weight_extremes(gt, 1.0)


def test_weight_spread_shrinks_with_distance():
    rng = np.random.default_rng(41)
    for _ in range(50):
        gt = random_offside_gt(rng)
        alpha = rng.uniform(0.5, 8)
        spreads = []
        for k in (1, 2, 4, 8, 16):
            scaled = OrientedBoxBEV(gt.x * k, gt.y * k, gt.l, gt.w, gt.theta)
            lo, hi = weight_extremes(scaled, alpha)
            spreads.append(hi - lo)
        assert all(a > b for a, b in zip(spreads, spreads[1:]))
        assert spreads[-1] < 0.25 * spreads[0]


def test_vertex_mean_vs_monte_carlo_error_ordering():
    # Over the reference sweep intersections at alpha = 8, the geometric
    # mean tracks the monte-carlo value at least as well as the arithmetic
    # mean on average.
    poly_g = box_to_polygon(G_REF)
    geo_cfg = WeightConfig(alpha=8, method=GEOMETRIC)
    ari_cfg = WeightConfig(alpha=8, method=ARITHMETIC)
    mc_cfg = WeightConfig(alpha=8, method=MONTE_CARLO, mc_samples=100_000, mc_seed=12)
    geo_err = []
    ari_err = []
    for i in range(101):
        x = 5.0 + 0.1 * i
        poly_p = box_to_polygon(OrientedBoxBEV(x, 0, 4, 2, 0))
        inter = intersect_convex(poly_p, poly_g)
        if inter.is_empty:
            continue
        mc = weighted_area(G_REF, inter, mc_cfg)
        geo_err.append(abs(weighted_area(G_REF, inter, geo_cfg) - mc))
        ari_err.append(abs(weighted_area(G_REF, inter, ari_cfg) - mc))
    assert np.mean(geo_err) <= np.mean(ari_err)
