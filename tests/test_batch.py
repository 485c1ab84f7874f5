"""The vectorized kernel must agree with the scalar reference path."""

import numpy as np
import pytest

from conftest import nearby_box, random_offside_gt
from eciou import _batch
from eciou.geometry import box_to_polygon, intersect_convex, polygon_area
from eciou.losses import ALL_KINDS, loss_gradient, loss_value
from eciou.metrics import ec_iou_bev, iou_bev
from eciou.weighting import ARITHMETIC, WeightConfig


def _pair_arrays(rng, n, shift=0.6):
    gs = [random_offside_gt(rng, dist_lo=5.0) for _ in range(n)]
    ps = [nearby_box(rng, g, shift_scale=shift) for g in gs]
    g_arr = np.array([(g.x, g.y, g.l, g.w, g.theta) for g in gs])
    p_arr = np.array([(p.x, p.y, p.l, p.w, p.theta) for p in ps])
    return gs, ps, g_arr, p_arr


def test_corners_match_scalar():
    rng = np.random.default_rng(1)
    gs, _, g_arr, _ = _pair_arrays(rng, 50)
    batch = _batch.corners(g_arr)
    for i, g in enumerate(gs):
        scalar = np.array(box_to_polygon(g).vertices)
        assert np.allclose(batch[i], scalar, atol=1e-12)


def test_clip_areas_match_scalar():
    rng = np.random.default_rng(2)
    gs, ps, g_arr, p_arr = _pair_arrays(rng, 300)
    pc = _batch.corners(p_arr)
    gc = _batch.corners(g_arr)
    x, y, counts = _batch.clip_quads_xy(pc[..., 0], pc[..., 1], _batch.precompute_clip(gc))
    areas = _batch.ring_area(x, y, counts)
    assert counts.max() <= 8
    for i, (p, g) in enumerate(zip(ps, gs)):
        scalar = polygon_area(intersect_convex(box_to_polygon(p), box_to_polygon(g)))
        assert areas[i] == pytest.approx(scalar, abs=1e-9)


def test_scores_match_scalar():
    rng = np.random.default_rng(3)
    gs, ps, g_arr, p_arr = _pair_arrays(rng, 300)
    ev = _batch.BatchEvaluator(g_arr)
    for alpha in (0.0, 1.0, 4.0):
        iou_b, ec_b = ev.scores(p_arr, alpha)
        cfg = WeightConfig(alpha=alpha)
        for i, (p, g) in enumerate(zip(ps, gs)):
            assert iou_b[i] == pytest.approx(iou_bev(p, g).value, abs=1e-9)
            assert ec_b[i] == pytest.approx(ec_iou_bev(p, g, cfg).value, abs=1e-9)


def test_scores_match_scalar_arithmetic():
    rng = np.random.default_rng(7)
    gs, ps, g_arr, p_arr = _pair_arrays(rng, 100)
    ev = _batch.BatchEvaluator(g_arr)
    _, ec_b = ev.scores(p_arr, 2.0, ARITHMETIC)
    cfg = WeightConfig(alpha=2.0, method=ARITHMETIC)
    for i, (p, g) in enumerate(zip(ps, gs)):
        assert ec_b[i] == pytest.approx(ec_iou_bev(p, g, cfg).value, abs=1e-9)


def test_losses_and_gradients_match_scalar():
    rng = np.random.default_rng(4)
    gs, ps, g_arr, p_arr = _pair_arrays(rng, 150)
    ev = _batch.BatchEvaluator(g_arr)
    cfg = WeightConfig(alpha=1.0)
    for kind in ALL_KINDS:
        batch_loss = ev.loss_and_scores(kind, p_arr, 1.0)[0]
        grads, ok = ev.gradient(kind, p_arr, 1.0)
        assert ok.all()
        for i, (p, g) in enumerate(zip(ps, gs)):
            assert batch_loss[i] == pytest.approx(loss_value(kind, p, g, cfg), abs=1e-9)
            scalar = loss_gradient(kind, p, g, cfg).as_tuple()
            assert np.allclose(grads[i], scalar, atol=1e-7)


def test_invalid_boxes_flagged():
    g_arr = np.array([[10.0, 0.0, 4.0, 2.0, 0.0]] * 3)
    p_arr = np.array(
        [
            [10.0, 0.0, 4.0, 2.0, 0.0],
            [10.0, 0.0, -1.0, 2.0, 0.0],
            [10.0, 0.0, 4.0, np.nan, 0.0],
        ]
    )
    ev = _batch.BatchEvaluator(g_arr)
    loss = ev.loss_and_scores(ALL_KINDS[0], p_arr, 1.0)[0]
    assert loss[0] == pytest.approx(0.0)
    assert np.isnan(loss[1]) and np.isnan(loss[2])


def test_wrap_angle_matches_box_canonicalization():
    import math

    from eciou.geometry import OrientedBoxBEV

    vals = np.array([0.3, -0.3, math.pi, -math.pi, 3 * math.pi / 2, 2.9, -9.0])
    wrapped = _batch.wrap_angle(vals)
    for raw, got in zip(vals, wrapped):
        assert got == OrientedBoxBEV(0, 0, 1, 1, raw).theta
