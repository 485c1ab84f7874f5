"""The vectorized kernel must agree with the scalar reference path."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nearby_box, random_offside_gt
from eciou import _batch
from eciou.geometry import (
    AREA_EPS,
    DISJOINT_MARGIN,
    MIN_RELATIVE_SIDE,
    OrientedBoxBEV,
    box_to_polygon,
    intersect_convex,
    polygon_area,
)
from eciou.losses import ALL_KINDS, loss_gradient, loss_value
from eciou.metrics import ec_iou_bev, iou_bev
from eciou.weighting import ARITHMETIC, GEOMETRIC, WeightConfig


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


def test_valid_boxes_are_the_boxes_the_scalar_path_can_build():
    rows = np.array([
        [1.0, 2.0, 3.0, 4.0, 0.5],
        [1.0, 2.0, 3.0, 4.0, 10.0],  # any finite heading wraps
        [math.nan, 2.0, 3.0, 4.0, 0.0],
        [1.0, 2.0, 0.0, 4.0, 0.0],
        [1.0, 2.0, 3.0, 0.0, 0.0],
        [1.0, 2.0, -3.0, 4.0, 0.0],
        [1.0, 2.0, 3.0, -1.0, 0.0],
        [1.0, 2.0, 3.0, 4.0, math.inf],
        # The size floor: MIN_RELATIVE_SIDE of max(1, distance to the ego).
        [3.0, 4.0, 5.0 * MIN_RELATIVE_SIDE, 1.0, 0.0],
        [0.3, 0.4, 1.0, MIN_RELATIVE_SIDE, 0.0],
        [3.0, 4.0, np.nextafter(5.0 * MIN_RELATIVE_SIDE, 0.0), 1.0, 0.0],
        [0.3, 0.4, 1.0, np.nextafter(MIN_RELATIVE_SIDE, 0.0), 0.0],
        [300.0, 300.0, 1e-6, 1e-6, 0.3],
    ])
    buildable = []
    for row in rows:
        try:
            OrientedBoxBEV(*row)
            buildable.append(True)
        except ValueError:
            buildable.append(False)
    assert _batch.valid_boxes(rows).tolist() == buildable == (
        [True, True] + [False] * 6 + [True, True] + [False] * 3
    )


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


def _axis_aligned_pairs(rng, n):
    """Unrotated predictions against unrotated targets: every ring has 4 vertices."""
    g_arr = np.column_stack([
        rng.uniform(5.0, 20.0, n), rng.uniform(-10.0, 10.0, n),
        rng.uniform(1.0, 4.0, n), rng.uniform(0.5, 2.0, n), np.zeros(n),
    ])
    p_arr = g_arr + np.column_stack([rng.normal(0.0, 0.5, (n, 4)), np.zeros(n)])
    return g_arr, p_arr


def _per_parameter_gradient(ev, kind, boxes, alpha, method, h):
    grads = np.empty((boxes.shape[0], 5))
    for i in range(5):
        hi = boxes.copy()
        hi[:, i] += h
        lo = boxes.copy()
        lo[:, i] -= h
        grads[:, i] = (
            ev.loss_and_scores(kind, hi, alpha, method)[0]
            - ev.loss_and_scores(kind, lo, alpha, method)[0]
        ) / (2.0 * h)
    return grads


@pytest.mark.parametrize("method", [GEOMETRIC, ARITHMETIC])
def test_stacked_gradient_equals_per_parameter_probes(method):
    rng = np.random.default_rng(11)
    _, _, g_rot, p_rot = _pair_arrays(rng, 300)
    p_rot[::17, 2] *= -1.0
    p_rot[5::23, 3] = np.nan
    p_rot[9::29, 3] = 0.01  # the -h probe at h = 0.03 turns negative
    g_flat, p_flat = _axis_aligned_pairs(rng, 300)
    for g_arr, p_arr in ((g_rot, p_rot), (g_flat, p_flat)):
        ev = _batch.BatchEvaluator(g_arr)
        for kind in ALL_KINDS:
            for h in (1e-4, 0.03):
                grads, ok = ev.gradient(kind, p_arr, 2.0, method, h=h)
                expected = _per_parameter_gradient(ev, kind, p_arr, 2.0, method, h)
                assert np.array_equal(grads, expected, equal_nan=True), (kind.name, h)
                assert np.array_equal(ok, np.isfinite(expected).all(axis=1))
                assert p_arr is p_flat or not ok.all()


def test_clip_buffers_are_cut_to_the_longest_ring():
    rng = np.random.default_rng(12)
    for g_arr, p_arr in (_pair_arrays(rng, 200)[2:], _axis_aligned_pairs(rng, 200)):
        pc = _batch.corners(p_arr)
        x, y, counts = _batch.clip_quads_xy(
            pc[..., 0], pc[..., 1], _batch.precompute_clip(_batch.corners(g_arr))
        )
        assert x.shape == y.shape == (len(p_arr), max(counts.max(), 8))
    assert counts.max() == 4  # the axis-aligned rings still get 8 columns
    empty = np.empty((0, 4))
    x, y, counts = _batch.clip_quads_xy(empty, empty, _batch.precompute_clip(np.empty((0, 4, 2))))
    assert counts.shape == (0,) and x.shape[0] == y.shape[0] == 0


@pytest.mark.parametrize("method", [GEOMETRIC, ARITHMETIC])
def test_scores_do_not_depend_on_the_rest_of_the_batch(method):
    # Rectangle-on-rectangle rings have 4 vertices; a square turned 45 degrees
    # on its own copy makes an octagon. Every row must score the same bits
    # whether or not the batch also holds the octagon.
    rng = np.random.default_rng(13)
    g_flat, p_flat = _axis_aligned_pairs(rng, 2000)
    g_oct = np.array([[10.0, 0.0, 2.0, 2.0, 0.0]])
    p_oct = np.array([[10.0, 0.0, 2.0, 2.0, np.pi / 4]])
    alone = _batch.BatchEvaluator(g_flat).scores(p_flat, 4.0, method)
    mixed = _batch.BatchEvaluator(np.vstack([g_flat, g_oct])).scores(np.vstack([p_flat, p_oct]), 4.0, method)
    for a, m in zip(alone, mixed):
        assert np.array_equal(a, m[: len(p_flat)])


@st.composite
def _scored_batches(draw):
    """Targets clear of the ego, predictions around them and a row subset.

    Shifts and size changes are often exactly 0 and 1, so that turned copies
    of a target, whose rings have up to 8 vertices, come up often.
    """
    n = draw(st.integers(1, 12))
    shift = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    scale = st.one_of(st.just(1.0), st.floats(0.5, 1.5))
    targets, boxes = [], []
    for _ in range(n):
        rho, phi = draw(st.floats(5.0, 30.0)), draw(st.floats(-math.pi, math.pi))
        l, w, theta = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)), draw(st.floats(-math.pi, math.pi))
        targets.append((rho * math.cos(phi), rho * math.sin(phi), l, w, theta))
        boxes.append((
            targets[-1][0] + draw(shift) * l, targets[-1][1] + draw(shift) * w,
            l * draw(scale), w * draw(scale), theta + draw(st.floats(-1.0, 1.0)) * math.pi / 2,
        ))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(targets), np.array(boxes), np.array(keep)


@settings(deadline=None)
# An octagon (a square turned on its own copy) next to a rectangle pair: the
# rectangle's ring is 4 wide alone and 8 wide beside the octagon.
@example(
    batch=(
        np.array([[10.0, 0.0, 2.0, 2.0, 0.0], [7.0, -3.0, 1.5, 1.5, 0.0]]),
        np.array([[10.0, 0.0, 2.0, 2.0, 0.8], [7.1, -2.9, 1.65, 1.5, 0.0]]),
        np.array([False, True]),
    ),
    loss_alpha=1.0, eval_alpha=4.0, method=GEOMETRIC,
)
@given(
    batch=_scored_batches(),
    loss_alpha=st.floats(0.0, 8.0),
    eval_alpha=st.floats(0.0, 8.0),
    method=st.sampled_from([GEOMETRIC, ARITHMETIC]),
)
def test_loss_and_scores_agree_with_scores(batch, loss_alpha, eval_alpha, method):
    # The descent scores its curve and step size from the clip its loss made;
    # those scores must be the bits `scores` gives, also for any row subset
    # scored on its own.
    targets, boxes, keep = batch
    iou, eval_ec = _batch.BatchEvaluator(targets).scores(boxes, eval_alpha)
    loss_ec = _batch.BatchEvaluator(targets).scores(boxes, loss_alpha, method)[1]
    for rows in (np.ones(len(boxes), bool), keep):
        ev = _batch.BatchEvaluator(targets[rows])
        for kind in ALL_KINDS:
            _, got_iou, metric, got_ec = ev.loss_and_scores(
                kind, boxes[rows], loss_alpha, method, eval_alpha=eval_alpha
            )
            assert np.array_equal(got_iou, iou[rows], equal_nan=True)
            assert np.array_equal(got_ec, eval_ec[rows], equal_nan=True)
            own = loss_ec[rows] if kind.ego_centric else got_iou
            assert np.array_equal(metric, own, equal_nan=True)


# ---- disjoint-row shortcut ----


def _aimed(draw, l, w, direction):
    """A heading that puts one of the box's corners on the ray at direction."""
    return direction + draw(st.sampled_from([1.0, -1.0])) * math.atan2(w, l) + draw(
        st.sampled_from([0.0, math.pi]))


# Relative center distances near the circumradius sum: within a few
# DISJOINT_MARGINs of it, and a few orders of magnitude beyond.
_NEAR_TOUCH = st.builds(
    lambda u, scale: u * scale, st.floats(-4.0, 4.0),
    st.sampled_from([DISJOINT_MARGIN * 10.0**k for k in range(7)]),
)


def _sides(floor):
    """(l, w), each of 0.5 to 4 m or of 1 to 4 times the size floor."""
    side = st.floats(0.5, 4.0) | st.floats(1.001, 4.0).map(lambda k: k * floor)
    return st.tuples(side, side)


@st.composite
def _pair_rows(draw, gaps=st.one_of(_NEAR_TOUCH, st.floats(-1.0, 2.0))):
    """(target, box) rows with centers reach * (1 + gap) apart, reach being
    the sum of the circumradii, from 0.3 to 3000 m out; sides are often at
    the size floor, and in half of the draws the boxes point a corner at
    each other, the closest they come at that distance."""
    rho = math.exp(draw(st.floats(math.log(0.3), math.log(3000.0))))
    phi = draw(st.floats(-math.pi, math.pi))
    gl, gw = draw(_sides(MIN_RELATIVE_SIDE * max(1.0, rho)))
    # Centers lie at most 1.5 * (hypot(gl, gw) + hypot(l, w)) apart.
    l, w = draw(_sides(MIN_RELATIVE_SIDE * max(1.0, rho + 1.5 * math.hypot(gl, gw) + 9.0)))
    reach = 0.5 * (math.hypot(l, w) + math.hypot(gl, gw))
    dist = reach * (1.0 + draw(gaps))
    d = draw(st.floats(-math.pi, math.pi))
    if draw(st.booleans()):
        theta, g_theta = _aimed(draw, l, w, d + math.pi), _aimed(draw, gl, gw, d)
    else:
        theta, g_theta = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    gx, gy = rho * math.cos(phi), rho * math.sin(phi)
    return (gx, gy, gl, gw, g_theta), (gx + dist * math.cos(d), gy + dist * math.sin(d), l, w, theta)


def _batch_of(rows):
    targets, boxes = zip(*rows)
    return np.array(targets), np.array(boxes)


@settings(deadline=None, max_examples=300)
@given(rows=st.lists(_pair_rows(), min_size=1, max_size=16))
def test_rows_called_disjoint_clip_to_nothing(rows):
    # The premise of the shortcut: clipped in full, every row the mask skips
    # measures at most AREA_EPS, so its intersection is 0.0 either way.
    targets, boxes = _batch_of(rows)
    assert _batch.valid_boxes(targets).all() and _batch.valid_boxes(boxes).all()
    disjoint = _batch.circumcircles_disjoint(boxes, targets)
    pc = _batch.corners(boxes)
    x, y, counts = _batch.clip_quads_xy(
        pc[..., 0], pc[..., 1], _batch.precompute_clip(_batch.corners(targets))
    )
    assert (_batch.ring_area(x, y, counts)[disjoint] <= AREA_EPS).all()


def _spoil(row, field, value):
    box = list(row[1])
    box[field] = value
    return row[0], tuple(box)


# Rows the kernel must still score as before: a nan center or side (kept on
# the clipped path by the mask), a nan or infinite heading or center, and
# sides the boxes refuse.
_SPOILED_ROWS = st.one_of(
    st.tuples(_pair_rows(), st.integers(0, 4), st.just(math.nan)),
    st.tuples(_pair_rows(), st.sampled_from([0, 1, 4]), st.sampled_from([math.inf, -math.inf])),
    st.tuples(_pair_rows(), st.integers(2, 3), st.sampled_from([-1.0, 0.0, 1e-9])),
).map(lambda spoiled: _spoil(*spoiled))


def _full_clip():
    """Clip every row: the reference the shortcut must match bit for bit."""
    return mock.patch.object(
        _batch, "circumcircles_disjoint", lambda boxes, targets: np.zeros(len(boxes), dtype=bool)
    )


@settings(deadline=None)
@given(
    rows=st.lists(st.one_of(_pair_rows(), _SPOILED_ROWS), min_size=1, max_size=12),
    alpha=st.floats(0.0, 8.0),
    method=st.sampled_from([GEOMETRIC, ARITHMETIC]),
)
def test_skipping_disjoint_rows_changes_no_output(rows, alpha, method):
    targets, boxes = _batch_of(rows)

    def outputs():
        ev = _batch.BatchEvaluator(targets)
        return (
            [ev.scores(boxes, alpha, method)]
            + [ev.loss_and_scores(kind, boxes, alpha, method, eval_alpha=4.0) for kind in ALL_KINDS]
            + [ev.gradient(kind, boxes, alpha, method, h=0.03) for kind in ALL_KINDS]
        )

    got = outputs()
    with _full_clip():
        want = outputs()
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.array_equal(a, b, equal_nan=True)
    invalid = ~_batch.valid_boxes(boxes)
    for loss, *_ in got[1 : 1 + len(ALL_KINDS)]:
        assert np.isnan(loss[invalid]).all()


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
