"""The vectorized kernel must agree with the scalar reference path."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import collinear_pairs, nearby_box, random_offside_gt, rotated_about_ego, touching_pairs, turned_pairs
from eciou import _batch
from eciou.geometry import (
    AREA_EPS,
    DISJOINT_MARGIN,
    MAX_REACH,
    MIN_RELATIVE_SIDE,
    OrientedBoxBEV,
    box_to_polygon,
    intersect_convex,
    polygon_area,
)
from eciou.losses import ALL_KINDS, loss_gradient, loss_value
from eciou.metrics import ec_iou_bev, iou_bev
from eciou.weighting import ARITHMETIC, GEOMETRIC, WeightConfig


def _rows(boxes):
    return np.array([(b.x, b.y, b.l, b.w, b.theta) for b in boxes])


def _pair_arrays(rng, n, shift=0.6):
    gs = [random_offside_gt(rng, dist_lo=5.0) for _ in range(n)]
    ps = [nearby_box(rng, g, shift_scale=shift) for g in gs]
    return gs, ps, _rows(gs), _rows(ps)


def test_corners_match_scalar():
    rng = np.random.default_rng(1)
    gs, _, g_arr, _ = _pair_arrays(rng, 50)
    x, y = _batch.corners(g_arr)
    for i, g in enumerate(gs):
        scalar = np.array(box_to_polygon(g).vertices)
        assert np.allclose(x[i], scalar[:, 0], atol=1e-12)
        assert np.allclose(y[i], scalar[:, 1], atol=1e-12)


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
        # The size floor: MIN_RELATIVE_SIDE of max(1, distance to the ego, longer side).
        [3.0, 4.0, 5.0 * MIN_RELATIVE_SIDE, 1.0, 0.0],
        [0.3, 0.4, 1.0, MIN_RELATIVE_SIDE, 0.0],
        [3.0, 4.0, np.nextafter(5.0 * MIN_RELATIVE_SIDE, 0.0), 1.0, 0.0],
        [0.3, 0.4, 1.0, np.nextafter(MIN_RELATIVE_SIDE, 0.0), 0.0],
        [300.0, 300.0, 1e-6, 1e-6, 0.3],
        # Past 1 m and the distance, the longer side sets the floor.
        [0.3, 0.4, 10.0, 10.0 * MIN_RELATIVE_SIDE, 0.0],
        [3.0, 4.0, 1e6 * MIN_RELATIVE_SIDE, 1e6, 0.0],
        [300.0, 400.0, 400.0, 500.0 * MIN_RELATIVE_SIDE, 0.0],
        [0.3, 0.4, 10.0, np.nextafter(10.0 * MIN_RELATIVE_SIDE, 0.0), 0.0],
        [3.0, 4.0, np.nextafter(1e6 * MIN_RELATIVE_SIDE, 0.0), 1e6, 0.0],
        [10.0, 0.0, 1.0, 1e17, 0.0],  # a sliver whose shoelace area rounds to 0
        # The reach bound: hypot(x, y) + hypot(l, w) / 2 of at most MAX_REACH.
        [6e99, 7.9e99, 1e95, 1e95, 0.0],
        [6e99, 8e99, 1e95, 1e95, 0.0],
        [1e160, 0.0, 4e155, 2e155, 0.0],
    ])
    buildable = []
    for row in rows:
        try:
            OrientedBoxBEV(*row)
            buildable.append(True)
        except ValueError:
            buildable.append(False)
    assert _batch.valid_boxes(rows).tolist() == buildable == (
        [True, True] + [False] * 6 + [True, True] + [False] * 3 + [True] * 3 + [False] * 3
        + [True] + [False] * 2
    )


def test_clip_areas_match_scalar():
    rng = np.random.default_rng(2)
    gs, ps, g_arr, p_arr = _pair_arrays(rng, 300)
    x, y, counts = _batch.clip_quads_xy(*_batch.corners(p_arr), *_batch.corners(g_arr))
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
        _, grads, ok = ev.gradient(kind, p_arr, 1.0, h=1e-4, eval_alpha=4.0)
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
                _, grads, ok = ev.gradient(kind, p_arr, 2.0, method, h=h, eval_alpha=4.0)
                expected = _per_parameter_gradient(ev, kind, p_arr, 2.0, method, h)
                assert np.array_equal(grads, expected, equal_nan=True), (kind.name, h)
                assert np.array_equal(ok, np.isfinite(expected).all(axis=1))
                assert p_arr is p_flat or not ok.all()


def _spoiled_pairs(rng, n):
    """(targets, boxes) of rotated pairs with refused rows (a negative length,
    a nan width) and rows whose -h probe at h = 0.03 is refused."""
    _, _, g_arr, p_arr = _pair_arrays(rng, n)
    p_arr[::17, 2] *= -1.0
    p_arr[5::23, 3] = np.nan
    p_arr[9::29, 3] = 0.01
    return g_arr, p_arr


def _assert_same_outputs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


def _base_scores(ev, kind, boxes, alpha, method, eval_alpha):
    """What gradient gives at the boxes: loss_and_scores' loss, the IoU and
    metric of its clip, and the geometric EC-IoU at eval_alpha of that clip."""
    loss, metric, clip = ev.loss_and_scores(kind, boxes, alpha, method)
    return loss, clip.iou, metric, ev.ec_iou(clip, eval_alpha)


@pytest.mark.parametrize("method", [GEOMETRIC, ARITHMETIC])
def test_gradient_scores_the_boxes_as_loss_and_scores_does(method):
    # The descent takes its loss, step size and curve scores from gradient's
    # copy 0 of the boxes: they must be loss_and_scores' bits at the same
    # boxes, refused and nan rows included.
    preds, targets = zip(*collinear_pairs())
    cases = (_spoiled_pairs(np.random.default_rng(16), 200), (_rows(targets), _rows(preds)))
    assert not _batch.valid_boxes(cases[0][1]).all()
    for g_arr, p_arr in cases:
        ev = _batch.BatchEvaluator(g_arr)
        for kind in ALL_KINDS:
            for eval_alpha in (2.0, 4.0):
                base, _, _ = ev.gradient(kind, p_arr, 2.0, method, h=0.03, eval_alpha=eval_alpha)
                _assert_same_outputs(base, _base_scores(ev, kind, p_arr, 2.0, method, eval_alpha))


@pytest.mark.parametrize("block_rows, n", [(None, _batch._BLOCK_ROWS // 11 + 1), (7, 40)])
def test_gradient_over_several_blocks_equals_per_parameter_probes(block_rows, n):
    # A stack of 11N rows over _BLOCK_ROWS is scored in blocks of at most
    # _BLOCK_ROWS rows, one loss_and_scores call each; the result must not
    # depend on where the blocks split it (7 rows split copy 0 too).
    g_arr, p_arr = _spoiled_pairs(np.random.default_rng(17), n)
    block_rows = block_rows or _batch._BLOCK_ROWS
    calls = []
    score = _batch.BatchEvaluator.loss_and_scores

    def counted(ev, kind, boxes, *args, **kwargs):
        calls.append(len(boxes))
        return score(ev, kind, boxes, *args, **kwargs)

    with mock.patch.object(_batch, "_BLOCK_ROWS", block_rows):
        ev = _batch.BatchEvaluator(g_arr)
        for kind, method in zip(ALL_KINDS, [GEOMETRIC, ARITHMETIC] * 3):
            with mock.patch.object(_batch.BatchEvaluator, "loss_and_scores", counted):
                base, grads, ok = ev.gradient(kind, p_arr, 2.0, method, h=0.03, eval_alpha=4.0)
            assert calls == [min(block_rows, 11 * n - start) for start in range(0, 11 * n, block_rows)]
            calls.clear()
            expected = _per_parameter_gradient(ev, kind, p_arr, 2.0, method, 0.03)
            assert np.array_equal(grads, expected, equal_nan=True), kind.name
            assert np.array_equal(ok, np.isfinite(expected).all(axis=1))
            _assert_same_outputs(base, _base_scores(ev, kind, p_arr, 2.0, method, 4.0))
    assert not ok.all()


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("method", [GEOMETRIC, ARITHMETIC])
def test_gradient_weights_only_copy_0_at_eval_alpha(block_rows, method):
    # Only the curve reads the EC-IoU at eval_alpha, and only at the boxes:
    # of the stack of 11 copies, gradient weights copy 0's non-empty rings at
    # eval_alpha and no probe ring. The loss alpha differs, so the two kinds
    # of weighting can be told apart; 7-row blocks split copy 0 too.
    g_arr, p_arr = _spoiled_pairs(np.random.default_rng(18), 40)
    weigh = _batch.mean_weight
    weighted = []

    def recorded_weigh(x, y, counts, rho_c, alpha, method):
        if alpha == 4.0:
            weighted.extend((vx[:c], vy[:c]) for vx, vy, c in zip(x.tolist(), y.tolist(), counts.tolist()))
        return weigh(x, y, counts, rho_c, alpha, method)

    with mock.patch.object(_batch, "_BLOCK_ROWS", block_rows or _batch._BLOCK_ROWS):
        ev = _batch.BatchEvaluator(g_arr)
        clip = ev.clip(p_arr)
        copy_0 = [(vx[:c], vy[:c]) for vx, vy, c in zip(clip.x.tolist(), clip.y.tolist(), clip.counts.tolist())]
        assert 0 < len(copy_0) <= len(p_arr)
        for kind in ALL_KINDS:
            # The first call also weights the targets at eval_alpha, once per evaluator.
            ev.gradient(kind, p_arr, 1.0, method, h=0.03, eval_alpha=4.0)
            with mock.patch.object(_batch, "mean_weight", recorded_weigh):
                ev.gradient(kind, p_arr, 1.0, method, h=0.03, eval_alpha=4.0)
            assert weighted == copy_0, kind.name
            weighted.clear()


def test_clip_buffers_are_cut_to_the_longest_ring():
    rng = np.random.default_rng(12)
    for g_arr, p_arr in (_pair_arrays(rng, 200)[2:], _axis_aligned_pairs(rng, 200)):
        x, y, counts = _batch.clip_quads_xy(*_batch.corners(p_arr), *_batch.corners(g_arr))
        assert x.shape == y.shape == (len(p_arr), max(counts.max(), 8))
    assert counts.max() == 4  # the axis-aligned rings still get 8 columns
    empty = np.empty((0, 4))
    x, y, counts = _batch.clip_quads_xy(empty, empty, empty, empty)
    assert counts.shape == (0,) and x.shape[0] == y.shape[0] == 0


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _same_bits(a, b):
    """Equal bits, except that any nan matches any nan: numpy's max/min
    reductions return a positive nan where np.maximum/np.minimum pass on the
    nan they got (cos(inf) is a negative nan)."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(_bits(a)[~nan], _bits(b)[~nan])


def _clip_row(sx, sy, cx, cy):
    """clip_quads_xy's arithmetic on one row, in Python floats: the clipped
    ring as a list of (x, y)."""
    ring = list(zip(sx, sy))
    for stage in range(4):
        ex = cx[stage] - cx[stage - 1]
        ey = cy[stage] - cy[stage - 1]
        b = ex * cy[stage - 1] - ey * cx[stage - 1]
        cross = [(ex * y - ey * x) - b for x, y in ring]
        out = []
        for i, (x, y) in enumerate(ring):
            s_x, s_y = ring[i - 1]
            dx, dy = x - s_x, y - s_y
            denom = ex * dy - ey * dx
            if (cross[i] >= 0.0) != (cross[i - 1] >= 0.0) and denom != 0.0:
                t = -cross[i - 1] / denom
                out.append((s_x + t * dx, s_y + t * dy))
            if cross[i] >= 0.0:
                out.append((x, y))
        ring = out
    return ring


# A square turned 45 degrees on its own copy: the clip makes an octagon.
_OCTAGON = np.array([[10.0, 0.0, 2.0, 2.0, 0.0]]), np.array([[10.0, 0.0, 2.0, 2.0, np.pi / 4]])


def _clip_case(name):
    """(targets, predictions) of one named clip input."""
    rng = np.random.default_rng(14)
    if name == "rotated":
        return _pair_arrays(rng, 200)[2:]
    if name == "axis-aligned":
        return _axis_aligned_pairs(rng, 200)
    if name == "octagon":
        return _OCTAGON
    if name in ("collinear", "touching"):
        pairs = collinear_pairs() if name == "collinear" else touching_pairs()
        preds, targets = zip(*pairs)
        return _rows(targets), _rows(preds)
    return np.empty((0, 5)), np.empty((0, 5))


def _masked_clamped_ring_area(x, y, counts):
    """ring_area as it was before it relied on zero padding: padding terms
    masked out and the sum clamped at 0."""
    k = x.shape[1]
    valid = np.arange(k)[None, :] < counts[:, None]
    last = _batch._last_slots(counts, k)
    sx = _batch._prev_along_ring(x, last)
    sy = _batch._prev_along_ring(y, last)
    return np.maximum(0.5 * np.where(valid, sx * y - x * sy, 0.0).sum(axis=1), 0.0)


@pytest.mark.parametrize("case", ["rotated", "axis-aligned", "octagon", "collinear", "empty", "touching"])
def test_clip_equals_its_per_row_transcription_bit_for_bit(case):
    g_arr, p_arr = _clip_case(case)
    planes = _batch.corners(p_arr) + _batch.corners(g_arr)
    x, y, counts = _batch.clip_quads_xy(*planes)
    rings = [_clip_row(*(plane[i].tolist() for plane in planes)) for i in range(len(p_arr))]
    assert counts.tolist() == [len(ring) for ring in rings]
    want_x = np.zeros((len(rings), max([_batch._MIN_WIDTH] + counts.tolist())))
    want_y = np.zeros_like(want_x)
    for i, ring in enumerate(rings):
        want_x[i, : len(ring)] = [vx for vx, _ in ring]
        want_y[i, : len(ring)] = [vy for _, vy in ring]
    assert x.shape == y.shape == want_x.shape
    assert np.array_equal(_bits(x), _bits(want_x)) and np.array_equal(_bits(y), _bits(want_y))
    # The zero padding lets ring_area sum whole rows unmasked and unclamped:
    # the bits of the masked, clamped sum on every ring BatchEvaluator.clip
    # keeps (above AREA_EPS), and at most AREA_EPS on every ring it drops.
    area, old = _batch.ring_area(x, y, counts), _masked_clamped_ring_area(x, y, counts)
    kept = old > AREA_EPS
    assert np.array_equal(_bits(area[kept]), _bits(old[kept])) and (area[~kept] <= AREA_EPS).all()


def test_helpers_keep_the_bits_of_their_reduction_forms():
    # quad_area, the DIoU/EIoU regularizer terms and valid_boxes write short
    # row reductions out column by column; each must give the bits of the
    # reduction it replaced, also on -0.0 fields and on refused rows (which
    # overflow or go nan, hence the errstate; the kernel hands on a refused
    # row's target instead, see BatchEvaluator.clip).
    rng = np.random.default_rng(15)
    _, _, g_rot, p_rot = _pair_arrays(rng, 100)
    g_flat, p_flat = _axis_aligned_pairs(rng, 100)
    g_odd = np.array([[-0.0, 10.0, 4.0, 2.0, -0.0]] * 8)
    p_odd = np.array([
        [-0.0, 10.0, 4.0, 2.0, -0.0],
        [-0.0, 10.0, 0.0, 2.0, 0.0],  # zero length: corners at +0.0 and -0.0
        [-0.0, 10.0, 0.0, 2.0, -0.0],
        [-0.0, -0.0, 4.0, 2.0, 0.0],
        [math.nan, 10.0, 4.0, 2.0, 0.0],
        [0.0, 10.0, -1.0, 2.0, 0.0],
        [0.0, 10.0, 4.0, 2.0, math.inf],
        [1e160, 0.0, 4e155, 2e155, 0.0],
    ])
    g_arr = np.vstack([g_rot, g_flat, g_odd])
    p_arr = np.vstack([p_rot, p_flat, p_odd])
    ev = _batch.BatchEvaluator(g_arr)
    with np.errstate(all="ignore"):
        px, py = _batch.corners(p_arr)
        for x, y in ((px, py), (ev.gx, ev.gy)):
            nx, ny = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
            want = np.maximum(0.5 * (x * ny - nx * y).sum(axis=1), 0.0)
            assert _same_bits(_batch.quad_area(x, y), want)
        got = ev._enclosing(p_arr, px, py)
        want = (
            ((p_arr[:, :2] - g_arr[:, :2]) ** 2).sum(axis=1),
            np.maximum(px.max(axis=1), ev.gx.max(axis=1)) - np.minimum(px.min(axis=1), ev.gx.min(axis=1)),
            np.maximum(py.max(axis=1), ev.gy.max(axis=1)) - np.minimum(py.min(axis=1), ev.gy.min(axis=1)),
        )
        distance = np.hypot(p_arr[:, 0], p_arr[:, 1])
        floor = MIN_RELATIVE_SIDE * np.maximum(1.0, np.maximum(distance, p_arr[:, 2:4].max(axis=1)))
        reach = distance + 0.5 * np.hypot(p_arr[:, 2], p_arr[:, 3])
        valid = (
            np.isfinite(p_arr).all(axis=1) & (p_arr[:, 2] >= floor) & (p_arr[:, 3] >= floor)
            & (reach <= MAX_REACH)
        )
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    assert np.array_equal(_batch.valid_boxes(p_arr), valid)
    # Not vacuous: the odd rows are refused but for two, and some go nan.
    assert valid[-8:].tolist() == [True, False, False, True] + [False] * 4
    assert np.isnan(got[1]).any()


@pytest.mark.parametrize("method", [GEOMETRIC, ARITHMETIC])
def test_scores_do_not_depend_on_the_rest_of_the_batch(method):
    # Rectangle-on-rectangle rings have 4 vertices; a square turned 45 degrees
    # on its own copy makes an octagon. Every row must score the same bits
    # whether or not the batch also holds the octagon; the rows with a
    # negative width score nan in both.
    rng = np.random.default_rng(13)
    g_flat, p_flat = _axis_aligned_pairs(rng, 2000)
    g_oct, p_oct = _OCTAGON
    alone = _batch.BatchEvaluator(g_flat).scores(p_flat, 4.0, method)
    mixed = _batch.BatchEvaluator(np.vstack([g_flat, g_oct])).scores(np.vstack([p_flat, p_oct]), 4.0, method)
    for a, m in zip(alone, mixed):
        assert np.array_equal(a, m[: len(p_flat)], equal_nan=True)


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
    # scored on its own, and for the rows before any stop.
    targets, boxes, keep = batch
    iou, eval_ec = _batch.BatchEvaluator(targets).scores(boxes, eval_alpha)
    loss_ec = _batch.BatchEvaluator(targets).scores(boxes, loss_alpha, method)[1]
    for rows in (np.ones(len(boxes), bool), keep):
        ev = _batch.BatchEvaluator(targets[rows])
        for kind in ALL_KINDS:
            _, metric, clip = ev.loss_and_scores(kind, boxes[rows], loss_alpha, method)
            assert np.array_equal(clip.iou, iou[rows], equal_nan=True)
            assert np.array_equal(ev.ec_iou(clip, eval_alpha), eval_ec[rows], equal_nan=True)
            own = loss_ec[rows] if kind.ego_centric else clip.iou
            assert np.array_equal(metric, own, equal_nan=True)
            for stop in range(len(clip.iou) + 1):
                got = ev.ec_iou(clip, eval_alpha, stop=stop)
                assert np.array_equal(got, eval_ec[rows][:stop], equal_nan=True)


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


def _sides(distance):
    """(l, w), each of 0.5 to 4 m or of 1 to 4 times the size floor,
    MIN_RELATIVE_SIDE * max(1, distance, the longer side)."""
    side = st.floats(0.5, 4.0) | st.floats(1.001, 4.0).map(lambda k: k * MIN_RELATIVE_SIDE)
    return st.tuples(side, side).map(
        lambda sides: tuple(s if s >= 0.5 else s * max(1.0, distance, *sides) for s in sides))


@st.composite
def _pair_rows(draw, gaps=st.one_of(_NEAR_TOUCH, st.floats(-1.0, 2.0))):
    """(target, box) rows with centers reach * (1 + gap) apart, reach being
    the sum of the circumradii, from 0.3 to 3000 m out; sides are often at
    the size floor, and in half of the draws the boxes point a corner at
    each other, the closest they come at that distance."""
    rho = math.exp(draw(st.floats(math.log(0.3), math.log(3000.0))))
    phi = draw(st.floats(-math.pi, math.pi))
    gl, gw = draw(_sides(rho))
    # Centers lie at most 1.5 * (hypot(gl, gw) + hypot(l, w)) apart.
    l, w = draw(_sides(rho + 1.5 * math.hypot(gl, gw) + 9.0))
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
    x, y, counts = _batch.clip_quads_xy(*_batch.corners(boxes), *_batch.corners(targets))
    assert (_batch.ring_area(x, y, counts)[disjoint] <= AREA_EPS).all()


def _spoil(row, field, value):
    box = list(row[1])
    box[field] = value
    return row[0], tuple(box)


# Rows valid_boxes refuses, which the kernel scores nan without clipping: a
# nan parameter, an infinite heading or center, and sides the boxes refuse.
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


@pytest.mark.filterwarnings("error")
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
        clip = ev.clip(boxes)
        return (
            [(*ev.scores(boxes, alpha, method), clip.inter, clip.area_p)]
            + [_base_scores(ev, kind, boxes, alpha, method, 4.0) for kind in ALL_KINDS]
            + [(*base, grads, ok) for base, grads, ok in (
                ev.gradient(kind, boxes, alpha, method, h=0.03, eval_alpha=4.0) for kind in ALL_KINDS)]
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


# ---- agreement with the scalar path on generated pairs ----


def _assert_scores_match_scalar(pairs, scored_pairs, alpha, method):
    """Batch scores of scored_pairs against scalar scores of pairs, to 1e-9."""
    cfg = WeightConfig(alpha=alpha, method=method)
    preds, targets = zip(*scored_pairs)
    iou, ec = _batch.BatchEvaluator(_rows(targets)).scores(_rows(preds), alpha, method)
    for i, (p, g) in enumerate(pairs):
        assert iou[i] == pytest.approx(iou_bev(p, g).value, abs=1e-9)
        assert ec[i] == pytest.approx(ec_iou_bev(p, g, cfg).value, abs=1e-9)


@settings(deadline=None)
@given(
    pairs=st.lists(turned_pairs(), min_size=1, max_size=12),
    angle=st.floats(-math.pi, math.pi),
    alpha=st.floats(0.0, 8.0),
    method=st.sampled_from([GEOMETRIC, ARITHMETIC]),
)
def test_batch_scores_do_not_change_when_both_boxes_turn_about_the_ego(pairs, angle, alpha, method):
    turned = [(rotated_about_ego(p, angle), rotated_about_ego(g, angle)) for p, g in pairs]
    _assert_scores_match_scalar(pairs, turned, alpha, method)


@st.composite
def _nested_pairs(draw):
    """(prediction, target) with the prediction strictly inside the target.

    Any relative heading is drawn: strictly nested boxes share no edge line,
    so the clippers' collinear-vertex defect cannot arise.
    """
    rho, phi = draw(st.floats(8.0, 40.0)), draw(st.floats(-math.pi, math.pi))
    gl, gw = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
    theta, turn = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    l, w = draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0))
    c, s = abs(math.cos(turn)), abs(math.sin(turn))
    # Half-extents of the turned prediction along the target's axes, scaled
    # to a fraction of the target's.
    reach_l, reach_w = 0.5 * (l * c + w * s), 0.5 * (l * s + w * c)
    scale = draw(st.floats(0.05, 0.95)) * min(0.5 * gl / reach_l, 0.5 * gw / reach_w)
    u = draw(st.floats(-0.95, 0.95)) * (0.5 * gl - scale * reach_l)
    v = draw(st.floats(-0.95, 0.95)) * (0.5 * gw - scale * reach_w)
    g = OrientedBoxBEV(rho * math.cos(phi), rho * math.sin(phi), gl, gw, theta)
    # The prediction placed in the target's frame, then turned with it.
    offset = rotated_about_ego(OrientedBoxBEV(u, v, l * scale, w * scale, turn), theta)
    p = OrientedBoxBEV(g.x + offset.x, g.y + offset.y, offset.l, offset.w, offset.theta)
    return p, g


@settings(deadline=None)
@given(
    pairs=st.lists(_nested_pairs(), min_size=1, max_size=12),
    alpha=st.floats(0.0, 8.0),
    method=st.sampled_from([GEOMETRIC, ARITHMETIC]),
)
def test_nested_pairs_score_as_on_the_scalar_path(pairs, alpha, method):
    _assert_scores_match_scalar(pairs, pairs, alpha, method)


def _family_scores(pairs, alpha):
    """Batch and scalar (iou, ec_iou) arrays at alpha over (prediction, target) pairs."""
    preds, targets = zip(*pairs)
    batch = _batch.BatchEvaluator(_rows(targets)).scores(_rows(preds), alpha)
    cfg = WeightConfig(alpha=alpha)
    scalar = (
        np.array([iou_bev(p, g).value for p, g in pairs]),
        np.array([ec_iou_bev(p, g, cfg).value for p, g in pairs]),
    )
    return batch, scalar


def _collinear_scores():
    return _family_scores(collinear_pairs(), 4.0)


def test_boxes_sharing_edge_lines_score_iou_as_on_the_scalar_path():
    (iou, _), (scalar_iou, _) = _collinear_scores()
    assert np.abs(iou - scalar_iou).max() <= 1e-9


@pytest.mark.xfail(strict=True, reason="collinear-clipper FOUND: a spurious vertex moves the vertex mean")
def test_boxes_sharing_edge_lines_score_ec_iou_as_on_the_scalar_path():
    # 92 of the 252 pairs differ by more than 0.01, by up to 0.41.
    (_, ec), (_, scalar_ec) = _collinear_scores()
    assert np.abs(ec - scalar_ec).max() <= 1e-9


@pytest.mark.parametrize("alpha", [1.0, 8.0])
def test_boxes_touching_at_a_corner_score_iou_as_on_the_scalar_path(alpha):
    (iou, _), (scalar_iou, _) = _family_scores(touching_pairs(), alpha)
    assert np.abs(iou - scalar_iou).max() <= 1e-12


@pytest.mark.xfail(strict=True, reason="touching-corner FOUND: the batch clipper keeps a near-duplicate vertex")
@pytest.mark.parametrize("alpha", [1.0, 8.0])
def test_boxes_touching_at_a_corner_score_ec_iou_as_on_the_scalar_path(alpha):
    # 98 of the 200 rings keep a near-duplicate vertex; their EC-IoUs differ
    # by up to 0.0083 at alpha 1 and 0.10 at alpha 8.
    (_, ec), (_, scalar_ec) = _family_scores(touching_pairs(), alpha)
    assert np.abs(ec - scalar_ec).max() <= 1e-9


@pytest.mark.filterwarnings("error")
def test_invalid_boxes_flagged():
    # Every output row of a box valid_boxes refuses is nan, and the clip
    # never sees it; no arithmetic on it overflows or warns.
    g_arr = np.array([[10.0, 0.0, 4.0, 2.0, 0.0]] * 7)
    p_arr = np.array([
        [10.0, 0.0, 4.0, 2.0, 0.0],
        [10.0, 0.0, -1.0, 2.0, 0.0],
        [10.0, 0.0, 4.0, np.nan, 0.0],
        [10.0, 0.0, 4.0, 1e-9, 0.0],  # below the size floor
        [np.nan, 0.0, 4.0, 2.0, 0.0],
        [1e160, 0.0, 4e155, 2e155, 0.0],  # past the reach bound
        [10.0, 0.0, 4.0, 2.0, np.inf],
    ])
    refused = ~_batch.valid_boxes(p_arr)
    assert refused.tolist() == [False] + [True] * 6
    clipped_rows = []
    clip = _batch.clip_quads_xy

    def counted_clip(sx, *planes):
        clipped_rows.append(sx.shape[0])
        return clip(sx, *planes)

    ev = _batch.BatchEvaluator(g_arr)
    with mock.patch.object(_batch, "clip_quads_xy", counted_clip):
        outputs = list(ev.scores(p_arr, 4.0))
        for kind in ALL_KINDS:
            outputs += _base_scores(ev, kind, p_arr, 1.0, GEOMETRIC, 4.0)
    assert clipped_rows == [1] * (1 + len(ALL_KINDS))
    assert len(outputs) == 2 + 4 * len(ALL_KINDS)
    for out in outputs:
        assert np.isnan(out[refused]).all() and np.isfinite(out[~refused]).all()
    assert ev.loss_and_scores(ALL_KINDS[0], p_arr, 1.0)[0][0] == pytest.approx(0.0)


def test_only_non_empty_rings_are_weighted():
    # Every row mean_weight receives is a ring of 3 or more vertices that
    # measures non-empty; the empty rings of the clip are not weighted.
    rng = np.random.default_rng(11)
    _, _, g_arr, p_arr = _pair_arrays(rng, 400, shift=1.5)
    weighted, clipped = [], []
    weigh, clip = _batch.mean_weight, _batch.clip_quads_xy

    def recorded_weigh(x, y, counts, *args):
        weighted.append((x, y, counts))
        return weigh(x, y, counts, *args)

    def recorded_clip(*planes):
        clipped.append(clip(*planes))
        return clipped[-1]

    ev = _batch.BatchEvaluator(g_arr)
    with mock.patch.object(_batch, "mean_weight", recorded_weigh), \
            mock.patch.object(_batch, "clip_quads_xy", recorded_clip):
        for method in (GEOMETRIC, ARITHMETIC):
            ev.scores(p_arr, 2.0, method)
            for kind in ALL_KINDS:
                _base_scores(ev, kind, p_arr, 1.0, method, 4.0)
                ev.gradient(kind, p_arr, 1.0, method, h=0.03, eval_alpha=4.0)
    for x, y, counts in weighted:
        assert (counts >= 3).all() and (_batch.ring_area(x, y, counts) > AREA_EPS).all()
    # Not vacuous: the clips gave empty rings.
    assert sum(int((_batch.ring_area(*c) <= AREA_EPS).sum()) for c in clipped) > 0


def test_wrap_angle_matches_box_canonicalization():
    import math

    from eciou.geometry import OrientedBoxBEV

    vals = np.array([0.3, -0.3, math.pi, -math.pi, 3 * math.pi / 2, 2.9, -9.0])
    wrapped = _batch.wrap_angle(vals)
    for raw, got in zip(vals, wrapped):
        assert got == OrientedBoxBEV(0, 0, 1, 1, raw).theta
