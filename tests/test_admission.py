"""One admission rule for ground truths.

EC-IoU weights have no bound at the ego, so a ground truth the ego lies on
or inside has no weighted area. `weighting.weight_extremes` is the one
check for that, and every entry point that takes a ground truth refuses
the box through it: record files, scenario targets and sweeps.
"""

import math
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eciou.evaluate import GROUND_TRUTHS, RecordParseError, parse_records
from eciou.geometry import Box3D, OrientedBoxBEV, box_to_polygon
from eciou.metrics import ec_iou_3d, ec_iou_bev, iou_3d, iou_bev, sweep_curve
from eciou.simulate import ConfigError, ScenarioConfig
from eciou.weighting import (
    GEOMETRIC,
    METHODS,
    DegenerateDistanceError,
    WeightConfig,
    weight_extremes,
    weighted_area,
)


@st.composite
def _boxes_near_the_ego(draw):
    """Boxes within a few metres of the ego. Half of them are placed so the
    ego sits at a drawn point of the box's boundary, moved by a drawn offset
    along the outward normal: 0 puts it on a corner or an edge, a negative
    offset inside, a positive one outside."""
    l, w = draw(st.floats(0.1, 6.0)), draw(st.floats(0.1, 6.0))
    theta = draw(st.floats(-math.pi, math.pi))
    if draw(st.booleans()):
        x, y = draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))
    else:
        # Ego in box-local coordinates: on side +-l/2 or +-w/2, at t along it.
        along_l = draw(st.booleans())
        sign = draw(st.sampled_from([1.0, -1.0]))
        t = draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
        offset = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
        if along_l:
            lx, ly = sign * (0.5 * l + offset), t * 0.5 * w
        else:
            lx, ly = t * 0.5 * l, sign * (0.5 * w + offset)
        c, s = math.cos(theta), math.sin(theta)
        x, y = -(c * lx - s * ly), -(s * lx + c * ly)
    return OrientedBoxBEV(x, y, l, w, theta)


def _admitted(g: OrientedBoxBEV) -> bool:
    try:
        weight_extremes(g, 1.0)
    except DegenerateDistanceError:
        return False
    return True


def _refused(call, error) -> bool:
    try:
        call()
    except error:
        return True
    return False


def _parse_ground_truth(g: OrientedBoxBEV) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gts.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"f0 car {g.x!r} {g.y!r} 0 {g.l!r} {g.w!r} 1.5 {g.theta!r}\n")
        parse_records(path, GROUND_TRUTHS)


def _scenario_target(g: OrientedBoxBEV) -> None:
    ScenarioConfig.from_dict({
        "target_center": [g.x, g.y], "target_dims": [[g.l, g.w]], "target_thetas": [g.theta],
        "grid_points_per_axis": 1, "iterations": 1,
    })


@settings(deadline=None, max_examples=300)
@given(g=_boxes_near_the_ego())
def test_record_files_scenarios_and_sweeps_refuse_the_same_ground_truths(g):
    admitted = _admitted(g)
    assert _refused(lambda: _parse_ground_truth(g), RecordParseError) is not admitted
    assert _refused(lambda: _scenario_target(g), ConfigError) is not admitted
    assert _refused(lambda: sweep_curve(g, (g.x, g.x), 1.0, alphas=(1.0,)),
                    DegenerateDistanceError) is not admitted


@st.composite
def _admitted_pairs(draw):
    """(prediction, ground truth) as unit-free 3D boxes: an admitted ground
    truth near the ego and a prediction that overlaps it or lies near it."""
    g = draw(_boxes_near_the_ego())
    assume(_admitted(g))
    reach = math.hypot(g.l, g.w)
    p = Box3D(x=g.x + draw(st.floats(-reach, reach)), y=g.y + draw(st.floats(-reach, reach)),
              l=draw(st.floats(0.1, 6.0)), w=draw(st.floats(0.1, 6.0)),
              theta=draw(st.floats(-math.pi, math.pi)),
              z=draw(st.floats(-1.0, 1.0)), h=draw(st.floats(0.1, 3.0)))
    gt = Box3D(x=g.x, y=g.y, l=g.l, w=g.w, theta=g.theta,
               z=draw(st.floats(-1.0, 1.0)), h=draw(st.floats(0.1, 3.0)))
    return p, gt


def _bev(box):
    return OrientedBoxBEV(box.x, box.y, box.l, box.w, box.theta)


# The ego 1.0000000827e-9 from this ground truth in box-local coordinates,
# while box_to_polygon puts a corner 9.99999998e-10 from it, inside
# DEGENERATE_DISTANCE; the 2 * DEGENERATE_DISTANCE admission margin refuses it.
_KNIFE_EDGE = dict(x=0.15058434031134932, y=-0.6908866458783205, l=1.0, w=1.0, z=0.0, h=1.0)


@settings(deadline=None, max_examples=300)
@given(pair=_admitted_pairs(), alpha=st.floats(0.0, 8.0), method=st.sampled_from(METHODS))
@example(pair=(Box3D(theta=0.0, **_KNIFE_EDGE), Box3D(theta=1.0, **_KNIFE_EDGE)),
         alpha=1.0, method=GEOMETRIC)
def test_every_metric_of_an_admitted_ground_truth_is_a_score(pair, alpha, method):
    p, g = pair
    assume(_admitted(g))  # explicit examples bypass the strategy's filter
    cfg = WeightConfig(alpha=alpha, method=method, mc_samples=64)
    # The disjoint-pair shortcut in evaluate relies on this being finite.
    assert math.isfinite(weighted_area(g, box_to_polygon(g), cfg))
    for score in (iou_bev(_bev(p), _bev(g)), ec_iou_bev(_bev(p), _bev(g), cfg),
                  iou_3d(p, g), ec_iou_3d(p, g, cfg)):
        assert 0.0 <= score.value <= 1.0


@settings(deadline=None, max_examples=300)
@given(p=_boxes_near_the_ego(), g=_boxes_near_the_ego())
def test_iou_bev_is_symmetric(p, g):
    assert iou_bev(p, g).value == pytest.approx(iou_bev(g, p).value, abs=1e-9)
