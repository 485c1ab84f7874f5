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

from eciou.evaluate import GROUND_TRUTHS, PREDICTIONS, RecordParseError, parse_records
from eciou.geometry import MAX_REACH, MIN_RELATIVE_SIDE, Box3D, OrientedBoxBEV, box_to_polygon
from eciou.metrics import ec_iou_3d, ec_iou_bev, iou_3d, iou_bev, sweep_curve
from eciou.simulate import ConfigError, ScenarioConfig
from eciou.weighting import (
    DEGENERATE_DISTANCE,
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


# ---- record files: bulk admission against the scalar checks ----


def _near(draw, value: float) -> float:
    """value, moved by a drawn relative offset, within or past the admission
    slack of evaluate._admit, and then by a few ulps either way."""
    value *= 1.0 + draw(st.sampled_from([0.0, 1e-14, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11, 1e-9, 1e-6])
                        ) * draw(st.sampled_from([1.0, -1.0]))
    for _ in range(draw(st.integers(0, 3))):
        value = math.nextafter(value, draw(st.sampled_from([math.inf, -math.inf])))
    return value


@st.composite
def _record_fields(draw):
    """A record line's x, y, z, l, w, h, theta, drawn away from every bound
    or at and around one of them: the reach (1e100), the footprint and height
    floors, the ego clearance (2e-9) and the center's (1e-9), a non-finite
    field, theta at and beyond +-pi, and -0.0."""
    x, y = draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0))
    z, h = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 3.0))
    l, w = draw(st.floats(0.1, 6.0)), draw(st.floats(0.1, 6.0))
    theta = draw(st.floats(-math.pi, math.pi, exclude_max=True))
    bound = draw(st.sampled_from(["none", "reach", "height-reach", "footprint", "height", "ego",
                                  "center", "non-finite", "theta", "zero"]))
    if bound == "reach":
        scale = _near(draw, MAX_REACH / (math.hypot(x, y) + 0.5 * math.hypot(l, w)))
        x, y, l, w = x * scale, y * scale, l * scale, w * scale
    elif bound == "height-reach":
        ratio = draw(st.floats(MIN_RELATIVE_SIDE, 1.0))
        z = draw(st.sampled_from([1.0, -1.0])) * _near(draw, MAX_REACH / (1.0 + 0.5 * ratio))
        h = ratio * abs(z)
    elif bound == "footprint":
        l = _near(draw, MIN_RELATIVE_SIDE * max(1.0, math.hypot(x, y), w) * draw(st.sampled_from([1.0, 1e-3])))
        if draw(st.booleans()):
            l, w = w, l
    elif bound == "height":
        z = draw(st.sampled_from([0.0, 0.5, -2.0, 1e6]))
        h = _near(draw, MIN_RELATIVE_SIDE * max(1.0, abs(z)))
    elif bound == "ego":
        # The ego at a drawn point of a side, moved out along its normal.
        along_l, sign = draw(st.booleans()), draw(st.sampled_from([1.0, -1.0]))
        t = draw(st.sampled_from([-1.0, 1.0, 0.3]))
        offset = _near(draw, draw(st.sampled_from([2.0 * DEGENERATE_DISTANCE, DEGENERATE_DISTANCE, 1e-6])))
        if along_l:
            lx, ly = sign * (0.5 * l + offset), t * 0.5 * w
        else:
            lx, ly = t * 0.5 * l, sign * (0.5 * w + offset)
        c, s = math.cos(theta), math.sin(theta)
        x, y = -(c * lx - s * ly), -(s * lx + c * ly)
    elif bound == "center":
        phi = draw(st.floats(-math.pi, math.pi))
        rho = _near(draw, draw(st.sampled_from([DEGENERATE_DISTANCE, 2.0 * DEGENERATE_DISTANCE])))
        x, y, l, w = rho * math.cos(phi), rho * math.sin(phi), MIN_RELATIVE_SIDE, MIN_RELATIVE_SIDE
    elif bound == "non-finite":
        fields = [x, y, z, l, w, h, theta]
        fields[draw(st.integers(0, 6))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        x, y, z, l, w, h, theta = fields
    elif bound == "theta":
        theta = draw(st.sampled_from([math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 2.0 * math.pi, 1e6, -7.5]))
        theta = _near(draw, theta)
    elif bound == "zero":
        x, y, z, theta = (draw(st.sampled_from([v, -0.0])) for v in (x, y, z, theta))
    return x, y, z, l, w, h, theta


def _scalar_admission(rows, ground_truths: bool, path: str):
    """(boxes, None) if Box3D(...), and weight_extremes(box, 1.0) for ground
    truths, accept every row, else (None, the first refusal's message)."""
    boxes = []
    for line_number, (x, y, z, l, w, h, theta) in enumerate(rows, start=1):
        try:
            box = Box3D(x=x, y=y, l=l, w=w, theta=theta, z=z, h=h)
            if ground_truths:
                weight_extremes(box, 1.0)
        except ValueError as exc:
            return None, f"{path}:{line_number}: {exc}"
        boxes.append(box)
    return boxes, None


def _bits(box) -> tuple[str, ...]:
    return tuple(v.hex() for v in (box.x, box.y, box.z, box.l, box.w, box.h, box.theta))


_FIELDS = (10.0, 0.0, 0.75, 4.0, 2.0, 1.5, 0.0)


def _with(**fields) -> tuple[float, ...]:
    names = ("x", "y", "z", "l", "w", "h", "theta")
    return tuple(fields.get(name, value) for name, value in zip(names, _FIELDS))


@settings(deadline=None, max_examples=600)
@given(rows=st.lists(_record_fields(), min_size=1, max_size=6), kind=st.sampled_from([PREDICTIONS, GROUND_TRUTHS]))
# Each bound itself, every run: theta at +-pi, the ego exactly 2e-9 from an
# edge, the footprint and height floors, the reach, and -0.0 fields.
@example(rows=[_with(theta=math.pi), _with(theta=-math.pi), _with(theta=-3.0 * math.pi)], kind=PREDICTIONS)
@example(rows=[_with(x=2.0 + 2.0 * DEGENERATE_DISTANCE), _with(x=2.0 + DEGENERATE_DISTANCE)], kind=GROUND_TRUTHS)
@example(rows=[_with(w=10.0 * MIN_RELATIVE_SIDE), _with(l=10.0 * MIN_RELATIVE_SIDE)], kind=PREDICTIONS)
@example(rows=[_with(z=1e6, h=2.0), _with(z=-1e6, h=math.nextafter(2.0, 0.0))], kind=GROUND_TRUTHS)
@example(rows=[_with(x=0.5 * MAX_REACH, l=0.8 * MAX_REACH, w=0.6 * MAX_REACH)], kind=PREDICTIONS)
@example(rows=[_with(z=0.5 * MAX_REACH, h=MAX_REACH)], kind=PREDICTIONS)
@example(rows=[_with(y=-0.0, z=-0.0, theta=-0.0)], kind=GROUND_TRUTHS)
def test_record_files_admit_the_boxes_that_box3d_admits(rows, kind):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for fields in rows:
                score = " 0.5" if kind == PREDICTIONS else ""
                fh.write(" ".join(["f0", "car"] + [repr(v) for v in fields]) + score + "\n")
        boxes, message = _scalar_admission(rows, kind == GROUND_TRUTHS, path)
        if message is None:
            assert [_bits(r.box) for r in parse_records(path, kind)] == [_bits(b) for b in boxes]
        else:
            with pytest.raises(RecordParseError) as err:
                parse_records(path, kind)
            assert str(err.value) == message
