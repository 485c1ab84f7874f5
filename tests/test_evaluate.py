import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import collinear_pairs, touching_pairs, turned_pairs
from eciou import evaluate
from eciou.evaluate import (
    DEFAULT_THRESHOLDS,
    DEFAULT_TP_DISTANCE,
    EC_IOU_AFFINITY,
    GROUND_TRUTHS,
    IOU_AFFINITY,
    MODE_3D,
    MODE_BEV,
    PREDICTIONS,
    DetectionRecord,
    MatchResult,
    RecordParseError,
    UndefinedAPError,
    _mean_or_none,
    _pair_bounds,
    _params,
    average_precision_40,
    evaluate_detections,
    match_greedy,
    parse_records,
    tp_metric_means,
)
from eciou.geometry import DISJOINT_MARGIN, Box3D, OrientedBoxBEV, circumcircles_disjoint
from eciou.metrics import ec_iou_3d, ec_iou_bev, iou_3d, iou_bev
from eciou.weighting import (
    ARITHMETIC, GEOMETRIC, METHODS, MONTE_CARLO, DegenerateDistanceError, WeightConfig, weight_extremes,
)

CFG = WeightConfig(alpha=1)


def _box(x, y, z=0.9, l=4.0, w=2.0, h=1.6, theta=0.0):
    return Box3D(x=x, y=y, l=l, w=w, theta=theta, z=z, h=h)


def _pred(x, y, score, frame="f0", label="car", **kw):
    return DetectionRecord(frame, label, _box(x, y, **kw), score)


def _gt(x, y, frame="f0", label="car", **kw):
    return DetectionRecord(frame, label, _box(x, y, **kw))


# ---- parsing ----


def test_parse_records_round_trip(tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text(
        "# predictions\n"
        "f0 car 10.0 0.0 0.9 4.0 2.0 1.6 0.0 0.95\n"
        "\n"
        "f1 pedestrian 5.0 1.0 0.8 0.8 0.6 1.7 0.3 0.40  # trailing comment\n"
    )
    records = parse_records(str(path), PREDICTIONS)
    assert len(records) == 2
    first = records[0]
    assert first.frame_id == "f0"
    assert first.class_label == "car"
    assert first.box.x == 10.0 and first.box.z == 0.9 and first.box.h == 1.6
    assert first.score == 0.95
    assert records[1].frame_id == "f1"


def test_parse_records_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert len(parse_records(str(path), GROUND_TRUTHS)) == 0


def test_parse_records_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("f0 car 10 0 0.9 4 2 1.6 0\nf0 car 10 0 0.9 4 2 1.6\n")
    with pytest.raises(RecordParseError) as err:
        parse_records(str(path), GROUND_TRUTHS)
    assert err.value.line_number == 2
    path.write_text("f0 car 10 0 0.9 4 2 1.6 0.0 1.5\n")
    with pytest.raises(RecordParseError) as err:
        parse_records(str(path), PREDICTIONS)
    assert "score" in str(err.value)
    path.write_text("f0 car 10 0 0.9 -4 2 1.6 0.0 0.5\n")
    with pytest.raises(RecordParseError):
        parse_records(str(path), PREDICTIONS)
    path.write_text("f0 car ten 0 0.9 4 2 1.6 0.0 0.5\n")
    with pytest.raises(RecordParseError):
        parse_records(str(path), PREDICTIONS)
    # A corner on the ego leaves the ground truth's weighted area undefined.
    path.write_text("f0 car 10 0 0.9 4 2 1.6 0\nf0 car 1 1 0 2 2 1.5 0\n")
    with pytest.raises(RecordParseError, match="corner") as err:
        parse_records(str(path), GROUND_TRUTHS)
    assert err.value.line_number == 2


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("lines_before", [2, 400])
def test_parse_records_names_the_line_of_bytes_that_are_not_utf8(tmp_path, newline, lines_before):
    # 400 lines put the bad byte past the reader's first 8 KB decoding chunk.
    path = tmp_path / "preds.txt"
    good = b"f0 car 10 0 0.9 4 2 1.6 0 0.9" + newline
    path.write_bytes(good * lines_before)
    assert len(parse_records(str(path), PREDICTIONS)) == lines_before
    path.write_bytes(good * lines_before + b"f0 car 1 2 0 4 2 1.5 0 0.9\xff" + newline + good)
    with pytest.raises(RecordParseError, match="not UTF-8: byte 0xff") as err:
        parse_records(str(path), PREDICTIONS)
    assert err.value.line_number == lines_before + 1
    assert f":{lines_before + 1}: " in str(err.value)


def test_parse_records_reads_utf8_labels(tmp_path):
    path = tmp_path / "gts.txt"
    path.write_bytes("f0 caf\u00e9 10 0 0.9 4 2 1.6 0\n".encode("utf-8"))
    assert parse_records(str(path), GROUND_TRUTHS)[0].class_label == "caf\u00e9"


def test_parse_records_gts_reject_score_column(tmp_path):
    path = tmp_path / "gts.txt"
    path.write_text("f0 car 10 0 0.9 4 2 1.6 0.0 0.5\n")
    with pytest.raises(RecordParseError):
        parse_records(str(path), GROUND_TRUTHS)


def _record_file(path, frames, per_frame):
    """A prediction file of frames x 2 classes x per_frame distinct boxes."""
    rng = np.random.default_rng(3)
    with open(path, "w") as fh:
        for f in range(frames):
            for label in ("car", "pedestrian"):
                for _ in range(per_frame):
                    x, y, theta, score = rng.uniform(5, 50), rng.uniform(-15, 15), rng.uniform(-3, 3), rng.random()
                    fh.write(f"{f:06d} {label} {x:.6f} {y:.6f} 0.8 4.1 1.8 1.6 {theta:.6f} {score:.6f}\n")
    return str(path)


def test_parse_records_shares_frame_ids_and_labels(tmp_path):
    # One object per distinct value: as many ids as values.
    records = parse_records(_record_file(tmp_path / "preds.txt", 3, 4), PREDICTIONS)
    assert len({id(r.frame_id) for r in records}) == len({r.frame_id for r in records}) == 3
    assert len({id(r.class_label) for r in records}) == len({r.class_label for r in records}) == 2


def test_record_table_is_a_sequence_of_its_records(tmp_path):
    # 1,200 rows: iteration builds its records in chunks of 1,024.
    records = parse_records(_record_file(tmp_path / "preds.txt", 50, 12), PREDICTIONS)
    one_by_one = [records[i] for i in range(len(records))]
    assert list(records) == one_by_one
    assert records[-1] == one_by_one[-1] and records[1020:1030] == one_by_one[1020:1030]
    assert records.of_class("car") == [r for r in one_by_one if r.class_label == "car"]
    with pytest.raises(IndexError):
        records[len(records)]


def test_parse_records_heap_per_record(tmp_path):
    # About 84 B a scored record on CPython 3.11: eight float64 columns and
    # two string pointers a row, plus the columns' growth slack, and no
    # string of its own. A slotted record and box a line took about 353 B.
    path = _record_file(tmp_path / "preds.txt", 50, 12)
    parse_records(path, PREDICTIONS)  # lazy imports and caches, untraced
    tracemalloc.start()
    try:
        records = parse_records(path, PREDICTIONS)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 1200
    assert held / len(records) <= 100


_GT_LINE = "f0 car 10 0 0.9 4 2 1.6 0"
# The ego on the box's edge at x = 0.
_GT_ON_THE_EGO = "f0 car 1 0 0.75 2 2 1.5 0"
_ON_THE_EGO = "ego origin lies on a corner or an edge of the ground truth, or inside it"


@pytest.mark.parametrize(
    "kind, lines, message",
    [
        (GROUND_TRUTHS, [_GT_LINE, _GT_ON_THE_EGO, _GT_LINE, _GT_LINE[:-2]], _ON_THE_EGO),
        (GROUND_TRUTHS, [_GT_LINE, _GT_LINE[:-2], _GT_LINE, _GT_ON_THE_EGO],
         "expected 9 fields for ground-truths, got 8"),
        (PREDICTIONS, [_GT_LINE + " 0.5", "f0 car 10 0 0.9 -4 2 1.6 0 1.5"], "score 1.5 outside [0, 1]"),
    ],
    ids=["box-then-fields", "fields-then-box", "score-and-box"],
)
def test_parse_records_raises_the_first_lines_error(tmp_path, kind, lines, message):
    # Boxes are checked after the lines are read; the first error still wins.
    path = tmp_path / "records.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordParseError) as err:
        parse_records(str(path), kind)
    assert str(err.value) == f"{path}:2: {message}"


# ---- greedy matching ----


def test_match_exact_prediction():
    result = match_greedy([_pred(10, 0, 0.9)], [_gt(10, 0)], IOU_AFFINITY, 0.5, CFG)
    assert len(result.matches) == 1
    assert not result.false_positives and not result.false_negatives


def test_match_below_threshold():
    result = match_greedy([_pred(14, 0, 0.9)], [_gt(10, 0)], IOU_AFFINITY, 0.5, CFG)
    assert not result.matches
    assert len(result.false_positives) == 1
    assert len(result.false_negatives) == 1


def test_match_higher_score_wins_contested_gt():
    strong = _pred(10.2, 0, 0.9)
    weak = _pred(10.4, 0, 0.6)
    result = match_greedy([weak, strong], [_gt(10, 0)], IOU_AFFINITY, 0.3, CFG)
    assert len(result.matches) == 1
    assert result.matches[0][0] is strong
    assert result.false_positives == (weak,)


def test_match_bev_mode_ignores_height():
    pred = _pred(10, 0, 0.9, z=5.0)  # same footprint, vertically disjoint
    gt = _gt(10, 0, z=0.9)
    assert not match_greedy([pred], [gt], IOU_AFFINITY, 0.5, CFG).matches
    bev = match_greedy([pred], [gt], IOU_AFFINITY, 0.5, CFG, mode=MODE_BEV)
    assert len(bev.matches) == 1
    assert bev.matches[0][2] == pytest.approx(1.0)


# ---- disjoint-pair shortcut ----


def _record(x, y, z, l, w, h, theta, score=None):
    return DetectionRecord("f0", "car", Box3D(x=x, y=y, l=l, w=w, theta=theta, z=z, h=h), score)


@st.composite
def _gt_records(draw):
    """A ground truth whose circumcircle stays clear of the ego."""
    l, w = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
    rho = 0.5 * math.hypot(l, w) + draw(st.floats(0.5, 1000.0))
    phi = draw(st.floats(-math.pi, math.pi))
    return _record(rho * math.cos(phi), rho * math.sin(phi), draw(st.floats(-3.0, 3.0)),
                   l, w, draw(st.floats(0.1, 5.0)), draw(st.floats(-math.pi, math.pi)))


def _aimed(draw, l, w, direction):
    """A heading that puts one of the box's corners on the ray at direction."""
    return direction + draw(st.sampled_from([1.0, -1.0])) * math.atan2(w, l) + draw(
        st.sampled_from([0.0, math.pi]))


# Center distances a few DISJOINT_MARGINs either side of the circumradius sum.
_NEAR_TOUCH = st.floats(-4.0, 4.0).map(lambda u: u * DISJOINT_MARGIN)


@st.composite
def _pairs(draw, gaps):
    """(pred, gt) with centers reach * (1 + gap) apart, reach being the sum of
    their circumradii; in half of the draws the two boxes point a corner at
    each other, the closest they come at that distance."""
    gt = draw(_gt_records())
    g = gt.box
    l, w = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
    reach = 0.5 * (math.hypot(l, w) + math.hypot(g.l, g.w))
    dist = reach * (1.0 + draw(gaps))
    d = draw(st.floats(-math.pi, math.pi))
    if draw(st.booleans()):
        theta = _aimed(draw, l, w, d + math.pi)
        gt = _record(g.x, g.y, g.z, g.l, g.w, g.h, _aimed(draw, g.l, g.w, d))
    else:
        theta = draw(st.floats(-math.pi, math.pi))
    pred = _record(g.x + dist * math.cos(d), g.y + dist * math.sin(d), draw(st.floats(-3.0, 3.0)),
                   l, w, draw(st.floats(0.1, 5.0)), theta, 0.5)
    return pred, gt


_CFGS = st.builds(
    WeightConfig,
    alpha=st.floats(0.0, 8.0),
    method=st.sampled_from([GEOMETRIC, ARITHMETIC, MONTE_CARLO]),
    mc_samples=st.just(64),
)


def _metric(affinity, mode, cfg):
    """The metric match_greedy scores with, called directly."""
    if mode == MODE_BEV:
        return iou_bev if affinity == IOU_AFFINITY else lambda p, g: ec_iou_bev(p, g, cfg)
    return iou_3d if affinity == IOU_AFFINITY else lambda p, g: ec_iou_3d(p, g, cfg)


@settings(deadline=None, max_examples=300)
@given(pair=_pairs(st.one_of(_NEAR_TOUCH, st.floats(0.0, 2.0))), cfg=_CFGS)
def test_every_metric_is_exactly_zero_on_disjoint_circumcircles(pair, cfg):
    pred, gt = pair
    assume(circumcircles_disjoint(pred.box, gt.box))
    for affinity, mode in itertools.product((IOU_AFFINITY, EC_IOU_AFFINITY), (MODE_3D, MODE_BEV)):
        assert _metric(affinity, mode, cfg)(pred.box, gt.box).value.hex() == (0.0).hex()


@settings(deadline=None)
@given(pair=_pairs(st.one_of(_NEAR_TOUCH, st.floats(-1.0, 1.0))), cfg=_CFGS)
def test_affinity_equals_the_direct_metric_bit_for_bit(pair, cfg):
    pred, gt = pair
    for affinity, mode in itertools.product((IOU_AFFINITY, EC_IOU_AFFINITY), (MODE_3D, MODE_BEV)):
        direct = _metric(affinity, mode, cfg)(pred.box, gt.box).value
        # At threshold 0 the one pair always matches, carrying its affinity.
        (match,) = match_greedy([pred], [gt], affinity, 0.0, cfg, mode).matches
        assert match[2].hex() == direct.hex()


@pytest.mark.parametrize("mode", [MODE_3D, MODE_BEV])
@pytest.mark.parametrize("affinity", [IOU_AFFINITY, EC_IOU_AFFINITY])
def test_threshold_zero_still_matches_a_disjoint_pair(affinity, mode):
    pred, gt = _pred(30, 0, 0.9), _gt(10, 0)
    assert circumcircles_disjoint(pred.box, gt.box)
    result = match_greedy([pred], [gt], affinity, 0.0, CFG, mode)
    assert result.matches == ((pred, gt, 0.0),)
    assert not result.false_positives and not result.false_negatives


def _brute_force_best_matching(preds, gts, affinity, threshold, cfg):
    """Maximum-cardinality one-to-one matching; oracle for the greedy path."""
    best = 0
    indices = range(len(gts))
    for k in range(min(len(preds), len(gts)), 0, -1):
        for pred_subset in itertools.combinations(range(len(preds)), k):
            for gt_perm in itertools.permutations(indices, k):
                ok = True
                for pi, gi in zip(pred_subset, gt_perm):
                    a = (iou_3d if affinity == IOU_AFFINITY else
                         lambda p, g: ec_iou_3d(p, g, cfg))(preds[pi].box, gts[gi].box)
                    if a.value < threshold:
                        ok = False
                        break
                if ok:
                    return k
        if best:
            break
    return best


def test_greedy_close_to_optimal_assignment():
    rng = np.random.default_rng(31)
    mismatches = 0
    trials = 300
    for _ in range(trials):
        n_gt = rng.integers(1, 4)
        n_pred = rng.integers(1, 4)
        gts = [_gt(rng.uniform(5, 25), rng.uniform(-8, 8)) for _ in range(n_gt)]
        preds = []
        for i in range(n_pred):
            base = gts[rng.integers(0, n_gt)]
            preds.append(
                _pred(
                    base.box.x + rng.uniform(-1.5, 1.5),
                    base.box.y + rng.uniform(-1.0, 1.0),
                    float(rng.uniform(0.1, 1.0)),
                )
            )
        result = match_greedy(preds, gts, IOU_AFFINITY, 0.3, CFG)
        optimal = _brute_force_best_matching(preds, gts, IOU_AFFINITY, 0.3, CFG)
        assert len(result.matches) <= optimal
        if len(result.matches) != optimal:
            mismatches += 1
    assert mismatches / trials <= 0.05


def test_match_one_to_one_property():
    rng = np.random.default_rng(37)
    for _ in range(50):
        gts = [_gt(rng.uniform(5, 20), rng.uniform(-5, 5)) for _ in range(rng.integers(1, 5))]
        preds = [
            _pred(rng.uniform(5, 20), rng.uniform(-5, 5), float(rng.uniform(0, 1)))
            for _ in range(rng.integers(1, 6))
        ]
        result = match_greedy(preds, gts, IOU_AFFINITY, 0.1, CFG)
        matched_preds = [id(m[0]) for m in result.matches]
        matched_gts = [id(m[1]) for m in result.matches]
        assert len(set(matched_preds)) == len(matched_preds)
        assert len(set(matched_gts)) == len(matched_gts)
        assert len(result.matches) + len(result.false_negatives) == len(gts)
        assert len(result.matches) + len(result.false_positives) == len(preds)


def test_match_tp_count_monotone_in_threshold():
    rng = np.random.default_rng(41)
    for _ in range(30):
        gts = [_gt(rng.uniform(5, 20), rng.uniform(-5, 5)) for _ in range(3)]
        preds = [
            _pred(g.box.x + rng.uniform(-1, 1), g.box.y + rng.uniform(-0.5, 0.5), float(rng.uniform(0, 1)))
            for g in gts
        ]
        counts = []
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            counts.append(len(match_greedy(preds, gts, IOU_AFFINITY, threshold, CFG).matches))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


# ---- AP40 ----


def _brute_force_ap40(scored, n_gt):
    """Direct PR-curve enumeration over score-ranked predictions."""
    order = sorted(range(len(scored)), key=lambda i: -scored[i][0])
    tp = 0
    points = []
    for rank, i in enumerate(order, start=1):
        tp += int(scored[i][1])
        points.append((tp / n_gt, tp / rank))
    total = 0.0
    for i in range(1, 41):
        r = i / 40
        total += max((p for rec, p in points if rec >= r - 1e-12), default=0.0)
    return total / 40


def test_ap40_perfect_detection():
    results = [
        MatchResult(((_pred(10, 0, 0.9), _gt(10, 0), 1.0),), (), ()),
        MatchResult(((_pred(12, 0, 0.8), _gt(12, 0, frame="f1"), 1.0),), (), ()),
    ]
    assert average_precision_40(results) == pytest.approx(1.0)


def test_ap40_no_predictions():
    results = [MatchResult((), (), (_gt(10, 0),))]
    assert average_precision_40(results) == 0.0


def test_ap40_reference_fixture():
    # 2 ground truths; ranked predictions TP(0.9), FP(0.8), TP(0.7).
    results = [
        MatchResult(
            ((_pred(10, 0, 0.9), _gt(10, 0), 1.0), (_pred(20, 0, 0.7), _gt(20, 0), 1.0)),
            (_pred(40, 0, 0.8),),
            (),
        )
    ]
    expected = _brute_force_ap40([(0.9, True), (0.8, False), (0.7, True)], 2)
    assert expected == pytest.approx(5.0 / 6.0)
    assert average_precision_40(results) == pytest.approx(expected, abs=1e-9)


def test_ap40_undefined_without_ground_truth():
    with pytest.raises(UndefinedAPError):
        average_precision_40([MatchResult((), (_pred(10, 0, 0.5),), ())])


def _ap40_against_brute_force(scored, n_gt, frames=1):
    """(AP40, brute-force AP40) of predictions scored as (score, is_tp) pairs
    and cut into `frames` consecutive frame results; the first n_gt true
    positives are matched, and the last frame holds the missed ground truths."""
    kept, n_tp = [], 0
    for s, is_tp in scored:
        if is_tp and n_tp == n_gt:
            continue
        n_tp += is_tp
        kept.append((s, is_tp))
    results, ranked = [], []
    parts = np.array_split(np.arange(len(kept)), frames)
    for k, part in enumerate(parts):
        tps = [kept[i][0] for i in part if kept[i][1]]
        fps = [kept[i][0] for i in part if not kept[i][1]]
        matches = tuple((_pred(10, 0, s), _gt(10, 0), 1.0) for s in tps)
        fns = tuple(_gt(30, 0) for _ in range(n_gt - n_tp)) if k == len(parts) - 1 else ()
        results.append(MatchResult(matches, tuple(_pred(50, 0, s) for s in fps), fns))
        # Ties keep input order on both sides: frame by frame, and within a
        # frame its matches first, then its false positives.
        ranked += [(s, True) for s in tps] + [(s, False) for s in fps]
    return average_precision_40(results), _brute_force_ap40(ranked, n_gt)


def test_ap40_matches_brute_force_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n_gt = int(rng.integers(1, 6))
        scored = [(float(rng.random()), bool(rng.random() < 0.6)) for _ in range(rng.integers(1, 8))]
        while sum(t for _, t in scored) > n_gt:
            scored = scored[:-1] or [(0.5, False)]
        got, expected = _ap40_against_brute_force(scored, n_gt)
        assert got == expected


@pytest.mark.parametrize(
    "family", ["recall-on-the-points", "tied-scores", "tied-across-frames", "no-true-positives"]
)
def test_ap40_matches_brute_force_bit_for_bit(family):
    # n_gt a multiple of 40 puts recalls exactly on the recall points; tied
    # scores rank in input order, also when spread over several frame
    # results; without true positives AP40 is 0.
    rng = np.random.default_rng(47)
    for _ in range(50):
        n_gt = int(rng.choice([40, 80, 120])) if family == "recall-on-the-points" else int(rng.integers(1, 8))
        n = int(rng.integers(1, 2 * n_gt + 10))
        if family in ("tied-scores", "tied-across-frames"):
            scores = rng.choice([0.25, 0.5, 0.75], size=n)
        else:
            scores = rng.random(n)
        p_tp = 0.0 if family == "no-true-positives" else 0.7
        scored = [(float(s), bool(rng.random() < p_tp)) for s in scores]
        frames = int(rng.integers(2, 6)) if family == "tied-across-frames" else 1
        got, expected = _ap40_against_brute_force(scored, n_gt, frames)
        assert got == expected
        if family == "no-true-positives":
            assert got == 0.0
    if family == "recall-on-the-points":
        perfect = [(1.0 - i / 100, True) for i in range(40)]
        assert _ap40_against_brute_force(perfect, 40) == (1.0, 1.0)


# ---- TP metric means ----


def test_tp_means_exact_prediction():
    means = tp_metric_means([_pred(10, 0, 0.9)], [_gt(10, 0)], 2.0, CFG)
    assert means.matched == 1
    assert means.mean_iou == pytest.approx(1.0)
    assert means.mean_ec_iou == pytest.approx(1.0)


def test_tp_means_nothing_in_range():
    means = tp_metric_means([_pred(50, 0, 0.9)], [_gt(10, 0)], 2.0, CFG)
    assert means.matched == 0
    assert means.mean_iou is None and means.mean_ec_iou is None


def test_tp_means_match_single_pair_metrics():
    pred = _pred(10.6, 0.2, 0.9)
    gt = _gt(10, 0)
    means = tp_metric_means([pred], [gt], 2.0, CFG)
    assert means.mean_iou == pytest.approx(iou_3d(pred.box, gt.box).value, abs=1e-12)
    assert means.mean_ec_iou == pytest.approx(ec_iou_3d(pred.box, gt.box, CFG).value, abs=1e-12)


def test_tp_means_equal_direct_metric_calls_with_a_disjoint_pair():
    # The pedestrians' centers are 1.5 m apart: a true positive by center
    # distance whose footprints are disjoint.
    preds = [_pred(10.6, 0.2, 0.9), _pred(21.5, 5, 0.8, l=0.8, w=0.6, h=1.7)]
    gts = [_gt(10, 0), _gt(20, 5, l=0.8, w=0.6, h=1.7)]
    assert circumcircles_disjoint(preds[1].box, gts[1].box)
    means = tp_metric_means(preds, gts, 2.0, CFG)
    assert means.matched == 2
    boxes = [(p.box, g.box) for p, g in zip(preds, gts)]
    assert means.mean_iou == sum(iou_3d(p, g).value for p, g in boxes) / 2
    assert means.mean_ec_iou == sum(ec_iou_3d(p, g, CFG).value for p, g in boxes) / 2


def test_tp_means_clip_each_pair_once(metric_clips):
    preds = [_pred(10.6, 0.2, 0.9), _pred(20.3, 0, 0.8), _pred(21.5, 5, 0.7, l=0.8, w=0.6)]
    gts = [_gt(10, 0), _gt(20, 0), _gt(20, 5, l=0.8, w=0.6)]
    assert tp_metric_means(preds, gts, 2.0, CFG).matched == 3
    assert len(metric_clips) == 3


def test_tp_means_nearest_first():
    near = _pred(10.3, 0, 0.9)
    gt_a = _gt(10, 0)
    gt_b = _gt(11.5, 0)
    means = tp_metric_means([near], [gt_a, gt_b], 5.0, CFG)
    assert means.matched == 1
    assert means.mean_iou == pytest.approx(iou_3d(near.box, gt_a.box).value, abs=1e-12)


def test_tp_means_ignore_nearer_ground_truth_in_another_frame():
    pred = _pred(10.3, 0, 0.9, frame="f0")
    same_frame = _gt(11.5, 0, frame="f0")
    other_frame = _gt(10.3, 0.1, frame="f1")
    means = tp_metric_means([pred], [other_frame, same_frame], 2.0, CFG)
    assert means.matched == 1
    assert means.mean_iou == pytest.approx(iou_3d(pred.box, same_frame.box).value, abs=1e-12)
    assert tp_metric_means([pred], [other_frame], 2.0, CFG).matched == 0


def test_mean_or_none_sums_left_to_right():
    # A compensated sum (float sum() from Python 3.12) gives 0.5; the means
    # in the report must not depend on the interpreter.
    assert _mean_or_none([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert _mean_or_none([]) is None


def test_tp_means_validates_threshold():
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            tp_metric_means([], [], bad, CFG)
    assert tp_metric_means([_pred(10, 0, 0.9)], [_gt(40, 0)], math.inf, CFG).matched == 1


# ---- full report ----


def test_evaluate_detections_perfect_fixture():
    preds = [_pred(10, 0, 0.9), _pred(20, 5, 0.8, label="pedestrian", l=0.8, w=0.6, h=1.7)]
    gts = [_gt(10, 0), _gt(20, 5, label="pedestrian", l=0.8, w=0.6, h=1.7)]
    report = evaluate_detections(preds, gts, ["car", "pedestrian"], CFG)
    for label in ("car", "pedestrian"):
        rep = report.classes[label]
        assert rep.ap40 == pytest.approx(1.0)
        assert rep.ec_ap40 == pytest.approx(1.0)
        assert (rep.tp, rep.fp, rep.fn) == (1, 0, 0)
    assert report.map40 == pytest.approx(1.0)
    assert report.ec_map40 == pytest.approx(1.0)


def test_evaluate_detections_reports_a_record_table_as_its_list(tmp_path):
    # Headings near +-pi put some predictions' theta out of range, which
    # parse_records brings back the scalar way.
    rng = random.Random(11)
    gt_lines, pred_lines = [], []
    for f in range(8):
        for label in ("car", "pedestrian", "van"):
            for _ in range(3):
                x, y, theta = rng.uniform(4, 30), rng.uniform(-10, 10), rng.choice([rng.uniform(-3.1, 3.1), 3.1])
                gt_lines.append(f"{f} {label} {x!r} {y!r} 0.8 3.9 1.7 1.5 {theta!r}")
                for _ in range(2):
                    jx, jy, jt = rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2)
                    pred_lines.append(f"{f} {label} {x + jx!r} {y + jy!r} 0.8 3.9 1.7 1.5 {theta + jt!r} {rng.random()!r}")
    (tmp_path / "gts.txt").write_text("\n".join(gt_lines) + "\n")
    (tmp_path / "preds.txt").write_text("\n".join(pred_lines) + "\n")
    preds = parse_records(str(tmp_path / "preds.txt"), PREDICTIONS)
    gts = parse_records(str(tmp_path / "gts.txt"), GROUND_TRUTHS)
    assert any(not -math.pi <= float(line.split()[8]) < math.pi for line in pred_lines)
    classes = ["car", "pedestrian", "cyclist"]
    for mode in (MODE_3D, MODE_BEV):
        from_table = evaluate_detections(preds, gts, classes, CFG, mode=mode).to_json()
        assert from_table == evaluate_detections(list(preds), list(gts), classes, CFG, mode=mode).to_json()


def test_evaluate_detections_empty_predictions():
    gts = [_gt(10, 0), _gt(20, 0)]
    report = evaluate_detections([], gts, ["car"], CFG)
    rep = report.classes["car"]
    assert rep.ap40 == 0.0
    assert rep.fn == 2 and rep.tp == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "volume"}, "mode"),
        ({"count_affinity": "giou"}, "affinity"),
        ({"tp_distance": 0.0}, "tp_distance"),
        ({"tp_distance": -1.0}, "tp_distance"),
        ({"tp_distance": math.nan}, "tp_distance"),
        ({"thresholds": {"pedestrian": math.nan}}, "class 'pedestrian'"),
        ({"thresholds": {"pedestrian": 2.0}}, "class 'pedestrian'"),
        ({"thresholds": {"car": -0.1}}, "class 'car'"),
    ],
)
def test_evaluate_detections_checks_inputs_before_matching(monkeypatch, kwargs, message):
    import eciou.evaluate as evaluate

    def no_matching(*args, **kw):
        raise AssertionError("matching ran before the inputs were checked")

    monkeypatch.setattr(evaluate, "match_greedy", no_matching)
    monkeypatch.setattr(evaluate, "tp_metric_means", no_matching)
    # Without a pedestrian pair the bad value is still refused.
    for preds, gts in (([_pred(10, 0, 0.9)], [_gt(10, 0)]), ([], [])):
        with pytest.raises(ValueError, match=message):
            evaluate_detections(preds, gts, ["car", "pedestrian"], CFG, **kwargs)


def test_evaluate_detections_refuses_duplicate_classes():
    preds = [_pred(10, 0, 0.9), _pred(20.3, 5, 0.8, label="pedestrian", l=0.8, w=0.6, h=1.7)]
    gts = [_gt(10, 0), _gt(20, 5, label="pedestrian", l=0.8, w=0.6, h=1.7), _gt(30, 0)]
    with pytest.raises(ValueError, match="duplicate classes in car,pedestrian,car"):
        evaluate_detections(preds, gts, ["car", "pedestrian", "car"], CFG)
    report = evaluate_detections(preds, gts, ["car", "pedestrian"], CFG)
    aps = [rep.ap40 for rep in report.classes.values()]
    assert aps[0] != aps[1] and report.map40 == sum(aps) / 2


def test_match_greedy_checks_mode_and_affinity():
    with pytest.raises(ValueError, match="mode"):
        match_greedy([], [], IOU_AFFINITY, 0.5, CFG, mode="volume")
    with pytest.raises(ValueError, match="affinity"):
        match_greedy([], [], "giou", 0.5, CFG)


def test_evaluate_detections_class_without_gts_is_null():
    report = evaluate_detections([_pred(10, 0, 0.9)], [_gt(10, 0)], ["car", "pedestrian"], CFG)
    ped = report.classes["pedestrian"]
    assert ped.ap40 is None and ped.ec_ap40 is None
    assert report.map40 == report.classes["car"].ap40


def test_ec_ap_direction_tracks_pair_ordering():
    # Far-side prediction: EC-IoU below IoU, so a threshold between the two
    # scores keeps the IoU match and drops the EC match.
    gt = _gt(10, 0)
    far = _pred(10.8, 0, 0.9)
    iou_pair = iou_3d(far.box, gt.box).value
    ec_pair = ec_iou_3d(far.box, gt.box, CFG).value
    assert ec_pair < iou_pair
    threshold = (ec_pair + iou_pair) / 2
    report = evaluate_detections([far], [gt], ["car"], CFG, thresholds={"car": threshold})
    assert report.classes["car"].ap40 > report.classes["car"].ec_ap40
    # Near-side prediction: the ordering flips.
    near = _pred(9.2, 0, 0.9)
    iou_pair = iou_3d(near.box, gt.box).value
    ec_pair = ec_iou_3d(near.box, gt.box, CFG).value
    assert ec_pair > iou_pair
    threshold = (ec_pair + iou_pair) / 2
    report = evaluate_detections([near], [gt], ["car"], CFG, thresholds={"car": threshold})
    assert report.classes["car"].ec_ap40 > report.classes["car"].ap40


def _multi_frame_records(seed):
    # Every frame reuses the same few spots, so matching across frames would
    # find partners that per-frame matching must not.
    rng = np.random.default_rng(seed)
    spots = [(8.0, -3.0), (12.0, 0.0), (15.0, 4.0), (20.0, -1.0)]
    dims = {"car": dict(l=4.0, w=2.0, h=1.6), "pedestrian": dict(l=0.8, w=0.6, h=1.7)}
    preds, gts = [], []
    for f in range(7):
        frame = f"frame{f:02d}"
        for label, kw in dims.items():
            for sx, sy in spots:
                if rng.random() < 0.6:
                    gts.append(_gt(sx, sy, frame=frame, label=label, **kw))
                if rng.random() < 0.7:
                    jx, jy = rng.normal(0.0, 0.3 if label == "car" else 0.15, 2)
                    score = float(rng.uniform(0.05, 1.0))
                    preds.append(_pred(sx + jx, sy + jy, score, frame=frame, label=label, **kw))
    preds = [preds[i] for i in rng.permutation(len(preds))]
    gts = [gts[i] for i in rng.permutation(len(gts))]
    return preds, gts


def test_evaluate_detections_multi_frame_matches_per_frame_composition():
    preds, gts = _multi_frame_records(seed=17)
    classes = ["car", "pedestrian"]
    report = evaluate_detections(preds, gts, classes, CFG)
    for label in classes:
        threshold = DEFAULT_THRESHOLDS[label]
        cls_preds = [p for p in preds if p.class_label == label]
        cls_gts = [g for g in gts if g.class_label == label]
        frames = sorted({r.frame_id for r in cls_preds + cls_gts})
        assert len(frames) > 1
        per_frame = [
            ([p for p in cls_preds if p.frame_id == f], [g for g in cls_gts if g.frame_id == f])
            for f in frames
        ]
        results = {
            affinity: [match_greedy(fp, fg, affinity, threshold, CFG) for fp, fg in per_frame]
            for affinity in (IOU_AFFINITY, EC_IOU_AFFINITY)
        }
        counted = results[IOU_AFFINITY]
        rep = report.classes[label]
        assert rep.ap40 == average_precision_40(results[IOU_AFFINITY])
        assert rep.ec_ap40 == average_precision_40(results[EC_IOU_AFFINITY])
        assert (rep.tp, rep.fp, rep.fn) == (
            sum(len(r.matches) for r in counted),
            sum(len(r.false_positives) for r in counted),
            sum(len(r.false_negatives) for r in counted),
        )
        assert 0 < rep.tp and 0 < rep.fn
        frame_means = [tp_metric_means(fp, fg, DEFAULT_TP_DISTANCE, CFG) for fp, fg in per_frame]
        matched = sum(m.matched for m in frame_means)
        assert matched > 0
        mean_iou = sum(m.mean_iou * m.matched for m in frame_means if m.matched) / matched
        mean_ec = sum(m.mean_ec_iou * m.matched for m in frame_means if m.matched) / matched
        assert rep.mean_iou == pytest.approx(mean_iou, abs=1e-12)
        assert rep.mean_ec_iou == pytest.approx(mean_ec, abs=1e-12)


# ---- candidate prefilter ----


def _near_threshold_pairs(threshold, n=6):
    """(prediction, target) BEV pairs whose IoU lies within 1e-9 of threshold:
    a target copy turned by 0.05 to 0.3 rad (not turned where threshold is
    1) and slid until its IoU crosses threshold - 5e-10, threshold and
    threshold + 5e-10, with the last offsets on both sides of each crossing."""
    rng = np.random.default_rng(int(threshold * 1e3))
    pairs = []
    for _ in range(n):
        g = OrientedBoxBEV(rng.uniform(8, 30), rng.uniform(-10, 10), rng.uniform(1, 4), rng.uniform(1, 4),
                           rng.uniform(-math.pi, math.pi))
        turn = g.theta + (rng.uniform(0.05, 0.3) if threshold < 1.0 else 0.0)
        heading = rng.uniform(-math.pi, math.pi)

        def moved(d):
            return OrientedBoxBEV(g.x + d * math.cos(heading), g.y + d * math.sin(heading), g.l, g.w, turn)

        for target in (threshold - 5e-10, threshold, threshold + 5e-10):
            lo, hi = 0.0, g.l + g.w  # iou_bev(moved(lo)) >= target > iou_bev(moved(hi))
            if iou_bev(moved(lo), g).value < target:
                continue
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if iou_bev(moved(mid), g).value >= target else (lo, mid)
            pairs += [(moved(lo), g), (moved(hi), g)]
    return pairs


def _family_records(pairs, per_frame, family, dz=0.0):
    """Prediction and ground-truth records of (prediction, target) BEV pairs,
    per_frame pairs to a frame named after family, a target shared by pairs
    counted once. Boxes are 1.6 m tall at z 0.8; every third prediction is
    raised by dz."""
    rng = np.random.default_rng(family)
    preds, gts = [], {}
    for i, (p, g) in enumerate(pairs):
        frame = f"{family}-{i // per_frame:04d}"
        z = 0.8 + (dz if i % 3 == 0 else 0.0)
        preds.append(DetectionRecord(frame, "car", Box3D(p.x, p.y, p.l, p.w, p.theta, z, 1.6), float(rng.random())))
        gts.setdefault((frame, g), DetectionRecord(frame, "car", Box3D(g.x, g.y, g.l, g.w, g.theta, 0.8, 1.6)))
    return preds, list(gts.values())


def _prefilter_records():
    """The collinear and touching families, near-threshold pairs at 0.5 and 1,
    and exact copies, in one record set."""
    families = [
        (collinear_pairs(), 8, 0.3),
        (touching_pairs(120), 4, 0.2),
        (_near_threshold_pairs(0.5) + _near_threshold_pairs(1.0), 6, 0.0),
        ([(g, g) for _, g in touching_pairs(12, seed=1)], 3, 0.0),
    ]
    preds, gts = [], []
    for family, (pairs, per_frame, dz) in enumerate(families):
        p, g = _family_records(pairs, per_frame, family, dz)
        preds += p
        gts += g
    return preds, gts


_PREFILTER_RECORDS = _prefilter_records()


def test_near_threshold_pairs_straddle_the_threshold():
    for threshold in (0.5, 1.0):
        ious = [iou_bev(p, g).value - threshold for p, g in _near_threshold_pairs(threshold)]
        assert max(map(abs, ious)) <= 1e-9
        assert min(ious) < 0.0 <= max(ious)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("mode", [MODE_3D, MODE_BEV])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0, 8.0])
def test_candidates_change_no_match(monkeypatch, threshold, mode, method, alpha):
    # Every matching evaluate_detections makes equals match_greedy without
    # candidates, and so does the report; above threshold 0, pairs that meet
    # are left out.
    preds, gts = _PREFILTER_RECORDS
    cfg = WeightConfig(alpha=alpha, method=method, mc_samples=64)
    calls = []

    def recorded(fp, fg, affinity, t, c, m, *, candidates):
        result = match_greedy(fp, fg, affinity, t, c, m, candidates=candidates)
        calls.append((fp, fg, affinity, candidates, result))
        return result

    monkeypatch.setattr(evaluate, "match_greedy", recorded)
    report = evaluate_detections(preds, gts, ["car"], cfg, {"car": threshold}, mode=mode)
    composed = {IOU_AFFINITY: [], EC_IOU_AFFINITY: []}
    left_out = 0
    for fp, fg, affinity, candidates, result in calls:
        assert result == match_greedy(fp, fg, affinity, threshold, cfg, mode)
        composed[affinity].append(result)
        if candidates is not None:
            assert all(list(c) == sorted(set(c)) for c in candidates)
            meeting = sum(not circumcircles_disjoint(p.box, g.box) for p in fp for g in fg)
            left_out += meeting - sum(map(len, candidates))
    assert len(calls) == 2 * len({r.frame_id for r in preds + gts})
    assert (left_out > 0) == (threshold > 0.0)
    rep = report.classes["car"]
    assert rep.ap40 == average_precision_40(composed[IOU_AFFINITY])
    assert rep.ec_ap40 == average_precision_40(composed[EC_IOU_AFFINITY])
    assert rep.tp == sum(len(r.matches) for r in composed[IOU_AFFINITY])
    assert rep.fp == sum(len(r.false_positives) for r in composed[IOU_AFFINITY])
    assert 0 < rep.tp


def _blocked_evaluation(monkeypatch, block_pairs, threshold, mode, cfg):
    """(report, match_greedy results by (frame, affinity), pairs per batch
    clip) of evaluate_detections on _PREFILTER_RECORDS with _BLOCK_PAIRS set
    to block_pairs, or left as it is where block_pairs is None."""
    match, bounds_of = evaluate.match_greedy, evaluate._pair_bounds
    results, clipped = {}, []

    def measured(boxes, *args):
        clipped.append(len(boxes))
        return bounds_of(boxes, *args)

    def recorded(fp, fg, affinity, *args, **kwargs):
        results[(fp + fg)[0].frame_id, affinity] = match(fp, fg, affinity, *args, **kwargs)
        return results[(fp + fg)[0].frame_id, affinity]

    with monkeypatch.context() as m:
        if block_pairs is not None:
            m.setattr(evaluate, "_BLOCK_PAIRS", block_pairs)
        m.setattr(evaluate, "match_greedy", recorded)
        m.setattr(evaluate, "_pair_bounds", measured)
        report = evaluate_detections(*_PREFILTER_RECORDS, ["car"], cfg, {"car": threshold}, mode=mode)
    return report, results, clipped


@pytest.mark.parametrize("threshold", [1e-10, 0.5, 1.0])
@pytest.mark.parametrize("mode", [MODE_3D, MODE_BEV])
def test_prefilter_over_several_blocks_changes_no_match(monkeypatch, threshold, mode):
    # The default slice holds every same-frame pair of _PREFILTER_RECORDS.
    # Smaller slices must change no matching and no report: 1 and 5 pairs
    # cut the larger frames, the largest frame has 16, and 17 cuts others.
    cfg = WeightConfig(alpha=4.0, method=ARITHMETIC)
    sizes = [len(fp) * len(fg) for fp, fg in evaluate._by_frame(*_PREFILTER_RECORDS)]
    pairs = sum(sizes)
    report, results, clipped = _blocked_evaluation(monkeypatch, None, threshold, mode, cfg)
    assert len(clipped) == 1 and max(sizes) == 16 and pairs <= evaluate._BLOCK_PAIRS
    for block_pairs in (1, 5, 16, 17):
        split = _blocked_evaluation(monkeypatch, block_pairs, threshold, mode, cfg)
        assert split[:2] == (report, results)
        # One clip per slice, of the slice's pairs that meet.
        assert len(split[2]) == -(-pairs // block_pairs)
        assert max(split[2]) <= block_pairs and sum(split[2]) == clipped[0]
    assert 0 < report.classes["car"].tp


@pytest.mark.parametrize("mode", [MODE_3D, MODE_BEV])
def test_candidates_cover_frames_without_pairs(monkeypatch, mode):
    # Frames of predictions alone or of ground truths alone, first, between
    # others and last, get their lists in order at every slice size, and so
    # does a class without a same-frame pair.
    p, g = _PREFILTER_RECORDS[0][0].box, _PREFILTER_RECORDS[1][0].box
    lone = ([DetectionRecord("-", "car", p, 0.5), DetectionRecord("9", "car", p, 0.5)],
            [DetectionRecord("1-z", "car", g)])
    frames = evaluate._by_frame(_PREFILTER_RECORDS[0] + lone[0], _PREFILTER_RECORDS[1] + lone[1])
    cfg = WeightConfig(alpha=4.0, method=ARITHMETIC)
    pred_alone, gts_alone = {IOU_AFFINITY: [[]], EC_IOU_AFFINITY: [[]]}, {IOU_AFFINITY: [], EC_IOU_AFFINITY: []}
    tables = list(evaluate._candidates(frames, 0.5, cfg, mode))
    assert [len(t[IOU_AFFINITY]) for t in tables] == [len(fp) for fp, _ in frames]
    assert tables[0] == tables[-1] == pred_alone
    assert any(any(t[EC_IOU_AFFINITY]) for t in tables)
    for block_pairs in (1, 5, 17):
        monkeypatch.setattr(evaluate, "_BLOCK_PAIRS", block_pairs)
        assert list(evaluate._candidates(frames, 0.5, cfg, mode)) == tables
    assert list(evaluate._candidates(evaluate._by_frame(*lone), 0.5, cfg, mode)) == [pred_alone, gts_alone, pred_alone]


def _outlying_ring_pair():
    """A thin ground truth 6.8 m out and a copy of it slid 2.9 m along its
    heading, sharing both long edge lines: the scalar clipper puts a ring
    vertex 6.6 m from the ground truth's center, 1.3 m from the ego."""
    g = Box3D(4.562829708178069, 5.030728991491086, 4.978380508428918, 0.563070904905137,
              -2.4616559950837966, 0.8, 1.6)
    d = 2.90984062810624
    return Box3D(g.x + d * math.cos(g.theta), g.y + d * math.sin(g.theta), g.l, g.w, g.theta, 0.8, 1.6), g


@pytest.mark.parametrize("mode", [MODE_3D, MODE_BEV])
def test_the_heading_band_keeps_a_pair_whose_ring_leaves_the_ground_truth(monkeypatch, mode):
    p, g = _outlying_ring_pair()
    cfg = WeightConfig(alpha=2.0, method=ARITHMETIC)
    # Without the band, the bound (0.931) is below the scalar EC-IoU (1.0).
    w_min, w_max = weight_extremes(g, cfg.alpha)
    with monkeypatch.context() as m:
        m.setattr(evaluate, "_QUARTER_TURN_BAND", 0.0)
        _, bound = _pair_bounds(_params([p]), _params([g]), np.array([w_min]), np.array([w_max]), mode)
    assert bound[0] < 0.95 <= _metric(EC_IOU_AFFINITY, mode, cfg)(p, g).value
    report = evaluate_detections([DetectionRecord("f", "car", p, 0.9)], [DetectionRecord("f", "car", g)],
                                 ["car"], cfg, {"car": 0.95}, mode=mode)
    assert report.classes["car"].ec_ap40 == 1.0


@st.composite
def _bounded_pairs(draw):
    """(prediction, target) Box3Ds: turned_pairs, outside the heading band,
    or touching_pairs, at any height."""
    p, g = draw(st.one_of(turned_pairs(), st.sampled_from(touching_pairs())))
    z, h = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 2.0))
    return (Box3D(p.x, p.y, p.l, p.w, p.theta, z + draw(st.floats(-1.0, 1.0)), h * draw(st.floats(0.5, 1.5))),
            Box3D(g.x, g.y, g.l, g.w, g.theta, z, h))


@settings(deadline=None, max_examples=300)
@given(pair=_bounded_pairs(), alpha=st.floats(0.0, 8.0), method=st.sampled_from(METHODS),
       mode=st.sampled_from([MODE_3D, MODE_BEV]))
def test_scalar_ec_iou_never_exceeds_the_candidate_bound(pair, alpha, method, mode):
    p, g = pair
    targets = _params([g])
    _, bound = _pair_bounds(_params([p]), targets, *evaluate._bulk_extremes(*targets[:, :5].T, alpha), mode)
    cfg = WeightConfig(alpha=alpha, method=method, mc_samples=64)
    ec = (ec_iou_3d if mode == MODE_3D else ec_iou_bev)(p, g, cfg).value
    assert ec <= bound[0] * (1.0 + evaluate._BOUND_SLACK)


def _scalar_extremes(g, alpha):
    """weight_extremes, or None where it raises."""
    try:
        return weight_extremes(g, alpha)
    except (OverflowError, DegenerateDistanceError):
        return None


# Ground truths weight_extremes refuses at any alpha: the ego inside, on an
# edge, at a corner, 1e-10 outside an edge, and the center on the ego.
_REFUSED_GTS = [_box(0.5, 0.0), _box(1.0, 0.0, l=2.0, w=2.0), _box(1.0, 1.0, l=2.0, w=2.0),
                _box(1.0 + 1e-10, 0.0, l=2.0, w=2.0), _box(0.0, 0.0)]


@pytest.mark.parametrize("alpha", [0.0, 1.0, 8.0, 5000.0])
def test_bulk_extremes_are_inf_exactly_where_weight_extremes_raises(alpha):
    rng = np.random.default_rng(3)
    x, y, theta = rng.uniform(-60, 60, 200), rng.uniform(-60, 60, 200), rng.uniform(-math.pi, math.pi, 200)
    l, w = rng.uniform(0.3, 12, 200), rng.uniform(0.3, 4, 200)
    # At alpha 5000, w_max of the console-script check's ground truth overflows.
    gts = _REFUSED_GTS + [_box(10.0, 0.0)] + [_box(a, b, l=c, w=d, theta=t) for a, b, c, d, t in zip(x, y, l, w, theta)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_min, w_max = evaluate._bulk_extremes(*_params(gts)[:, :5].T, alpha)
    scalar = [_scalar_extremes(g, alpha) for g in gts]
    refused = np.array([pair is None for pair in scalar])
    assert refused[:len(_REFUSED_GTS) + 1].tolist() == [True] * len(_REFUSED_GTS) + [alpha == 5000.0]
    assert refused.sum() < len(gts) // 2
    assert np.array_equal(np.isinf(w_min) & np.isinf(w_max), refused)
    expected = np.array([pair for pair in scalar if pair is not None])
    np.testing.assert_allclose(np.stack([w_min[~refused], w_max[~refused]], axis=1), expected, rtol=1e-9, atol=0.0)


def test_report_json_shape():
    import json

    report = evaluate_detections([_pred(10, 0, 0.9)], [_gt(10, 0)], ["car"], CFG)
    payload = json.loads(report.to_json())
    assert set(payload) == {"classes", "map40", "ec_map40"}
    assert set(payload["classes"]["car"]) == {
        "ap40", "ec_ap40", "mean_iou", "mean_ec_iou", "tp", "fp", "fn"
    }
