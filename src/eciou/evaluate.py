"""Detection evaluation on record files.

Two protocol shapes: KITTI-style greedy matching by IoU or EC-IoU affinity
with AP40 over 40 recall points, and nuScenes-style center-distance
matching with mean IoU / EC-IoU reported over the true positives.

Record files are whitespace-separated, one box per line:

    frame_id class x y z l w h theta [score]

with meters/radians, a score in [0, 1] on predictions only, and `#`
starting a comment.

The matchings score a pair whose footprints' circumcircles are disjoint as
exactly 0.0 without clipping it. The shortcut is always on and exact, since
no box has a side below geometry.MIN_RELATIVE_SIDE of its distance to the
ego: the report is the same, byte for byte, as scoring every pair. The TP
means score each of their pairs once, taking its IoU and EC-IoU from one
clip.

Above a threshold of 0, the matchings score on the scalar path only the
pairs that can reach it, their candidates. Each class's same-frame pairs go
in slices of at most _BLOCK_PAIRS pairs, and one batch clip (_batch) per
slice measures its pairs whose circumcircles meet. A pair is left out when
- by IoU, its batch IoU is below threshold - 1e-9. Batch and scalar areas
  agree to about 1e-14, edge-sharing and touching boxes included;
- by EC-IoU, w_max * V_i / (w_min * A_g * h_g + V_p - V_i) is below
  threshold - 1e-9 with a relative slack of 1e-6. V_i and V_p are the
  intersection and prediction volumes, A_g and h_g the ground truth's area
  and height, and (w_min, w_max) its weight_extremes: every weight over the
  ground truth lies between them, so the bound holds for every method. It
  reads no clipped ring, so no spurious ring vertex can break it. A pair
  whose relative heading is within 1e-3 of a multiple of pi/2, where the
  scalar clipper can put a ring vertex outside the ground truth, or whose
  bound or weights are not finite, stays a candidate.
A left-out pair's scalar affinity is below the threshold, so greedy
matching could not have taken it; every affinity it compares or reports
still comes from the scalar path, and the report stays byte-identical, its
refusals included.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import _batch
from .geometry import Box3D, circumcircles_disjoint
from .metrics import ec_iou_3d, ec_iou_bev, iou_3d, iou_bev, scores_3d
from .weighting import DegenerateDistanceError, WeightConfig, weight_extremes

PREDICTIONS = "predictions"
GROUND_TRUTHS = "ground-truths"

IOU_AFFINITY = "iou"
EC_IOU_AFFINITY = "ec-iou"

MODE_3D = "3d"
MODE_BEV = "bev"

# Official-protocol-style strict thresholds; anything else defaults to 0.5.
DEFAULT_THRESHOLDS = {"car": 0.7, "pedestrian": 0.5}
FALLBACK_THRESHOLD = 0.5
DEFAULT_TP_DISTANCE = 2.0

RECALL_POINTS = 40

# Most same-frame pairs one slice of the candidate prefilter holds: its
# batch clip's temporaries grow with the slice.
_BLOCK_PAIRS = 2048
# Margin below the threshold within which a pair stays a candidate.
_CUT_MARGIN = 1e-9
# Relative slack on the EC-IoU bound.
_BOUND_SLACK = 1e-6
# Relative headings within this of a multiple of pi/2 keep their EC-IoU pairs.
_QUARTER_TURN_BAND = 1e-3


class RecordParseError(ValueError):
    """A record file line could not be parsed; carries the line number."""

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class UndefinedAPError(ValueError):
    """AP is undefined because the class has zero ground truths."""


@dataclass(frozen=True, slots=True)
class DetectionRecord:
    frame_id: str
    class_label: str
    box: Box3D
    score: float | None = None


def parse_records(path: str, kind: str) -> list[DetectionRecord]:
    """Read a record file; kind selects predictions (scored) or ground truths."""
    if kind not in (PREDICTIONS, GROUND_TRUTHS):
        raise ValueError(f"kind must be {PREDICTIONS!r} or {GROUND_TRUTHS!r}")
    want_score = kind == PREDICTIONS
    n_fields = 10 if want_score else 9
    records, shared = [], {}
    # Bytes that are not UTF-8 decode to lone surrogates, which do not encode
    # back, so the line that holds them is the one named. utf-8-sig drops one
    # leading byte-order mark; any other U+FEFF would glue onto a field.
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) & 0xFF
                raise RecordParseError(path, line_number, f"not UTF-8: byte 0x{byte:02x}") from exc
            text = line.split("#", 1)[0].strip()
            if "\ufeff" in text:
                raise RecordParseError(path, line_number, "byte-order mark (U+FEFF) inside the data")
            if not text:
                continue
            fields = text.split()
            if len(fields) != n_fields:
                raise RecordParseError(
                    path, line_number,
                    f"expected {n_fields} fields for {kind}, got {len(fields)}",
                )
            # One string object per distinct frame id and label: a record
            # file repeats a few of them on every line.
            frame_id, label = shared.setdefault(fields[0], fields[0]), shared.setdefault(fields[1], fields[1])
            try:
                x, y, z, l, w, h, theta = (float(v) for v in fields[2:9])
                score = float(fields[9]) if want_score else None
            except ValueError as exc:
                raise RecordParseError(path, line_number, f"bad number: {exc}") from exc
            if want_score and not 0.0 <= score <= 1.0:
                raise RecordParseError(path, line_number, f"score {score} outside [0, 1]")
            try:
                box = Box3D(x=x, y=y, l=l, w=w, theta=theta, z=z, h=h)
                # EC-IoU weights are undefined on the ego; a ground truth is
                # refused here, since disjoint pairs never reach the metrics.
                if not want_score:
                    weight_extremes(box, 1.0)
            except ValueError as exc:
                raise RecordParseError(path, line_number, str(exc)) from exc
            records.append(DetectionRecord(frame_id, label, box, score))
    return records


@dataclass(frozen=True, slots=True)
class MatchResult:
    """One frame's matching outcome; matches are (pred, gt, affinity)."""

    matches: tuple[tuple[DetectionRecord, DetectionRecord, float], ...]
    false_positives: tuple[DetectionRecord, ...]
    false_negatives: tuple[DetectionRecord, ...]


def _check_choices(mode: str, affinity: str) -> None:
    if mode not in (MODE_3D, MODE_BEV):
        raise ValueError(f"unknown metric mode {mode!r}")
    if affinity not in (IOU_AFFINITY, EC_IOU_AFFINITY):
        raise ValueError(f"unknown affinity {affinity!r}")


def _greedy(
    preds: list[DetectionRecord],
    gts: list[DetectionRecord],
    affinity_of: Callable[[DetectionRecord, DetectionRecord], float],
    threshold: float,
    candidates: list[list[int]] | None = None,
) -> MatchResult:
    # Predictions in descending score each take the free ground truth with
    # the strictly highest affinity >= threshold; ties keep the first. The
    # -inf start admits negative affinities such as negated distances.
    taken = [False] * len(gts)
    matches = []
    fps = []
    every = range(len(gts))
    for i in sorted(range(len(preds)), key=lambda i: (-preds[i].score, i)):
        pred = preds[i]
        best, best_aff = -1, -math.inf
        for j in every if candidates is None else candidates[i]:
            if taken[j]:
                continue
            a = affinity_of(pred, gts[j])
            if a >= threshold and a > best_aff:
                best, best_aff = j, a
        if best >= 0:
            taken[best] = True
            matches.append((pred, gts[best], best_aff))
        else:
            fps.append(pred)
    fns = tuple(gt for j, gt in enumerate(gts) if not taken[j])
    return MatchResult(tuple(matches), tuple(fps), fns)


def _by_frame(
    preds: list[DetectionRecord], gts: list[DetectionRecord]
) -> list[tuple[list[DetectionRecord], list[DetectionRecord]]]:
    """(preds, gts) per frame, frames in sorted id order, records in input order."""
    groups: dict[str, tuple[list[DetectionRecord], list[DetectionRecord]]] = {}
    for pred in preds:
        groups.setdefault(pred.frame_id, ([], []))[0].append(pred)
    for gt in gts:
        groups.setdefault(gt.frame_id, ([], []))[1].append(gt)
    return [groups[frame_id] for frame_id in sorted(groups)]


def match_greedy(
    preds: list[DetectionRecord],
    gts: list[DetectionRecord],
    affinity: str,
    threshold: float,
    cfg: WeightConfig,
    mode: str = MODE_3D,
    *,
    candidates: list[list[int]] | None = None,
) -> MatchResult:
    """Score-greedy one-to-one matching within a single frame and class.

    Predictions are processed in descending score; each claims the still
    unmatched ground truth with the highest affinity, provided it reaches
    the threshold. mode selects 3D (volume) or BEV (footprint) affinity.
    candidates, if given, holds for each prediction, in input order, the
    ascending indices of the ground truths it may match; only those pairs
    are scored. Leaving out pairs below the threshold changes no match.
    """
    _check_choices(mode, affinity)
    # Looked up on each call: tracers and tests replace these names. Every
    # metric is exactly 0.0 on disjoint footprints, which skip the clipper.
    if affinity == IOU_AFFINITY:
        metric, extra = (iou_bev if mode == MODE_BEV else iou_3d), ()
    else:
        metric, extra = (ec_iou_bev if mode == MODE_BEV else ec_iou_3d), (cfg,)

    def affinity_of(p: DetectionRecord, g: DetectionRecord) -> float:
        return 0.0 if circumcircles_disjoint(p.box, g.box) else metric(p.box, g.box, *extra).value

    return _greedy(preds, gts, affinity_of, threshold, candidates)


def _params(boxes: list[Box3D]) -> np.ndarray:
    """(N, 7) rows of x, y, l, w, theta, z, h."""
    return np.array([(b.x, b.y, b.l, b.w, b.theta, b.z, b.h) for b in boxes], dtype=np.float64).reshape(-1, 7)


def _extremes(gt: Box3D, alpha: float) -> tuple[float, float]:
    """weight_extremes, or inf where the weights are undefined or overflow."""
    try:
        return weight_extremes(gt, alpha)
    except (OverflowError, DegenerateDistanceError):
        return math.inf, math.inf


def _pair_bounds(
    boxes: np.ndarray, targets: np.ndarray, w_min: np.ndarray, w_max: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Batch IoU and the EC-IoU bound (see the module docstring) of (N, 7)
    prediction and ground-truth rows, with inf in place of a bound that
    cannot be relied on. w_min and w_max are the ground truths' extremes."""
    evaluator = _batch.BatchEvaluator(targets[:, :5])
    clip = evaluator.clip(boxes[:, :5])
    if mode == MODE_BEV:
        v = h_p = h_g = 1.0
    else:  # _vertical_overlap
        z_p, h_p, z_g, h_g = boxes[:, 5], boxes[:, 6], targets[:, 5], targets[:, 6]
        top = np.minimum(z_p + 0.5 * h_p, z_g + 0.5 * h_g)
        v = np.maximum(top - np.maximum(z_p - 0.5 * h_p, z_g - 0.5 * h_g), 0.0)
    vol_i, vol_p, vol_g = clip.inter * v, clip.area_p * h_p, evaluator.area_g * h_g
    iou = vol_i / (vol_p + vol_g - vol_i)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = w_min * vol_g + (vol_p - vol_i)
        bound = w_max * vol_i / den
        # Room to spare below overflow for the scalar weights and
        # denominator, which w_max (at least 1) and the volumes bound.
        held = (den > 0.0) & np.isfinite(2.0 * w_max * (1.0 + vol_g + vol_p))
    turn = np.abs(np.remainder(boxes[:, 4] - targets[:, 4] + 0.25 * math.pi, 0.5 * math.pi) - 0.25 * math.pi)
    return iou, np.where(held & (turn >= _QUARTER_TURN_BAND), bound, math.inf)


def _candidates(frames, threshold: float, cfg: WeightConfig, mode: str) -> Iterator[dict[str, list]]:
    """Yield, for each frame (predictions, ground truths) of frames in order,
    the candidate lists of match_greedy per affinity (see the module
    docstring): for each prediction, the ground truths whose affinity may
    reach threshold > 0."""
    n_p = np.array([len(fp) for fp, _ in frames], dtype=np.int64)
    n_g = np.array([len(fg) for _, fg in frames], dtype=np.int64)
    sizes = n_p * n_g
    ends = np.cumsum(sizes)
    p_start, g_start = np.cumsum(n_p) - n_p, np.cumsum(n_g) - n_g
    preds, gts = [p.box for fp, _ in frames for p in fp], [g.box for _, fg in frames for g in fg]
    # Once per ground truth; a flat read holds no tuple per ground truth.
    flat = (w for g in gts for w in _extremes(g, cfg.alpha))
    extremes = np.fromiter(flat, dtype=np.float64, count=2 * len(gts)).reshape(-1, 2)
    cut = threshold - _CUT_MARGIN

    def empty(f):
        return {affinity: [[] for _ in frames[f][0]] for affinity in (IOU_AFFINITY, EC_IOU_AFFINITY)}

    # The same-frame pairs, prediction-major, in slices of at most
    # _BLOCK_PAIRS, so that a frame of any size is measured in bounded
    # memory. Slices go in order: each prediction's ground truths stay
    # ascending, and a frame is done once a slice ends at its last pair.
    tables, done, total = {}, 0, int(sizes.sum())
    for start in range(0, total, _BLOCK_PAIRS):
        stop = min(start + _BLOCK_PAIRS, total)
        # Each pair as (frame, prediction, ground truth), frame-local.
        k = np.arange(start, stop)
        frame = np.searchsorted(ends, k, side="right")
        k -= ends[frame] - sizes[frame]
        pred, gt = k // n_g[frame], k % n_g[frame]
        # The slice's predictions are one run of rows, and so are its
        # ground truths: it reads those alone, and indexes them locally.
        p_rows, g_rows = p_start[frame] + pred, g_start[frame] + gt
        p_low, g_low = p_rows[0], g_start[frame[0]]
        boxes = _params(preds[p_low:p_rows[-1] + 1])
        targets = _params(gts[g_low:g_start[frame[-1]] + n_g[frame[-1]]])
        p_rows, g_rows = p_rows - p_low, g_rows - g_low
        meet = ~_batch.circumcircles_disjoint(boxes[p_rows], targets[g_rows])
        frame, pred, gt, p_rows, g_rows = (a[meet] for a in (frame, pred, gt, p_rows, g_rows))
        w = extremes[g_low + g_rows]
        iou, bound = _pair_bounds(boxes[p_rows], targets[g_rows], w[:, 0], w[:, 1], mode)
        kept = {IOU_AFFINITY: ~(iou < cut), EC_IOU_AFFINITY: ~(bound * (1.0 + _BOUND_SLACK) < cut)}
        for affinity, keep in kept.items():
            for f, i, j in zip(frame[keep].tolist(), pred[keep].tolist(), gt[keep].tolist()):
                if f not in tables:
                    tables[f] = empty(f)
                tables[f][affinity][i].append(j)
        while done < len(frames) and ends[done] <= stop:
            yield tables.pop(done, None) or empty(done)
            done += 1
    # Without a same-frame pair, no slice is taken.
    yield from (empty(f) for f in range(done, len(frames)))


def average_precision_40(frame_results: list[MatchResult]) -> float:
    """AP sampled at the 40 recall points i/40, with max-interpolated precision.

    Predictions rank by descending score, tied scores in input order: frame
    by frame, each frame's matches before its false positives."""
    scores: list[float] = []
    hits: list[bool] = []
    n_gt = 0
    for result in frame_results:
        n_gt += len(result.matches) + len(result.false_negatives)
        scores.extend(m[0].score for m in result.matches)
        scores.extend(fp.score for fp in result.false_positives)
        hits += [True] * len(result.matches) + [False] * len(result.false_positives)
    if n_gt == 0:
        raise UndefinedAPError("no ground truths in class")
    order = np.argsort(-np.array(scores, dtype=float), kind="stable")
    tp = np.cumsum(np.array(hits, dtype=bool)[order])
    precision = tp / np.arange(1, len(order) + 1)
    # Recall never falls with rank, so the ranks that reach a recall point
    # form a suffix, and the interpolated precision is a suffix maximum; a
    # point that no rank reaches reads the trailing 0.0.
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    reached = np.searchsorted(tp / n_gt, np.arange(1, RECALL_POINTS + 1) / RECALL_POINTS - 1e-12)
    total = 0.0
    for p in best[reached].tolist():  # left to right: from Python 3.12 float sum() compensates
        total += p
    return total / RECALL_POINTS


def _mean_or_none(values: list[float]) -> float | None:
    if not values:
        return None
    total = 0.0
    for v in values:  # left to right: from Python 3.12 float sum() compensates
        total += v
    return total / len(values)


@dataclass(frozen=True)
class TPMeans:
    """Mean 3D IoU / EC-IoU over center-distance true positives."""

    mean_iou: float | None
    mean_ec_iou: float | None
    matched: int


def tp_metric_means(
    preds: list[DetectionRecord],
    gts: list[DetectionRecord],
    center_dist_threshold: float,
    cfg: WeightConfig,
) -> TPMeans:
    """Match by BEV center distance (greedy by score, nearest first), then
    average the 3D metrics over the matched pairs. Means are None with no TPs."""
    if not center_dist_threshold > 0.0:  # NaN too; inf means no limit
        raise ValueError(f"center_dist_threshold must be positive, got {center_dist_threshold}")
    ious, ec_ious = [], []
    for frame_preds, frame_gts in _by_frame(preds, gts):
        # Nearest first: the negated BEV center distance is the affinity.
        result = _greedy(
            frame_preds,
            frame_gts,
            lambda p, g: -math.hypot(p.box.x - g.box.x, p.box.y - g.box.y),
            -center_dist_threshold,
        )
        for p, g, _ in result.matches:
            iou, ec_iou = scores_3d(p.box, g.box, cfg)
            ious.append(iou.value)
            ec_ious.append(ec_iou.value)
    return TPMeans(_mean_or_none(ious), _mean_or_none(ec_ious), len(ious))


@dataclass(frozen=True)
class ClassReport:
    ap40: float | None
    ec_ap40: float | None
    mean_iou: float | None
    mean_ec_iou: float | None
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class EvalReport:
    classes: dict[str, ClassReport] = field(default_factory=dict)
    map40: float | None = None
    ec_map40: float | None = None

    def to_json(self) -> str:
        payload = asdict(self)  # field order is the JSON key order
        return json.dumps(payload, indent=2, sort_keys=False)


def _ap40_or_none(frame_results: list[MatchResult]) -> float | None:
    try:
        return average_precision_40(frame_results)
    except UndefinedAPError:
        return None


def evaluate_detections(
    preds: list[DetectionRecord],
    gts: list[DetectionRecord],
    classes: list[str],
    cfg: WeightConfig,
    thresholds: dict[str, float] | None = None,
    tp_distance: float = DEFAULT_TP_DISTANCE,
    count_affinity: str = IOU_AFFINITY,
    mode: str = MODE_3D,
) -> EvalReport:
    """Full per-class report: AP40 under both affinities, TP-metric means,
    and TP/FP/FN counts taken from the count_affinity matching."""
    _check_choices(mode, count_affinity)
    if not tp_distance > 0.0:  # NaN too; inf means no limit
        raise ValueError(f"tp_distance must be positive, got {tp_distance}")
    if len(set(classes)) != len(classes):
        raise ValueError(f"duplicate classes in {','.join(classes)}")
    given = thresholds or {}
    thresholds = {
        label: given.get(label, DEFAULT_THRESHOLDS.get(label, FALLBACK_THRESHOLD)) for label in classes
    }
    for label, threshold in thresholds.items():
        if not 0.0 <= threshold <= 1.0:  # NaN too
            raise ValueError(f"threshold for class {label!r} must be in [0, 1], got {threshold}")
    class_reports: dict[str, ClassReport] = {}
    for label, threshold in thresholds.items():
        cls_preds = [p for p in preds if p.class_label == label]
        cls_gts = [g for g in gts if g.class_label == label]
        matched = {IOU_AFFINITY: [], EC_IOU_AFFINITY: []}
        frames = _by_frame(cls_preds, cls_gts)
        # At threshold 0 every pair matches, a disjoint one included.
        tables = _candidates(frames, threshold, cfg, mode) if threshold > 0.0 else ({} for _ in frames)
        for (fp, fg), table in zip(frames, tables):
            for affinity, results in matched.items():
                results.append(match_greedy(fp, fg, affinity, threshold, cfg, mode, candidates=table.get(affinity)))
        counted = matched[count_affinity]
        means = tp_metric_means(cls_preds, cls_gts, tp_distance, cfg)
        class_reports[label] = ClassReport(
            ap40=_ap40_or_none(matched[IOU_AFFINITY]),
            ec_ap40=_ap40_or_none(matched[EC_IOU_AFFINITY]),
            mean_iou=means.mean_iou,
            mean_ec_iou=means.mean_ec_iou,
            tp=sum(len(r.matches) for r in counted),
            fp=sum(len(r.false_positives) for r in counted),
            fn=sum(len(r.false_negatives) for r in counted),
        )
    reports = class_reports.values()
    return EvalReport(
        classes=class_reports,
        map40=_mean_or_none([r.ap40 for r in reports if r.ap40 is not None]),
        ec_map40=_mean_or_none([r.ec_ap40 for r in reports if r.ec_ap40 is not None]),
    )
