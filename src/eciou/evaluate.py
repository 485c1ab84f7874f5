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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from .geometry import Box3D, circumcircles_disjoint
from .metrics import ec_iou_3d, ec_iou_bev, iou_3d, iou_bev, scores_3d
from .weighting import WeightConfig, weight_extremes

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


class RecordParseError(ValueError):
    """A record file line could not be parsed; carries the line number."""

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class UndefinedAPError(ValueError):
    """AP is undefined because the class has zero ground truths."""


@dataclass(frozen=True)
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
    records = []
    # Bytes that are not UTF-8 decode to lone surrogates, which do not encode
    # back, so the line that holds them is the one named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) & 0xFF
                raise RecordParseError(path, line_number, f"not UTF-8: byte 0x{byte:02x}") from exc
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if len(fields) != n_fields:
                raise RecordParseError(
                    path, line_number,
                    f"expected {n_fields} fields for {kind}, got {len(fields)}",
                )
            frame_id, label = fields[0], fields[1]
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


@dataclass(frozen=True)
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


def _affinity(
    pred: DetectionRecord, gt: DetectionRecord, affinity: str, cfg: WeightConfig, mode: str
) -> float:
    # mode and affinity were checked by _check_choices. Every metric is
    # exactly 0.0 on disjoint footprints, so those pairs skip the clipper.
    if circumcircles_disjoint(pred.box, gt.box):
        return 0.0
    if mode == MODE_BEV:
        if affinity == IOU_AFFINITY:
            return iou_bev(pred.box, gt.box).value
        return ec_iou_bev(pred.box, gt.box, cfg).value
    if affinity == IOU_AFFINITY:
        return iou_3d(pred.box, gt.box).value
    return ec_iou_3d(pred.box, gt.box, cfg).value


def _by_score(preds: list[DetectionRecord]) -> list[DetectionRecord]:
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    return [preds[i] for i in order]


def _greedy(
    preds: list[DetectionRecord],
    gts: list[DetectionRecord],
    affinity_of: Callable[[DetectionRecord, DetectionRecord], float],
    threshold: float,
) -> MatchResult:
    # Predictions in descending score each take the free ground truth with
    # the strictly highest affinity >= threshold; ties keep the first. The
    # -inf start admits negative affinities such as negated distances.
    taken = [False] * len(gts)
    matches = []
    fps = []
    for pred in _by_score(preds):
        best, best_aff = -1, -math.inf
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            a = affinity_of(pred, gt)
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
) -> MatchResult:
    """Score-greedy one-to-one matching within a single frame and class.

    Predictions are processed in descending score; each claims the still
    unmatched ground truth with the highest affinity, provided it reaches
    the threshold. mode selects 3D (volume) or BEV (footprint) affinity.
    """
    _check_choices(mode, affinity)
    return _greedy(preds, gts, lambda p, g: _affinity(p, g, affinity, cfg, mode), threshold)


def average_precision_40(frame_results: list[MatchResult]) -> float:
    """AP sampled at the 40 recall points i/40, with max-interpolated precision."""
    scored: list[tuple[float, bool]] = []
    n_gt = 0
    for result in frame_results:
        n_gt += len(result.matches) + len(result.false_negatives)
        scored.extend((m[0].score, True) for m in result.matches)
        scored.extend((fp.score, False) for fp in result.false_positives)
    if n_gt == 0:
        raise UndefinedAPError("no ground truths in class")
    scored.sort(key=lambda item: -item[0])
    recalls = []
    precisions = []
    tp = 0
    for rank, (_, is_tp) in enumerate(scored, start=1):
        tp += int(is_tp)
        recalls.append(tp / n_gt)
        precisions.append(tp / rank)
    total = 0.0
    for i in range(1, RECALL_POINTS + 1):
        r = i / RECALL_POINTS
        best = max((p for p, rec in zip(precisions, recalls) if rec >= r - 1e-12), default=0.0)
        total += best
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
        frames = _by_frame(cls_preds, cls_gts)
        matched = {
            affinity: [match_greedy(fp, fg, affinity, threshold, cfg, mode) for fp, fg in frames]
            for affinity in (IOU_AFFINITY, EC_IOU_AFFINITY)
        }
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
