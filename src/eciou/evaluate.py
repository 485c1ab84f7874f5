"""Detection evaluation on record files.

Two protocol shapes: KITTI-style greedy matching by IoU or EC-IoU affinity
with AP40 over 40 recall points, and nuScenes-style center-distance
matching with mean IoU / EC-IoU reported over the true positives.

Record files are whitespace-separated, one box per line:

    frame_id class x y z l w h theta [score]

with meters/radians, a score in [0, 1] on predictions only, and `#`
starting a comment. parse_records holds a file as columns (RecordTable) in
Box3D's field order; _LINE_COLUMNS alone knows the file's. evaluate_detections
tables a plain record sequence at entry, groups each class's rows by frame
once (_by_frame) and builds a class's records only while it scores it.

The matchings score a pair whose footprints' circumcircles are disjoint as
exactly 0.0 without clipping it. The shortcut is always on and exact, since
no box has a side below geometry.MIN_RELATIVE_SIDE of its distance to the
ego: the report is the same, byte for byte, as scoring every pair. The TP
means score each of their pairs once, taking its IoU and EC-IoU from one
clip.

Above a threshold of 0, the matchings score on the scalar path only the
pairs that can reach it, their candidates, given as one (predictions, ground
truths) bool mask per frame and affinity. Each class's same-frame pairs go
frame by frame, prediction-major, in slices of at most _BLOCK_PAIRS pairs;
one batch clip (_batch) per slice measures its pairs whose circumcircles
meet. A pair is left out (False) when
- by IoU, its batch IoU is below threshold - 1e-9. Batch and scalar areas
  agree to about 1e-14, edge-sharing and touching boxes included;
- by EC-IoU, w_max * V_i / (w_min * A_g * h_g + V_p - V_i) is below
  threshold - 1e-9 with a relative slack of 1e-6. V_i and V_p are the
  intersection and prediction volumes, A_g and h_g the ground truth's area
  and height, and (w_min, w_max) its weight_extremes: every weight over the
  ground truth lies between them, so the bound holds for every method.
  _bulk_extremes takes them for all of a class's ground truths at once, inf
  where weight_extremes may refuse or overflows. The bound reads no clipped
  ring, so no spurious ring vertex can break it. A pair whose relative
  heading is within 1e-3 of a multiple of pi/2, where the scalar clipper
  can put a ring vertex outside the ground truth, or whose bound or weights
  are not finite, stays a candidate.
A left-out pair's scalar affinity is below the threshold, so greedy
matching could not have taken it; every affinity it compares or reports
still comes from the scalar path, and the report stays byte-identical, its
refusals included.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import asdict, dataclass, field
from itertools import compress, repeat
from operator import attrgetter, itemgetter

import numpy as np

from . import _batch
from .geometry import Box3D, _trusted_box, circumcircles_disjoint
from .metrics import ec_iou_3d, ec_iou_bev, iou_3d, iou_bev, scores_3d
from .weighting import DEGENERATE_DISTANCE, WeightConfig, is_finite_real, weight_extremes

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
# Relative margin within which _admit leaves a box's bound to the scalar
# checks: thousands of times the rounding by which its numpy tests and
# theirs can differ.
_ADMIT_SLACK = 1e-12
# Where Box3D's fields x, y, l, w, theta, z, h and a prediction's score lie
# among a record line's numbers, which read x y z l w h theta [score].
_LINE_COLUMNS = (0, 1, 3, 4, 6, 2, 5, 7)


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


class RecordTable:
    """Admitted records held as columns: each row's frame id and class label,
    one shared string per distinct value in a file, and its box in Box3D's
    field order, x, y, l, w, theta, z, h, then for predictions its score, as
    float64. An item is a DetectionRecord built when it is read, through
    geometry._trusted_box; reading one again builds a new one."""

    # Rows built per step of an iteration.
    _CHUNK = 1024

    def __init__(self, frame_ids: Sequence, labels: Sequence[str], rows: np.ndarray):
        self._frame_ids = np.fromiter(frame_ids, dtype=object, count=len(frame_ids))
        self._labels = np.fromiter(labels, dtype=object, count=len(labels))
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._build(index)
        return self._build([range(len(self))[index]])[0]

    def __iter__(self) -> Iterator[DetectionRecord]:
        for start in range(0, len(self), self._CHUNK):
            yield from self._build(slice(start, start + self._CHUNK))

    def _build(self, index) -> list[DetectionRecord]:
        """The records of the rows at index, a slice or a sequence of row numbers."""
        boxes = self._rows[index, :7].tolist()
        scores = self._rows[index, 7].tolist() if self._rows.shape[1] == 8 else [None] * len(boxes)
        return [
            DetectionRecord(frame_id, label, _trusted_box(*box), score)
            for frame_id, label, box, score in zip(
                self._frame_ids[index].tolist(), self._labels[index].tolist(), boxes, scores
            )
        ]


def parse_records(path: str, kind: str) -> RecordTable:
    """Read a record file; kind selects predictions (scored) or ground truths.

    Each line is read and checked in turn, up to the first line that fails;
    then the boxes of the lines before it are checked at once (_admit). So
    the error raised is that of the first line with one, box errors
    included, as if each line had been checked in full before the next."""
    if kind not in (PREDICTIONS, GROUND_TRUTHS):
        raise ValueError(f"kind must be {PREDICTIONS!r} or {GROUND_TRUTHS!r}")
    # Imported here: its extension module adds about 0.07 MiB to the RSS of
    # every process that imports eciou, sim runs included, which read no
    # record file.
    from array import array

    want_score = kind == PREDICTIONS
    n_fields = 10 if want_score else 9
    columns = itemgetter(*_LINE_COLUMNS[:n_fields - 2])
    frame_ids, labels, values, line_numbers, shared = [], [], array("d"), array("q"), {}
    refusal = None
    # Bytes that are not UTF-8 decode to lone surrogates, which do not encode
    # back, so the line that holds them is the one named. utf-8-sig drops one
    # leading byte-order mark; any other U+FEFF would glue onto a field.
    try:
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
                    message = f"expected {n_fields} fields for {kind}, got {len(fields)}"
                    raise RecordParseError(path, line_number, message)
                try:  # in line order: a line's first bad number is named
                    numbers = [float(v) for v in fields[2:]]
                except ValueError as exc:
                    raise RecordParseError(path, line_number, f"bad number: {exc}") from exc
                if want_score and not 0.0 <= numbers[7] <= 1.0:
                    raise RecordParseError(path, line_number, f"score {numbers[7]} outside [0, 1]")
                # One string object per distinct frame id and label: a record
                # file repeats a few of them on every line.
                frame_ids.append(shared.setdefault(fields[0], fields[0]))
                labels.append(shared.setdefault(fields[1], fields[1]))
                values.extend(columns(numbers))
                line_numbers.append(line_number)
    except RecordParseError as exc:
        refusal = exc
    rows = np.frombuffer(values, dtype=np.float64).reshape(-1, n_fields - 2)
    _admit(path, rows, line_numbers, ground_truths=not want_score)
    if refusal is not None:
        raise refusal
    return RecordTable(frame_ids, labels, rows)


def _bulk_extremes(x, y, l, w, theta, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """weight_extremes of ground truths at once, as (w_min, w_max) arrays: both
    inf where w_max overflows or the nearest point lies within twice
    DEGENERATE_DISTANCE plus _ADMIT_SLACK * (1 + |x| + |y|) of the ego. That
    covers every box weight_extremes refuses, its center test included: np.cos
    and math.cos may differ in the last bit, and the distance's rounding error
    is of order 1e-16 times |x| + |y|."""
    near, far = _batch.ego_distances(x, y, l, w, theta)
    rho_c = np.hypot(x, y)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w_min, w_max = (rho_c / far) ** alpha, (rho_c / near) ** alpha
    # After the power: at alpha 0, an inf or nan ratio gives 1.
    held = (near >= 2.0 * DEGENERATE_DISTANCE + _ADMIT_SLACK * (1.0 + np.abs(x) + np.abs(y))) & np.isfinite(w_max)
    return np.where(held, w_min, math.inf), np.where(held, w_max, math.inf)


def _admit(path: str, rows: np.ndarray, line_numbers: Sequence[int], ground_truths: bool) -> None:
    """Admit rows of Box3D fields (and a score) as Box3D(*row) and, for
    ground truths, weight_extremes(box, 1.0) do, and put each theta into
    range as Box3D does, in place.

    The rows are tested at once. A row that fails a test, or that lies within
    _ADMIT_SLACK of a bound, goes through those two calls themselves, in file
    order, so every refusal and its message stay theirs: the first raises as
    a RecordParseError at its line. Only such rows can have a theta out of
    range, which Box3D puts into range."""
    x, y, l, w, theta, z, h = rows[:, :7].T
    with np.errstate(over="ignore", invalid="ignore"):
        clear = (
            np.isfinite(rows[:, :7]).all(axis=1) & (-math.pi <= theta) & (theta < math.pi)
            & _batch.within_extents(np.hypot(x, y), np.hypot(l, w), np.minimum(l, w), np.maximum(l, w), _ADMIT_SLACK)
            & _batch.within_extents(np.abs(z), np.abs(h), h, h, _ADMIT_SLACK)
        )
        if ground_truths:
            clear &= np.isfinite(_bulk_extremes(x, y, l, w, theta, 1.0)[1])
    for i in np.flatnonzero(~clear).tolist():
        try:
            box = Box3D(*rows[i, :7].tolist())
            # EC-IoU weights are undefined on the ego; a ground truth is
            # refused here, since disjoint pairs never reach the metrics.
            if ground_truths:
                weight_extremes(box, 1.0)
        except ValueError as exc:
            raise RecordParseError(path, line_numbers[i], str(exc)) from exc
        rows[i, 4] = box.theta


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


def _check_threshold(threshold, name: str, unit: bool = False) -> None:
    """Refuse a threshold that is not a finite real (a bool, nan, a string) or, with unit, lies outside [0, 1]."""
    if not (is_finite_real(threshold) and (not unit or 0.0 <= threshold <= 1.0)):
        raise ValueError(f"{name} must be {'in [0, 1]' if unit else 'a finite real'}, got {threshold!r}")


def _check_distance(distance, name: str) -> None:
    """Refuse a center-distance limit that is not a positive real or inf (no limit)."""
    if not ((is_finite_real(distance) or distance == math.inf) and distance > 0.0):
        raise ValueError(f"{name} must be a positive real, got {distance!r}")


def _greedy(
    preds: list[DetectionRecord],
    gts: list[DetectionRecord],
    affinity_of: Callable[[DetectionRecord, DetectionRecord], float],
    threshold: float,
    candidates: list[list[bool]] | None = None,
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
        for j in every if candidates is None else compress(every, candidates[i]):
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


def _by_frame(pred_frames: Sequence, gt_frames: Sequence) -> tuple[np.ndarray, ...]:
    """Group records by their frame ids: (prediction order, counts, ground-truth
    order, counts), positions frame by frame in sorted id order, in input order
    within a frame, and a count per frame of either, 0 where it has no record."""
    rank = {frame: i for i, frame in enumerate(sorted({*pred_frames, *gt_frames}))}
    grouped = []
    for frames in (pred_frames, gt_frames):
        frame = np.fromiter(map(rank.__getitem__, frames), dtype=np.intp, count=len(frames))
        grouped += [np.argsort(frame, kind="stable"), np.bincount(frame, minlength=len(rank))]
    return tuple(grouped)


def _frames(preds: list, n_p: np.ndarray, gts: list, n_g: np.ndarray) -> Iterator[tuple[list, list]]:
    """Each frame's (predictions, ground truths) of lists in _by_frame's order."""
    p_end = g_end = 0
    for p, g in zip(n_p.tolist(), n_g.tolist()):
        p_end, g_end = p_end + p, g_end + g
        yield preds[p_end - p:p_end], gts[g_end - g:g_end]


def match_greedy(
    preds: list[DetectionRecord], gts: list[DetectionRecord], affinity: str, threshold: float, cfg: WeightConfig,
    mode: str = MODE_3D, *, candidates: np.ndarray | None = None,
) -> MatchResult:
    """Score-greedy one-to-one matching within a single frame and class.

    Predictions are processed in descending score; each claims the still
    unmatched ground truth with the highest affinity, provided it reaches
    the threshold. mode selects 3D (volume) or BEV (footprint) affinity.
    candidates, if given, is a (len(preds), len(gts)) bool array, True
    where prediction i may match ground truth j; only those pairs are
    scored. Leaving out pairs below the threshold changes no match.
    """
    _check_choices(mode, affinity)
    _check_threshold(threshold, "threshold")
    if candidates is not None:
        candidates = np.asarray(candidates)
        if candidates.dtype != bool or candidates.shape != (len(preds), len(gts)):
            raise ValueError(f"candidates must be a {len(preds)}x{len(gts)} bool array, "
                             f"got {candidates.dtype} {candidates.shape}")
        candidates = candidates.tolist()
    # Looked up on each call: tracers and tests replace these names. Every
    # metric is exactly 0.0 on disjoint footprints, which skip the clipper.
    if affinity == IOU_AFFINITY:
        metric, extra = (iou_bev if mode == MODE_BEV else iou_3d), ()
    else:
        metric, extra = (ec_iou_bev if mode == MODE_BEV else ec_iou_3d), (cfg,)

    def affinity_of(p: DetectionRecord, g: DetectionRecord) -> float:
        return 0.0 if circumcircles_disjoint(p.box, g.box) else metric(p.box, g.box, *extra).value

    return _greedy(preds, gts, affinity_of, threshold, candidates)


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


def _candidates(
    rows: np.ndarray, p_rows: np.ndarray, n_p: np.ndarray, targets: np.ndarray, n_g: np.ndarray,
    threshold: float, cfg: WeightConfig, mode: str,
) -> Iterator[dict[str, np.ndarray]]:
    """Yield, frame by frame, match_greedy's candidate mask per affinity (see
    the module docstring): a (predictions, ground truths) bool array, True
    where the pair's affinity may reach threshold > 0. The frames' predictions
    are the rows p_rows of the prediction table rows, n_p[f] to frame f, and
    their ground truths the rows of targets, n_g[f] to frame f."""
    sizes = n_p * n_g
    ends = np.cumsum(sizes)
    p_start, g_start = np.cumsum(n_p) - n_p, np.cumsum(n_g) - n_g
    w_min, w_max = _bulk_extremes(*targets[:, :5].T, cfg.alpha)
    cut = threshold - _CUT_MARGIN
    # One flag per same-frame pair, frame by frame, prediction-major; the
    # pairs go in slices, so that a frame of any size is measured in bounded
    # memory, and each frame's masks are views of these.
    total = int(sizes.sum())
    kept = {affinity: np.zeros(total, dtype=bool) for affinity in (IOU_AFFINITY, EC_IOU_AFFINITY)}
    for start in range(0, total, _BLOCK_PAIRS):
        k = np.arange(start, min(start + _BLOCK_PAIRS, total))
        # Each pair's frame, and its prediction and ground truth in the frame.
        frame = np.searchsorted(ends, k, side="right")
        local = k - (ends[frame] - sizes[frame])
        p, g = p_start[frame] + local // n_g[frame], g_start[frame] + local % n_g[frame]
        # The slice's predictions are one run of p_rows: it reads those rows
        # alone, and indexes them locally.
        boxes = rows[p_rows[p[0]:p[-1] + 1], :7]
        p -= p[0]
        meet = ~_batch.circumcircles_disjoint(boxes[p], targets[g])
        k, p, g = k[meet], p[meet], g[meet]
        iou, bound = _pair_bounds(boxes[p], targets[g], w_min[g], w_max[g], mode)
        kept[IOU_AFFINITY][k] = ~(iou < cut)
        kept[EC_IOU_AFFINITY][k] = ~(bound * (1.0 + _BOUND_SLACK) < cut)
    for end, size, p, g in zip(ends.tolist(), sizes.tolist(), n_p.tolist(), n_g.tolist()):
        yield {affinity: keep[end - size:end].reshape(p, g) for affinity, keep in kept.items()}


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
    preds: list[DetectionRecord], gts: list[DetectionRecord], center_dist_threshold: float, cfg: WeightConfig
) -> TPMeans:
    """Match by BEV center distance (greedy by score, nearest first), then
    average the 3D metrics over the matched pairs. Means are None with no TPs."""
    _check_distance(center_dist_threshold, "center_dist_threshold")
    p_order, n_p, g_order, n_g = _by_frame([p.frame_id for p in preds], [g.frame_id for g in gts])
    preds, gts = [preds[i] for i in p_order.tolist()], [gts[i] for i in g_order.tolist()]
    # Nearest first: the negated BEV center distance is the affinity.
    nearness = lambda p, g: -math.hypot(p.box.x - g.box.x, p.box.y - g.box.y)
    ious, ec_ious = [], []
    for frame_preds, frame_gts in _frames(preds, n_p, gts, n_g):
        result = _greedy(frame_preds, frame_gts, nearness, -center_dist_threshold)
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


def _as_table(records: Sequence[DetectionRecord], classes: set[str], scored: bool) -> RecordTable:
    """records as a RecordTable. parse_records checked a RecordTable's rows;
    any other sequence's records of the given classes are taken, in input
    order, and checked as it does: each box must be a Box3D, each score, where
    scored, a real in [0, 1], and each ground truth (not scored) clear of the
    ego."""
    if isinstance(records, RecordTable):
        return records
    picked = [r for r in records if r.class_label in classes]
    for r in picked:
        label = r.class_label
        if not isinstance(r.box, Box3D):
            raise ValueError(f"a {label!r} record of frame {r.frame_id!r} has a {type(r.box).__name__}, not a Box3D")
        if scored and not (is_finite_real(r.score) and 0.0 <= r.score <= 1.0):
            raise ValueError(f"a {label!r} prediction of frame {r.frame_id!r} has score {r.score!r}, not in [0, 1]")
        if not scored:
            try:
                weight_extremes(r.box, 1.0)
            except ValueError as exc:
                raise ValueError(f"a {label!r} ground truth of frame {r.frame_id!r}: {exc}") from exc
    box_fields = attrgetter("x", "y", "l", "w", "theta", "z", "h")
    rows = [box_fields(r.box) + ((r.score,) if scored else ()) for r in picked]
    rows = np.array(rows, dtype=np.float64).reshape(len(picked), 8 if scored else 7)
    return RecordTable([r.frame_id for r in picked], [r.class_label for r in picked], rows)


def _class_report(
    preds: RecordTable, gts: RecordTable, label: str, threshold: float, cfg: WeightConfig,
    tp_distance: float, count_affinity: str, mode: str,
) -> ClassReport:
    # The class's table rows, frame by frame.
    p_rows, g_rows = np.flatnonzero(preds._labels == label), np.flatnonzero(gts._labels == label)
    p_order, n_p, g_order, n_g = _by_frame(preds._frame_ids[p_rows].tolist(), gts._frame_ids[g_rows].tolist())
    p_rows, g_rows = p_rows[p_order], g_rows[g_order]
    cls_preds, cls_gts = preds._build(p_rows), gts._build(g_rows)
    matched = {IOU_AFFINITY: [], EC_IOU_AFFINITY: []}
    masks = repeat({})
    if threshold > 0.0:  # at threshold 0 every pair matches, a disjoint one included
        masks = _candidates(preds._rows, p_rows, n_p, gts._rows[g_rows], n_g, threshold, cfg, mode)
    for (fp, fg), mask in zip(_frames(cls_preds, n_p, cls_gts, n_g), masks):
        for affinity, results in matched.items():
            results.append(match_greedy(fp, fg, affinity, threshold, cfg, mode, candidates=mask.get(affinity)))
    counted = matched[count_affinity]
    means = tp_metric_means(cls_preds, cls_gts, tp_distance, cfg)
    return ClassReport(
        ap40=_ap40_or_none(matched[IOU_AFFINITY]),
        ec_ap40=_ap40_or_none(matched[EC_IOU_AFFINITY]),
        mean_iou=means.mean_iou,
        mean_ec_iou=means.mean_ec_iou,
        tp=sum(len(r.matches) for r in counted),
        fp=sum(len(r.false_positives) for r in counted),
        fn=sum(len(r.false_negatives) for r in counted),
    )


def evaluate_detections(
    preds: Sequence[DetectionRecord], gts: Sequence[DetectionRecord], classes: list[str], cfg: WeightConfig,
    thresholds: dict[str, float] | None = None, tp_distance: float = DEFAULT_TP_DISTANCE,
    count_affinity: str = IOU_AFFINITY, mode: str = MODE_3D,
) -> EvalReport:
    """Full per-class report: AP40 under both affinities, TP-metric means,
    and TP/FP/FN counts taken from the count_affinity matching.

    A plain record sequence becomes a table at entry (_as_table), its
    predictions checked before its ground truths, so every requested class
    is checked before any is scored. A class's records are built from the
    tables only while that class is scored."""
    _check_choices(mode, count_affinity)
    _check_distance(tp_distance, "tp_distance")
    if len(set(classes)) != len(classes):
        raise ValueError(f"duplicate classes in {','.join(classes)}")
    unknown = sorted(set(thresholds or {}) - set(classes))
    if unknown:
        raise ValueError(f"thresholds name no class in classes: {unknown}")
    defaults = {label: DEFAULT_THRESHOLDS.get(label, FALLBACK_THRESHOLD) for label in classes}
    thresholds = {**defaults, **(thresholds or {})}
    for label, threshold in thresholds.items():
        _check_threshold(threshold, f"threshold for class {label!r}", unit=True)
    preds, gts = _as_table(preds, set(classes), scored=True), _as_table(gts, set(classes), scored=False)
    class_reports: dict[str, ClassReport] = {}
    for label, threshold in thresholds.items():
        # The last class's records and match results are released with
        # _class_report's frame, before the next class's are built.
        class_reports[label] = _class_report(preds, gts, label, threshold, cfg, tp_distance, count_affinity, mode)
    reports = class_reports.values()
    return EvalReport(
        classes=class_reports,
        map40=_mean_or_none([r.ap40 for r in reports if r.ap40 is not None]),
        ec_map40=_mean_or_none([r.ec_ap40 for r in reports if r.ec_ap40 is not None]),
    )
