"""Vectorized box/metric kernels for the regression simulator and `eval`.

Mirrors the scalar geometry, metric, and loss paths over (N, 5) parameter
arrays so that thousands of regression cases advance together in
`simulate`, each only until it reaches a fixed point (every later step
would score it to the same bits, as below), and so that
`evaluate._candidates` and `evaluate._pair_bounds` bound a class's
same-frame pairs through `BatchEvaluator.clip` and
`circumcircles_disjoint` before the scalar path scores them. The
clipping stage order and every formula match the scalar implementation;
tests pin agreement between the two routes. The bulk box rules of sim and
eval have their one numpy copy here: within_extents for
geometry._check_extents, ego_distances for weighting.weight_extremes.
Vertices travel as separate (x, y) coordinate planes, each (N, 4) for box
corners or zero-padded for clipped rings, from `corners` to the weights.

`BatchEvaluator.clip` makes one `Clip` of a batch, which every score and
loss of that batch reads. It gives a row an intersection of nan if
`valid_boxes` refuses its box (its IoU, every EC-IoU and its loss are then
nan, and its target stands in for it in the arithmetic, which cannot
overflow); exactly 0, as the full clip would, if its circumcircles and its
target's are disjoint (`circumcircles_disjoint`); and the clip otherwise.
Only rings that measure non-empty are weighted, and no padding slot enters a
weight. Every row scores the same bits in any batch (see clip_quads_xy).

numpy runs a reduction or a 2-D fancy index across an axis only 4 to 16
wide as a slow per-row inner loop. So the kernel reduces along the row
(batch) axis only: a max, min, finite mask or sum across a box's columns is
written out column by column, a sum left to right (numpy's own order for a
row of fewer than 8 values, so the bits stay), and the clip gathers and
scatters through flat indices. Only work across a clipped ring's 8 or more
slots stays row-wise: the ring sums in ring_area and mean_weight, whose
pairwise order is part of the output bits, and the masks and running
counts over those slots.

Internal module: the public simulator API lives in `simulate`.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .geometry import AREA_EPS, DISJOINT_MARGIN, MAX_REACH, MIN_RELATIVE_SIDE
from .weighting import ARITHMETIC, DEGENERATE_DISTANCE, GEOMETRIC

# Local corner pattern, CCW from (+l/2, +w/2); scaled by (l, w) per box.
_LOCAL = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

# Narrowest clip output buffer; see clip_quads_xy.
_MIN_WIDTH = 8

# Most rows gradient scores in one loss_and_scores call. A call costs a few
# hundred microseconds before it touches a row, so the benchmark's 162 cases
# (1,782 stacked rows) go in one call per step. The kernel's temporaries grow
# with a call's rows, and one call over a larger stack multiplies a run's page
# faults, system time and peak memory. Of 2048 to 16384 rows, 8192 ran best
# or level with the best at 486, 1,350 and 9,126 cases.
_BLOCK_ROWS = 8192


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    in_range = (theta >= -math.pi) & (theta < math.pi)
    return np.where(in_range, theta, np.mod(theta + math.pi, 2.0 * math.pi) - math.pi)


def within_extents(distance, diagonal, smallest, largest, slack: float = 0.0) -> np.ndarray:
    """Per-row geometry._check_extents with slack to spare: a reach distance +
    diagonal / 2 of at most MAX_REACH * (1 - slack), and the smallest extent
    at least MIN_RELATIVE_SIDE * (1 + slack) * max(1, distance, largest)."""
    floor = MIN_RELATIVE_SIDE * (1.0 + slack) * np.maximum(np.maximum(1.0, distance), largest)
    return (distance + 0.5 * diagonal <= MAX_REACH * (1.0 - slack)) & (smallest >= floor)


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Per-row mask of the (N, 5) boxes OrientedBoxBEV accepts: finite
    parameters, within_extents at slack 0."""
    x, y, l, w = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    finite = np.isfinite(boxes)
    return (
        finite[:, 0] & finite[:, 1] & finite[:, 2] & finite[:, 3] & finite[:, 4]
        & within_extents(np.hypot(x, y), np.hypot(l, w), np.minimum(l, w), np.maximum(l, w))
    )


def ego_distances(x, y, l, w, theta) -> tuple[np.ndarray, np.ndarray]:
    """Per-row distances from the ego to the nearest point and the farthest
    corner of boxes, in box-local coordinates as weighting.weight_extremes."""
    c, s = np.cos(theta), np.sin(theta)
    ox, oy = -(c * x + s * y), -(-s * x + c * y)  # the ego, box-local
    hl, hw = 0.5 * l, 0.5 * w
    near = np.hypot(ox - np.clip(ox, -hl, hl), oy - np.clip(oy, -hw, hw))
    return near, np.hypot(np.abs(ox) + hl, np.abs(oy) + hw)


def circumcircles_disjoint(boxes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row geometry.circumcircles_disjoint of (N, 5) boxes and targets;
    False where a center or side is nan."""
    gap = np.hypot(boxes[:, 0] - targets[:, 0], boxes[:, 1] - targets[:, 1])
    reach = 0.5 * (np.hypot(boxes[:, 2], boxes[:, 3]) + np.hypot(targets[:, 2], targets[:, 3]))
    return gap > reach * (1.0 + DISJOINT_MARGIN)


def corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner coordinates of (N, 5) boxes as (N, 4) x and y planes, CCW."""
    lx = _LOCAL[:, 0] * boxes[:, 2:3]
    ly = _LOCAL[:, 1] * boxes[:, 3:4]
    c = np.cos(boxes[:, 4])[:, None]
    s = np.sin(boxes[:, 4])[:, None]
    x = boxes[:, None, 0] + lx * c - ly * s
    y = boxes[:, None, 1] + lx * s + ly * c
    return x, y


def _last_slots(counts: np.ndarray, k: int) -> np.ndarray:
    """Flat index of each row's last vertex in an (N, k) buffer; slot 0 of an empty row."""
    return np.arange(counts.shape[0]) * k + (np.maximum(counts, 1) - 1)


def _prev_along_ring(arr: np.ndarray, last: np.ndarray) -> np.ndarray:
    """arr[i - 1] with wraparound at each row's last vertex (see _last_slots)."""
    out = np.empty_like(arr)
    out[:, 1:] = arr[:, :-1]
    out[:, 0] = arr.take(last)
    return out


def clip_quads_xy(
    sx: np.ndarray, sy: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman intersection of CCW subject quads against CCW clip quads.

    sx, sy, cx, cy: (N, 4) corner coordinates of the subject and clip quads.
    Returns (x, y) buffers and per-row counts. Rows with fewer than 3
    vertices are degenerate (empty) regions. Every slot past a row's count
    is (0.0, 0.0), so its shoelace terms are zero and ring_area sums whole
    rows; a vertex sum must still mask it, as mean_weight does.

    Stage order matches the scalar clipper: clip edges (3->0), (0->1),
    (1->2), (2->3). cross(v) = ex * vy - ey * vx - b is the signed side of v.

    Each stage streams two candidates per vertex, [crossing point, vertex],
    into an (N, 2k) buffer and keeps those that are set; a running count
    along each row gives a kept candidate's slot. The kept candidates are
    moved into the zeroed (N, width) output with one flat gather and one
    flat scatter.

    Each stage cuts the buffers to the longest ring; the returned buffers are
    max(counts.max(), _MIN_WIDTH) wide. numpy sums a row of 8 or more values
    pairwise and a shorter row left to right, so the floor keeps the row sums
    in ring_area and mean_weight independent of the batch they run in.
    """
    n = sx.shape[0]
    counts = np.full(n, 4, dtype=np.int64)
    x, y = sx, sy

    for stage in range(4):
        ex = (cx[:, stage] - cx[:, stage - 1])[:, None]
        ey = (cy[:, stage] - cy[:, stage - 1])[:, None]
        b = ex * cy[:, stage - 1][:, None] - ey * cx[:, stage - 1][:, None]
        k = x.shape[1]
        cross = ex * y - ey * x - b
        valid = np.arange(k)[None, :] < counts[:, None]
        inside = (cross >= 0.0) & valid

        last = _last_slots(counts, k)
        s_x = _prev_along_ring(x, last)
        s_y = _prev_along_ring(y, last)
        s_cross = _prev_along_ring(cross, last)
        crossing = (inside != (s_cross >= 0.0)) & valid
        # Temporaries go as soon as they are dead: on a block of gradient's
        # stack they set the process's peak memory.
        del cross, valid, last

        dx = x - s_x
        dy = y - s_y
        denom = ex * dy - ey * dx
        crossing &= denom != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -s_cross / denom
            del s_cross, denom
            ix = s_x + t * dx
            del s_x, dx
            iy = s_y + t * dy
            del s_y, dy, t

        # Candidate stream per vertex: [crossing point, vertex itself].
        cand_x = np.empty((n, 2 * k))
        cand_y = np.empty((n, 2 * k))
        cand_x[:, 0::2] = ix
        cand_x[:, 1::2] = x
        cand_y[:, 0::2] = iy
        cand_y[:, 1::2] = y
        cvalid = np.empty((n, 2 * k), dtype=bool)
        cvalid[:, 0::2] = crossing
        cvalid[:, 1::2] = inside
        del ix, iy, crossing, inside, x, y

        pos = np.cumsum(cvalid, axis=1)
        counts = pos[:, -1].copy()
        floor = _MIN_WIDTH if stage == 3 else 1
        width = max(int(counts.max(initial=0)), floor)
        # Kept candidate src (flat in the (n, 2k) stream) lands in slot
        # pos - 1 of its row of the (n, width) output.
        src = np.flatnonzero(cvalid)
        dest = (src // (2 * k)) * width + pos.ravel().take(src) - 1
        del pos, cvalid
        x = np.zeros((n, width))
        x.ravel()[dest] = cand_x.ravel().take(src)
        del cand_x
        y = np.zeros((n, width))
        y.ravel()[dest] = cand_y.ravel().take(src)
        del cand_y, src, dest

    return x, y, counts


def ring_area(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Signed shoelace area of clip_quads_xy's zero-padded rings; not clamped."""
    last = _last_slots(counts, x.shape[1])
    sx = _prev_along_ring(x, last)
    sy = _prev_along_ring(y, last)
    return 0.5 * (sx * y - x * sy).sum(axis=1)


def quad_area(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shoelace area of quads with (N, 4) corner planes."""
    t0, t1, t2, t3 = (x[:, i] * y[:, (i + 1) % 4] - x[:, (i + 1) % 4] * y[:, i] for i in range(4))
    return np.maximum(0.5 * (((t0 + t1) + t2) + t3), 0.0)


def _span(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row max minus min over the 8 values of two (N, 4) planes, taken
    column by column; maximum/minimum keep a nan row nan."""
    first, *rest = (*a.T, *b.T)
    hi = lo = first
    for col in rest:
        hi = np.maximum(hi, col)
        lo = np.minimum(lo, col)
    return hi - lo


def mean_weight(
    x: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    rho_c: np.ndarray,
    alpha: float,
    method: str = GEOMETRIC,
) -> np.ndarray:
    """Vertex-mean weight of padded rings of 3 or more vertices; nan where a vertex is degenerate."""
    k = x.shape[1]
    valid = np.arange(k)[None, :] < counts[:, None]
    rho = np.where(valid, np.hypot(x, y), rho_c[:, None])  # padding weighs 1: no overflow
    degenerate = (valid & (rho < DEGENERATE_DISTANCE)).any(axis=1)
    safe = np.maximum(rho, DEGENERATE_DISTANCE)
    if method == GEOMETRIC:
        mean_log = np.where(valid, np.log(safe), 0.0).sum(axis=1) / counts
        out = np.exp(alpha * (np.log(rho_c) - mean_log))
    elif method == ARITHMETIC:
        out = np.where(valid, (rho_c[:, None] / safe) ** alpha, 0.0).sum(axis=1) / counts
    else:
        raise ValueError(f"unsupported batch method {method!r}")
    return np.where(degenerate, np.nan, out)


class Clip(NamedTuple):
    """BatchEvaluator.clip of (N, 5) boxes: the admitted boxes, their corner planes, the ascending rows
    whose ring measures non-empty with those rings' buffers and counts, and per-row inter, area_p and iou."""

    boxes: np.ndarray
    px: np.ndarray
    py: np.ndarray
    rows: np.ndarray
    x: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    inter: np.ndarray
    area_p: np.ndarray
    iou: np.ndarray


class BatchEvaluator:
    """Loss, gradient, and metric evaluation against a fixed target array."""

    def __init__(self, targets: np.ndarray):
        self.targets = np.asarray(targets, dtype=np.float64)
        self.gx, self.gy = corners(self.targets)
        self.area_g = quad_area(self.gx, self.gy)
        self.rho_c = np.hypot(self.targets[:, 0], self.targets[:, 1])
        self._weighted_area_g: dict[tuple[float, str], np.ndarray] = {}

    def _wa_g(self, alpha: float, method: str) -> np.ndarray:
        key = (alpha, method)
        if key not in self._weighted_area_g:
            mean = mean_weight(self.gx, self.gy, np.full(len(self.targets), 4), self.rho_c, alpha, method)
            self._weighted_area_g[key] = mean * self.area_g
        return self._weighted_area_g[key]

    def clip(self, boxes: np.ndarray) -> Clip:
        """The Clip of (N, 5) prediction boxes against the targets; the module
        docstring gives each row's intersection. A box valid_boxes refuses is
        replaced by its target, so it enters no arithmetic that could overflow
        or warn; without one the boxes are not copied (a copy of each probe
        stack raised the peak RSS of sim). Above the size floor the full clip
        of a disjoint pair measures at most AREA_EPS, and a ring above AREA_EPS
        has 3 or more vertices."""
        valid = valid_boxes(boxes)
        if not valid.all():
            boxes = np.where(valid[:, None], boxes, self.targets)
        px, py = corners(boxes)
        keep = valid & ~circumcircles_disjoint(boxes, self.targets)
        x, y, counts = clip_quads_xy(px[keep], py[keep], self.gx[keep], self.gy[keep])
        ring = ring_area(x, y, counts)
        full = ring > AREA_EPS
        inter = np.where(valid, 0.0, np.nan)
        inter[keep] = np.where(full, ring, 0.0)
        area_p = quad_area(px, py)
        iou = np.clip(inter / (self.area_g + area_p - inter), 0.0, 1.0)
        return Clip(boxes, px, py, np.flatnonzero(keep)[full], x[full], y[full], counts[full], inter, area_p, iou)

    def ec_iou(self, clip: Clip, alpha: float, method: str = GEOMETRIC, stop: int | None = None) -> np.ndarray:
        """Per-row EC-IoU of a clip at alpha, of its rows before stop (all
        rows if stop is None); only those rows' rings are weighted."""
        k = len(clip.rows) if stop is None else np.searchsorted(clip.rows, stop)
        rows, inter = clip.rows[:k], clip.inter[:stop]
        wa_inter = np.zeros(len(inter))
        weight = mean_weight(clip.x[:k], clip.y[:k], clip.counts[:k], self.rho_c[rows], alpha, method)
        wa_inter[rows] = weight * inter[rows]
        with np.errstate(invalid="ignore"):
            ec = np.clip(wa_inter / (self._wa_g(alpha, method)[:stop] + (clip.area_p[:stop] - inter)), 0.0, 1.0)
        return np.where(self.rho_c[:stop] < DEGENERATE_DISTANCE, np.nan, ec)

    def scores(self, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC):
        """(iou, ec_iou) arrays for prediction boxes against the targets."""
        clip = self.clip(boxes)
        return clip.iou, self.ec_iou(clip, alpha, method)

    def _enclosing(self, boxes: np.ndarray, px: np.ndarray, py: np.ndarray):
        """Per-row (dist_sq, c_l, c_w) of the DIoU/EIoU regularizer: the squared
        center distance and the sides of the axis-aligned box enclosing both
        boxes."""
        dx = boxes[:, 0] - self.targets[:, 0]
        dy = boxes[:, 1] - self.targets[:, 1]
        return dx**2 + dy**2, _span(px, self.gx), _span(py, self.gy)

    def loss_and_scores(self, kind, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC):
        """(loss, metric, clip) from one clip; loss and metric are nan where a box is invalid.

        metric is the kind's own score: the EC-IoU at alpha for ego-centric
        kinds, else the IoU.
        """
        clip = self.clip(boxes)
        metric = self.ec_iou(clip, alpha, method) if kind.ego_centric else clip.iou
        loss = 1.0 - metric
        if kind.family in ("diou", "eiou"):
            dist_sq, c_l, c_w = self._enclosing(clip.boxes, clip.px, clip.py)
            loss = loss + dist_sq / (c_l**2 + c_w**2)
            if kind.family == "eiou":
                loss = loss + (clip.boxes[:, 2] - self.targets[:, 2]) ** 2 / c_l**2
                loss = loss + (clip.boxes[:, 3] - self.targets[:, 3]) ** 2 / c_w**2
        return loss, metric, clip

    @functools.cached_property
    def _probes(self) -> list[tuple[slice, "BatchEvaluator"]]:
        """Evaluators over the 11 stacked copies of the targets that gradient
        scores, one per block of at most _BLOCK_ROWS rows, each with the rows
        of the stack it covers."""
        stacked = np.tile(self.targets, (11, 1))
        starts = range(0, max(len(stacked), 1), _BLOCK_ROWS)
        return [(slice(s, s + _BLOCK_ROWS), BatchEvaluator(stacked[s : s + _BLOCK_ROWS])) for s in starts]

    def gradient(self, kind, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC, *, h: float, eval_alpha: float):
        """(loss, iou, metric, eval_ec_iou) at the boxes, central-difference
        gradients (N, 5) and a per-row finite mask, from one stack of 11
        copies of the boxes; eval_ec_iou is the geometric EC-IoU at eval_alpha.

        Copy 0 is the boxes, copy 1 + i is probed along parameter i by +h and
        copy 6 + i by -h. The stack is scored in blocks of at most _BLOCK_ROWS
        rows, one loss_and_scores call each: one call per step at the
        benchmark's size, with the kernel's temporaries bounded at any size.
        Each row scores as it would on its own; only copy 0 is weighted at eval_alpha.
        """
        n = boxes.shape[0]
        params = np.arange(5)
        stack = np.tile(boxes, (11, 1, 1))
        stack[1 + params, :, params] += h
        stack[6 + params, :, params] -= h
        stack = stack.reshape(11 * n, 5)
        losses, base = [], []
        for rows, probe in self._probes:
            loss, metric, clip = probe.loss_and_scores(kind, stack[rows], alpha, method)
            losses.append(loss)
            stop = n - rows.start  # the block's rows of copy 0
            if stop > 0 or rows.start == 0:  # an empty stack is one empty block
                base.append((loss[:stop], clip.iou[:stop], metric[:stop], probe.ec_iou(clip, eval_alpha, stop=stop)))
            del clip  # dead: freed before the next block is clipped
        loss = np.concatenate(losses)
        grads = ((loss[n : 6 * n] - loss[6 * n :]) / (2.0 * h)).reshape(5, n)
        # all() over the 5 contiguous parameter rows ANDs whole rows at a time.
        return tuple(map(np.concatenate, zip(*base))), grads.T, np.isfinite(grads).all(axis=0)
