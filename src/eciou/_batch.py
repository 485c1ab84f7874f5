"""Vectorized box/metric kernels for the regression simulator.

Mirrors the scalar geometry, metric, and loss paths over (N, 5) parameter
arrays so that thousands of regression cases advance in lockstep. The
clipping stage order and every formula match the scalar implementation;
tests pin agreement between the two routes. Vertices travel as separate
(x, y) coordinate planes, each (N, 4) for box corners or zero-padded for
clipped rings, from `corners` to the weights.

The clip step gives a row an intersection of nan if `valid_boxes` refuses
its box (its IoU, every EC-IoU and its loss are then nan, and its target
stands in for it in the arithmetic, which cannot overflow); exactly 0, as the
full clip would, if its circumcircles and its target's are disjoint
(`circumcircles_disjoint`); and the clip otherwise. Only rings that measure
non-empty are weighted, and no padding slot enters a weight. Every row
scores the same bits in any batch (see clip_quads_xy).

Internal module: the public simulator API lives in `simulate`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import AREA_EPS, DISJOINT_MARGIN, MAX_REACH, MIN_RELATIVE_SIDE
from .weighting import ARITHMETIC, DEGENERATE_DISTANCE, GEOMETRIC

# Local corner pattern, CCW from (+l/2, +w/2); scaled by (l, w) per box.
_LOCAL = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

# Narrowest clip output buffer; see clip_quads_xy.
_MIN_WIDTH = 8


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    in_range = (theta >= -math.pi) & (theta < math.pi)
    return np.where(in_range, theta, np.mod(theta + math.pi, 2.0 * math.pi) - math.pi)


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Per-row mask of the (N, 5) boxes OrientedBoxBEV accepts: finite
    parameters, sides of at least MIN_RELATIVE_SIDE * max(1, distance) and a
    reach distance + hypot(l, w) / 2 of at most MAX_REACH."""
    distance = np.hypot(boxes[:, 0], boxes[:, 1])
    floor = MIN_RELATIVE_SIDE * np.maximum(1.0, distance)
    reach = distance + 0.5 * np.hypot(boxes[:, 2], boxes[:, 3])
    return (
        np.isfinite(boxes).all(axis=1) & (boxes[:, 2] >= floor) & (boxes[:, 3] >= floor)
        & (reach <= MAX_REACH)
    )


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


def _prev_along_ring(arr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """arr[i - 1] with wraparound at each row's vertex count."""
    out = np.empty_like(arr)
    out[:, 1:] = arr[:, :-1]
    out[:, 0] = arr[np.arange(arr.shape[0]), counts - 1]
    return out


def clip_quads_xy(
    sx: np.ndarray, sy: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman intersection of CCW subject quads against CCW clip quads.

    sx, sy, cx, cy: (N, 4) corner coordinates of the subject and clip quads.
    Returns zero-padded (x, y) buffers and per-row counts. Rows with fewer
    than 3 vertices are degenerate (empty) regions.

    Stage order matches the scalar clipper: clip edges (3->0), (0->1),
    (1->2), (2->3). cross(v) = ex * vy - ey * vx - b is the signed side of v.

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

        counts_safe = np.maximum(counts, 1)
        s_x = _prev_along_ring(x, counts_safe)
        s_y = _prev_along_ring(y, counts_safe)
        s_cross = _prev_along_ring(cross, counts_safe)
        crossing = (inside != (s_cross >= 0.0)) & valid
        # Temporaries go as soon as they are dead: on a stacked (5N, 5) probe
        # call they set the process's peak memory.
        del cross, valid, counts_safe

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
        pos -= 1
        flat = np.nonzero(cvalid)
        slots = (flat[0], pos[flat])
        del pos, cvalid
        floor = _MIN_WIDTH if stage == 3 else 1
        width = max(int(counts.max(initial=0)), floor)
        x = np.zeros((n, width))
        x[slots] = cand_x[flat]
        del cand_x
        y = np.zeros((n, width))
        y[slots] = cand_y[flat]
        del cand_y

    return x, y, counts


def ring_area(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Masked shoelace area for padded vertex buffers."""
    k = x.shape[1]
    valid = np.arange(k)[None, :] < counts[:, None]
    counts_safe = np.maximum(counts, 1)
    sx = _prev_along_ring(x, counts_safe)
    sy = _prev_along_ring(y, counts_safe)
    terms = sx * y - x * sy
    return np.maximum(0.5 * np.where(valid, terms, 0.0).sum(axis=1), 0.0)


def quad_area(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shoelace area of quads with (N, 4) corner planes."""
    nx, ny = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return np.maximum(0.5 * (x * ny - nx * y).sum(axis=1), 0.0)


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

    def _admit(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The valid_boxes mask, and the boxes with each refused row replaced
        by its target: a refused box enters no arithmetic, so none of its
        values can overflow or warn. Without a refused row the boxes are not
        copied (a copy of each probe stack raised the peak RSS of sim)."""
        valid = valid_boxes(boxes)
        if valid.all():
            return valid, boxes
        return valid, np.where(valid[:, None], boxes, self.targets)

    def _clip(self, valid: np.ndarray, boxes: np.ndarray, px: np.ndarray, py: np.ndarray):
        """Row indices and buffers of the non-empty rings, per-row intersection
        and prediction areas, and IoU, for boxes from _admit.

        A row's intersection is nan if valid_boxes refused its box, exactly
        0 if its circumcircles are disjoint (above the size floor the full
        clip of such a pair measures at most AREA_EPS), and the clip
        otherwise; a ring above AREA_EPS has 3 or more vertices.
        """
        keep = valid & ~circumcircles_disjoint(boxes, self.targets)
        x, y, counts = clip_quads_xy(px[keep], py[keep], self.gx[keep], self.gy[keep])
        ring = ring_area(x, y, counts)
        full = ring > AREA_EPS
        inter = np.where(valid, 0.0, np.nan)
        inter[keep] = np.where(full, ring, 0.0)
        area_p = quad_area(px, py)
        iou = np.clip(inter / (self.area_g + area_p - inter), 0.0, 1.0)
        return (np.flatnonzero(keep)[full], x[full], y[full], counts[full], inter, area_p), iou

    def _ec_iou(self, clip, alpha: float, method: str) -> np.ndarray:
        rows, x, y, counts, inter, area_p = clip
        wa_inter = np.zeros(len(inter))
        wa_inter[rows] = mean_weight(x, y, counts, self.rho_c[rows], alpha, method) * inter[rows]
        with np.errstate(invalid="ignore"):
            ec = np.clip(wa_inter / (self._wa_g(alpha, method) + (area_p - inter)), 0.0, 1.0)
        return np.where(self.rho_c < DEGENERATE_DISTANCE, np.nan, ec)

    def scores(self, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC):
        """(iou, ec_iou) arrays for prediction boxes against the targets."""
        valid, boxes = self._admit(boxes)
        clip, iou = self._clip(valid, boxes, *corners(boxes))
        return iou, self._ec_iou(clip, alpha, method)

    def loss_and_scores(
        self, kind, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC,
        eval_alpha: float | None = None,
    ):
        """(loss, iou, metric, eval_ec_iou) from one clip; each is nan where a box is invalid.

        metric is the kind's own score: the EC-IoU at alpha for ego-centric
        kinds, else the IoU. eval_ec_iou is the geometric EC-IoU at
        eval_alpha, or None when eval_alpha is None.
        """
        valid, boxes = self._admit(boxes)
        px, py = corners(boxes)
        clip, iou = self._clip(valid, boxes, px, py)
        metric = self._ec_iou(clip, alpha, method) if kind.ego_centric else iou
        eval_ec = None if eval_alpha is None else self._ec_iou(clip, eval_alpha, GEOMETRIC)
        loss = 1.0 - metric
        if kind.family in ("diou", "eiou"):
            # Sides of the box enclosing both; maximum/minimum keep a nan row nan.
            c_l = np.maximum(px.max(axis=1), self.gx.max(axis=1)) - np.minimum(
                px.min(axis=1), self.gx.min(axis=1))
            c_w = np.maximum(py.max(axis=1), self.gy.max(axis=1)) - np.minimum(
                py.min(axis=1), self.gy.min(axis=1))
            dist_sq = ((boxes[:, :2] - self.targets[:, :2]) ** 2).sum(axis=1)
            loss = loss + dist_sq / (c_l**2 + c_w**2)
            if kind.family == "eiou":
                loss = loss + (boxes[:, 2] - self.targets[:, 2]) ** 2 / c_l**2
                loss = loss + (boxes[:, 3] - self.targets[:, 3]) ** 2 / c_w**2
        return loss, iou, metric, eval_ec

    @functools.cached_property
    def _probes(self) -> "BatchEvaluator":
        """Evaluator over five stacked copies of the targets, one per parameter."""
        return BatchEvaluator(np.tile(self.targets, (5, 1)))

    def gradient(
        self, kind, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC, *, h: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference gradients (N, 5) and a per-row finite mask.

        Copy i of the boxes is probed along parameter i; the five +h copies
        are scored as one (5N, 5) stack and the five -h copies as another.
        Each row scores exactly as it would on its own.
        """
        n = boxes.shape[0]
        params = np.arange(5)
        hi = np.tile(boxes, (5, 1, 1))
        lo = hi.copy()
        hi[params, :, params] += h
        lo[params, :, params] -= h
        loss_hi = self._probes.loss_and_scores(kind, hi.reshape(5 * n, 5), alpha, method)[0]
        loss_lo = self._probes.loss_and_scores(kind, lo.reshape(5 * n, 5), alpha, method)[0]
        grads = ((loss_hi - loss_lo) / (2.0 * h)).reshape(5, n).T
        return grads, np.isfinite(grads).all(axis=1)
