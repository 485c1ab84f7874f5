"""Vectorized box/metric kernels for the regression simulator.

Mirrors the scalar geometry, metric, and loss paths over (N, 5) parameter
arrays so that thousands of regression cases advance in lockstep. The
clipping stage order and every formula match the scalar implementation;
tests pin agreement between the two routes.

Like `evaluate`, the kernel skips pairs whose circumcircles are disjoint
(`circumcircles_disjoint`): only the other rows are clipped, measured and
weighted, and the skipped rows get an intersection of exactly 0. That is
the value the full clip gives them, and every row scores the same bits in
any batch (see clip_quads_xy), so the shortcut changes no output.

Internal module: the public simulator API lives in `simulate`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import AREA_EPS, DISJOINT_MARGIN, MIN_RELATIVE_SIDE
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
    parameters and sides of at least MIN_RELATIVE_SIDE * max(1, distance)."""
    floor = MIN_RELATIVE_SIDE * np.maximum(1.0, np.hypot(boxes[:, 0], boxes[:, 1]))
    return np.isfinite(boxes).all(axis=1) & (boxes[:, 2] >= floor) & (boxes[:, 3] >= floor)


def circumcircles_disjoint(boxes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row geometry.circumcircles_disjoint of (N, 5) boxes and targets;
    False where a center or side is nan."""
    gap = np.hypot(boxes[:, 0] - targets[:, 0], boxes[:, 1] - targets[:, 1])
    reach = 0.5 * (np.hypot(boxes[:, 2], boxes[:, 3]) + np.hypot(targets[:, 2], targets[:, 3]))
    return gap > reach * (1.0 + DISJOINT_MARGIN)


def corners(boxes: np.ndarray) -> np.ndarray:
    """Corner coordinates of (N, 5) boxes as (N, 4, 2), CCW."""
    local = _LOCAL[None, :, :] * boxes[:, None, 2:4]
    c = np.cos(boxes[:, 4])[:, None]
    s = np.sin(boxes[:, 4])[:, None]
    x = boxes[:, None, 0] + local[..., 0] * c - local[..., 1] * s
    y = boxes[:, None, 1] + local[..., 0] * s + local[..., 1] * c
    return np.stack([x, y], axis=-1)


def _prev_along_ring(arr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """arr[i - 1] with wraparound at each row's vertex count."""
    out = np.empty_like(arr)
    out[:, 1:] = arr[:, :-1]
    out[:, 0] = arr[np.arange(arr.shape[0]), counts - 1]
    return out


def clip_quads_xy(
    sx: np.ndarray, sy: np.ndarray, clip_const: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman intersection of CCW quads against fixed clip quads.

    sx, sy: (N, 4) subject corner coordinates. clip_const comes from
    precompute_clip. Returns zero-padded (x, y) buffers and per-row counts.
    Rows with fewer than 3 vertices are degenerate (empty) regions.

    Each stage cuts the buffers to the longest ring; the returned buffers are
    max(counts.max(), _MIN_WIDTH) wide. numpy sums a row of 8 or more values
    pairwise and a shorter row left to right, so the floor keeps the row sums
    in ring_area and mean_weight independent of the batch they run in.
    """
    n = sx.shape[0]
    counts = np.full(n, 4, dtype=np.int64)
    x, y = sx, sy

    for stage, (ex, ey, b) in enumerate(clip_const):
        k = x.shape[1]
        # Signed side of each vertex relative to the clip edge.
        cross = ex * y - ey * x - b
        valid = np.arange(k)[None, :] < counts[:, None]
        inside = (cross >= 0.0) & valid

        counts_safe = np.maximum(counts, 1)
        s_x = _prev_along_ring(x, counts_safe)
        s_y = _prev_along_ring(y, counts_safe)
        s_in = _prev_along_ring(inside, counts_safe)
        s_cross = _prev_along_ring(cross, counts_safe)
        crossing = (inside != s_in) & valid
        # Temporaries go as soon as they are dead: on a stacked (5N, 5) probe
        # call they set the process's peak memory.
        del cross, valid, counts_safe, s_in

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
        floor = _MIN_WIDTH if stage == len(clip_const) - 1 else 1
        width = max(int(counts.max(initial=0)), floor)
        x = np.zeros((n, width))
        x[slots] = cand_x[flat]
        del cand_x
        y = np.zeros((n, width))
        y[slots] = cand_y[flat]
        del cand_y

    return x, y, counts


def precompute_clip(clip: np.ndarray) -> np.ndarray:
    """Edge constants for a fixed (N, 4, 2) clip polygon array, as one
    (4, 3, N, 1) array: (ex, ey, b) per stage, so that one index selects rows.

    Stage order matches the scalar clipper: edges (3->0), (0->1), (1->2),
    (2->3). cross(v) = ex * vy - ey * vx - b is the signed side of v.
    """
    stages = []
    for j in range(4):
        c1 = clip[:, (j - 1) % 4]
        c2 = clip[:, j]
        ex = (c2[:, 0] - c1[:, 0])[:, None]
        ey = (c2[:, 1] - c1[:, 1])[:, None]
        b = ex * c1[:, 1][:, None] - ey * c1[:, 0][:, None]
        stages.append((ex, ey, b))
    return np.array(stages)


def ring_area(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Masked shoelace area for padded vertex buffers."""
    k = x.shape[1]
    valid = np.arange(k)[None, :] < counts[:, None]
    counts_safe = np.maximum(counts, 1)
    sx = _prev_along_ring(x, counts_safe)
    sy = _prev_along_ring(y, counts_safe)
    terms = sx * y - x * sy
    return np.maximum(0.5 * np.where(valid, terms, 0.0).sum(axis=1), 0.0)


def quad_area(quads: np.ndarray) -> np.ndarray:
    """Shoelace area of (N, 4, 2) corner quads."""
    x, y = quads[..., 0], quads[..., 1]
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
    """Vertex-mean weight of padded polygons; nan where a vertex is degenerate."""
    k = x.shape[1]
    valid = np.arange(k)[None, :] < counts[:, None]
    rho = np.hypot(x, y)
    degenerate = (valid & (rho < DEGENERATE_DISTANCE)).any(axis=1)
    safe = np.maximum(rho, DEGENERATE_DISTANCE)
    counts_safe = np.maximum(counts, 1)
    if method == GEOMETRIC:
        mean_log = np.where(valid, np.log(safe), 0.0).sum(axis=1) / counts_safe
        out = np.exp(alpha * (np.log(rho_c) - mean_log))
    elif method == ARITHMETIC:
        out = np.where(valid, (rho_c[:, None] / safe) ** alpha, 0.0).sum(axis=1) / counts_safe
    else:
        raise ValueError(f"unsupported batch method {method!r}")
    return np.where(degenerate, np.nan, out)


class BatchEvaluator:
    """Loss, gradient, and metric evaluation against a fixed target array."""

    def __init__(self, targets: np.ndarray):
        self.targets = np.asarray(targets, dtype=np.float64)
        self.g_corners = corners(self.targets)
        self.area_g = quad_area(self.g_corners)
        self.rho_c = np.hypot(self.targets[:, 0], self.targets[:, 1])
        self.clip_const = precompute_clip(self.g_corners)
        self._mean_weight_g: dict[tuple[float, str], np.ndarray] = {}

    def _wa_g(self, alpha: float, method: str) -> np.ndarray:
        key = (alpha, method)
        if key not in self._mean_weight_g:
            gx = self.g_corners[..., 0]
            gy = self.g_corners[..., 1]
            four = np.full(len(self.targets), 4)
            self._mean_weight_g[key] = mean_weight(gx, gy, four, self.rho_c, alpha, method)
        return self._mean_weight_g[key] * self.area_g

    def _clip(self, boxes: np.ndarray, p_corners: np.ndarray):
        """Kept-row mask and intersection buffers, per-row intersection and
        prediction areas, and IoU.

        Only rows whose circumcircles meet their target's (and nan rows)
        are clipped; the buffers hold those rows alone. A disjoint pair's
        boxes share no point, and for boxes above the size floor the full
        clip of such a pair measures at most AREA_EPS, so the 0.0 given here
        is the intersection the full clip gives.
        """
        keep = ~circumcircles_disjoint(boxes, self.targets)
        kept = p_corners[keep]
        clip_const = self.clip_const[:, :, keep]
        x, y, counts = clip_quads_xy(kept[..., 0], kept[..., 1], clip_const)
        ring = ring_area(x, y, counts)
        inter = np.zeros(len(boxes))
        inter[keep] = np.where(ring > AREA_EPS, ring, 0.0)
        area_p = quad_area(p_corners)
        iou = np.clip(inter / (self.area_g + area_p - inter), 0.0, 1.0)
        return (keep, x, y, counts, inter, area_p), iou

    def _ec_iou(self, clip, alpha: float, method: str) -> np.ndarray:
        keep, x, y, counts, inter, area_p = clip
        ring = inter[keep]
        wa_inter = np.zeros(len(inter))
        wa_inter[keep] = np.where(
            ring > 0.0, mean_weight(x, y, counts, self.rho_c[keep], alpha, method) * ring, 0.0
        )
        with np.errstate(invalid="ignore"):
            ec = np.clip(wa_inter / (self._wa_g(alpha, method) + (area_p - inter)), 0.0, 1.0)
        return np.where(self.rho_c < DEGENERATE_DISTANCE, np.nan, ec)

    def scores(self, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC):
        """(iou, ec_iou) arrays for prediction boxes against the targets."""
        clip, iou = self._clip(boxes, corners(boxes))
        return iou, self._ec_iou(clip, alpha, method)

    def loss_and_scores(
        self, kind, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC,
        eval_alpha: float | None = None,
    ):
        """(loss, iou, metric, eval_ec_iou) from one clip; loss is nan for invalid boxes.

        metric is the kind's own score: the EC-IoU at alpha for ego-centric
        kinds, else the IoU. eval_ec_iou is the geometric EC-IoU at
        eval_alpha, or None when eval_alpha is None.
        """
        p_corners = corners(boxes)
        clip, iou = self._clip(boxes, p_corners)
        metric = self._ec_iou(clip, alpha, method) if kind.ego_centric else iou
        eval_ec = None if eval_alpha is None else self._ec_iou(clip, eval_alpha, GEOMETRIC)
        loss = 1.0 - metric
        if kind.family in ("diou", "eiou"):
            both = np.concatenate([p_corners, self.g_corners], axis=1)
            lo = both.min(axis=1)
            hi = both.max(axis=1)
            c_l = hi[:, 0] - lo[:, 0]
            c_w = hi[:, 1] - lo[:, 1]
            dist_sq = ((boxes[:, :2] - self.targets[:, :2]) ** 2).sum(axis=1)
            loss = loss + dist_sq / (c_l**2 + c_w**2)
            if kind.family == "eiou":
                loss = loss + (boxes[:, 2] - self.targets[:, 2]) ** 2 / c_l**2
                loss = loss + (boxes[:, 3] - self.targets[:, 3]) ** 2 / c_w**2
        return np.where(valid_boxes(boxes), loss, np.nan), iou, metric, eval_ec

    @functools.cached_property
    def _probes(self) -> "BatchEvaluator":
        """Evaluator over five stacked copies of the targets, one per parameter."""
        return BatchEvaluator(np.tile(self.targets, (5, 1)))

    def gradient(
        self, kind, boxes: np.ndarray, alpha: float, method: str = GEOMETRIC, h: float = 1e-4
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
