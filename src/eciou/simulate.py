"""Synthetic anchor-to-target box regression benchmark.

Places a family of targets at one location, seeds a grid of anchors around
them, and descends each of the six loss functions with plain gradient
steps, recording mean IoU / mean EC-IoU learning curves per iteration.

Cases are independent; all aggregation happens in fixed case-id order so
results do not depend on execution order. `run_simulation` descends the
cases together on the vectorized kernel in `_batch`, each until it reaches
a fixed point, weighting losses with the geometric or arithmetic vertex
mean. `run_case` is the scalar reference for a single case and takes any
`WeightConfig`, so Monte Carlo descents go through it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from .geometry import OrientedBoxBEV
from .losses import ALL_KINDS, LossKind, NonFiniteGradientError, loss_gradient, loss_value
from .metrics import ec_iou_bev, iou_bev
from .weighting import ARITHMETIC, GEOMETRIC, WeightConfig, is_finite_real, is_integer, weight_extremes

DEFAULT_LOSS_CFG = WeightConfig(alpha=1.0, method=GEOMETRIC)

# Finite-difference probe used by the descent. The vertex-mean score is
# discontinuous where the clipped intersection gains or loses a vertex;
# probing at a coarser scale keeps those seams from exploding the
# central-difference gradients.
GRAD_STEP = 0.03

# Largest scenario run_simulation accepts: cases (targets * grid^2 * ratios
# * scales) and descent iterations. The full-size scenario has 9126 cases
# and 180 iterations.
MAX_CASES = 100_000
MAX_ITERATIONS = 100_000


class ConfigError(ValueError):
    """A scenario document does not match the expected schema."""


def _number(key: str, value) -> float:
    """value as a float if it is a finite real number, bools excluded;
    anything else is a ConfigError naming key."""
    if is_finite_real(value):
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """json.load's object_pairs_hook: the pairs as a dict. A key given twice,
    whose last value json.load would silently keep, is a ConfigError naming it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config key {key!r} is given twice")
        out[key] = value
    return out


def _weights_in_float_range(targets: list[OrientedBoxBEV], alpha: float) -> bool:
    """Whether the EC-IoU weight over every target's region stays inside (0, inf)
    at alpha; DegenerateDistanceError for a target it is undefined on."""
    try:  # a Python float, so that the largest weight raises when it overflows
        return min(weight_extremes(target, float(alpha))[0] for target in targets) > 0.0
    except OverflowError:  # the largest weight
        return False


def _floats(key: str, value, shape: str = "list"):
    """value as floats through _number if it is a list or tuple of the shape
    "list", "pair" or "list of pairs"; anything else is a ConfigError naming key."""
    if not isinstance(value, (list, tuple)) or (shape == "pair" and len(value) != 2):
        raise ConfigError(f"{key} must be a {shape} of numbers, got {value!r}")
    if shape == "list of pairs":
        return tuple(_floats(key, v, "pair") for v in value)
    return tuple(_number(key, v) for v in value)


@dataclass(frozen=True)
class StepRule:
    """Decayed learning rate with an optional convergence-adaptive boost.

    The per-case step is rate_at(t) * (2 - M) when metric_boost is on,
    where M is the case's current metric under its own loss kind: far
    anchors move up to twice as fast, nearly-converged ones settle.
    """

    rate: float = 0.1
    decay_factor: float = 0.1
    decay_at: float = 0.9
    metric_boost: bool = True

    def __post_init__(self) -> None:
        for name in ("rate", "decay_factor", "decay_at"):
            object.__setattr__(self, name, _number(f"step_rule.{name}", getattr(self, name)))
        for name in ("rate", "decay_factor"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ConfigError(f"step {name} must be positive, got {value!r}")
        if not 0.0 <= self.decay_at <= 1.0:
            raise ConfigError("decay_at must be a fraction of the run in [0, 1]")
        if not isinstance(self.metric_boost, bool):
            raise ConfigError(f"metric_boost must be true or false, got {self.metric_boost!r}")

    def rate_at(self, iteration: int, total: int) -> float:
        if iteration < self.decay_at * total:
            return self.rate
        return self.rate * self.decay_factor


@dataclass(frozen=True)
class ScenarioConfig:
    """Benchmark layout; the defaults reproduce the full-size scenario."""

    target_center: tuple[float, float] = (6.0, 6.0)
    target_dims: tuple[tuple[float, float], ...] = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0))
    target_thetas: tuple[float, ...] = (0.0, math.pi / 4.0)
    grid_extent: float = 6.0
    grid_points_per_axis: int = 13
    anchor_ratios: tuple[tuple[float, float], ...] = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0))
    anchor_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    iterations: int = 180
    step_rule: StepRule = StepRule()
    eval_alpha: float = 4.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_center", _floats("target_center", self.target_center, "pair"))
        for name in ("target_dims", "anchor_ratios"):
            object.__setattr__(self, name, _floats(name, getattr(self, name), "list of pairs"))
        for name in ("target_thetas", "anchor_scales"):
            object.__setattr__(self, name, _floats(name, getattr(self, name)))
        if _number("grid_extent", self.grid_extent) <= 0.0:
            raise ConfigError("grid_extent must be positive")
        for name in ("grid_points_per_axis", "iterations"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if _number("eval_alpha", self.eval_alpha) < 0.0:
            raise ConfigError(f"eval_alpha must be >= 0, got {self.eval_alpha!r}")
        if not (self.target_dims and self.target_thetas and self.anchor_ratios and self.anchor_scales):
            raise ConfigError("target and anchor lists must be non-empty")
        ratios = [v for pair in self.anchor_ratios for v in pair]
        for name, values in (("anchor_ratios", ratios), ("anchor_scales", self.anchor_scales)):
            if min(values) <= 0.0:
                raise ConfigError(f"{name} entries must be positive, got {getattr(self, name)!r}")
        if self.iterations > MAX_ITERATIONS:
            raise ConfigError(f"iterations must be at most {MAX_ITERATIONS}")
        cases = (
            len(self.target_dims) * len(self.target_thetas) * self.grid_points_per_axis**2
            * len(self.anchor_ratios) * len(self.anchor_scales)
        )
        if cases > MAX_CASES:
            raise ConfigError(
                f"grid_points_per_axis, anchor_ratios and anchor_scales give more than {MAX_CASES} "
                "cases (targets * grid_points_per_axis^2 * ratios * scales)"
            )
        if not isinstance(self.step_rule, StepRule):
            raise ConfigError(f"step_rule must be a StepRule, got {self.step_rule!r}")
        try:
            in_range = _weights_in_float_range(self.targets(), self.eval_alpha)
        except ValueError as exc:  # a box the targets cannot be, or DegenerateDistanceError
            raise ConfigError(f"target_center and target_dims give a bad target: {exc}") from exc
        # Every anchor shape, at the grid corner farthest from the ego: the box rules are strictest there.
        xs, ys = (_axis_points(c, self.grid_extent, self.grid_points_per_axis) for c in self.target_center)
        x, y = max(((x, y) for x in (xs[0], xs[-1]) for y in (ys[0], ys[-1])), key=lambda p: math.hypot(*p))
        try:
            for l, w in self.anchor_ratios:
                for scale in self.anchor_scales:
                    OrientedBoxBEV(x, y, l * scale, w * scale, 0.0)
        except ValueError as exc:
            raise ConfigError(
                f"target_center, grid_extent, anchor_ratios and anchor_scales give a bad anchor: {exc}"
            ) from exc
        if not in_range:
            raise ConfigError(f"eval_alpha {self.eval_alpha:g} puts the EC-IoU weights of a target out of float range")

    def targets(self) -> list[OrientedBoxBEV]:
        """Every target, dims-major then heading."""
        cx, cy = self.target_center
        return [
            OrientedBoxBEV(cx, cy, l, w, theta)
            for l, w in self.target_dims
            for theta in self.target_thetas
        ]

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("scenario config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        if "step_rule" in kwargs:
            rule = kwargs["step_rule"]
            if not isinstance(rule, dict):
                raise ConfigError("step_rule must be an object")
            bad = set(rule) - set(StepRule.__dataclass_fields__)
            if bad:
                raise ConfigError(f"unknown step_rule keys: {sorted(bad)}")
            kwargs["step_rule"] = StepRule(**rule)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=_object_without_repeats)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ConfigError:
            raise
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


@dataclass(frozen=True)
class RegressionCase:
    anchor: OrientedBoxBEV
    target: OrientedBoxBEV
    case_id: int


@dataclass(frozen=True)
class Trajectory:
    """States of one descent: steps[t] = (iteration, box, loss)."""

    case_id: int
    kind: str
    target: OrientedBoxBEV
    steps: tuple[tuple[int, OrientedBoxBEV, float], ...]
    failed: bool = False


@dataclass(frozen=True)
class CurvePoint:
    iteration: int
    mean_iou: float
    mean_ec_iou: float


@dataclass(frozen=True)
class CurveSet:
    """Per-kind learning curves; series lengths are iterations + 1."""

    eval_alpha: float
    series: dict[str, tuple[CurvePoint, ...]] = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["kind,iteration,mean_iou,mean_eciou"]
        for kind, points in self.series.items():
            for pt in points:
                lines.append(
                    f"{kind},{pt.iteration},{pt.mean_iou:.6g},{pt.mean_ec_iou:.6g}"
                )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimulationResult:
    curves: CurveSet
    case_count: int
    failures: dict[str, int]


def _axis_points(center: float, extent: float, count: int) -> list[float]:
    if count == 1:
        return [center]
    start = center - 0.5 * extent
    step = extent / (count - 1)
    return [start + i * step for i in range(count)]


def build_scenario(cfg: ScenarioConfig) -> list[RegressionCase]:
    """Cross the anchor grid with every target, in deterministic order.

    Ordering is (target index, grid row, grid column, ratio, scale); the
    case count is targets * grid^2 * ratios * scales.
    """
    cx, cy = cfg.target_center
    xs = _axis_points(cx, cfg.grid_extent, cfg.grid_points_per_axis)
    ys = _axis_points(cy, cfg.grid_extent, cfg.grid_points_per_axis)
    cases = []
    case_id = 0
    for target in cfg.targets():
        for y in ys:
            for x in xs:
                for ratio in cfg.anchor_ratios:
                    for scale in cfg.anchor_scales:
                        anchor = OrientedBoxBEV(x, y, ratio[0] * scale, ratio[1] * scale, 0.0)
                        cases.append(RegressionCase(anchor=anchor, target=target, case_id=case_id))
                        case_id += 1
    return cases


def run_case(
    case: RegressionCase,
    kind: LossKind,
    cfg: ScenarioConfig,
    loss_cfg: WeightConfig = DEFAULT_LOSS_CFG,
) -> Trajectory:
    """Gradient descent of a single case; scalar reference implementation.

    Aborts (flagging the trajectory) when a gradient probe fails or an
    update would produce an invalid box.
    """
    box = case.anchor
    steps = [(0, box, loss_value(kind, box, case.target, loss_cfg))]
    failed = False
    for t in range(cfg.iterations):
        if steps[-1][2] == 0.0:  # converged exactly; nothing left to descend
            steps.append((t + 1, box, 0.0))
            continue
        rate = cfg.step_rule.rate_at(t, cfg.iterations)
        try:
            grad = loss_gradient(kind, box, case.target, loss_cfg, h=GRAD_STEP)
            if cfg.step_rule.metric_boost:
                score = (
                    ec_iou_bev(box, case.target, loss_cfg)
                    if kind.ego_centric
                    else iou_bev(box, case.target)
                )
                rate = rate * (2.0 - score.value)
            params = [
                p - rate * d for p, d in zip(
                    (box.x, box.y, box.l, box.w, box.theta), grad.as_tuple()
                )
            ]
            box = OrientedBoxBEV(*params)
            steps.append((t + 1, box, loss_value(kind, box, case.target, loss_cfg)))
        except (NonFiniteGradientError, ValueError):
            failed = True
            break
    return Trajectory(
        case_id=case.case_id,
        kind=kind.name,
        target=case.target,
        steps=tuple(steps),
        failed=failed,
    )


def _descend_batch(
    anchors: np.ndarray,
    targets: np.ndarray,
    kind: LossKind,
    cfg: ScenarioConfig,
    loss_cfg: WeightConfig,
) -> tuple[np.ndarray, np.ndarray, tuple[CurvePoint, ...]]:
    """All-case descent on the vectorized kernel.

    Returns the final (N, 5) state, the failed mask and the learning curve
    over the surviving cases; failed cases keep their last valid state.
    Each step scores the live cases and their gradient probes in one
    gradient call, and the state's curve scores come from the clip its loss
    made; only the final state is clipped again.

    A case stays live until it reaches a fixed point: it converged (loss
    exactly 0), it failed, or its gradient is exactly 0 in all five
    parameters. Its state then never changes, and since every row scores
    the same bits in any batch, each later step would score it to the same
    bits: its (iou, ec_iou) pair repeats in the curve, which averages the
    same numbers in the same case order as a descent of every case. Once no
    case is live, nothing more is scored.
    """
    ev = _batch.BatchEvaluator(targets)
    n = anchors.shape[0]
    scores = np.empty((cfg.iterations + 1, 2, n))  # per-case IoU and EC-IoU at eval_alpha
    cur = anchors.copy()
    active = np.ones(n, dtype=bool)
    live = np.arange(n)
    for t in range(cfg.iterations):
        if not live.size:
            break
        rate = cfg.step_rule.rate_at(t, cfg.iterations)
        state = cur[live]
        (loss_now, iou, metric, eval_ec), grads, ok = ev.gradient(
            kind, state, loss_cfg.alpha, loss_cfg.method, h=GRAD_STEP, eval_alpha=cfg.eval_alpha
        )
        scores[t][:, live] = iou, eval_ec
        converged = loss_now == 0.0
        if cfg.step_rule.metric_boost:
            scale = rate * (2.0 - metric)
        else:
            scale = np.full(len(live), rate)
        stepped = state - scale[:, None] * np.where(ok[:, None], grads, 0.0)
        stepped[:, 4] = _batch.wrap_angle(stepped[:, 4])
        healthy = converged | (ok & _batch.valid_boxes(stepped))
        active[live[~healthy]] = False
        # Converged and failed cases stay put, and so does a zero gradient:
        # cur - scale * 0.0 is cur bit for bit, as scale is positive (StepRule's
        # rate is, and the metric is at most 1), and wrap_angle leaves theta as
        # OrientedBoxBEV wrapped it, in [-pi, pi). All three leave the stack.
        # Test the gradient, not stepped == state: -0.0 == 0.0 with other bits.
        keep = healthy & ~converged & (grads != 0.0).any(axis=1)
        cur[live[keep]] = stepped[keep]
        if not keep.all():
            frozen = live[~keep]
            scores[t + 1 :, :, frozen] = scores[t][:, frozen]
            live = live[keep]
            ev = _batch.BatchEvaluator(targets[live])
    if live.size:
        scores[-1][:, live] = ev.scores(cur[live], cfg.eval_alpha, GEOMETRIC)
    curve = _curve_points(scores[:, :, active]) if active.any() else ()
    return cur, ~active, curve


def _curve_points(scores) -> tuple[CurvePoint, ...]:
    """One CurvePoint per iteration from per-case (iou, ec_iou) score pairs."""
    return tuple(
        CurvePoint(t, float(iou.mean()), float(ec.mean())) for t, (iou, ec) in enumerate(scores)
    )


def run_simulation(
    cfg: ScenarioConfig,
    kinds: tuple[LossKind, ...] = ALL_KINDS,
    loss_cfg: WeightConfig = DEFAULT_LOSS_CFG,
    threads: int = 1,
) -> SimulationResult:
    """Run every loss kind over the full scenario and aggregate curves.

    Losses are weighted with the geometric or arithmetic vertex mean; a
    Monte Carlo descent goes case by case through `run_case`. Deterministic
    for a fixed config: cases are generated, descended, and averaged in
    case-id order; kinds may run in parallel threads but are assembled in
    the order given.
    """
    if loss_cfg.method not in (GEOMETRIC, ARITHMETIC):
        raise ValueError(
            f"run_simulation weights losses with {GEOMETRIC} or {ARITHMETIC} means, "
            f"not {loss_cfg.method}; descend single cases with run_case instead"
        )
    if not _weights_in_float_range(cfg.targets(), loss_cfg.alpha):
        raise ValueError(f"loss alpha {loss_cfg.alpha:g} puts the EC-IoU weights of a target out of float range")
    names = [kind.name for kind in kinds]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate loss kinds in {','.join(names)}")
    cases = build_scenario(cfg)
    anchors = np.array([(c.anchor.x, c.anchor.y, c.anchor.l, c.anchor.w, c.anchor.theta) for c in cases])
    targets = np.array([(c.target.x, c.target.y, c.target.l, c.target.w, c.target.theta) for c in cases])

    def one_kind(kind: LossKind):
        _, failed, curve = _descend_batch(anchors, targets, kind, cfg, loss_cfg)
        return kind.name, curve, int(failed.sum())

    workers = max(1, min(threads, len(kinds)))
    if workers > 1:
        # concurrent.futures loads logging and queue: only threaded runs pay.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one_kind, kinds))
    else:
        outcomes = [one_kind(kind) for kind in kinds]

    series = {name: curve for name, curve, _ in outcomes}
    failures = {name: nfail for name, _, nfail in outcomes}
    return SimulationResult(
        curves=CurveSet(eval_alpha=cfg.eval_alpha, series=series),
        case_count=len(cases),
        failures=failures,
    )
