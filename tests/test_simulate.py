import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eciou import _batch, geometry
from eciou.geometry import OrientedBoxBEV
from eciou.losses import ALL_KINDS, LossKind
from eciou.metrics import ec_iou_bev, iou_bev
from eciou.simulate import (
    DEFAULT_LOSS_CFG,
    GRAD_STEP,
    MAX_CASES,
    MAX_ITERATIONS,
    ConfigError,
    RegressionCase,
    ScenarioConfig,
    StepRule,
    _curve_points,
    _descend_batch,
    build_scenario,
    run_case,
    run_simulation,
)
from eciou.weighting import ARITHMETIC, GEOMETRIC, MONTE_CARLO, WeightConfig

TINY = ScenarioConfig(grid_points_per_axis=2, iterations=12)
# The benchmark's 162 cases (a 3 x 3 anchor grid of unit-scale anchors), over
# fewer steps. At 80 boosted steps two ec-iou cases freeze mid-run, at steps
# 61 and 77; in every kind the anchors that start on their target converge.
_GRID162 = ScenarioConfig(grid_points_per_axis=3, anchor_scales=(1.0,), iterations=80)


def test_paper_default_case_count():
    cases = build_scenario(ScenarioConfig())
    # 6 targets x 13 x 13 grid x 9 anchors (the formula, not the misprint)
    assert len(cases) == 13 * 13 * 9 * 6 == 9126


def test_minimal_scenario_single_case():
    cfg = ScenarioConfig(
        target_dims=((2.0, 1.0),),
        target_thetas=(0.0,),
        grid_points_per_axis=1,
        anchor_ratios=((1.0, 1.0),),
        anchor_scales=(1.0,),
        iterations=1,
    )
    cases = build_scenario(cfg)
    assert len(cases) == 1
    assert cases[0].anchor.x == cfg.target_center[0]


def test_anchors_per_grid_point():
    cfg = ScenarioConfig(grid_points_per_axis=1, target_dims=((1.0, 1.0),), target_thetas=(0.0,))
    assert len(build_scenario(cfg)) == 9


def test_case_ids_unique_and_ordered():
    cases = build_scenario(TINY)
    assert [c.case_id for c in cases] == list(range(len(cases)))


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(grid_extent=-1)
    with pytest.raises(ConfigError):
        ScenarioConfig(grid_points_per_axis=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(anchor_scales=())
    for bad in ({"rate": 0.0}, {"rate": math.nan}, {"rate": math.inf}, {"decay_factor": math.nan}):
        with pytest.raises(ConfigError):
            StepRule(**bad)
    for bad in ({"iterations": 2.5}, {"grid_points_per_axis": True}, {"eval_alpha": "4"},
                {"eval_alpha": math.inf}, {"eval_alpha": -0.5}):
        with pytest.raises(ConfigError):
            ScenarioConfig(**bad)
    with pytest.raises(ConfigError, match="metric_boost"):
        StepRule(metric_boost=1)
    with pytest.raises(ConfigError, match="step_rule must be a StepRule"):
        ScenarioConfig(step_rule=5)
    assert ScenarioConfig(iterations=np.int64(3), eval_alpha=0).iterations == 3


def test_config_refuses_anchor_sizes_and_scenarios_it_cannot_run():
    for bad, key in (
        ({"anchor_scales": (-1.0,)}, "anchor_scales entries must be positive"),
        ({"anchor_scales": (1.0, 0)}, "anchor_scales entries must be positive"),
        ({"anchor_ratios": ((1.0, -2.0),)}, "anchor_ratios entries must be positive"),
        ({"anchor_ratios": ((math.inf, 1.0),)}, "anchor_ratios must be a finite number"),
        ({"grid_points_per_axis": 10**400}, f"more than {MAX_CASES} cases"),
        ({"grid_points_per_axis": 44}, f"more than {MAX_CASES} cases"),
        ({"iterations": MAX_ITERATIONS + 1}, f"iterations must be at most {MAX_ITERATIONS}"),
        # Targets and anchors past the reach bound, hypot(x, y) + hypot(l, w) / 2.
        ({"target_center": (1e160, 1e160), "target_dims": ((4e155, 2e155),)},
         "^target_center and target_dims give a bad target: box must lie within 1e\\+100 m"),
        ({"target_center": (6e99, 8e99)}, "^target_center and target_dims give a bad target"),
        ({"target_center": (9e99, 0.0), "target_dims": ((1e95, 1e95),), "grid_extent": 2.2e99,
          "anchor_scales": (1e95,)},
         "^target_center, grid_extent, anchor_ratios and anchor_scales give a bad anchor: "
         "box must lie within 1e\\+100 m of the ego"),
        # Anchors below the size floor at the grid corner farthest from the ego.
        ({"anchor_scales": (1e-9,)},
         "^target_center, grid_extent, anchor_ratios and anchor_scales give a bad anchor: box l, w must be at least"),
    ):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig(**bad)
    # The largest weight over the default targets overflows from eval_alpha
    # 3,649 on; the smallest over a thin target across the line of sight
    # underflows to 0 from 6,448 on. A numpy alpha is held to the same rule.
    thin = {"target_center": (10.0, 0.0), "target_dims": ((0.1, 10.0),), "target_thetas": (0.0,)}
    for bad in ({"eval_alpha": 3649}, {"eval_alpha": np.float64(3649)}, {**thin, "eval_alpha": 6448}):
        with pytest.raises(ConfigError, match=r"^eval_alpha \d+ puts the EC-IoU weights"):
            ScenarioConfig(**bad)
    ScenarioConfig(target_center=(9e99, 0.0), target_dims=((1e95, 1e95),), grid_extent=1.8e99,
                   anchor_scales=(1e95,))
    ScenarioConfig(eval_alpha=3648)
    ScenarioConfig(**thin, eval_alpha=6447)
    # 6 targets * 43^2 grid points * 3 ratios * 3 scales = 99,846 cases.
    assert ScenarioConfig(grid_points_per_axis=43, iterations=MAX_ITERATIONS).iterations == MAX_ITERATIONS


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"grid_size": 5})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"step_rule": {"momentum": 0.9}})
    cfg = ScenarioConfig.from_dict(
        {
            "grid_points_per_axis": 3,
            "target_center": [6, 6],
            "step_rule": {"rate": 0.05, "decay_at": 0.5},
            "eval_alpha": 2,
        }
    )
    assert cfg.grid_points_per_axis == 3
    assert cfg.step_rule.rate == 0.05
    assert cfg.step_rule.decay_factor == 0.1


def test_config_from_json_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"grid_points_per_axis": 2, "iterations": 5}))
    cfg = ScenarioConfig.from_json(str(path))
    assert cfg.iterations == 5
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json(str(bad))
    with pytest.raises(ConfigError, match="cannot read config"):
        ScenarioConfig.from_json(str(tmp_path / "missing.json"))


def test_config_from_json_refuses_a_step_rule_key_given_twice(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"grid_points_per_axis": 1, "step_rule": {"rate": 0.1, "rate": 0.2}}')
    with pytest.raises(ConfigError, match=r"^config key 'rate' is given twice$"):
        ScenarioConfig.from_json(str(path))


@pytest.mark.parametrize(
    "raw, reason",
    [
        # Centred on the ego: the centre weight's distance is zero.
        ({"grid_points_per_axis": 1, "iterations": 2, "target_center": [0, 0]}, "center"),
        # The ego inside a 3 x 1 target centred at (1, 0): the weight is infinite there.
        (
            {"grid_points_per_axis": 1, "iterations": 2, "target_center": [1, 0],
             "target_dims": [[3, 1]], "target_thetas": [0]},
            "inside",
        ),
    ],
)
def test_config_rejects_targets_touching_the_ego(raw, reason):
    with pytest.raises(ConfigError, match=reason):
        ScenarioConfig.from_dict(raw)


def test_config_accepts_targets_clear_of_the_ego():
    # The same 3 x 1 target with its near edge 0.5 m in front of the ego.
    cfg = ScenarioConfig.from_dict({"target_center": [2, 0], "target_dims": [[3, 1]], "target_thetas": [0]})
    assert cfg.targets() == [OrientedBoxBEV(2, 0, 3, 1, 0)]


# Any value a JSON document can hold, non-finite floats and integers beyond
# float range included.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
_SIDE = st.floats(0.1, 5.0) | st.integers(1, 5)
_SIDES = st.lists(st.lists(_SIDE | _JSON, min_size=1, max_size=3), max_size=2)
# Values near the valid ones, so that some documents build a config.
_FIELDS = {
    "target_center": st.lists(st.floats(-20.0, 20.0) | st.integers(-20, 20), min_size=1, max_size=3),
    "target_dims": _SIDES,
    "target_thetas": st.lists(st.floats(-4.0, 4.0), max_size=2),
    "grid_extent": _SIDE,
    "grid_points_per_axis": st.integers(0, 3),
    "anchor_ratios": _SIDES,
    "anchor_scales": st.lists(_SIDE, max_size=2),
    "iterations": st.integers(0, 3),
    "eval_alpha": st.floats(-1.0, 8.0),
}
_STEP_FIELDS = {
    "rate": st.floats(-1.0, 1.0),
    "decay_factor": st.floats(-1.0, 1.0),
    "decay_at": st.floats(-0.5, 1.5),
    "metric_boost": st.booleans(),
}


def _document(fields):
    return st.fixed_dictionaries({}, optional={k: v | _JSON for k, v in fields.items()})


def _built(build, doc):
    try:
        return build(doc)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _direct(doc):
    kwargs = dict(doc)
    if "step_rule" in kwargs:
        kwargs["step_rule"] = StepRule(**kwargs["step_rule"])
    return ScenarioConfig(**kwargs)


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


@settings(deadline=None, max_examples=300)
@given(doc=_document(_FIELDS), rule=st.none() | _document(_STEP_FIELDS))
@example(doc={"anchor_scales": [True]}, rule=None)
@example(doc={"target_dims": [[True, 1.0]]}, rule=None)
@example(doc={"target_center": ["8", "8"]}, rule=None)
@example(doc={"anchor_ratios": [[1, 2, 3]]}, rule=None)
@example(doc={"target_dims": 5}, rule=None)
@example(doc={"target_center": [6, 6]}, rule=None)
@example(doc={}, rule={"rate": True})
@example(doc={}, rule={"rate": "0.1"})
@example(doc={}, rule={"decay_at": "0.5"})
def test_from_dict_and_direct_construction_agree(doc, rule):
    """from_dict only maps JSON keys: on any document it refuses with the
    same ConfigError as direct construction, or builds the same config."""
    if rule is not None:
        doc = {**doc, "step_rule": rule}
    cfg = _built(ScenarioConfig.from_dict, doc)
    assert cfg == _built(_direct, doc)
    if isinstance(cfg, ScenarioConfig):
        # Tuples, as the library passes them, give the same config as lists.
        assert _direct({k: v if k == "step_rule" else _tuples(v) for k, v in doc.items()}) == cfg
        assert all(type(v) is float for v in cfg.target_center + cfg.target_thetas + cfg.anchor_scales)
        assert all(type(v) is float for pair in cfg.target_dims + cfg.anchor_ratios for v in pair)


def test_run_case_identity_stays_put():
    target = OrientedBoxBEV(6, 6, 2, 1, 0)
    case = build_scenario(TINY)[0].__class__(anchor=target, target=target, case_id=0)
    for kind in (LossKind("iou"), LossKind("diou", ego_centric=True)):
        traj = run_case(case, kind, TINY)
        assert not traj.failed
        assert len(traj.steps) == TINY.iterations + 1
        for _, box, loss in traj.steps:
            assert loss == pytest.approx(0.0, abs=1e-9)
            assert math.hypot(box.x - target.x, box.y - target.y) < 1e-6


def test_run_case_improves_overlapping_anchor():
    target = OrientedBoxBEV(6, 6, 3, 1, math.pi / 4)
    anchor = OrientedBoxBEV(5.5, 6.5, 2, 2, 0)
    case = build_scenario(TINY)[0].__class__(anchor=anchor, target=target, case_id=0)
    cfg = ScenarioConfig(grid_points_per_axis=2, iterations=60)
    traj = run_case(case, LossKind("diou"), cfg)
    assert not traj.failed
    assert traj.steps[-1][2] < traj.steps[0][2]


def test_batch_descent_matches_scalar_run_case():
    _assert_batch_descent_matches_run_case(ScenarioConfig(grid_points_per_axis=2, iterations=15))


def test_unboosted_batch_descent_matches_scalar_run_case():
    # Without the metric boost each step takes the plain rate.
    rule = StepRule(metric_boost=False)
    _assert_batch_descent_matches_run_case(
        ScenarioConfig(grid_points_per_axis=2, iterations=15, step_rule=rule)
    )


def _arrays(cases):
    """The (N, 5) anchor and target arrays of cases, as run_simulation builds them."""
    anchors = np.array([(c.anchor.x, c.anchor.y, c.anchor.l, c.anchor.w, c.anchor.theta) for c in cases])
    targets = np.array([(c.target.x, c.target.y, c.target.l, c.target.w, c.target.theta) for c in cases])
    return anchors, targets


def _assert_batch_descent_matches_run_case(cfg):
    cases = build_scenario(cfg)[:48]
    anchors, targets = _arrays(cases)
    for name in ("iou", "ec-diou"):
        kind = LossKind.from_name(name)
        final, failed, _ = _descend_batch(anchors, targets, kind, cfg, DEFAULT_LOSS_CFG)
        for i, case in enumerate(cases):
            traj = run_case(case, kind, cfg)
            assert traj.failed == failed[i]
            if traj.failed:
                continue
            b = traj.steps[-1][1]
            assert np.allclose((b.x, b.y, b.l, b.w, b.theta), final[i], atol=1e-5)


def test_simulation_deterministic():
    kinds = (LossKind("diou"), LossKind("diou", ego_centric=True))
    first = run_simulation(TINY, kinds=kinds)
    second = run_simulation(TINY, kinds=kinds)
    assert first == second


def test_simulation_threaded_matches_sequential():
    kinds = (LossKind("iou"), LossKind("eiou"))
    seq = run_simulation(TINY, kinds=kinds, threads=1)
    par = run_simulation(TINY, kinds=kinds, threads=2)
    assert seq == par
    assert run_simulation(_GRID162, threads=1) == run_simulation(_GRID162, threads=2)


# 288 cases: the size from which run_simulation runs its kinds in threads.
_AT_CROSSOVER = replace(_GRID162, grid_points_per_axis=4, iterations=1)


@pytest.mark.parametrize(
    "cfg, cpus, affinity, kinds, workers",
    [
        (replace(_GRID162, iterations=1), 2, True, ALL_KINDS, None),  # 162 cases
        (replace(_GRID162, target_thetas=(0.0, 0.5, 1.0), iterations=1), 2, True, ALL_KINDS, None),  # 243
        (_AT_CROSSOVER, 4, True, ALL_KINDS, 4),
        (_AT_CROSSOVER, 8, True, ALL_KINDS[:2], 2),
        (_AT_CROSSOVER, 1, True, ALL_KINDS, None),  # one usable CPU
        (_AT_CROSSOVER, 3, False, ALL_KINDS, 3),  # no affinity call: os.cpu_count()
    ],
)
def test_simulation_picks_its_thread_count(monkeypatch, cfg, cpus, affinity, kinds, workers):
    import concurrent.futures
    import os

    import eciou.simulate

    made = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert len(build_scenario(_AT_CROSSOVER)) == eciou.simulate.PARALLEL_FROM_CASES
    result = run_simulation(cfg, kinds=kinds)
    assert made == ([] if workers is None else [workers])
    assert result == run_simulation(cfg, kinds=kinds, threads=1)


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
def test_simulation_refuses_a_bad_thread_count(monkeypatch, threads):
    import eciou.simulate

    def reached(*args, **kwargs):
        raise AssertionError("run_simulation built cases for a bad thread count")

    monkeypatch.setattr(eciou.simulate, "build_scenario", reached)
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        run_simulation(TINY, threads=threads)


def test_curve_lengths_and_kind_grouping():
    kinds = (LossKind("iou"), LossKind("diou"))
    res = run_simulation(TINY, kinds=kinds)
    assert res.case_count == len(build_scenario(TINY))
    assert list(res.curves.series) == ["iou", "diou"]
    for pts in res.curves.series.values():
        assert len(pts) == TINY.iterations + 1
        assert [p.iteration for p in pts] == list(range(TINY.iterations + 1))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize("rate, tol", [(0.1, 1e-9), (4.0, 1e-6)])
def test_scalar_scored_curves_match_run_simulation(kind, rate, tol):
    # At rate 4 some descents fail, and each 4x step amplifies the paths'
    # rounding differences, hence the looser tolerance there. On TINY the
    # anchors do not reach their targets: these rows pin the failure counts,
    # and the rows below compare curves that move.
    _assert_scalar_scored_curve_matches(replace(TINY, step_rule=StepRule(rate=rate)), kind, tol)


# TINY's anchor grid cut to 2 m around the targets and to one anchor shape,
# so that every kind's mean IoU rises over the 12 steps (by 0.16 to 0.38).
_NEAR = replace(TINY, grid_extent=2.0, anchor_ratios=((2.0, 1.0),), anchor_scales=(1.0,))
# With headings 0 and pi/4 some anchors share a target's heading, and both
# clippers can leave a spurious vertex on their rings: the EC-IoU curves of
# the two paths differ by 4e-6 to 8e-6.
_COLLINEAR = pytest.mark.xfail(
    strict=True, reason="collinear-clipper FOUND: a spurious vertex moves the vertex mean"
)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize("cfg", [
    pytest.param(replace(_NEAR, target_thetas=(0.3, 1.1)), id="tilted"),
    pytest.param(_NEAR, id="axis-aligned", marks=_COLLINEAR),
])
def test_scalar_scored_curves_match_run_simulation_as_they_rise(kind, cfg):
    curve = _assert_scalar_scored_curve_matches(cfg, kind, 1e-9)
    assert curve[-1].mean_iou > curve[0].mean_iou + 0.1


def _assert_scalar_scored_curve_matches(cfg, kind, tol):
    """Descend every case on the scalar reference, score each step with the
    scalar metrics and average the surviving cases in case-id order; the
    batch curve of run_simulation must match. Returns that curve."""
    sim = run_simulation(cfg, kinds=(kind,))
    eval_cfg = WeightConfig(alpha=cfg.eval_alpha)
    trajs = [run_case(case, kind, cfg) for case in build_scenario(cfg)]
    alive = [traj for traj in trajs if not traj.failed]
    assert sim.failures == {kind.name: len(trajs) - len(alive)}
    curve = sim.curves.series[kind.name]
    assert [pt.iteration for pt in curve] == list(range(cfg.iterations + 1))
    for t, pt in enumerate(curve):
        boxes = [(traj.steps[t][1], traj.target) for traj in alive]
        assert pt.mean_iou == pytest.approx(np.mean([iou_bev(p, g).value for p, g in boxes]), abs=tol)
        mean_ec = np.mean([ec_iou_bev(p, g, eval_cfg).value for p, g in boxes])
        assert pt.mean_ec_iou == pytest.approx(mean_ec, abs=tol)
    return curve


def test_fast_descents_fail_on_both_paths():
    # The rate-4 rows above compare failure counts; make sure there are some.
    cfg = replace(TINY, step_rule=StepRule(rate=4.0))
    assert sum(run_simulation(cfg).failures.values()) > 0


# Four 1 x 1 anchors about 10 m out, the farthest reaching 11.22 m; at rate 1
# two of them overshoot in the second step. No real scene gets near
# MAX_REACH, so _lower_reach lowers the bound to 11.3 m, past every anchor
# and the target.
_REACH = ScenarioConfig(target_center=(10.0, 0.0), target_dims=((1.0, 1.0),), target_thetas=(0.0,),
                        grid_points_per_axis=2, grid_extent=1.0, anchor_ratios=((1.0, 1.0),),
                        anchor_scales=(1.0,), iterations=3, step_rule=StepRule(rate=1.0))


def _lower_reach(monkeypatch):
    monkeypatch.setattr(_batch, "MAX_REACH", 11.3)
    monkeypatch.setattr(geometry, "MAX_REACH", 11.3)


def test_a_descent_that_steps_past_the_reach_bound_fails(monkeypatch):
    assert run_simulation(_REACH).failures == {kind.name: 0 for kind in ALL_KINDS}
    _lower_reach(monkeypatch)
    assert run_simulation(_REACH).failures == {kind.name: 2 for kind in ALL_KINDS}
    scalar = [sum(run_case(case, kind, _REACH).failed for case in build_scenario(_REACH)) for kind in ALL_KINDS]
    assert scalar == [2] * len(ALL_KINDS)


# The batch EC-IoU of a box with itself comes out an ulp below 1 (the ring's
# 8-column row sum rounds unlike the target's 4-column one), so the descent
# is not "converged exactly" and the EC-IoU gradient walks the box off the
# target. The scalar reference scores exactly 1 and stays put.
_IDENTITY_DRIFT = pytest.mark.xfail(
    strict=True, reason="batch EC-IoU of identical boxes is not exactly 1; the descent drifts"
)


@pytest.mark.parametrize(
    "kind",
    [pytest.param(k, marks=_IDENTITY_DRIFT) if k.ego_centric else k for k in ALL_KINDS],
    ids=lambda kind: kind.name,
)
def test_identity_anchor_batch_curve_stays_flat(kind):
    target = np.array([[6.0, 6.0, 2.0, 1.0, 0.0]])
    final, failed, curve = _descend_batch(target, target, kind, TINY, DEFAULT_LOSS_CFG)
    assert not failed.any()
    assert len(curve) == TINY.iterations + 1
    for pt in curve:
        assert pt.mean_iou == pytest.approx(1.0, abs=1e-6)
        assert pt.mean_ec_iou == pytest.approx(1.0, abs=1e-6)
    assert math.hypot(*(final[0, :2] - target[0, :2])) < 1e-6


def test_curveset_csv_shape():
    res = run_simulation(TINY, kinds=(LossKind("iou"),))
    lines = res.curves.to_csv().strip().split("\n")
    assert lines[0] == "kind,iteration,mean_iou,mean_eciou"
    assert len(lines) == 1 + (TINY.iterations + 1)
    assert lines[1].startswith("iou,0,")


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_loss_cfg_is_rejected_before_any_descent(monkeypatch, threads):
    import eciou.simulate

    def reached(*args, **kwargs):
        raise AssertionError("run_simulation built or descended cases for a Monte Carlo loss")

    monkeypatch.setattr(eciou.simulate, "build_scenario", reached)
    monkeypatch.setattr(eciou.simulate, "_descend_batch", reached)
    mc = WeightConfig(alpha=1.0, method=MONTE_CARLO, mc_samples=128, mc_seed=7)
    kinds = (LossKind("iou"), LossKind("iou", ego_centric=True))
    with pytest.raises(ValueError, match="geometric or arithmetic.*run_case"):
        run_simulation(TINY, kinds=kinds, loss_cfg=mc, threads=threads)
    # The scalar reference still descends a Monte Carlo case.
    target = OrientedBoxBEV(6, 6, 2, 1, 0)
    case = RegressionCase(anchor=OrientedBoxBEV(5.5, 6.5, 1, 1, 0), target=target, case_id=0)
    traj = run_case(case, kinds[1], ScenarioConfig(grid_points_per_axis=1, iterations=3), mc)
    assert not traj.failed and len(traj.steps) == 4


def test_loss_alpha_whose_weights_leave_float_range_is_rejected_before_any_case(monkeypatch):
    import eciou.simulate

    def reached(*args, **kwargs):
        raise AssertionError("run_simulation built cases for a loss alpha out of float range")

    monkeypatch.setattr(eciou.simulate, "build_scenario", reached)
    # As for eval_alpha: the largest weight over the default targets
    # overflows from 3,649 on.
    cfg = ScenarioConfig(grid_points_per_axis=1, iterations=3)
    for alpha in (3649, 100_000):
        with pytest.raises(ValueError, match=rf"^loss alpha {alpha} puts the EC-IoU weights"):
            run_simulation(cfg, kinds=(LossKind("iou", ego_centric=True),), loss_cfg=WeightConfig(alpha=alpha))


# A 3 x 3 grid, on which some clipped rings are empty.
_GRID3 = ScenarioConfig(grid_points_per_axis=3, iterations=3, anchor_scales=(1.0,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", [GEOMETRIC, ARITHMETIC])
@pytest.mark.parametrize("alpha", [40, 1000, 3648])
def test_loss_alphas_in_float_range_descend_without_warnings(alpha, method):
    # Neither an empty ring nor a padding slot is weighted, so no weight
    # that is never read can overflow.
    kinds = (LossKind("iou", ego_centric=True), LossKind("diou", ego_centric=True))
    result = run_simulation(_GRID3, kinds=kinds, loss_cfg=WeightConfig(alpha=alpha, method=method))
    assert result.failures == {"ec-iou": 0, "ec-diou": 0}


def test_duplicate_kinds_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        run_simulation(TINY, kinds=(LossKind("iou"), LossKind("diou"), LossKind("iou")))


@pytest.mark.parametrize("kinds", [(), []])
def test_no_kinds_are_rejected_before_any_case_is_built(monkeypatch, kinds):
    # As `eciou sim --kinds` that selects nothing is: no header-only CSV.
    import eciou.simulate

    def reached(*args, **kwargs):
        raise AssertionError("run_simulation built cases without a kind")

    monkeypatch.setattr(eciou.simulate, "build_scenario", reached)
    with pytest.raises(ValueError, match="^kinds selected nothing$"):
        run_simulation(TINY, kinds=kinds)


def _lockstep_descent(anchors, targets, kind, cfg):
    """The descent with every case in every step's stack, fixed points
    included: the oracle _descend_batch must match bit for bit."""
    ev = _batch.BatchEvaluator(targets)
    n = anchors.shape[0]
    scores = np.empty((cfg.iterations + 1, 2, n))
    cur = anchors.copy()
    active = np.ones(n, dtype=bool)
    for t in range(cfg.iterations):
        rate = cfg.step_rule.rate_at(t, cfg.iterations)
        (loss_now, iou, metric, eval_ec), grads, ok = ev.gradient(
            kind, cur, DEFAULT_LOSS_CFG.alpha, DEFAULT_LOSS_CFG.method, h=GRAD_STEP, eval_alpha=cfg.eval_alpha
        )
        scores[t] = iou, eval_ec
        converged = loss_now == 0.0
        scale = rate * (2.0 - metric) if cfg.step_rule.metric_boost else np.full(n, rate)
        stepped = cur - scale[:, None] * np.where(ok[:, None], grads, 0.0)
        stepped[:, 4] = _batch.wrap_angle(stepped[:, 4])
        healthy = converged | (ok & _batch.valid_boxes(stepped))
        move = active & healthy & ~converged
        active &= healthy
        cur = np.where(move[:, None], stepped, cur)
    scores[-1] = ev.scores(cur, cfg.eval_alpha, GEOMETRIC)
    curve = _curve_points(scores[:, :, active]) if active.any() else ()
    return cur, ~active, curve


def _assert_descent_matches_lockstep(anchors, targets, kind, cfg):
    """_descend_batch gives the oracle's final-state bytes, failure mask and
    curve; returns the failure mask."""
    final, failed, curve = _descend_batch(anchors, targets, kind, cfg, DEFAULT_LOSS_CFG)
    oracle_final, oracle_failed, oracle_curve = _lockstep_descent(anchors, targets, kind, cfg)
    assert final.tobytes() == oracle_final.tobytes()
    assert failed.tobytes() == oracle_failed.tobytes()
    assert curve == oracle_curve
    return failed


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of cases of each BatchEvaluator.gradient call, in call order."""
    sizes = []
    gradient = _batch.BatchEvaluator.gradient

    def recorded(self, kind, boxes, *args, **kwargs):
        sizes.append(len(boxes))
        return gradient(self, kind, boxes, *args, **kwargs)

    monkeypatch.setattr(_batch.BatchEvaluator, "gradient", recorded)
    return sizes


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize("cfg", [
    pytest.param(TINY, id="tiny"),
    pytest.param(replace(TINY, step_rule=StepRule(metric_boost=False)), id="tiny-unboosted"),
    pytest.param(replace(TINY, step_rule=StepRule(rate=4.0)), id="tiny-failing"),
    pytest.param(_GRID162, id="grid162"),
    pytest.param(replace(_GRID162, iterations=40, step_rule=StepRule(metric_boost=False)), id="grid162-unboosted"),
])
def test_descent_of_live_cases_matches_the_lockstep_oracle(kind, cfg):
    _assert_descent_matches_lockstep(*_arrays(build_scenario(cfg)), kind, cfg)


def test_a_descent_with_no_live_case_left_makes_no_more_gradient_calls(stack_sizes):
    # TINY's 2 x 2 grid starts every case disjoint from its target, where the
    # IoU gradient is exactly 0: the first step freezes them all.
    anchors, targets = _arrays(build_scenario(TINY))
    _, failed, curve = _descend_batch(anchors, targets, LossKind("iou"), TINY, DEFAULT_LOSS_CFG)
    assert stack_sizes == [len(anchors)]
    assert not failed.any()
    assert len(curve) == TINY.iterations + 1
    assert {(pt.mean_iou, pt.mean_ec_iou) for pt in curve} == {(curve[0].mean_iou, curve[0].mean_ec_iou)}


# (anchor, target) rows near _REACH's target, descended by its rule: a case
# that moves and stays valid at any reach bound, one disjoint from its target
# and one on it.
_MOVES = ((9.5, -0.5, 1.0, 1.0, 0.0), (10.0, 0.0, 1.0, 1.0, 0.0))
_DISJOINT = ((10.0, 3.0, 1.0, 1.0, 0.0), (10.0, 0.0, 1.0, 1.0, 0.0))
_ON_TARGET = ((10.0, 0.0, 1.0, 1.0, 0.0), (10.0, 0.0, 1.0, 1.0, 0.0))
_OVERSHOOTING = list(zip(*_arrays(build_scenario(_REACH))))  # two fail under _lower_reach


@pytest.mark.parametrize("rows, lower_reach, sizes, failures", [
    pytest.param([_MOVES, _DISJOINT], False, [2, 1, 1], 0, id="zero-gradient"),
    pytest.param([_MOVES, _ON_TARGET], False, [2, 1, 1], 0, id="converged"),
    pytest.param(_OVERSHOOTING, True, [4, 4, 2], 2, id="failed"),
    pytest.param(_OVERSHOOTING + [_ON_TARGET, _DISJOINT], True, [6, 4, 2], 2, id="all-three"),
])
def test_a_case_leaves_the_stack_after_the_step_that_fixes_it(
    monkeypatch, stack_sizes, rows, lower_reach, sizes, failures
):
    # The disjoint and on-target cases leave after step 0 and the two failing
    # ones after step 1; later steps carry only the cases that still move.
    if lower_reach:
        _lower_reach(monkeypatch)
    anchors, targets = (np.array(column) for column in zip(*rows))
    _descend_batch(anchors, targets, LossKind("iou"), _REACH, DEFAULT_LOSS_CFG)
    assert stack_sizes == sizes
    assert _assert_descent_matches_lockstep(anchors, targets, LossKind("iou"), _REACH).sum() == failures


def test_a_diou_batch_without_fixed_points_never_shrinks(stack_sizes):
    # The center-distance term keeps the gradient of a disjoint case nonzero.
    anchors, targets = _arrays(build_scenario(TINY))
    _descend_batch(anchors, targets, LossKind("diou"), TINY, DEFAULT_LOSS_CFG)
    assert stack_sizes == [len(anchors)] * TINY.iterations
