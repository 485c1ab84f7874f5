import json
import math

import numpy as np
import pytest

from eciou.geometry import OrientedBoxBEV
from eciou.losses import LossKind
from eciou.simulate import (
    ConfigError,
    ScenarioConfig,
    StepRule,
    aggregate_curves,
    build_scenario,
    run_case,
    run_simulation,
)
from eciou.weighting import MONTE_CARLO, WeightConfig

TINY = ScenarioConfig(grid_points_per_axis=2, iterations=12)


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
    with pytest.raises(ConfigError):
        StepRule(rate=0.0)


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
    import numpy as np

    from eciou.simulate import DEFAULT_LOSS_CFG, _descend_batch

    cfg = ScenarioConfig(grid_points_per_axis=2, iterations=15)
    cases = build_scenario(cfg)[:48]
    anchors = np.array([(c.anchor.x, c.anchor.y, c.anchor.l, c.anchor.w, c.anchor.theta) for c in cases])
    targets = np.array([(c.target.x, c.target.y, c.target.l, c.target.w, c.target.theta) for c in cases])
    for name in ("iou", "ec-diou"):
        kind = LossKind.from_name(name)
        states, failed = _descend_batch(anchors, targets, kind, cfg, DEFAULT_LOSS_CFG)
        for i, case in enumerate(cases):
            traj = run_case(case, kind, cfg)
            assert traj.failed == failed[i]
            if traj.failed:
                continue
            scalar = np.array([(b.x, b.y, b.l, b.w, b.theta) for (_, b, _) in traj.steps])
            assert np.allclose(scalar, states[:, i, :], atol=1e-5)


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
    # Monte Carlo weighting descends on the scalar reference, in the same pool.
    mc_scenario = ScenarioConfig(
        target_dims=((2.0, 1.0),),
        target_thetas=(0.0,),
        grid_extent=2.0,
        grid_points_per_axis=2,
        anchor_ratios=((1.0, 1.0),),
        anchor_scales=(1.0,),
        iterations=3,
    )
    mc = WeightConfig(alpha=1.0, method=MONTE_CARLO, mc_samples=200, mc_seed=3)
    mc_kinds = (LossKind("iou"), LossKind("diou", ego_centric=True))
    mc_seq = run_simulation(mc_scenario, kinds=mc_kinds, loss_cfg=mc, threads=1)
    mc_par = run_simulation(mc_scenario, kinds=mc_kinds, loss_cfg=mc, threads=2)
    assert mc_seq == mc_par
    assert mc_seq.failures == {"iou": 0, "ec-diou": 0}


def test_curve_lengths_and_kind_grouping():
    kinds = (LossKind("iou"), LossKind("diou"))
    res = run_simulation(TINY, kinds=kinds)
    assert res.case_count == len(build_scenario(TINY))
    assert list(res.curves.series) == ["iou", "diou"]
    for pts in res.curves.series.values():
        assert len(pts) == TINY.iterations + 1
        assert [p.iteration for p in pts] == list(range(TINY.iterations + 1))


def test_aggregate_curves_matches_run_simulation():
    kinds = (LossKind("diou", ego_centric=True),)
    cases = build_scenario(TINY)
    trajs = [run_case(c, kinds[0], TINY) for c in cases]
    # shuffled input order must not change the aggregate
    rng = np.random.default_rng(5)
    shuffled = [trajs[i] for i in rng.permutation(len(trajs))]
    agg = aggregate_curves({kinds[0]: shuffled}, TINY.eval_alpha)
    sim = run_simulation(TINY, kinds=kinds)
    a = agg.series["ec-diou"]
    b = sim.curves.series["ec-diou"]
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.mean_iou == pytest.approx(pb.mean_iou, abs=1e-9)
        assert pa.mean_ec_iou == pytest.approx(pb.mean_ec_iou, abs=1e-9)


def test_aggregate_single_identity_case_flat_curves():
    target = OrientedBoxBEV(6, 6, 2, 1, 0)
    case = build_scenario(TINY)[0].__class__(anchor=target, target=target, case_id=0)
    traj = run_case(case, LossKind("iou"), TINY)
    curves = aggregate_curves({"iou": [traj]}, eval_alpha=4.0)
    for pt in curves.series["iou"]:
        assert pt.mean_iou == pytest.approx(1.0, abs=1e-6)
        assert pt.mean_ec_iou == pytest.approx(1.0, abs=1e-6)


def test_curveset_csv_shape():
    res = run_simulation(TINY, kinds=(LossKind("iou"),))
    lines = res.curves.to_csv().strip().split("\n")
    assert lines[0] == "kind,iteration,mean_iou,mean_eciou"
    assert len(lines) == 1 + (TINY.iterations + 1)
    assert lines[1].startswith("iou,0,")


def test_monte_carlo_loss_cfg_uses_scalar_path():
    cfg = ScenarioConfig(
        target_dims=((2.0, 1.0),),
        target_thetas=(0.0,),
        grid_points_per_axis=1,
        anchor_ratios=((1.0, 1.0),),
        anchor_scales=(1.0, 2.0),
        iterations=3,
    )
    loss_cfg = WeightConfig(alpha=1.0, method="monte-carlo", mc_samples=128, mc_seed=7)
    res = run_simulation(cfg, kinds=(LossKind("iou", ego_centric=True),), loss_cfg=loss_cfg)
    assert res.case_count == 2
    assert len(res.curves.series["ec-iou"]) == 4
