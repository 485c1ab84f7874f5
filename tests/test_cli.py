import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from eciou.cli import main

PREDS = """\
f0 car 10.0 0.0 0.9 4.0 2.0 1.6 0.0 0.95
f0 car 40.0 0.0 0.9 4.0 2.0 1.6 0.0 0.80
f1 car 20.0 0.0 0.9 4.0 2.0 1.6 0.0 0.70
"""

GTS = """\
f0 car 10.0 0.0 0.9 4.0 2.0 1.6 0.0
f1 car 20.0 0.0 0.9 4.0 2.0 1.6 0.0
"""


def test_metric_identical_boxes(capsys):
    code = main(["metric", "--pred", "10", "0", "4", "2", "0", "--gt", "10", "0", "4", "2", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "iou=1.000000 ec_iou=1.000000 clamped=false"


def test_metric_disjoint(capsys):
    code = main(["metric", "--pred", "10", "0", "4", "2", "0", "--gt", "30", "0", "4", "2", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "iou=0.000000 ec_iou=0.000000 clamped=false"


def test_metric_near_far_ordering(capsys):
    main(["metric", "--pred", "9", "0", "4", "2", "0", "--gt", "10", "0", "4", "2", "0"])
    near = capsys.readouterr().out
    main(["metric", "--pred", "11", "0", "4", "2", "0", "--gt", "10", "0", "4", "2", "0"])
    far = capsys.readouterr().out
    assert near.split()[0] == far.split()[0]  # same iou
    assert float(near.split()[1].split("=")[1]) > float(far.split()[1].split("=")[1])


def test_metric_3d_mode(capsys):
    code = main([
        "metric", "--mode", "3d",
        "--pred", "10", "0", "0.9", "4", "2", "1.6", "0",
        "--gt", "10", "0", "0.9", "4", "2", "1.6", "0",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("iou=1.000000")


def test_metric_wrong_arity_is_usage_error():
    assert main(["metric", "--pred", "10", "0", "4", "2", "--gt", "10", "0", "4", "2", "0"]) == 1


def test_metric_degenerate_distance_is_data_error(capsys):
    code = main(["metric", "--pred", "0.1", "0", "4", "2", "0", "--gt", "0", "0", "4", "2", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_number_list_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--alphas", "1,x"])
    assert err.value.code == 1


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["metric", "--pred", "1", "0", "4", "2", "0", "--gt", "1", "0", "4", "2", "0", "--bogus"])
    assert err.value.code == 1


def test_help_exits_zero():
    for argv in (["--help"], ["metric", "--help"], ["sweep", "--help"], ["sim", "--help"], ["eval", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0


def test_sweep_default_row_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,iou,eciou_a1,eciou_a2,eciou_a4,eciou_a8"
    assert len(lines) == 102  # header + 101 samples
    center = [line for line in lines if line.startswith("10,")]
    assert center == ["10,1,1,1,1,1"]


def test_sweep_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["sweep", "--alphas", "2,8", "--method", "monte-carlo", "--samples", "500", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unwritable_path_is_data_error(capsys):
    code = main(["sweep", "--out", "/nonexistent-dir/sweep.csv"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_a_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"grid_points_per_axis": 1, "iterations": 2}))
    out = tmp_path / "kept.csv"
    out.write_bytes(b"x,iou\n1,0.5\n")
    for argv in (["sweep", "--step", "-1"], ["sim", "--config", str(config), "--kinds", "iou,iou"]):
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_bytes() == b"x,iou\n1,0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "scenario.json"]
    capsys.readouterr()


def test_a_successful_command_replaces_out(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("stale\n")
    assert main(["sweep", "--alphas", "1", "--range", "9", "11", "--step", "1", "--out", str(out)]) == 0
    assert out.read_text() == "x,iou,eciou_a1\n9,0.6,0.628321\n10,1,1\n11,0.6,0.567812\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_a_failed_command_removes_the_out_it_created(tmp_path, capsys):
    out = tmp_path / "new.csv"
    assert main(["sweep", "--step", "-1", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()


def test_out_is_written_through_a_symlink(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("stale line that is longer than the table\n" * 4)
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["sweep", "--alphas", "1", "--range", "9", "11", "--step", "1", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == "x,iou,eciou_a1\n9,0.6,0.628321\n10,1,1\n11,0.6,0.567812\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_out_may_be_a_device():
    assert main(["sweep", "--alphas", "1", "--range", "9", "11", "--step", "1", "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_sim_small_config(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "grid_points_per_axis": 2,
        "iterations": 4,
        "target_dims": [[2, 1]],
        "target_thetas": [0.0],
    }))
    out = tmp_path / "curves.csv"
    code = main(["sim", "--config", str(config), "--kinds", "ec-diou,diou", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "cases=36" in captured.err
    assert "failed[ec-diou]=" in captured.err
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kind,iteration,mean_iou,mean_eciou"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"ec-diou", "diou"}
    assert len(lines) == 1 + 2 * 5


@pytest.mark.filterwarnings("error")
def test_sim_scores_an_eval_alpha_whose_weights_stay_in_float_range(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"grid_points_per_axis": 1, "iterations": 2, "eval_alpha": 1000}))
    assert main(["sim", "--config", str(config)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(rows) == 6 * 3
    assert all(math.isfinite(float(value)) for row in rows for value in row[2:])


@pytest.mark.filterwarnings("error")
def test_sim_prints_no_warning_where_clipped_rings_are_empty(tmp_path, capsys):
    # On a 3 x 3 grid some clipped rings are empty; at eval_alpha 1000 a
    # weight computed for one would overflow.
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "grid_points_per_axis": 3, "iterations": 3, "anchor_scales": [1.0], "eval_alpha": 1000,
    }))
    assert main(["sim", "--config", str(config), "--kinds", "iou,ec-iou"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "kind,iteration,mean_iou,mean_eciou"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [[kind, str(t)] for kind in ("iou", "ec-iou") for t in range(4)]
    assert all(0.0 <= float(value) <= 1.0 for row in rows for value in row[2:])
    assert captured.err.split() == ["cases=162", "failed[iou]=0", "failed[ec-iou]=0"]


def test_sim_bad_schema_exits_one(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"grid": 5}))
    assert main(["sim", "--config", str(config)]) == 1
    config.write_text("{broken")
    assert main(["sim", "--config", str(config)]) == 1
    assert main(["sim", "--kinds", "fancy-iou"]) == 1


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_sim_bad_thread_count_exits_one(tmp_path, capsys, monkeypatch, value):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"grid_points_per_axis": 1, "iterations": 1}))
    monkeypatch.setenv("ECIOU_THREADS", value)
    assert main(["sim", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ECIOU_THREADS") and err.count("\n") == 1


def test_eval_fixture(tmp_path, capsys):
    preds = tmp_path / "preds.txt"
    gts = tmp_path / "gts.txt"
    preds.write_text(PREDS)
    gts.write_text(GTS)
    code = main(["eval", "--preds", str(preds), "--gts", str(gts), "--classes", "car"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    car = payload["classes"]["car"]
    assert car["tp"] == 2 and car["fp"] == 1 and car["fn"] == 0
    # score ranking TP(0.95), FP(0.80), TP(0.70) over 2 ground truths
    assert car["ap40"] == pytest.approx(5.0 / 6.0, abs=1e-9)
    assert payload["map40"] == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_eval_parse_error_reports_line(tmp_path, capsys):
    preds = tmp_path / "preds.txt"
    gts = tmp_path / "gts.txt"
    preds.write_text("f0 car 10 0 0.9 4 2 1.6 0\n")  # missing score
    gts.write_text(GTS)
    code = main(["eval", "--preds", str(preds), "--gts", str(gts)])
    assert code == 2
    assert ":1:" in capsys.readouterr().err


def test_eval_ground_truth_on_ego_is_data_error(tmp_path):
    preds = tmp_path / "preds.txt"
    gts = tmp_path / "gts.txt"
    preds.write_text(PREDS)
    gts.write_text(GTS + "f1 car 0.0 0.0 0.9 4.0 2.0 1.6 0.0\n")
    result = subprocess.run(
        [sys.executable, "-m", "eciou.cli", "eval", "--preds", str(preds), "--gts", str(gts)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert f"{gts}:3:" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_eval_degenerate_intersection_is_data_error(tmp_path, capsys):
    # The ego lies on the ground truth's near edge, so the ground truth is
    # refused where it is parsed.
    preds = tmp_path / "preds.txt"
    gts = tmp_path / "gts.txt"
    preds.write_text("f0 car 1.0 1.0 0.0 2.0 2.0 1.0 0.0 0.9\n")
    gts.write_text("f0 car 1.0 0.0 0.0 2.0 2.0 1.0 0.0\n")
    assert main(["eval", "--preds", str(preds), "--gts", str(gts), "--classes", "car"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_eval_threshold_alignment_checked(tmp_path):
    preds = tmp_path / "p.txt"
    gts = tmp_path / "g.txt"
    preds.write_text(PREDS)
    gts.write_text(GTS)
    argv = ["eval", "--preds", str(preds), "--gts", str(gts), "--classes", "car", "--thresholds", "0.5,0.7"]
    assert main(argv) == 1


METRIC = ["metric", "--pred", "9", "0", "4", "2", "0", "--gt", "10", "0", "4", "2", "0"]
EVAL = ["eval", "--preds", "{preds}", "--gts", "{gts}"]
# pred = gt = (1.2, 0, 0, 2, 2, 1.5, 0): at alpha 1e5 every geometric weight
# underflows to 0, and the arithmetic one overflows.
NEAR_EVAL = ["eval", "--preds", "{near_preds}", "--gts", "{near_gts}"]
# A prediction turned 0.3 rad and moved 1 m from that ground truth: its IoU,
# 0.29, is below the car threshold, and it is no TP-distance match.
BELOW_EVAL = ["eval", "--preds", "{below_preds}", "--gts", "{near_gts}", "--tp-dist", "0.5"]
NEAR_METRIC = ["metric", "--mode", "3d", "--pred", "1.2", "0", "0", "2", "2", "1.5", "0",
               "--gt", "1.2", "0", "0", "2", "2", "1.5", "0"]
NEAR_SWEEP = ["sweep", "--gt", "1.2", "0", "2", "2", "0", "--range", "1.2", "1.2"]
ARITH = ["--method", "arithmetic"]
# A ground truth the ego lies inside: its weighted area diverges for alpha >= 2.
INSIDE_GT = ["0.5", "0", "4", "2", "0"]
INSIDE_GT_3D = ["0.5", "0", "0", "4", "2", "1.5", "0"]
ALPHA_4 = ["--alpha", "4"]
SHORT_SWEEP = ["sweep", "--range", "9", "9.2", "--step", "0.1"]
# METRIC with a prediction 1e-05 m off the x axis, and a sweep along a ground
# truth 1e-3 m off it, each written in exponent form.
EXPONENT_METRIC = ["metric", "--pred", "9", "-1e-05", "4", "2", "0", "--gt", "10", "0", "4", "2", "0"]
EXPONENT_SWEEP = ["sweep", "--gt", "10", "-1e-3", "4", "2", "0"]
# A 1 um box 424 m out: below the size floor, where the shoelace area's
# rounding noise exceeds AREA_EPS.
TINY_BOX = ["300", "300", "1e-6", "1e-6", "0.3"]
# 1 um sides about 1 m out measure AREA_EPS itself, so a floor that allowed
# them let `metric` score such a box against itself as empty (iou=0.000000,
# exit 0). FLOOR_BOX has sides at the floor, 2e-6, there.
NEAR_TINY_BOX = ["-0.2995", "0.954", "1e-6", "1e-6", "0"]
FLOOR_BOX = ["-0.2995", "0.954", "2e-6", "2e-6", "0"]
# Boxes below the floor relative to max(1, the distance, the largest
# extent), the height's included. Each used to pass: the first ended in a
# ZeroDivisionError (the volumes underflow to 0), the second scored itself 0
# (the vertical overlap rounds to 0), the third scored itself clamped, and
# the sliver's shoelace area rounds to 0 (a ZeroDivisionError in sweep).
UNDERFLOW_BOX = ["12", "3", "0", "0.5", "0.5", "1e-323", "0.3"]
HIGH_BOX = ["12", "3", "1e16", "0.5", "0.5", "1.5", "0.3"]
SUBNORMAL_HEIGHT_BOX = ["10", "0", "0", "4", "2", "1e-310", "0"]
SLIVER_SWEEP = ["sweep", "--gt", "10", "0", "1", "1e17", "1e17", "--range", "9.99", "15", "--step", "3",
                "--alphas", "1"]
# A box 1e160 m out, above the size floor there but past the reach bound:
# its shoelace and clip products overflow.
HUGE_BOX = ["1e160", "0", "4e155", "2e155", "0"]

# The exit-code contract: 1 = usage or config, 2 = data. Paths in braces
# name the files that _contract_argv writes.
CONTRACT = {
    "eval-tp-dist-zero": (EVAL + ["--tp-dist", "0"], 1),
    "eval-tp-dist-nan": (EVAL + ["--tp-dist", "nan"], 1),
    "eval-nan-threshold": (EVAL + ["--thresholds", "nan,0.5"], 1),
    "eval-threshold-above-one": (EVAL + ["--thresholds", "2,0.5"], 1),
    "metric-box-below-size-floor": (["metric", "--pred"] + TINY_BOX + ["--gt"] + TINY_BOX, 1),
    "metric-box-below-size-floor-near-ego": (["metric", "--pred"] + NEAR_TINY_BOX
                                             + ["--gt"] + NEAR_TINY_BOX, 1),
    "eval-negative-alpha": (EVAL + ["--alpha", "-1"], 1),
    "metric-negative-alpha": (METRIC + ["--alpha", "-1"], 1),
    "metric-zero-samples": (METRIC + ["--samples", "0"], 1),
    "sweep-zero-length-gt": (["sweep", "--gt", "10", "0", "0", "2", "0"], 1),
    "sweep-zero-step": (["sweep", "--step", "0"], 1),
    "sweep-negative-alpha": (["sweep", "--alphas", "-1"], 1),
    "sweep-no-alphas": (["sweep", "--alphas", ""], 1),
    "sweep-infinite-range": (["sweep", "--range", "0", "inf"], 1),
    "sweep-nan-range": (["sweep", "--range", "nan", "15"], 1),
    "sweep-backwards-range": (["sweep", "--range", "15", "5"], 1),
    "sweep-nan-step": (["sweep", "--step", "nan"], 1),
    "sweep-infinite-step": (["sweep", "--step", "inf"], 1),
    "sweep-too-many-rows": (["sweep", "--step", "1e-9"], 1),
    "sweep-row-count-beyond-float-range": (["sweep", "--range", "0", "1e300", "--step", "1e-10"], 1),
    "sweep-repeated-alpha": (SHORT_SWEEP + ["--alphas", "1,1"], 1),
    "sweep-alphas-sharing-a-column": (SHORT_SWEEP + ["--alphas", "1,1.0000001"], 1),
    "sweep-too-many-samples": (SHORT_SWEEP + ["--method", "monte-carlo", "--samples", "10000001"], 1),
    "metric-too-many-samples": (METRIC + ["--method", "monte-carlo", "--samples", "10000001"], 1),
    "metric-3d-wrong-arity": (["metric", "--mode", "3d", "--pred", "1", "2", "3",
                               "--gt", "10", "0", "0", "4", "2", "1.5", "0"], 1),
    "sim-no-kinds": (["sim", "--config", "{tiny}", "--kinds", ","], 1),
    "eval-no-classes": (EVAL + ["--classes", ","], 1),
    "sim-list-config": (["sim", "--config", "{list_config}"], 1),
    "sim-integer-step-rule": (["sim", "--config", "{integer_step_rule}"], 1),
    "sim-target-centred-on-ego": (["sim", "--config", "{centred}"], 1),
    "sim-ego-inside-target": (["sim", "--config", "{inside}"], 1),
    "sim-missing-config": (["sim", "--config", "{missing}"], 1),
    "sim-repeated-key": (["sim", "--config", "{repeated_key}"], 1),
    "sim-fractional-iterations": (["sim", "--config", "{fractional_iterations}"], 1),
    "sim-fractional-grid": (["sim", "--config", "{fractional_grid}"], 1),
    "sim-boolean-iterations": (["sim", "--config", "{boolean_iterations}"], 1),
    "sim-string-eval-alpha": (["sim", "--config", "{string_eval_alpha}"], 1),
    "sim-nan-eval-alpha": (["sim", "--config", "{nan_eval_alpha}"], 1),
    "sim-negative-eval-alpha": (["sim", "--config", "{negative_eval_alpha}"], 1),
    "sim-string-metric-boost": (["sim", "--config", "{string_metric_boost}"], 1),
    "sim-nan-step-rate": (["sim", "--config", "{nan_step_rate}"], 1),
    "sim-infinite-decay-factor": (["sim", "--config", "{infinite_decay_factor}"], 1),
    "sim-boolean-step-rate": (["sim", "--config", "{boolean_step_rate}"], 1),
    "sim-string-step-rate": (["sim", "--config", "{string_step_rate}"], 1),
    "sim-boolean-anchor-scale": (["sim", "--config", "{boolean_anchor_scale}"], 1),
    "sim-string-target-center": (["sim", "--config", "{string_target_center}"], 1),
    "sim-boolean-grid-extent": (["sim", "--config", "{boolean_grid_extent}"], 1),
    "sim-string-grid-extent": (["sim", "--config", "{string_grid_extent}"], 1),
    "sim-huge-integer-target-center": (["sim", "--config", "{huge_integer_target_center}"], 1),
    "sim-negative-anchor-scale": (["sim", "--config", "{negative_anchor_scale}"], 1),
    "sim-zero-anchor-ratio": (["sim", "--config", "{zero_anchor_ratio}"], 1),
    "sim-huge-grid": (["sim", "--config", "{huge_grid}"], 1),
    "sim-too-many-cases": (["sim", "--config", "{too_many_cases}"], 1),
    "sim-huge-iterations": (["sim", "--config", "{huge_iterations}"], 1),
    "sim-unrepresentable-alpha": (["sim", "--config", "{overflowing_eval_alpha}"], 1),
    "sim-underflowing-eval-alpha": (["sim", "--config", "{underflowing_eval_alpha}"], 1),
    "metric-box-past-reach-bound": (["metric", "--pred"] + HUGE_BOX + ["--gt"] + HUGE_BOX, 1),
    "sweep-box-past-reach-bound": (["sweep", "--gt"] + HUGE_BOX + ["--range", "1e160", "1e160"], 1),
    "sim-target-past-reach-bound": (["sim", "--config", "{huge_target}", "--out", "{missing}"], 1),
    "sim-anchors-past-reach-bound": (["sim", "--config", "{huge_grid_extent}", "--out", "{missing}"], 1),
    "sim-duplicate-kinds": (["sim", "--config", "{tiny}", "--kinds", "iou,ec-iou,iou"], 1),
    "eval-duplicate-classes": (EVAL + ["--classes", "car,pedestrian,car"], 1),
    "eval-unrepresentable-alpha": (NEAR_EVAL + ["--alpha", "100000"], 1),
    "eval-unrepresentable-alpha-arithmetic": (NEAR_EVAL + ["--alpha", "100000"] + ARITH, 1),
    "eval-unrepresentable-alpha-pair-below-threshold": (BELOW_EVAL + ["--alpha", "100000"] + ARITH, 1),
    "metric-unrepresentable-alpha": (NEAR_METRIC + ["--alpha", "100000"], 1),
    "metric-unrepresentable-alpha-arithmetic": (NEAR_METRIC + ["--alpha", "100000"] + ARITH, 1),
    "sweep-unrepresentable-alpha": (NEAR_SWEEP + ["--alphas", "100000"], 1),
    "sweep-unrepresentable-alpha-arithmetic": (NEAR_SWEEP + ["--alphas", "100000"] + ARITH, 1),
    "eval-missing-preds": (["eval", "--preds", "{missing}", "--gts", "{gts}"], 2),
    "eval-preds-not-utf8": (["eval", "--preds", "{not_utf8_preds}", "--gts", "{gts}"], 2),
    "eval-preds-mark-inside-the-data": (["eval", "--preds", "{marked_preds}", "--gts", "{gts}"], 2),
    "eval-gt-corner-on-ego": (["eval", "--preds", "{far_preds}", "--gts", "{corner_gts}"], 2),
    "eval-gt-within-margin-of-ego": (["eval", "--preds", "{knife_preds}", "--gts", "{knife_gts}"], 2),
    "eval-pred-below-size-floor": (["eval", "--preds", "{tiny_preds}", "--gts", "{tiny_gts}"], 2),
    "eval-box-past-reach-bound": (["eval", "--preds", "{huge_preds}", "--gts", "{huge_gts}"], 2),
    "eval-box-past-reach-bound-in-height": (["eval", "--preds", "{tall_preds}", "--gts", "{gts}"], 2),
    "metric-3d-volumes-underflow": (["metric", "--mode", "3d", "--pred"] + UNDERFLOW_BOX
                                    + ["--gt"] + UNDERFLOW_BOX, 1),
    "metric-3d-height-below-floor-far-up": (["metric", "--mode", "3d", "--pred"] + HIGH_BOX
                                            + ["--gt"] + HIGH_BOX, 1),
    "metric-3d-subnormal-height": (["metric", "--mode", "3d", "--pred"] + SUBNORMAL_HEIGHT_BOX
                                   + ["--gt"] + SUBNORMAL_HEIGHT_BOX, 1),
    "sweep-sliver-below-size-floor": (SLIVER_SWEEP, 1),
    "eval-volumes-underflow": (["eval", "--preds", "{underflow_preds}", "--gts", "{underflow_gts}"], 2),
    "eval-height-below-floor-far-up": (["eval", "--preds", "{high_preds}", "--gts", "{high_gts}"], 2),
    "sweep-unwritable-out": (["sweep", "--out", "/nonexistent-dir/x.csv"], 2),
    "metric-gt-on-ego": (METRIC[:8] + ["0", "0", "4", "2", "0"], 2),
    "eval-gt-contains-ego": (["eval", "--preds", "{inside_preds}", "--gts", "{inside_gts}"]
                             + ALPHA_4, 2),
    "metric-gt-contains-ego": (METRIC[:8] + INSIDE_GT + ALPHA_4, 2),
    "metric-3d-gt-contains-ego": (["metric", "--mode", "3d", "--pred"] + INSIDE_GT_3D
                                  + ["--gt"] + INSIDE_GT_3D + ALPHA_4, 2),
    "sweep-gt-contains-ego": (["sweep", "--gt"] + INSIDE_GT + ["--alphas", "4"], 2),
    # Negative numbers in exponent form and -inf/-nan are values, not options:
    # each row is refused by the library, not by the argument parser.
    "metric-exponent-form-negative-alpha": (EXPONENT_METRIC + ["--alpha", "-1e-05"], 1),
    "metric-negative-infinite-theta": (METRIC[:6] + ["-inf"] + METRIC[7:], 1),
    "sweep-exponent-form-negative-step": (EXPONENT_SWEEP + ["--step", "-1e-3"], 1),
    "sweep-negative-nan-alpha": (EXPONENT_SWEEP + ["--alphas", "-nan"], 1),
}


# Scenario documents for the sim rows; each is small, so a row whose
# rejection regresses fails fast instead of running the full scenario.
SCENARIOS = {
    "tiny": {},
    "centred": {"target_center": [0, 0]},
    "inside": {"target_center": [1, 0], "target_dims": [[3, 1]], "target_thetas": [0]},
    "fractional_iterations": {"iterations": 2.5},
    "fractional_grid": {"grid_points_per_axis": 1.5},
    "boolean_iterations": {"iterations": True},
    "string_eval_alpha": {"eval_alpha": "4"},
    "nan_eval_alpha": {"eval_alpha": math.nan},
    "negative_eval_alpha": {"eval_alpha": -1},
    "string_metric_boost": {"step_rule": {"metric_boost": "no"}},
    "integer_step_rule": {"step_rule": 5},
    "nan_step_rate": {"step_rule": {"rate": math.nan}},
    "infinite_decay_factor": {"step_rule": {"decay_factor": math.inf}},
    "boolean_step_rate": {"step_rule": {"rate": True}},
    "string_step_rate": {"step_rule": {"rate": "0.1"}},
    "boolean_anchor_scale": {"anchor_scales": [True]},
    "string_target_center": {"target_center": ["8", "8"]},
    "boolean_grid_extent": {"grid_extent": True},
    "string_grid_extent": {"grid_extent": "6"},
    "huge_integer_target_center": {"target_center": [10**400, 0]},
    "negative_anchor_scale": {"anchor_scales": [-1]},
    "zero_anchor_ratio": {"anchor_ratios": [[1, 0]]},
    "huge_grid": {"grid_points_per_axis": 10**400},
    # 6 targets * 43^2 * 3 ratios * 3 scales = 99,846 cases is the largest grid.
    "too_many_cases": {"grid_points_per_axis": 44},
    "huge_iterations": {"iterations": 10**400},
    # The largest weight over the default targets leaves float range from
    # eval_alpha 3,649 on.
    "overflowing_eval_alpha": {"eval_alpha": 100000},
    # A thin target across the line of sight: its smallest weight underflows
    # to 0 from eval_alpha 6,448 on, its largest overflows only from 141,600.
    # A target and anchors past the reach bound; and anchors past it around
    # a target within it, 9e99 m out.
    "huge_target": {"target_center": [1e160, 1e160], "target_dims": [[4e155, 2e155]],
                    "grid_extent": 1e156, "anchor_scales": [1e155]},
    "huge_grid_extent": {"target_center": [9e99, 0], "target_dims": [[1e95, 1e95]],
                         "grid_points_per_axis": 2, "grid_extent": 2.2e99, "anchor_scales": [1e95]},
    "underflowing_eval_alpha": {"target_center": [10, 0], "target_dims": [[0.1, 10]],
                                "target_thetas": [0], "eval_alpha": 10000},
}

# A prediction far from a ground truth whose corner sits on the ego origin:
# the pair is disjoint, so the ground truth is refused where it is parsed.
FAR_PREDS = "f0 car 30 0 0 4 2 1.5 0 0.9\n"
CORNER_GTS = "f0 car 1 1 0 2 2 1.5 0\n"
NEAR_PREDS = "f0 car 1.2 0 0 2 2 1.5 0 0.9\n"
NEAR_GTS = "f0 car 1.2 0 0 2 2 1.5 0\n"
BELOW_PREDS = "f0 car 2.2 0.3 0 2 2 1.5 0.3 0.9\n"
INSIDE_PREDS = "f0 car 0.8 0 0 4 2 1.5 0 0.9\n"
INSIDE_GTS = "f0 car 0.5 0 0 4 2 1.5 0\n"
# The ego 1.0000000827e-9 from the ground truth in box-local coordinates,
# though box_to_polygon puts a corner 9.99999998e-10 from it: refused by the
# 2 * DEGENERATE_DISTANCE admission margin.
KNIFE_PREDS = "f0 car 0.15058434031134932 -0.6908866458783205 0 1 1 1 0 0.9\n"
KNIFE_GTS = "f0 car 0.15058434031134932 -0.6908866458783205 0 1 1 1 1.0\n"
# A 1 um prediction about 300 m out; box_to_polygon used to find it wound clockwise.
TINY_PREDS = "f0 car -153.95200623879273 257.4854943002629 0.5 1e-6 1e-6 1.5 -0.416844178988669 0.9\n"
TINY_GTS = "f0 car -153.95200623879273 257.4854943002629 0.5 4 2 1.5 0\n"
NOT_UTF8_PREDS = b"f0 car 1 2 0 4 2 1.5 0 0.9\xff\n"
# A byte-order mark at the start of line 2, as in two record files joined:
# it would make that line's frame id '\ufefff0'.
MARKED_PREDS = PREDS.replace("\nf0", "\n\ufefff0", 1)
HUGE_PREDS = "f0 car 1e160 0 0 4e155 2e155 1.5 0 0.9\n"
HUGE_GTS = "f0 car 1e160 0 0 4e155 2e155 1.5 0\n"
# Its volume overflows.
TALL_PREDS = "f0 car 10 0 0 4 2 1e308 0 0.9\n"
# A perfect prediction: both volumes underflow to 0; the vertical overlap
# rounds to 0, which reported it as 1 FP and 1 FN.
UNDERFLOW_PREDS = "f pedestrian 10 0 0 0.5 0.5 5e-324 0 0.9\n"
UNDERFLOW_GTS = "f pedestrian 10 0 0 0.5 0.5 5e-324 0\n"
HIGH_PREDS = "f car 12 3 1e16 0.5 0.5 1.5 0.3 0.9\n"
HIGH_GTS = "f car 12 3 1e16 0.5 0.5 1.5 0.3\n"


def _contract_argv(tmp_path, argv):
    files = {"preds": PREDS, "gts": GTS, "far_preds": FAR_PREDS, "corner_gts": CORNER_GTS,
             "near_preds": NEAR_PREDS, "near_gts": NEAR_GTS, "below_preds": BELOW_PREDS,
             "inside_preds": INSIDE_PREDS, "inside_gts": INSIDE_GTS,
             "knife_preds": KNIFE_PREDS, "knife_gts": KNIFE_GTS,
             "tiny_preds": TINY_PREDS, "tiny_gts": TINY_GTS,
             "not_utf8_preds": NOT_UTF8_PREDS, "huge_preds": HUGE_PREDS, "huge_gts": HUGE_GTS,
             "tall_preds": TALL_PREDS, "underflow_preds": UNDERFLOW_PREDS, "underflow_gts": UNDERFLOW_GTS,
             "high_preds": HIGH_PREDS, "high_gts": HIGH_GTS,
             "marked_preds": MARKED_PREDS, "list_config": "[]",
             "repeated_key": '{"grid_points_per_axis": 1, "iterations": 2, "iterations": 3}'}
    for name, raw in SCENARIOS.items():
        files[name] = json.dumps({"grid_points_per_axis": 1, "iterations": 2, **raw})
    paths = {"missing": str(tmp_path / "missing")}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        paths[name] = str(tmp_path / name)
    return [arg.format(**paths) for arg in argv]


def _assert_one_error_line(out, err):
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, code", CONTRACT.values(), ids=CONTRACT.keys())
def test_exit_code_contract(tmp_path, capsys, argv, code):
    assert main(_contract_argv(tmp_path, argv)) == code
    _assert_one_error_line(*capsys.readouterr())


@pytest.mark.parametrize("row", ["sweep-zero-length-gt", "sim-ego-inside-target", "eval-missing-preds"])
def test_exit_code_contract_as_subprocess(tmp_path, row):
    argv, code = CONTRACT[row]
    result = subprocess.run(
        [sys.executable, "-m", "eciou.cli"] + _contract_argv(tmp_path, argv),
        capture_output=True, text=True,
    )
    assert result.returncode == code
    _assert_one_error_line(result.stdout, result.stderr)


@pytest.mark.parametrize("argv", [
    ["metric", "--pred", "1", "0", "4", "2", "0", "--gt", "1", "0", "4", "2", "0", "--bogus"],
    ["sweep", "--alphas", "1,x"],
    ["metric", "--pred", "9", "0", "4", "2", "0"],
    ["sweep", "--gt", "10", "0", "4"],
    ["frobnicate"],
    [],
])
def test_usage_errors_print_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    _assert_one_error_line(*capsys.readouterr())


@pytest.mark.parametrize("argv, fixed_point", [
    (EXPONENT_METRIC + ["--alpha", "1"],
     ["metric", "--pred", "9", "-0.00001"] + EXPONENT_METRIC[4:] + ["--alpha", "1"]),
    (EXPONENT_SWEEP + SHORT_SWEEP[1:], ["sweep", "--gt", "10", "-0.001", "4", "2", "0"] + SHORT_SWEEP[1:]),
])
def test_negative_numbers_in_exponent_form_are_values(capsys, argv, fixed_point):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert main(fixed_point) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("row", [row for row in CONTRACT if "unrepresentable-alpha" in row])
def test_unrepresentable_alpha_error_names_alpha(tmp_path, capsys, row):
    assert main(_contract_argv(tmp_path, CONTRACT[row][0])) == 1
    assert "alpha 100000" in capsys.readouterr().err


def test_eval_ground_truth_corner_on_ego_names_file_and_line(tmp_path, capsys):
    argv = _contract_argv(tmp_path, CONTRACT["eval-gt-corner-on-ego"][0])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'corner_gts'}:1: ") and "corner" in err


def test_eval_ground_truth_containing_the_ego_names_file_and_line(tmp_path, capsys):
    assert main(_contract_argv(tmp_path, CONTRACT["eval-gt-contains-ego"][0])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'inside_gts'}:1: ") and "inside it" in err


def test_eval_record_file_that_is_not_utf8_names_file_and_line(tmp_path, capsys):
    assert main(_contract_argv(tmp_path, CONTRACT["eval-preds-not-utf8"][0])) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'not_utf8_preds'}:1: not UTF-8: byte 0xff\n"


def test_eval_byte_order_mark_inside_the_data_names_file_and_line(tmp_path, capsys):
    assert main(_contract_argv(tmp_path, CONTRACT["eval-preds-mark-inside-the-data"][0])) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'marked_preds'}:2: byte-order mark (U+FEFF) inside the data\n"


def test_eval_skips_a_leading_byte_order_mark(tmp_path, capsys):
    preds, gts = tmp_path / "preds.txt", tmp_path / "gts.txt"
    preds.write_bytes(b"\xef\xbb\xbff0 car 10 0 0.75 4 2 1.5 0 0.9\n")
    gts.write_text("f0 car 10 0 0.75 4 2 1.5 0\n")
    assert main(["eval", "--preds", str(preds), "--gts", str(gts), "--mode", "3d"]) == 0
    assert json.loads(capsys.readouterr().out)["map40"] == 1.0


@pytest.mark.parametrize("row, name", [
    ("eval-gt-within-margin-of-ego", "knife_gts"),
    ("eval-pred-below-size-floor", "tiny_preds"),
    ("eval-box-past-reach-bound", "huge_preds"),
    ("eval-volumes-underflow", "underflow_preds"),
    ("eval-height-below-floor-far-up", "high_preds"),
])
def test_eval_refused_box_names_file_and_line(tmp_path, capsys, row, name):
    assert main(_contract_argv(tmp_path, CONTRACT[row][0])) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / name}:1: ")


# Each of these used to overflow: eval, metric and sweep exited 1 with
# "metric value out of range: nan", and sim printed numpy warnings and wrote
# a CSV holding only its header.
REACH_ERRORS = {
    "eval-box-past-reach-bound": "{huge_preds}:1: box must lie within 1e+100 m of the ego",
    "eval-box-past-reach-bound-in-height":
        "{tall_preds}:1: box must lie within 1e+100 m of the ground plane",
    "metric-box-past-reach-bound": "box must lie within 1e+100 m of the ego",
    "sweep-box-past-reach-bound": "box must lie within 1e+100 m of the ego",
    "sim-target-past-reach-bound":
        "target_center and target_dims give a bad target: box must lie within 1e+100 m of the ego",
    "sim-anchors-past-reach-bound":
        "target_center, grid_extent, anchor_ratios and anchor_scales give a bad anchor: "
        "box must lie within 1e+100 m of the ego",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", REACH_ERRORS)
def test_boxes_past_the_reach_bound_are_refused_by_name(tmp_path, capsys, row):
    argv, code = CONTRACT[row]
    assert main(_contract_argv(tmp_path, argv)) == code
    out, err = capsys.readouterr()
    _assert_one_error_line(out, err)
    assert err.startswith("error: " + _contract_argv(tmp_path, [REACH_ERRORS[row]])[0])
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("row, key", [
    ("sim-boolean-step-rate", "step_rule.rate"),
    ("sim-string-step-rate", "step_rule.rate"),
    ("sim-boolean-anchor-scale", "anchor_scales"),
    ("sim-string-target-center", "target_center"),
    ("sim-boolean-grid-extent", "grid_extent"),
    ("sim-string-grid-extent", "grid_extent"),
    ("sim-huge-integer-target-center", "target_center"),
])
def test_scenario_number_error_names_the_key(tmp_path, capsys, row, key):
    assert main(_contract_argv(tmp_path, CONTRACT[row][0])) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be a finite number, got ")


def test_metric_scores_a_box_at_the_size_floor_against_itself(capsys):
    assert main(["metric", "--pred"] + FLOOR_BOX + ["--gt"] + FLOOR_BOX) == 0
    assert capsys.readouterr().out.strip() == "iou=1.000000 ec_iou=1.000000 clamped=false"


@pytest.mark.parametrize("row, message", [
    ("sim-negative-anchor-scale", "anchor_scales entries must be positive"),
    ("sim-zero-anchor-ratio", "anchor_ratios entries must be positive"),
    ("sim-huge-grid", "grid_points_per_axis, anchor_ratios and anchor_scales give more than 100000 cases"),
    ("sim-too-many-cases", "grid_points_per_axis, anchor_ratios and anchor_scales give more than 100000 cases"),
    ("sim-huge-iterations", "iterations must be at most 100000"),
    ("sim-underflowing-eval-alpha", "eval_alpha 10000 puts the EC-IoU weights of a target out of float range"),
])
def test_scenario_range_error_names_the_key(tmp_path, capsys, row, message):
    assert main(_contract_argv(tmp_path, CONTRACT[row][0])) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("row, message", [
    ("sweep-no-alphas", "alphas must name at least one alpha"),
    ("sweep-infinite-range", "range must be finite with LO <= HI, got 0 inf"),
    ("sweep-backwards-range", "range must be finite with LO <= HI, got 15 5"),
    ("sweep-nan-step", "step must be finite and positive, got nan"),
    ("sweep-infinite-step", "step must be finite and positive, got inf"),
    ("sweep-too-many-rows", "range and step give more than 100000 rows"),
    ("sweep-row-count-beyond-float-range", "range and step give more than 100000 rows"),
    ("sweep-repeated-alpha", "alpha 1.0 repeats the column eciou_a1"),
    ("sweep-alphas-sharing-a-column", "alpha 1.0000001 repeats the column eciou_a1"),
    ("sweep-too-many-samples", "mc_samples must be in [1, 10000000], got 10000001"),
])
def test_sweep_flag_error_names_the_flag(tmp_path, capsys, row, message):
    assert main(_contract_argv(tmp_path, CONTRACT[row][0])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, work", [
    (["sim", "--config", "{tiny}", "--kinds", "iou"], "run_simulation"),
    (["sweep"], "sweep_curve"),
], ids=["sim", "sweep"])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, argv, work):
    import eciou.cli

    def reached(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was opened")

    monkeypatch.setattr(eciou.cli, work, reached)
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"grid_points_per_axis": 1, "iterations": 2}))
    argv = [a.format(tiny=tiny) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "missing-dir" / "x.csv")]) == 2
    _assert_one_error_line(*capsys.readouterr())


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "eciou.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "metric" in result.stdout


def test_import_loads_neither_hashlib_nor_the_thread_pool():
    # hashlib loads OpenSSL for the Monte Carlo seed alone,
    # concurrent.futures serves threaded sim runs alone, and array holds
    # record files alone: a plain import pays for none of them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import eciou; "
        "print(sorted({'array', 'hashlib', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
