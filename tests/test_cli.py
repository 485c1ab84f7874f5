import json
import subprocess
import sys

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
    # The intersection's corner sits on the ego origin, so its weight is undefined.
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

# The exit-code contract: 1 = usage or config, 2 = data. Paths in braces
# name the files that _contract_argv writes.
CONTRACT = {
    "eval-tp-dist-zero": (EVAL + ["--tp-dist", "0"], 1),
    "eval-negative-alpha": (EVAL + ["--alpha", "-1"], 1),
    "metric-negative-alpha": (METRIC + ["--alpha", "-1"], 1),
    "metric-zero-samples": (METRIC + ["--samples", "0"], 1),
    "sweep-zero-length-gt": (["sweep", "--gt", "10", "0", "0", "2", "0"], 1),
    "sweep-zero-step": (["sweep", "--step", "0"], 1),
    "sweep-negative-alpha": (["sweep", "--alphas", "-1"], 1),
    "sim-target-centred-on-ego": (["sim", "--config", "{centred}"], 1),
    "sim-ego-inside-target": (["sim", "--config", "{inside}"], 1),
    "sim-missing-config": (["sim", "--config", "{missing}"], 1),
    "eval-missing-preds": (["eval", "--preds", "{missing}", "--gts", "{gts}"], 2),
    "sweep-unwritable-out": (["sweep", "--out", "/nonexistent-dir/x.csv"], 2),
    "metric-gt-on-ego": (METRIC[:8] + ["0", "0", "4", "2", "0"], 2),
}


def _contract_argv(tmp_path, argv):
    files = {
        "preds": PREDS,
        "gts": GTS,
        "centred": json.dumps({"grid_points_per_axis": 1, "iterations": 2, "target_center": [0, 0]}),
        "inside": json.dumps({
            "grid_points_per_axis": 1, "iterations": 2, "target_center": [1, 0],
            "target_dims": [[3, 1]], "target_thetas": [0],
        }),
    }
    paths = {"missing": str(tmp_path / "missing")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
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
