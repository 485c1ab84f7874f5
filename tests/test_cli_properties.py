"""The command line's exit-code contract as properties, driven in-process.

Inputs are `metric` argv floats in bev and 3d mode, `sweep` argv, record
files built from a line grammar, and `sim` scenario documents. Whatever they
hold, `main` returns 0, 1 or 2 and raises nothing; a non-zero exit writes
exactly one `error:` line and nothing on stdout; a data error in a record
file exits 2 and names `file:line`; and exit 0 prints no nan or inf. A box
scored against itself scores 1.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from eciou.cli import main
from test_simulate import _FIELDS, _STEP_FIELDS, _document

# Fields x y z l w h theta of everyday boxes, 0.1 to 6 m in size.
_EVERYDAY = (st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.floats(-3.0, 3.0),
             st.floats(0.1, 6.0), st.floats(0.1, 6.0), st.floats(0.1, 6.0), st.floats(-4.0, 4.0))
# The bev fields x y l w theta among them.
_BEV = (0, 1, 3, 4, 6)
# Any finite magnitude, subnormals to 1e308, and some that used to score wrongly.
_EXTREME = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 1e-310, 1e-300, 1e16, 1e17, 1e100, 1e308, -1e308])
# Tokens float() reads as non-finite, and a negative zero.
_NON_FINITE = ("1e999", "-1e999", "inf", "-inf", "nan", "-nan")
_SPECIAL = st.sampled_from(_NON_FINITE + ("-0.0",))


@st.composite
def _box_tokens(draw, mode="3d"):
    """x y z l w h theta (x y l w theta in bev mode), as a user would type
    them (repr, so negatives often in exponent form): an everyday box with up
    to three fields made extreme and, now and then, one made non-finite or -0.0."""
    fields = _EVERYDAY if mode == "3d" else [_EVERYDAY[i] for i in _BEV]
    values = [draw(field) for field in fields]
    for i in draw(st.sets(st.integers(0, len(values) - 1), max_size=3)):
        values[i] = draw(_EXTREME)
    tokens = [repr(v) for v in values]
    for i in draw(st.sets(st.integers(0, len(values) - 1), max_size=1)):
        if draw(st.integers(0, 3)) == 0:
            tokens[i] = draw(_SPECIAL)
    return tokens


@st.composite
def _metric_pairs(draw, mode="3d"):
    """(pred, gt) argv tokens; one draw in three scores a box against itself."""
    pred = draw(_box_tokens(mode))
    return pred, pred if draw(st.integers(0, 2)) == 0 else draw(_box_tokens(mode))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == ""
        assert not re.search("nan|inf", out, re.IGNORECASE)


# The five inputs that crashed or scored wrongly before each extent (the
# height included) had a floor relative to max(1, the distance, the largest
# extent): the volumes underflow to 0 (a ZeroDivisionError), the vertical
# overlap rounds to 0 at z = 1e16, and a 1 x 1e17 m sliver's area rounds to 0.
@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=150)
@example(pair=("12 3 0 0.5 0.5 1e-323 0.3".split(),) * 2)
@example(pair=("12 3 1e16 0.5 0.5 1.5 0.3".split(),) * 2)
@example(pair=("9 0 4 4 2 1e-310 0".split(),) * 2)
@example(pair=("10 0 0 1 1e17 1.5 1e17".split(),) * 2)
@given(pair=_metric_pairs())
def test_metric_3d_keeps_the_exit_code_contract(pair):
    pred, gt = pair
    code, out, err = _run(["metric", "--mode", "3d", "--pred", *pred, "--gt", *gt])
    _assert_contract(code, out, err)
    if pred == gt and code == 0:
        # clamped may read true: _vertical_overlap can round an ulp above h.
        assert out.startswith("iou=1.000000 ec_iou=1.000000 clamped=")


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=100)
@example(pair=("9 -1e-05 4 2 0".split(), "10 0 4 2 0".split()))
@example(pair=("10 0 1 1e17 1e17".split(),) * 2)
@given(pair=_metric_pairs("bev"))
def test_metric_bev_keeps_the_exit_code_contract(pair):
    pred, gt = pair
    code, out, err = _run(["metric", "--pred", *pred, "--gt", *gt])
    _assert_contract(code, out, err)
    if pred == gt and code == 0:
        assert out.startswith("iou=1.000000 ec_iou=1.000000 clamped=")


@st.composite
def _sweep_argv(draw):
    """(argv, alphas, at_gt) of a sweep: a ground truth from _box_tokens, a
    range that is one point at its x in one draw of three (at_gt) and else
    runs between two drawn x, a step that gives at most 21 rows or that the
    sweep refuses (zero, negative, non-finite, or more than 100,000 rows), and
    one to three alphas; tokens are typed with repr."""
    gt = draw(_box_tokens("bev"))
    at_gt = draw(st.integers(0, 2)) == 0
    if at_gt:
        lo = hi = gt[0]
    else:
        lo, hi = (repr(draw(_EVERYDAY[0] | _EXTREME)) for _ in range(2))
    span = float(hi) - float(lo)
    rows = draw(st.integers(1, 20))
    step = draw(st.just(repr(span / rows if span > 0.0 else 0.1))
                | st.sampled_from(["0", "-1e-3", "inf", "-inf", "nan", "1e-300", "1e300"]))
    alphas = draw(st.lists(st.floats(0.0, 8.0) | st.sampled_from([-1e-05, -0.0, 1e300]),
                           min_size=1, max_size=3))
    method = draw(st.sampled_from(["geometric", "arithmetic"]))
    argv = ["sweep", "--gt", *gt, "--range", lo, hi, "--step", step,
            "--alphas", ",".join(repr(a) for a in alphas), "--method", method]
    return argv, alphas, at_gt


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=100)
@example(sweep=(["sweep", "--gt", "10", "-1e-3", "4", "2", "0", "--range", "9", "9.2", "--step", "0.1",
                 "--alphas", "1"], [1.0], False))
@example(sweep=(["sweep", "--gt", "10", "0", "1", "1e17", "1e17", "--range", "9.99", "15", "--step", "3",
                 "--alphas", "1"], [1.0], False))
@given(sweep=_sweep_argv())
def test_sweep_keeps_the_exit_code_contract(sweep):
    argv, alphas, at_gt = sweep
    code, out, err = _run(argv)
    _assert_contract(code, out, err)
    if code == 0:
        header, *rows = out.splitlines()
        assert header.split(",")[:2] == ["x", "iou"] and len(header.split(",")) == 2 + len(alphas)
        assert rows and all(len(row.split(",")) == 2 + len(alphas) for row in rows)
        for row in rows:
            assert all(0.0 <= float(v) <= 1.0 for v in row.split(",")[1:])
        if at_gt:
            # One row, the ground truth scored against itself.
            assert [row.split(",")[1:] for row in rows] == [["1"] * (1 + len(alphas))]


@st.composite
def _record_line(draw, scored):
    """(bytes, bad): one record file line, bad if it is a data error by
    construction (wrong arity, a non-finite field or score, a score outside
    [0, 1], bytes that are not UTF-8). A well-formed record may still be a
    data error through its geometry."""
    kind = draw(st.sampled_from(["record"] * 4 + ["arity", "comment", "blank", "not-utf8"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b"   ", b"\t"])), False
    if kind == "comment":
        return b"# " + draw(st.text("abc 01#", max_size=8)).encode(), False
    fields = [draw(st.sampled_from(["f0", "f1"])), draw(st.sampled_from(["car", "pedestrian", "bus"]))]
    fields += draw(_box_tokens())
    bad = any(token in _NON_FINITE for token in fields)
    if scored:
        score = draw(st.floats(0.0, 1.0).map(repr) | st.sampled_from(["1.5", "-0.0", "nan", "1e-320"]))
        bad |= score in ("1.5", "nan")
        fields.append(score)
    if kind == "arity":
        if draw(st.booleans()):
            fields.pop(draw(st.integers(0, len(fields) - 1)))
        else:
            fields.append("0")
        bad = True
    line = " ".join(fields).encode()
    if kind == "not-utf8":
        at = draw(st.integers(0, len(line)))
        line, bad = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + line[at:], True
    if kind == "record" and draw(st.booleans()):
        line += b"  # note"
    return line, bad


def _record_file(scored):
    return st.lists(_record_line(scored), max_size=5)


def _write(path, lines, eol, final_eol):
    path.write_bytes(eol.join(line for line, _ in lines) + (eol if lines and final_eol else b""))


def _first_bad(lines):
    return next((i for i, (_, bad) in enumerate(lines, start=1) if bad), None)


_EVAL_FLAGS = st.sampled_from([[], ["--mode", "bev"], ["--affinity", "ec-iou"]])


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=150)
@example(preds=[(b"f pedestrian 10 0 0 0.5 0.5 5e-324 0 0.9", False)],
         gts=[(b"f pedestrian 10 0 0 0.5 0.5 5e-324 0", False)], eol=b"\n", final_eol=True, flags=[])
@given(preds=_record_file(True), gts=_record_file(False), eol=st.sampled_from([b"\n", b"\r\n"]),
       final_eol=st.booleans(), flags=_EVAL_FLAGS)
def test_eval_keeps_the_exit_code_contract(tmp_path_factory, preds, gts, eol, final_eol, flags):
    root = tmp_path_factory.getbasetemp()
    paths = {"preds": root / "contract_preds", "gts": root / "contract_gts"}
    _write(paths["preds"], preds, eol, final_eol)
    _write(paths["gts"], gts, eol, final_eol)
    code, out, err = _run(["eval", "--preds", str(paths["preds"]), "--gts", str(paths["gts"])] + flags)
    _assert_contract(code, out, err)
    assert code in (0, 2)  # every flag is valid; only the records can be wrong
    bad_pred, bad_gt = _first_bad(preds), _first_bad(gts)
    if bad_pred or bad_gt:
        assert code == 2
    if code == 2:
        # Predictions are read first; each file stops at its first error.
        named = re.match(r"error: (.*):(\d+): ", err)
        assert named, err
        path, line = named.group(1), int(named.group(2))
        if path == str(paths["preds"]):
            assert line <= (bad_pred or len(preds))
        else:
            assert path == str(paths["gts"]) and not bad_pred and line <= (bad_gt or len(gts))


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=100)
@example(record="f pedestrian 10 0 0 0.5 0.5 5e-324 0".split(), flags=[])
@example(record="f car 12 3 1e16 0.5 0.5 1.5 0.3".split(), flags=[])
@example(record="f car 9 0 4 4 2 1e-310 0".split(), flags=[])
@example(record="f car 10 0 0 1 1e17 1.5 1e17".split(), flags=[])
@given(record=_box_tokens().map(lambda box: ["f0", "car"] + box), flags=_EVAL_FLAGS)
def test_eval_matches_a_perfect_prediction(tmp_path_factory, record, flags):
    root = tmp_path_factory.getbasetemp()
    preds, gts = root / "perfect_preds", root / "perfect_gts"
    line = " ".join(record)
    preds.write_text(line + " 0.9\n")
    gts.write_text(line + "\n")
    code, out, err = _run(["eval", "--preds", str(preds), "--gts", str(gts),
                           "--classes", record[1]] + flags)
    _assert_contract(code, out, err)
    if code == 0:
        counts = json.loads(out)["classes"][record[1]]
        assert (counts["tp"], counts["fp"], counts["fn"]) == (1, 0, 0)


_PAIR = st.lists(st.floats(0.5, 3.0), min_size=2, max_size=2)
# In-range values for every field: targets 3 m or more from the ego and up
# to 3 m long, a grid of at most 3 points per axis.
_IN_RANGE = {
    "target_center": st.tuples(st.floats(-20.0, 20.0), st.floats(3.0, 20.0)).map(list),
    "target_dims": st.lists(_PAIR, min_size=1, max_size=2),
    "target_thetas": st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=2),
    "grid_extent": st.floats(0.5, 6.0),
    "grid_points_per_axis": st.integers(1, 3),
    "anchor_ratios": st.lists(_PAIR, min_size=1, max_size=2),
    "anchor_scales": st.lists(st.floats(0.25, 2.0), min_size=1, max_size=2),
    "iterations": st.integers(1, 3),
    "eval_alpha": st.floats(0.0, 8.0),
}
_IN_RANGE_STEP = {
    "rate": st.floats(0.01, 1.0),
    "decay_factor": st.floats(0.01, 1.0),
    "decay_at": st.floats(0.0, 1.0),
    "metric_boost": st.booleans(),
}


def _in_range(fields):
    return st.fixed_dictionaries({}, optional=fields)


# Scenario documents, where an absent key takes the full-size default, with
# the grid and iteration count kept small when absent: at most 486 cases
# over 3 iterations, about 0.15 s a run. About half hold in-range values
# only, so that the exit-0 half of the contract is exercised, and half are
# test_simulate's documents, which most often fail to build a config.
@st.composite
def _scenarios(draw):
    fields, rule = draw(st.one_of(
        st.tuples(_in_range(_IN_RANGE), st.none() | _in_range(_IN_RANGE_STEP)),
        st.tuples(_document(_FIELDS), st.none() | _document(_STEP_FIELDS)),
    ))
    doc = {"grid_points_per_axis": 2, "iterations": 2, **fields}
    if rule is not None:
        doc["step_rule"] = rule
    return doc


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=150)
@example(doc={"grid_points_per_axis": 3, "iterations": 3, "step_rule": {"rate": 1.0, "metric_boost": True}})
@given(doc=_scenarios())
def test_sim_keeps_the_exit_code_contract(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "contract_scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["sim", "--config", str(path)])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        # stderr holds the case and failure counts.
        assert err.startswith("cases=") and not re.search("nan|inf", out + err, re.IGNORECASE)
