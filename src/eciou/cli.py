"""Command-line front end: metric queries, sweeps, the regression
simulator, and record-file evaluation.

Exit codes: 0 success, 1 usage error (bad flags or config), 2 data error
(unparsable or unreadable files, degenerate geometry, unwritable output).
Handlers raise; `main` alone turns a failure into one `error:` line and
its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import stat
import sys

from .evaluate import (
    DEFAULT_THRESHOLDS,
    DEFAULT_TP_DISTANCE,
    EC_IOU_AFFINITY,
    FALLBACK_THRESHOLD,
    GROUND_TRUTHS,
    IOU_AFFINITY,
    MODE_3D,
    MODE_BEV,
    PREDICTIONS,
    RecordParseError,
    evaluate_detections,
    parse_records,
)
from .geometry import Box3D, OrientedBoxBEV
from .losses import LossKind
from .metrics import scores_3d, scores_bev, sweep_curve
from .simulate import ScenarioConfig, run_simulation
from .weighting import DegenerateDistanceError, METHODS, WeightConfig, weight_extremes

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers, and so reads
        # -1e-05, -inf and -nan as unknown options. No option here starts with
        # a digit, ".digit", "inf" or "nan", so every such token is a value.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    # argparse exits 2 on usage errors; the toolbench reserves 2 for data errors.
    # Like every other failure, a usage error is one error: line, with no usage block.
    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {self.prog}: {message}\n")


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {exc}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eciou", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    metric = sub.add_parser("metric", help="score one prediction against one ground truth")
    metric.add_argument("--pred", type=float, nargs="+", required=True, metavar="V",
                        help="prediction box: x y l w theta (bev) or x y z l w h theta (3d)")
    metric.add_argument("--gt", type=float, nargs="+", required=True, metavar="V",
                        help="ground-truth box, same layout as --pred")
    metric.add_argument("--mode", choices=("bev", "3d"), default="bev")
    metric.add_argument("--alpha", type=float, default=1.0)
    metric.add_argument("--method", choices=METHODS, default="geometric")
    metric.add_argument("--samples", type=int, default=WeightConfig.mc_samples,
                        help="monte-carlo sample count")
    metric.add_argument("--seed", type=int, default=WeightConfig.mc_seed, help="monte-carlo seed")

    sweep = sub.add_parser("sweep", help="slide a prediction along x and emit a CSV of scores")
    sweep.add_argument("--gt", type=float, nargs=5, default=[10.0, 0.0, 4.0, 2.0, 0.0],
                       metavar=("X", "Y", "L", "W", "THETA"))
    sweep.add_argument("--range", type=float, nargs=2, default=[5.0, 15.0], metavar=("LO", "HI"))
    sweep.add_argument("--step", type=float, default=0.1)
    sweep.add_argument("--alphas", type=_comma_floats, default=[1.0, 2.0, 4.0, 8.0],
                       help="comma-separated exponents, e.g. 1,2,4,8")
    sweep.add_argument("--method", choices=METHODS, default="geometric")
    sweep.add_argument("--samples", type=int, default=WeightConfig.mc_samples)
    sweep.add_argument("--seed", type=int, default=WeightConfig.mc_seed)
    sweep.add_argument("--out", help="output CSV path (default: stdout)")

    sim = sub.add_parser("sim", help="run the anchor-to-target regression benchmark")
    sim.add_argument("--config", help="scenario JSON (default: built-in full-size scenario)")
    sim.add_argument("--kinds", default="iou,diou,eiou,ec-iou,ec-diou,ec-eiou",
                     help="comma-separated loss kinds")
    sim.add_argument("--out", help="output CSV path (default: stdout)")

    ev = sub.add_parser("eval", help="evaluate prediction/ground-truth record files")
    ev.add_argument("--preds", required=True)
    ev.add_argument("--gts", required=True)
    ev.add_argument("--classes", default="car,pedestrian", help="comma-separated class labels")
    ev.add_argument("--thresholds", type=_comma_floats, default=None,
                    help="affinity thresholds aligned with --classes "
                         f"(defaults: {DEFAULT_THRESHOLDS}, else {FALLBACK_THRESHOLD})")
    ev.add_argument("--affinity", choices=(IOU_AFFINITY, EC_IOU_AFFINITY), default=IOU_AFFINITY,
                    help="which matching drives the reported TP/FP/FN counts")
    ev.add_argument("--alpha", type=float, default=1.0)
    ev.add_argument("--method", choices=METHODS, default="geometric")
    ev.add_argument("--tp-dist", type=float, default=DEFAULT_TP_DISTANCE,
                    help="center-distance threshold for the TP-metric means")
    ev.add_argument("--mode", choices=(MODE_3D, MODE_BEV), default=MODE_3D,
                    help="match by volume or by footprint overlap")
    return parser


def _weight_config(args) -> WeightConfig:
    # eval has no Monte Carlo flags and keeps WeightConfig's defaults.
    mc = {"mc_samples": args.samples, "mc_seed": args.seed} if "samples" in args else {}
    return WeightConfig(alpha=args.alpha, method=args.method, **mc)


def _parse_box(values: list[float], mode: str, flag: str):
    if mode == "bev":
        if len(values) != 5:
            raise ValueError(f"{flag} needs 5 values in bev mode (x y l w theta), got {len(values)}")
        x, y, l, w, theta = values
        return OrientedBoxBEV(x, y, l, w, theta)
    if len(values) != 7:
        raise ValueError(f"{flag} needs 7 values in 3d mode (x y z l w h theta), got {len(values)}")
    x, y, z, l, w, h, theta = values
    return Box3D(x=x, y=y, l=l, w=w, theta=theta, z=z, h=h)


def _cmd_metric(args) -> None:
    pred = _parse_box(args.pred, args.mode, "--pred")
    gt = _parse_box(args.gt, args.mode, "--gt")
    weight_extremes(gt, 1.0)  # EC-IoU weights are undefined on the ego
    cfg = _weight_config(args)
    iou, ec = (scores_bev if args.mode == "bev" else scores_3d)(pred, gt, cfg)
    print(f"iou={iou.value:.6f} ec_iou={ec.value:.6f} clamped={'true' if ec.clamped else 'false'}")


def _cmd_sweep(args) -> None:
    gt = OrientedBoxBEV(*args.gt)
    with _output(args.out) as out:
        table = sweep_curve(
            gt,
            (args.range[0], args.range[1]),
            args.step,
            alphas=tuple(args.alphas),
            method=args.method,
            mc_samples=args.samples,
            mc_seed=args.seed,
        )
        out.write(table.to_csv())


def _threads_from_env() -> int:
    """ECIOU_THREADS: unset = 1, 0 = one per CPU; anything but an integer >= 0 is refused."""
    raw = os.environ.get("ECIOU_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"ECIOU_THREADS must be an integer >= 0, got {raw!r}")
    return n or os.cpu_count() or 1


def _cmd_sim(args) -> None:
    cfg = ScenarioConfig.from_json(args.config) if args.config else ScenarioConfig()
    kinds = tuple(LossKind.from_name(n) for n in args.kinds.split(",") if n.strip())
    threads = _threads_from_env()
    if not kinds:
        raise ValueError("--kinds selected nothing")
    with _output(args.out) as out:
        result = run_simulation(cfg, kinds=kinds, threads=threads)
        print(f"cases={result.case_count}", file=sys.stderr)
        for name, count in result.failures.items():
            print(f"failed[{name}]={count}", file=sys.stderr)
        out.write(result.curves.to_csv())


def _cmd_eval(args) -> None:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise ValueError("--classes selected nothing")
    thresholds = None
    if args.thresholds is not None:
        if len(args.thresholds) != len(classes):
            raise ValueError("--thresholds must align one-to-one with --classes")
        thresholds = dict(zip(classes, args.thresholds))
    cfg = _weight_config(args)
    report = evaluate_detections(
        parse_records(args.preds, PREDICTIONS),
        parse_records(args.gts, GROUND_TRUTHS),
        classes, cfg,
        thresholds=thresholds,
        tp_distance=args.tp_dist,
        count_affinity=args.affinity,
        mode=args.mode,
    )
    print(report.to_json())


@contextlib.contextmanager
def _output(out_path: str | None):
    """stdout, or a buffer written to --out once the work succeeds.

    --out is opened for appending before the work, so an unwritable path
    fails first and nothing is truncated; the file is written through, so a
    symlink, a device or a pipe stays what it is. A regular file is emptied
    only when the buffer is written, so a command that fails leaves an
    existing --out as it was and removes one that it created.
    """
    if out_path is None:
        yield sys.stdout
        return
    existed = os.path.lexists(out_path)
    with open(out_path, "a", encoding="utf-8") as fh:
        buffer = io.StringIO()
        try:
            yield buffer
        except BaseException:
            if not existed:
                with contextlib.suppress(OSError):
                    os.unlink(out_path)
            raise
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        fh.write(buffer.getvalue())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "metric": _cmd_metric,
        "sweep": _cmd_sweep,
        "sim": _cmd_sim,
        "eval": _cmd_eval,
    }
    try:
        handlers[args.command](args)
    except (RecordParseError, DegenerateDistanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:  # bad flag values, ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
