"""Ego-centric IoU toolbench for oriented bounding boxes.

Scores predictions against ground truths with a distance-based safety
weighting, provides the matching loss functions and a box-regression
simulator, and evaluates detection record files with AP40 / EC-AP40 and
true-positive metric means.
"""

from .geometry import (
    Box3D,
    ConvexPolygon,
    EMPTY_POLYGON,
    OrientedBoxBEV,
    box_to_polygon,
    enclosing_aabb,
    intersect_convex,
    polygon_area,
)
from .losses import (
    ALL_KINDS,
    GradientVector,
    LossKind,
    NonFiniteGradientError,
    loss_gradient,
    loss_value,
)
from .metrics import MetricScore, SweepTable, ec_iou_3d, ec_iou_bev, iou_3d, iou_bev, sweep_curve
from .simulate import (
    ConfigError,
    CurveSet,
    RegressionCase,
    ScenarioConfig,
    SimulationResult,
    StepRule,
    Trajectory,
    build_scenario,
    run_case,
    run_simulation,
)
from .evaluate import (
    DetectionRecord,
    EvalReport,
    MatchResult,
    RecordParseError,
    TPMeans,
    UndefinedAPError,
    average_precision_40,
    evaluate_detections,
    match_greedy,
    parse_records,
    tp_metric_means,
)
from .weighting import (
    DegenerateDistanceError,
    WeightConfig,
    mean_vertex_weight,
    point_weight,
    sample_in_polygon,
    weight_extremes,
    weighted_area,
)

__version__ = "0.1.0"
