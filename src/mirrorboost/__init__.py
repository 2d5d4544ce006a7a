"""Mirror descent with pluggable prox functions, step-size schedules, and
runtime convergence certificates. AdaBoost and incremental forward stagewise
regression are thin views that run the same engine."""

from .bounds import (
    CertificateRecord,
    CertificateReport,
    RunConstants,
    check,
    constant_bound,
    dynamic_bound,
    md_gap_bound,
    polyak_bound,
)
from .boosting import TrainingSet, run_adaboost
from .md_core import (
    DualResponse,
    MinmaxProblem,
    MirrorDescentState,
    StepSchedule,
    UndefinedStepError,
    dual_response,
    dual_value,
    md_step,
    support_size,
)
from .md_core import run as run_mirror_descent
from .prox import ProxFunction, bregman, diameter_bound, entropy, euclidean, prox_solve
from .stagewise import RegressionProblem, least_squares_norm, optimal_shrinkage, run_fs
from .trace import IterationRecord, RunResult, TraceHeader, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "CertificateRecord",
    "CertificateReport",
    "DualResponse",
    "IterationRecord",
    "MinmaxProblem",
    "MirrorDescentState",
    "ProxFunction",
    "RegressionProblem",
    "RunConstants",
    "RunResult",
    "StepSchedule",
    "TraceHeader",
    "TrainingSet",
    "UndefinedStepError",
    "bregman",
    "check",
    "constant_bound",
    "diameter_bound",
    "dual_response",
    "dual_value",
    "dynamic_bound",
    "entropy",
    "euclidean",
    "least_squares_norm",
    "md_gap_bound",
    "md_step",
    "optimal_shrinkage",
    "polyak_bound",
    "prox_solve",
    "read_trace",
    "run_adaboost",
    "run_fs",
    "run_mirror_descent",
    "support_size",
    "write_trace",
]
