"""AdaBoost as a view of the mirror descent engine.

The training data is materialized as a margin matrix whose (i, j) entry is
label_i times the output of classifier j on example i, kept closed under
column negation so that the best edge is always nonnegative. AdaBoost with an
exact best-column weak learner is mirror descent with the entropy prox on the
edge objective max_j (A^T w)_j over this matrix: the multiplicative weight
update is the prox step, the weak learner is the dual response, and the
normalized coefficient vector is the step-weighted dual average, whose
smallest margin is the dual value. The engine keeps the margins of the
coefficients up to date in O(m) per round, adding the step times the chosen
column, as classical AdaBoost does, so a round scans the margin matrix once.
run_adaboost builds that problem and runs the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import md_core
from .md_core import MinmaxProblem, StepSchedule
from .prox import entropy
from .trace import RunResult


def _close_under_negation(matrix: np.ndarray) -> np.ndarray:
    """Append the negation of every column whose negation is not present."""
    matrix = matrix + 0.0  # normalizes -0.0 so byte-level column lookups work
    present = {matrix[:, j].tobytes() for j in range(matrix.shape[1])}
    extra = []
    for j in range(matrix.shape[1]):
        neg = -matrix[:, j] + 0.0
        key = neg.tobytes()
        if key not in present:
            present.add(key)
            extra.append(neg)
    if not extra:
        return matrix
    return np.hstack([matrix, np.column_stack(extra)])


@dataclass(frozen=True)
class TrainingSet:
    """Examples, labels, and the negation-closed margin matrix.

    margins[i, j] = labels[i] * output of classifier j on example i, every
    entry in [-1, 1]. Raw features and labels are optional: instances defined
    directly at the matrix level carry only the margins.
    """

    margins: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        margins = np.asarray(self.margins, dtype=float)
        if margins.ndim != 2 or margins.size == 0:
            raise ValueError("margins must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(margins)):
            raise ValueError("margin entries must be finite")
        if float(np.abs(margins).max()) > 1.0:
            raise ValueError("margin entries must lie in [-1, 1]")
        object.__setattr__(self, "margins", _close_under_negation(margins))

    @classmethod
    def from_outputs(cls, outputs, labels, features=None) -> "TrainingSet":
        """Build from classifier outputs (m x n, entries in [-1, 1]) and labels."""
        outputs = np.asarray(outputs, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if outputs.ndim != 2:
            raise ValueError("outputs must be a 2-D matrix")
        if labels.shape != (outputs.shape[0],):
            raise ValueError("labels must have one entry per example")
        if not np.all(np.isfinite(outputs)) or not np.all(np.isfinite(labels)):
            raise ValueError("outputs and labels must be finite")
        if float(np.abs(outputs).max(initial=0.0)) > 1.0 or float(np.abs(labels).max(initial=0.0)) > 1.0:
            raise ValueError("outputs and labels must lie in [-1, 1]")
        margins = labels[:, None] * outputs
        return cls(margins=margins, features=features, labels=labels)

    @classmethod
    def from_margin_matrix(cls, margins) -> "TrainingSet":
        return cls(margins=np.asarray(margins, dtype=float))

    @property
    def num_examples(self) -> int:
        return self.margins.shape[0]

    @property
    def num_classifiers(self) -> int:
        return self.margins.shape[1]

    @property
    def lipschitz(self) -> float:
        # the largest entry magnitude, without an |margins| temporary as large
        # as the matrix
        return float(max(self.margins.max(), -self.margins.min()))

    def to_minmax(self) -> MinmaxProblem:
        """The equivalent simplex-vs-simplex payoff problem."""
        return MinmaxProblem(payoff=self.margins)


def run_adaboost(ts: TrainingSet, schedule: StepSchedule, iterations: int,
                 sink=None) -> RunResult:
    """Run AdaBoost from uniform weights: the engine on the edge problem.

    Records carry the edge as the objective and as the loss-gradient norm, and
    the smallest margin of the normalized coefficients after the round as the
    dual value. An undefined line-search step (edge equal to 1) stops the run
    early with the reason on the result. The final state's `x` holds the
    example weights and its `dual_weighted_sum` the classifier coefficients.
    """
    return md_core.run(ts.to_minmax(), schedule, entropy(ts.num_examples), iterations,
                       sink=sink, algorithm="adaboost")
