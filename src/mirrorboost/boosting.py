"""AdaBoost as a view of the mirror descent engine.

The training data is materialized as a margin matrix whose (i, j) entry is
label_i times the output of classifier j on example i, closed under column
negation so that the best edge is always nonnegative. AdaBoost with an
exact best-column weak learner is mirror descent with the entropy prox on the
edge objective max_j (A^T w)_j over this matrix: the multiplicative weight
update is the prox step, the weak learner is the dual response, and the
normalized coefficient vector is the step-weighted dual average, whose
smallest margin is the dual value. The engine keeps the margins of the
coefficients up to date in O(m) per round, adding the step times the chosen
column, as classical AdaBoost does, so a round scans the margin matrix once.
The training set makes that problem once, when it is made, and run_adaboost
runs the engine on it.

Closure is a property of how a matrix is built, not something a training set
searches for. A matrix-level set of n columns A is [A, -A], 2n columns, so
column j is column j mod n of A, negated when j >= n; the stump build of
datagen puts each stump beside its negation instead. TrainingSet itself keeps
the matrix it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import md_core
from .md_core import MinmaxProblem
from .schedule import StepSchedule
from .trace import RunResult


def _check_entries(a: np.ndarray, what: str) -> None:
    """Raise unless every entry of `a` is finite and lies in [-1, 1].

    Reads only the largest and smallest entry: NaN propagates through both and
    an infinity is one of them, so no temporary as large as `a` is made.
    """
    if a.size == 0:
        return
    high, low = float(a.max()), float(a.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError(f"{what} must be finite")
    if max(high, -low) > 1.0:
        raise ValueError(f"{what} must lie in [-1, 1]")


def _checked_labels(labels, num_examples: int) -> np.ndarray:
    """The labels as floats: one finite entry in [-1, 1] per example."""
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (num_examples,):
        raise ValueError("labels must have one entry per example")
    _check_entries(labels, "outputs and labels")
    return labels


def _closed(m: int, n: int, fill) -> np.ndarray:
    """[A, -A] for the m x n matrix A, with 0.0 for every -0.0, built in one
    m x 2n buffer: `fill(left)` writes A into the buffer's left half, which
    is then made free of -0.0 and negated into the right half in place."""
    closed = np.empty((m, 2 * n))
    left = closed[:, :n]
    fill(left)
    np.add(left, 0.0, out=left)
    np.subtract(0.0, left, out=closed[:, n:])  # 0.0 - x is 0.0, not -0.0, at x = 0.0
    return closed


@dataclass(frozen=True)
class TrainingSet:
    """Examples, labels, and the margin matrix, closed under negation.

    margins[i, j] = labels[i] * output of classifier j on example i, every
    entry in [-1, 1]. Raw features and labels are optional: instances defined
    directly at the matrix level carry only the margins.

    The set keeps a float array of margins as given, neither copied nor
    written (so a caller that later writes into it changes the set), and
    checks only its shape and entries: closing it under negation is the
    builder's part. from_margin_matrix, from_outputs and the game draw of
    datagen give [A, -A], each allocating the m x 2n matrix once and writing
    A into its left half, so no copy of A is held beside it; the stump build
    of datagen gives each stump beside its negation.

    Making the set makes its edge problem, once: the problem checks that the
    entries are finite and computes the Lipschitz constant L = max |A_ij| in
    the same scan, and the set then needs L <= 1. L, like these checks,
    belongs to the matrix as it was when the set was made.
    """

    margins: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    _problem: MinmaxProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        margins = np.asarray(self.margins, dtype=float)
        if margins.ndim != 2 or margins.size == 0:
            raise ValueError("margins must be a nonempty 2-D matrix")
        try:
            problem = MinmaxProblem(payoff=margins)
        except ValueError:  # with the shape checked, only a non-finite entry is left
            raise ValueError("margin entries must be finite") from None
        if problem.lipschitz() > 1.0:
            raise ValueError("margin entries must lie in [-1, 1]")
        object.__setattr__(self, "margins", margins)
        object.__setattr__(self, "_problem", problem)

    @classmethod
    def from_outputs(cls, outputs, labels, features=None) -> "TrainingSet":
        """Build from classifier outputs (m x n, entries in [-1, 1]) and labels:
        the margins A = labels * outputs, as [A, -A].

        The product is written straight into the left half of the new closed
        matrix, with no temporary of its size; `outputs` is not written.
        """
        outputs = np.asarray(outputs, dtype=float)
        if outputs.ndim != 2:
            raise ValueError("outputs must be a 2-D matrix")
        labels = _checked_labels(labels, outputs.shape[0])
        _check_entries(outputs, "outputs and labels")
        margins = _closed(*outputs.shape,
                          lambda left: np.multiply(labels[:, None], outputs, out=left))
        return cls(margins=margins, features=features, labels=labels)

    @classmethod
    def from_margin_matrix(cls, margins) -> "TrainingSet":
        """The set of the m x n matrix `margins` and its negations: [A, -A],
        2n columns, with 0.0 for every -0.0. `margins` is not written."""
        margins = np.asarray(margins, dtype=float)
        if margins.ndim != 2:
            raise ValueError("margins must be a nonempty 2-D matrix")
        return cls(margins=_closed(*margins.shape, lambda left: np.copyto(left, margins)))

    @property
    def num_examples(self) -> int:
        return self.margins.shape[0]

    @property
    def num_classifiers(self) -> int:
        return self.margins.shape[1]

    @property
    def lipschitz(self) -> float:
        """The edge problem's Lipschitz constant, the largest entry magnitude."""
        return self._problem.lipschitz()

    def to_minmax(self) -> MinmaxProblem:
        """The equivalent simplex-vs-simplex payoff problem, the same object on
        every call."""
        return self._problem


def run_adaboost(ts: TrainingSet, schedule: StepSchedule, iterations: int,
                 sink=None) -> RunResult:
    """Run AdaBoost from uniform weights: the engine on the edge problem.

    Records carry the edge, by identity the loss gradient's max-norm, as the
    objective, and the smallest margin of the normalized coefficients after
    the round as the dual value. An undefined line-search step (edge equal to
    1) stops the run early with the reason on the result. The final state's
    `x` holds the example weights and its `dual_weighted_sum` the classifier
    coefficients; `sink`, when given, gets each record and the example
    weights before its round, which the records do not keep.
    """
    return md_core.run(ts.to_minmax(), schedule, iterations, sink=sink, algorithm="adaboost")
