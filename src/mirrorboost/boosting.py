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
The training set makes that problem once, when it is made, and md_core.run,
the one runner, runs the engine on it.

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

from .md_core import MinmaxProblem


def _checked_labels(labels, num_examples: int) -> np.ndarray:
    """The labels as floats: one finite entry in [-1, 1] per example, of at
    least one. NaN propagates through max and min, and an infinity is one of
    them."""
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (num_examples,):
        raise ValueError("labels must have one entry per example")
    high, low = float(labels.max()), float(labels.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("outputs and labels must be finite")
    if max(high, -low) > 1.0:
        raise ValueError("outputs and labels must lie in [-1, 1]")
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
    builder's part. from_margin_matrix and the game draw of datagen give
    [A, -A], each allocating the m x 2n matrix once and writing A into its
    left half, so no copy of A is held beside it; the stump build of datagen
    gives each stump beside its negation.

    Making the set makes its edge problem, once: the problem checks that the
    entries are finite and computes the Lipschitz constant L = max |A_ij| in
    the same scan, and the set then needs L <= 1. L, like these checks,
    belongs to the matrix as it was when the set was made. The problem holds
    the set's size and constant: to_minmax().m examples, .n classifiers and
    .lipschitz().

    AdaBoost is md_core.run(ts.to_minmax(), schedule, iterations,
    algorithm="adaboost"), from uniform weights. Its records carry the edge,
    by identity the loss gradient's max-norm, as the objective, and the
    smallest margin of the normalized coefficients after the round as the
    dual value. An undefined line-search step (edge equal to 1) stops the run
    early with the reason on the result. The final state's `x` holds the
    example weights and its `dual_weighted_sum` the classifier coefficients.
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
    def from_margin_matrix(cls, margins) -> "TrainingSet":
        """The set of the m x n matrix `margins` and its negations: [A, -A],
        2n columns, with 0.0 for every -0.0. `margins` is not written."""
        margins = np.asarray(margins, dtype=float)
        if margins.ndim != 2:
            raise ValueError("margins must be a nonempty 2-D matrix")
        return cls(margins=_closed(*margins.shape, lambda left: np.copyto(left, margins)))

    def to_minmax(self) -> MinmaxProblem:
        """The equivalent simplex-vs-simplex payoff problem, the same object on
        every call."""
        return self._problem
