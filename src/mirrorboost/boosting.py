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

The closure allocates at most one matrix: a matrix already closed, with no
-0.0, is kept as given, and otherwise the closed matrix is allocated once and
filled. Columns are matched by hash and confirmed by comparison, a block of
columns at a time, so no copy of the whole matrix or of its column bytes is
held beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import md_core
from .md_core import MinmaxProblem, StepSchedule
from .prox import entropy
from .trace import RunResult


# entries per block of columns that the closure copies, hashes or gathers at
# a time (1 MiB of float64), so its temporaries stay small beside the matrix
_BLOCK_ENTRIES = 1 << 17


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


def _column_blocks(matrix: np.ndarray, width: int):
    """Runs of `width` adjacent columns: (index of the first, a C-contiguous
    copy with one column per row and every -0.0 made 0.0)."""
    for start in range(0, matrix.shape[1], width):
        yield start, np.add(matrix[:, start:start + width].T, 0.0, order="C")


def _column_bytes(matrix: np.ndarray, c: int, start: int, block: list[bytes]) -> bytes:
    """Bytes of column c with -0.0 made 0.0, from `block`, the bytes of the
    columns from `start` on, when it holds them."""
    if start <= c < start + len(block):
        return block[c - start]
    return (matrix[:, c] + 0.0).tobytes()


def _close_under_negation(matrix: np.ndarray) -> np.ndarray:
    """Append the negation of every column whose negation is not present.

    Columns compare by value, so -0.0 equals 0.0: by their bytes with -0.0
    made 0.0. A column is looked up by the hash() of those bytes; an equal
    hash only names a candidate, which is confirmed by comparing the bytes,
    so the result is exact whatever the hash seed. The negations are appended
    in column order, each once. Returns `matrix` itself when nothing is
    appended and it holds no -0.0; otherwise one new C-contiguous matrix, with
    0.0 for every -0.0. `matrix` is never written.
    """
    m, n = matrix.shape
    width = max(1, _BLOCK_ENTRIES // m)
    hashes: list[int] = []
    by_hash: dict[int, list[int]] = {}
    signed_zero = False
    for start, cols in _column_blocks(matrix, width):
        for j, col in enumerate(cols, start):
            hashes.append(hash(col.tobytes()))
            by_hash.setdefault(hashes[j], []).append(j)
        raw = matrix[:, start:start + len(cols)]
        signed_zero = signed_zero or bool(np.signbit(raw[raw == 0.0]).any())

    extra: list[int] = []
    for start, cols in _column_blocks(matrix, width):
        block = [col.tobytes() for col in cols]
        negations = np.subtract(0.0, cols)  # -x, with 0.0 (not -0.0) for x = 0.0
        for j, neg in enumerate(negations, start):
            key = neg.tobytes()
            if any(_column_bytes(matrix, c, start, block) == key
                   for c in by_hash.get(hash(key), ())):
                continue  # the negation is a column of the matrix
            key = block[j - start]
            if any(_column_bytes(matrix, c, start, block) == key
                   for c in by_hash[hashes[j]] if c < j):
                continue  # an equal earlier column has had its negation appended
            extra.append(j)
    if not extra and not signed_zero:
        return matrix
    closed = np.empty((m, n + len(extra)))
    np.add(matrix, 0.0, out=closed[:, :n])
    for i in range(0, len(extra), width):
        picked = extra[i:i + width]
        np.subtract(0.0, np.take(matrix, picked, axis=1),
                    out=closed[:, n + i:n + i + len(picked)])
    return closed


@dataclass(frozen=True)
class TrainingSet:
    """Examples, labels, and the negation-closed margin matrix.

    margins[i, j] = labels[i] * output of classifier j on example i, every
    entry in [-1, 1]. Raw features and labels are optional: instances defined
    directly at the matrix level carry only the margins.

    The set never writes into an array it is given. When the given margins are
    a float array already closed under negation and free of -0.0, the set
    keeps that array itself rather than a copy (so a caller that later writes
    into it changes the set); otherwise it keeps the closed matrix, built once.
    """

    margins: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        margins = np.asarray(self.margins, dtype=float)
        if margins.ndim != 2 or margins.size == 0:
            raise ValueError("margins must be a nonempty 2-D matrix")
        _check_entries(margins, "margin entries")
        object.__setattr__(self, "margins", _close_under_negation(margins))

    @classmethod
    def from_outputs(cls, outputs, labels, features=None) -> "TrainingSet":
        """Build from classifier outputs (m x n, entries in [-1, 1]) and labels.

        The margins are a new array; `outputs` is not written.
        """
        outputs = np.asarray(outputs, dtype=float)
        if outputs.ndim != 2:
            raise ValueError("outputs must be a 2-D matrix")
        labels = _checked_labels(labels, outputs.shape[0])
        _check_entries(outputs, "outputs and labels")
        return cls(margins=labels[:, None] * outputs, features=features, labels=labels)

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
    example weights and its `dual_weighted_sum` the classifier coefficients;
    `sink`, when given, gets each record and the example weights before its
    round, which the records do not keep.
    """
    return md_core.run(ts.to_minmax(), schedule, entropy(ts.num_examples), iterations,
                       sink=sink, algorithm="adaboost")
