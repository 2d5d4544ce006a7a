"""Data loading, decision stumps, and seeded synthetic instances.

A classification instance is the matrix of every decision stump's outputs
times the labels. The build allocates that matrix once: build_stumps finds
the distinct stump columns from their bit patterns and then fills the matrix,
training_set_from_features multiplies it by the labels in place, and
TrainingSet keeps it, as it is closed under negation already.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .boosting import TrainingSet, _checked_labels
from .stagewise import RegressionProblem


@dataclass(frozen=True)
class Stump:
    """Threshold classifier on one feature: sign * (+1 if x > threshold else -1).
    A constant classifier is encoded with feature -1."""

    feature: int
    threshold: float
    sign: int

    def outputs(self, features: np.ndarray) -> np.ndarray:
        if self.feature < 0:
            return np.full(features.shape[0], float(self.sign))
        raw = np.where(features[:, self.feature] > self.threshold, 1.0, -1.0)
        return self.sign * raw


def build_stumps(features) -> tuple[np.ndarray, list[Stump]]:
    """All midpoint-threshold stumps over every feature, both orientations,
    plus the two constant classifiers, with exact duplicate columns removed.
    Each threshold t between adjacent distinct values a < b of its feature
    satisfies a <= t < b.

    Returns the output matrix (one column per kept stump, C-contiguous) and the
    stump descriptors in column order: per feature, each midpoint in
    increasing order with sign +1 then -1; then the constants +1 and -1; a
    column equal to an earlier one is left out.

    Every output is +1 or -1, so a column is fixed by the pattern of examples
    where it is +1. One feature's patterns come from one comparison of the
    feature against all its midpoints; duplicates are found by the patterns
    packed eight examples to a byte, and only the kept patterns are held,
    packed, until the matrix is allocated, once, and filled from them.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a 2-D matrix with at least one row")
    m = features.shape[0]
    stumps: list[Stump] = []
    kept: list[np.ndarray] = []  # per feature, the packed patterns of its kept columns
    seen: set[bytes] = set()
    for f in range(features.shape[1]):
        x = features[:, f]
        values = np.unique(x)
        lower, upper = values[:-1], values[1:]
        # halves first, so that no sum overflows; a midpoint that rounds up to
        # the upper value is replaced by the lower one, which splits the same way
        midpoints = 0.5 * lower + 0.5 * upper
        midpoints = np.where(midpoints < upper, midpoints, lower)
        patterns = np.empty((m, 2 * len(midpoints)), dtype=bool)
        np.greater(x[:, None], midpoints, out=patterns[:, 0::2])
        np.logical_not(patterns[:, 0::2], out=patterns[:, 1::2])
        packed, keep = _unseen_patterns(patterns, seen)
        kept.append(packed)
        stumps.extend(Stump(feature=f, threshold=float(midpoints[j // 2]), sign=(1, -1)[j % 2])
                      for j in keep)
    constants = np.zeros((m, 2), dtype=bool)
    constants[:, 0] = True
    packed, keep = _unseen_patterns(constants, seen)
    kept.append(packed)
    stumps.extend(Stump(feature=-1, threshold=0.0, sign=(1, -1)[j]) for j in keep)

    outputs = np.empty((m, len(stumps)))
    start = 0
    for packed in kept:
        width = packed.shape[1]
        outputs[:, start:start + width] = np.unpackbits(packed, axis=0, count=m)
        start += width
    outputs *= 2.0  # 0/1 to -1/+1, exactly
    outputs -= 1.0
    return outputs, stumps


def _unseen_patterns(patterns: np.ndarray, seen: set[bytes]) -> tuple[np.ndarray, list[int]]:
    """The columns of a boolean pattern matrix not in `seen`, each once: their
    patterns packed eight rows to a byte, and their indices. Adds the new
    patterns to `seen`."""
    packed = np.packbits(patterns, axis=0)
    keep = []
    for j in range(packed.shape[1]):
        key = packed[:, j].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(j)
    return packed[:, keep], keep


def training_set_from_features(features, labels) -> TrainingSet:
    """The stump training set: build_stumps' outputs, multiplied row by row by
    the labels in place, become the margin matrix. It is closed under
    negation already, so the set keeps it without a copy, unless a zero label
    leaves a -0.0 in it."""
    features = np.asarray(features, dtype=float)
    outputs, _ = build_stumps(features)
    labels = _checked_labels(labels, outputs.shape[0])
    outputs *= labels[:, None]
    return TrainingSet(margins=outputs, features=features, labels=labels)


def _parse_rows(path) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if not cells:
                continue
            parsed = []
            bad = []
            for cell in cells:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    bad.append(cell)
            if bad:
                if lineno == 1 and len(bad) == len(cells):
                    continue  # header row
                raise ValueError(f"{path}: non-numeric cell {bad[0]!r} on line {lineno}")
            if rows and len(parsed) != len(rows[0]):
                raise ValueError(f"{path}: line {lineno} has {len(parsed)} cells, "
                                 f"expected {len(rows[0])}")
            rows.append(parsed)
    return rows


def load_classification_csv(path) -> TrainingSet:
    """Numeric feature columns followed by a label column in {-1, +1};
    the training set is built from decision stumps over the features."""
    rows = _parse_rows(path)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 examples, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column and a label column")
    features, labels = data[:, :-1], data[:, -1]
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        bad = labels[~np.isin(labels, (-1.0, 1.0))][0]
        raise ValueError(f"{path}: labels must be -1 or +1, got {bad!r}")
    return training_set_from_features(features, labels)


def load_regression_csv(path) -> RegressionProblem:
    """Numeric design columns followed by the response column."""
    rows = _parse_rows(path)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 rows, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one design column and a response column")
    return RegressionProblem(design=data[:, :-1], response=data[:, -1])


def _write_csv(path, header: list[str], matrix: np.ndarray, last_column_int: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in matrix:
            cells = [repr(float(v)) for v in row[:-1]]
            if last_column_int:
                cells.append(str(int(row[-1])))
            else:
                cells.append(repr(float(row[-1])))
            writer.writerow(cells)
        fh.flush()


def write_classification_csv(path, features, labels) -> None:
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    header = [f"f{i}" for i in range(features.shape[1])] + ["label"]
    _write_csv(path, header, np.column_stack([features, labels]), last_column_int=True)


def write_regression_csv(path, design, response) -> None:
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    header = [f"x{i}" for i in range(design.shape[1])] + ["y"]
    _write_csv(path, header, np.column_stack([design, response]), last_column_int=False)


def make_separable_classification(m: int = 40, d: int = 4, seed: int = 0) -> TrainingSet:
    """Labels are recoverable from feature 0 by a threshold at zero, so one
    stump column has strictly positive margin on every example."""
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 examples and d >= 1 features")
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    labels[0], labels[1] = 1.0, -1.0  # both classes present
    features = rng.standard_normal((m, d))
    features[:, 0] = labels * rng.uniform(0.25, 1.0, size=m)
    return training_set_from_features(features, labels)


def make_nonseparable_classification(m: int = 40, d: int = 4, seed: int = 0) -> TrainingSet:
    """Two identical examples carry opposite labels, so no column (and no
    convex combination of columns) has positive margin on every example."""
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 examples and d >= 1 features")
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    features = rng.standard_normal((m, d))
    features[1] = features[0]
    labels[1] = -labels[0]
    return training_set_from_features(features, labels)


def make_margin_matrix(m: int = 20, n: int = 15, seed: int = 0,
                       planted_margin: float | None = None) -> TrainingSet:
    """Confidence-rated instance defined directly at the matrix level, entries
    uniform in [-1, 1]. With `planted_margin` the first column is drawn from
    [planted_margin, 1), certifying a strictly positive best margin."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-1.0, 1.0, size=(m, n))
    if planted_margin is not None:
        if not 0.0 < planted_margin < 1.0:
            raise ValueError("planted_margin must lie in (0, 1)")
        matrix[:, 0] = rng.uniform(planted_margin, 1.0, size=m)
    return TrainingSet.from_margin_matrix(matrix)


def make_regression(n: int = 50, p: int = 30, seed: int = 0,
                    noise: float = 0.5) -> RegressionProblem:
    """Dense Gaussian design with a sparse planted coefficient vector;
    p > n gives a full-row-rank design whose column space is everything."""
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 rows and p >= 1 columns")
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, p))
    beta = np.zeros(p)
    support = min(3, p)
    beta[:support] = rng.choice((-1.0, 1.0), size=support)
    response = design @ beta + noise * rng.standard_normal(n)
    return RegressionProblem(design=design, response=response)


def center_scale(rp: RegressionProblem, center: bool = True,
                 scale: bool = True) -> RegressionProblem:
    """Optionally center columns and response, and scale columns to unit l2 norm."""
    design = rp.design
    response = rp.response
    if center:
        design = design - design.mean(axis=0)
        response = response - response.mean()
    if scale:
        norms = np.linalg.norm(design, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("cannot scale: a column is constant after centering")
        design = design / norms
    return RegressionProblem(design=design, response=response)


SYNTHETIC_KINDS = ("separable", "nonseparable", "game", "regression")

_KIND_ALIASES = {
    "separable": "separable",
    "separable-classification": "separable",
    "nonseparable": "nonseparable",
    "nonseparable-classification": "nonseparable",
    "game": "game",
    "regression": "regression",
}


def generate_synthetic(kind: str, seed: int, **sizes):
    """Dispatch to the seeded generators; `kind` accepts short or long names."""
    canonical = _KIND_ALIASES.get(kind)
    if canonical is None:
        raise ValueError(f"unknown synthetic kind: {kind!r}")
    if canonical == "separable":
        return make_separable_classification(seed=seed, **sizes)
    if canonical == "nonseparable":
        return make_nonseparable_classification(seed=seed, **sizes)
    if canonical == "game":
        return make_margin_matrix(seed=seed, **sizes)
    return make_regression(seed=seed, **sizes)
