"""The data build: the stump matrix equals its loop version in
tests/oracles.py byte for byte, is C-contiguous and comes in negation pairs;
a matrix-level set is [A, -A] of its matrix byte for byte; no array a caller
hands in is written; and the build keeps about one matrix in memory.

The feature draws cover ties (values from a coarse grid), duplicate and
constant features, a single example and a single feature; the matrix draws
cover planted negations, duplicate columns, zero and -0.0 columns, a single
column and a single example.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mirrorboost.boosting import TrainingSet
from mirrorboost.datagen import (
    _distinct,
    build_stumps,
    generate_synthetic,
    training_set_from_features,
)
from oracles import classical_build_stumps

feature_values = st.one_of(st.sampled_from((-1.0, 0.0, 0.5, 2.0)),
                           st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def feature_matrices(draw) -> np.ndarray:
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 4))
    features = draw(arrays(float, (rows, cols), elements=feature_values))
    if draw(st.booleans()):  # a duplicate feature
        features = np.hstack([features, features[:, [draw(st.integers(0, cols - 1))]]])
    if draw(st.booleans()):  # a constant feature
        features = np.hstack([features, np.full((rows, 1), draw(feature_values))])
    return features


@given(feature_matrices())
@settings(max_examples=300, deadline=None)
def test_build_stumps_equals_the_loop_build(features):
    outputs = build_stumps(features)
    want, _ = classical_build_stumps(features)
    assert outputs.shape == want.shape
    assert outputs.tobytes() == want.tobytes()
    assert outputs.flags.c_contiguous


@given(feature_matrices())
@settings(max_examples=300, deadline=None)
def test_stump_columns_come_in_negation_pairs(features):
    outputs = build_stumps(features)
    assert outputs.shape[1] % 2 == 0
    assert np.array_equal(outputs[:, 1::2], -outputs[:, 0::2])


def _assert_thresholds_separate_adjacent_values(features):
    """Each threshold of the loop build, whose outputs the build's equal byte
    for byte, lies between the two values it separates."""
    features = np.asarray(features, dtype=float)
    _, stumps = classical_build_stumps(features)
    for feature, threshold, sign in stumps:
        if feature < 0:
            continue
        values = np.unique(features[:, feature])
        below = int(np.searchsorted(values, threshold, side="right"))
        # a = values[below - 1] <= t < values[below] = b
        assert 1 <= below < len(values), (feature, threshold, sign, values)


@given(feature_matrices())
@settings(max_examples=300, deadline=None)
def test_every_threshold_lies_between_the_values_it_separates(features):
    _assert_thresholds_separate_adjacent_values(features)


@pytest.mark.parametrize("features", [
    [[1e308], [1.7e308]],  # the sum of the two overflows
    [[1.0 + 2.0 ** -52], [1.0 + 2.0 ** -51]],  # the midpoint rounds up to the upper value
    [[-1.7e308], [1.7e308], [5e-324], [1e-323]],  # both ends of the range, two subnormals
])
def test_extreme_thresholds_lie_between_the_values_they_separate(features):
    _assert_thresholds_separate_adjacent_values(features)
    outputs = build_stumps(features)
    assert outputs.tobytes() == classical_build_stumps(features)[0].tobytes()
    # every split of m examples on one feature gives a distinct column
    assert outputs.shape[1] == 2 * len(features)


@given(arrays(float, st.integers(1, 30),
              elements=st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 0.5)),
                                 st.floats(allow_nan=False, allow_infinity=False))))
@settings(max_examples=300, deadline=None)
def test_distinct_values_are_np_unique_byte_for_byte(values):
    # ties, and -0.0 beside 0.0, which compare equal: one of them is kept
    assert _distinct(values).tobytes() == np.unique(values).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_feature_that_is_not_finite_is_refused(bad):
    features = np.array([[0.0, 1.0], [2.0, bad], [1.0, 0.0]])
    with pytest.raises(ValueError, match=f"features must be finite, got {bad!r} in row 1, "
                                         "feature 1"):
        build_stumps(features)
    with pytest.raises(ValueError, match="features must be finite"):
        training_set_from_features(features, [1.0, -1.0, 1.0])


margin_values = st.one_of(st.sampled_from((-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)),
                          st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def margin_matrices(draw) -> np.ndarray:
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    matrix = draw(arrays(float, (rows, cols), elements=margin_values))
    picks = st.integers(0, cols - 1)
    extra = []
    for _ in range(draw(st.integers(0, 3))):  # planted negations
        extra.append(-matrix[:, [draw(picks)]])
    for _ in range(draw(st.integers(0, 2))):  # duplicate columns
        extra.append(matrix[:, [draw(picks)]])
    if draw(st.booleans()):
        extra.append(np.zeros((rows, 1)))
    if draw(st.booleans()):
        extra.append(np.full((rows, 1), -0.0))
    matrix = np.hstack([matrix, *extra])
    order = draw(st.permutations(range(matrix.shape[1])))
    return np.ascontiguousarray(matrix[:, order])


def _has_negative_zero(matrix) -> bool:
    return bool(np.signbit(matrix[matrix == 0.0]).any())


def _assert_is_closed(margins, matrix) -> None:
    """`margins` is [matrix + 0.0, 0.0 - matrix] byte for byte, and so holds
    no -0.0."""
    want = np.hstack([matrix + 0.0, 0.0 - matrix])
    assert margins.shape == want.shape
    assert margins.tobytes() == want.tobytes()
    assert not _has_negative_zero(margins)


@given(margin_matrices())
@settings(max_examples=300, deadline=None)
def test_a_matrix_level_set_is_the_matrix_and_its_negation(matrix):
    given_bytes = matrix.tobytes()
    ts = TrainingSet.from_margin_matrix(matrix)
    assert matrix.tobytes() == given_bytes
    _assert_is_closed(ts.margins, matrix)
    assert ts.to_minmax().n == 2 * matrix.shape[1]  # duplicates and negations kept


@given(margin_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_set_from_outputs_is_their_margins_and_its_negation(outputs, data):
    # a zero label makes -0.0 in the product, which the set holds as 0.0
    labels = data.draw(arrays(float, outputs.shape[0], elements=margin_values))
    margins = labels[:, None] * outputs
    _assert_is_closed(TrainingSet.from_margin_matrix(margins).margins, margins)


@pytest.mark.parametrize("matrix", [
    [[0.5], [-1.0]],  # a single column
    [[0.0], [-0.0]],
    [[0.25, -0.5, 0.5]],  # a single example, with a planted negation
    [[0.0, -0.0, 0.0]],
    [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]],  # closed already, and a duplicate
])
def test_matrix_level_sets_at_the_edges(matrix):
    matrix = np.array(matrix)
    _assert_is_closed(TrainingSet.from_margin_matrix(matrix).margins, matrix)
    _assert_is_closed(TrainingSet.from_margin_matrix(-matrix).margins, -matrix)


def test_a_zero_label_leaves_no_negative_zero_in_the_stump_margins():
    features = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [3.0, 2.0]])
    for labels in ([1.0, 0.0, -1.0, 1.0], [-0.0, -1.0, 0.0, 1.0], [0.0] * 4):
        labels = np.array(labels)
        outputs = build_stumps(features)
        margins = training_set_from_features(features, labels).margins
        assert margins.tobytes() == (labels[:, None] * outputs + 0.0).tobytes()
        assert not _has_negative_zero(margins)


@pytest.mark.parametrize("seed, sizes", [
    (1, {"m": 20, "n": 15}), (7, {"m": 1, "n": 50}), (41, {"m": 3, "n": 4}),
    (3, {"m": 6, "n": 5, "planted_margin": 0.25}),
    # 512 KiB holds 1310 rows of 50: two full row blocks and a remainder of 7
    (5, {"m": 2627, "n": 50}), (6, {"m": 2627, "n": 50, "planted_margin": 0.5}),
    (8, {"m": 3, "n": 70000}),  # a row past 512 KiB: one row a block
])
def test_the_game_is_its_documented_draw_and_its_negation(seed, sizes):
    rng = np.random.default_rng(seed)
    draw = rng.uniform(-1.0, 1.0, size=(sizes["m"], sizes["n"]))
    if "planted_margin" in sizes:
        draw[:, 0] = rng.uniform(sizes["planted_margin"], 1.0, size=sizes["m"])
    _assert_is_closed(generate_synthetic("game", seed, **sizes).margins, draw)


@pytest.mark.parametrize("build, message", [
    (lambda: TrainingSet.from_margin_matrix([0.5, -0.5]), "margins must be a nonempty 2-D"),
    (lambda: TrainingSet.from_margin_matrix(np.zeros((0, 3))), "margins must be a nonempty 2-D"),
    (lambda: TrainingSet.from_margin_matrix(np.zeros((3, 0))), "margins must be a nonempty 2-D"),
    (lambda: TrainingSet.from_margin_matrix([[0.5, np.nan]]), "margin entries must be finite"),
    (lambda: TrainingSet.from_margin_matrix([[-np.inf]]), "margin entries must be finite"),
    (lambda: TrainingSet.from_margin_matrix([[0.5], [-1.5]]),
     r"margin entries must lie in \[-1, 1\]"),
    (lambda: TrainingSet(margins=np.zeros(3)), "margins must be a nonempty 2-D"),
    (lambda: TrainingSet(margins=[[2.0]]), r"margin entries must lie in \[-1, 1\]"),
    (lambda: TrainingSet(margins=np.zeros((0, 4))), "margins must be a nonempty 2-D"),
    # the labels of a stump set
    (lambda: training_set_from_features([[0.0], [1.0]], [1.0, np.nan]),
     "outputs and labels must be finite"),
    (lambda: training_set_from_features([[0.0], [1.0]], [2.0, 1.0]),
     r"outputs and labels must lie in \[-1"),
    (lambda: training_set_from_features([[1.0]], [1.0, 1.0]), "labels must have one entry per"),
])
def test_bad_matrix_level_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _read_only(array) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.flags.writeable = False
    return array


def test_training_set_never_writes_into_a_given_array():
    # read-only arrays: any write into them raises
    open_set = _read_only([[0.5, -0.0], [-1.0, 0.25]])
    ts = TrainingSet.from_margin_matrix(open_set)
    assert ts.margins is not open_set and ts.margins.shape == (2, 4)

    closed = _read_only([[0.5, -0.5], [-1.0, 1.0]])
    assert TrainingSet(margins=closed).margins is closed  # kept, not copied

    features = _read_only([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    ts = training_set_from_features(features, _read_only([1.0, -1.0, 1.0]))
    assert not np.shares_memory(ts.margins, features)


def _build_peak(kind: str, **sizes) -> tuple[int, int]:
    """Peak bytes traced while generate_synthetic builds the instance, and
    the bytes of its margin matrix."""
    generate_synthetic(kind, 1, m=4, **({"n": 3} if kind == "game" else {"d": 1}))  # warm up
    tracemalloc.start()
    try:
        ts = generate_synthetic(kind, 1, **sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, ts.margins.nbytes


def test_stump_build_keeps_about_one_matrix():
    """Beside the matrix M (8 bytes per entry, n = 2d(m - 1) + 2 columns) the
    build keeps only: the kept columns' patterns, packed, M/64; the last
    feature's boolean patterns and one feature's patterns unpacked for the
    fill, 4m^2 bytes, M/(4d) here; and one packed key per column, about a
    hundred bytes each. The training set keeps the matrix as built. At
    m = 600, d = 3 (M = 17 MB) that sums to about 1.2 M, while one more float
    temporary as large as the matrix (the loop build made three) would pass
    2 M."""
    peak, matrix = _build_peak("nonseparable", m=600, d=3)
    assert peak <= 2.0 * matrix


def test_game_build_keeps_only_the_closed_matrix():
    """The closed matrix M holds the m x n draw and its n negations. The draw
    is made into M's left half a row block of at most 512 KiB at a time and
    negated into the right half in place, so the build holds M and one block,
    about 1.03 M at m = n = 1000 (M = 16 MB); a copy of the draw beside M, as
    a draw made whole and then closed keeps, would pass 1.5 M."""
    peak, matrix = _build_peak("game", m=1000, n=1000)
    assert peak <= 1.1 * matrix
