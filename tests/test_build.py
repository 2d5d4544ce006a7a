"""The data build against its loop versions in tests/oracles.py: the stump
matrix and the negation closure are equal byte for byte, the stump matrix is
C-contiguous, no array a caller hands in is written, and the build keeps about
one matrix in memory.

The feature draws cover ties (values from a coarse grid), duplicate and
constant features, a single example and a single feature; the closure draws
cover planted negations, duplicate columns, zero and -0.0 columns and a single
column.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mirrorboost import boosting
from mirrorboost.boosting import TrainingSet, _close_under_negation
from mirrorboost.datagen import build_stumps, generate_synthetic, training_set_from_features
from oracles import classical_build_stumps, classical_close_under_negation

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
    outputs, stumps = build_stumps(features)
    want_outputs, want_stumps = classical_build_stumps(features)
    assert outputs.shape == want_outputs.shape
    assert outputs.tobytes() == want_outputs.tobytes()
    assert outputs.flags.c_contiguous
    assert stumps == want_stumps


def _assert_thresholds_separate_adjacent_values(features):
    features = np.asarray(features, dtype=float)
    _, stumps = build_stumps(features)
    for stump in stumps:
        if stump.feature < 0:
            continue
        values = np.unique(features[:, stump.feature])
        below = int(np.searchsorted(values, stump.threshold, side="right"))
        # a = values[below - 1] <= t < values[below] = b
        assert 1 <= below < len(values), (stump, values)


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
    outputs, _ = build_stumps(features)
    # every split of m examples on one feature gives a distinct column
    assert outputs.shape[1] == 2 * len(features)


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


def _assert_closure_equals_the_loop_closure(matrix, width=None):
    """With `width` columns to a block, where given, so that candidates fall
    inside and outside the block at hand."""
    given_bytes = matrix.tobytes()
    default = boosting._BLOCK_ENTRIES
    if width is not None:
        boosting._BLOCK_ENTRIES = width * matrix.shape[0]
    try:
        closed = _close_under_negation(matrix)
    finally:
        boosting._BLOCK_ENTRIES = default
    want = classical_close_under_negation(matrix)
    assert matrix.tobytes() == given_bytes
    assert closed.shape == want.shape
    assert closed.tobytes() == want.tobytes()
    signed_zero = bool(np.signbit(matrix[matrix == 0.0]).any())
    assert (closed is matrix) == (closed.shape == matrix.shape and not signed_zero)


block_widths = st.one_of(st.none(), st.integers(1, 3))


@given(margin_matrices(), block_widths)
@settings(max_examples=500, deadline=None)
def test_closure_equals_the_loop_closure(matrix, width):
    _assert_closure_equals_the_loop_closure(matrix, width)


@given(margin_matrices(), block_widths)
@settings(max_examples=200, deadline=None)
def test_closure_confirms_every_hash_match(matrix, width):
    # with every column hashing alike each lookup meets every column as a
    # candidate: only the comparisons decide, so the result must not change
    boosting.hash = lambda _: 0
    try:
        _assert_closure_equals_the_loop_closure(matrix, width)
    finally:
        del boosting.hash


def test_closure_of_a_single_column():
    for column in ([[0.5], [-1.0]], [[0.0], [-0.0]], [[0.0], [0.0]]):
        _assert_closure_equals_the_loop_closure(np.array(column))


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

    outputs, labels = _read_only([[1.0, -1.0], [0.5, 0.0]]), _read_only([1.0, -1.0])
    ts = TrainingSet.from_outputs(outputs, labels)
    assert not np.shares_memory(ts.margins, outputs)
    assert outputs.tobytes() == _read_only([[1.0, -1.0], [0.5, 0.0]]).tobytes()

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
    fill, 4m^2 bytes, M/(4d) here; the closure's blocks of columns, three of
    1 MiB at most, as the matrix is closed already; and one descriptor and one
    packed key per column, a few hundred bytes each. At m = 600, d = 3
    (M = 17 MB) that sums to about 1.4 M, while one more float temporary as
    large as the matrix (the loop build made three) would pass 2 M."""
    peak, matrix = _build_peak("nonseparable", m=600, d=3)
    assert peak <= 2.0 * matrix


def test_game_build_keeps_the_draw_and_the_closed_matrix():
    """The closed matrix M holds the m x n draw and its n negations: the draw,
    M/2, stays alive beside the closed matrix, allocated once, and the
    closure's blocks of columns, three of 1 MiB at most, 0.2 M here (m = n =
    1000, M = 16 MB), so about 1.7 M; one more float temporary as large as M
    (the loop closure made two, besides copies of the draw) would pass 2.5 M."""
    peak, matrix = _build_peak("game", m=1000, n=1000)
    assert peak <= 2.5 * matrix
