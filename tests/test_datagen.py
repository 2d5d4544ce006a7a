"""Stump construction, CSV round trips, and the seeded synthetic generators."""

import numpy as np
import pytest

from mirrorboost.datagen import (
    build_stumps,
    center_scale,
    generate_synthetic,
    load_classification_csv,
    load_regression_csv,
    make_margin_matrix,
    make_nonseparable_classification,
    make_regression,
    make_separable_classification,
    training_set_from_features,
    write_classification_csv,
    write_regression_csv,
)
from mirrorboost.stagewise import RegressionProblem, least_squares_norm
from oracles import classical_build_stumps


def test_stump_outputs():
    # thresholds 0.5 and 1.5, each with sign +1 then -1, then the constants
    np.testing.assert_array_equal(build_stumps(np.array([[0.0], [1.0], [2.0]])), [
        [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0, 1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
    ])


def test_build_stumps_enumerates_midpoints_and_constants():
    features = np.array([[0.0], [1.0], [2.0]])
    outputs = build_stumps(features)
    # 2 midpoints x 2 orientations + 2 constants, all distinct
    assert outputs.shape == (3, 6)
    assert len({outputs[:, j].tobytes() for j in range(6)}) == 6
    want, stumps = classical_build_stumps(features)
    assert outputs.tobytes() == want.tobytes()
    thresholds = sorted(threshold for feature, threshold, _ in stumps if feature == 0)
    assert thresholds == [0.5, 0.5, 1.5, 1.5]


def test_build_stumps_deduplicates_identical_columns():
    outputs = build_stumps(np.array([[0.0], [0.0], [1.0]]))
    # one midpoint between the two unique values, plus the constants
    assert outputs.shape == (3, 4)


def test_stump_outputs_already_closed_under_negation():
    features = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([1.0, -1.0, 1.0])
    ts = training_set_from_features(features, labels)
    assert ts.to_minmax().n == 6  # closure adds nothing


def test_two_point_instance_has_a_perfect_stump():
    ts = training_set_from_features(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
    assert float(ts.margins.min(axis=0).max()) == 1.0


def test_xor_instance_has_no_perfect_stump():
    features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([-1.0, 1.0, 1.0, -1.0])
    ts = training_set_from_features(features, labels)
    assert np.all(ts.margins.min(axis=0) <= 0.0)


def test_separable_instance_has_strictly_positive_margin_column():
    ts = make_separable_classification(m=30, d=3, seed=5)
    assert float(ts.margins.min(axis=0).max()) > 0.0
    assert ts.labels is not None and set(np.unique(ts.labels)) == {-1.0, 1.0}


def test_nonseparable_instance_carries_a_contradiction():
    ts = make_nonseparable_classification(m=30, d=3, seed=5)
    np.testing.assert_array_equal(ts.margins[1], -ts.margins[0])
    assert np.all(ts.margins.min(axis=0) <= 0.0)


def test_margin_matrix_planted_margin():
    ts = make_margin_matrix(m=12, n=6, seed=2, planted_margin=0.3)
    assert float(ts.margins[:, 0].min()) >= 0.3
    assert ts.to_minmax().lipschitz() <= 1.0
    with pytest.raises(ValueError):
        make_margin_matrix(m=4, n=2, seed=0, planted_margin=1.5)


def test_generators_are_deterministic_per_seed():
    for kind in ("separable", "nonseparable", "game"):
        a = generate_synthetic(kind, 7)
        b = generate_synthetic(kind, 7)
        c = generate_synthetic(kind, 8)
        assert a.margins.tobytes() == b.margins.tobytes()
        assert a.margins.tobytes() != c.margins.tobytes()
    ra = generate_synthetic("regression", 7)
    rb = generate_synthetic("regression", 7)
    assert ra.design.tobytes() == rb.design.tobytes()
    assert ra.response.tobytes() == rb.response.tobytes()


def test_generate_synthetic_kinds_and_sizes():
    ts = generate_synthetic("separable", 3, m=10, d=2)
    assert ts.to_minmax().m == 10
    rp = generate_synthetic("regression", 3, n=15, p=4)
    assert rp.design.shape == (15, 4)
    for kind in ("mystery", "separable-classification"):
        with pytest.raises(ValueError, match=f"unknown synthetic kind: {kind!r}"):
            generate_synthetic(kind, 0)


def test_wide_regression_response_lies_in_the_column_space():
    rp = make_regression(n=20, p=40, seed=6)
    assert abs(least_squares_norm(rp) - float(np.linalg.norm(rp.response))) <= 1e-9


def test_classification_csv_round_trip(tmp_path):
    ts = make_separable_classification(m=15, d=3, seed=4)
    path = tmp_path / "cls.csv"
    write_classification_csv(path, ts.features, ts.labels)
    back = load_classification_csv(path)
    assert back.margins.tobytes() == ts.margins.tobytes()
    np.testing.assert_array_equal(back.labels, ts.labels)


def test_regression_csv_round_trip(tmp_path):
    rp = make_regression(n=12, p=5, seed=4)
    path = tmp_path / "reg.csv"
    write_regression_csv(path, rp.design, rp.response)
    back = load_regression_csv(path)
    # repr-based cells reproduce every float exactly
    assert back.design.tobytes() == rp.design.tobytes()
    assert back.response.tobytes() == rp.response.tobytes()


def test_csv_header_row_is_skipped(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("f0,f1,label\n0.5,1.0,1\n-0.5,2.0,-1\n")
    ts = load_classification_csv(path)
    assert ts.to_minmax().m == 2


def test_csv_error_reporting(tmp_path):
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("0.5,1\n0.7,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_regression_csv(bad_cell)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.5,1.0\n0.7\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_regression_csv(ragged)

    too_short = tmp_path / "short.csv"
    too_short.write_text("x0,y\n0.5,1.0\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_regression_csv(too_short)

    one_column = tmp_path / "one.csv"
    one_column.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match="column"):
        load_regression_csv(one_column)

    bad_labels = tmp_path / "labels.csv"
    bad_labels.write_text("0.5,2\n0.7,1\n")
    with pytest.raises(ValueError, match="labels"):
        load_classification_csv(bad_labels)


def test_center_scale_normalizes_columns():
    rp = make_regression(n=25, p=6, seed=10)
    out = center_scale(rp)
    np.testing.assert_allclose(out.design.mean(axis=0), 0.0, atol=1e-12)
    assert abs(float(out.response.mean())) <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(out.design, axis=0), 1.0, rtol=1e-12)
    # centering a constant column leaves nothing to scale
    const = RegressionProblem(design=np.column_stack([np.ones(4), np.arange(4.0) + 1.0]),
                              response=np.arange(4.0))
    with pytest.raises(ValueError):
        center_scale(const)
