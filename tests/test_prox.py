"""Prox functions: divergence values, prox steps against a grid oracle, and
diameter bounds."""

import math

import numpy as np
import pytest

from conftest import grid_prox_entropy, simplex_grid
from mirrorboost import prox
from mirrorboost.prox import bregman, diameter_bound, entropy, euclidean, prox_solve, value


def test_factories_and_reference_norms():
    e = entropy(5)
    assert e.kind == "entropy" and e.dim == 5 and e.reference_norm == "l1"
    q = euclidean(3)
    assert q.kind == "euclidean" and q.dim == 3 and q.reference_norm == "l2"
    with pytest.raises(ValueError):
        entropy(0)


def test_entropy_value_zero_at_uniform_and_max_at_vertex():
    m = 7
    assert value(entropy(m), np.full(m, 1.0 / m)) == pytest.approx(0.0, abs=1e-15)
    vertex = np.zeros(m)
    vertex[2] = 1.0
    # sum x ln x = 0 at a vertex, so the shifted value is log m
    assert value(entropy(m), vertex) == pytest.approx(math.log(m), rel=1e-15)


def test_bregman_entropy_closed_form_example():
    # KL((.5,.5) || (.25,.75)) = .5 ln 2 + .5 ln(2/3)
    got = bregman(entropy(2), np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert got == pytest.approx(expect, rel=1e-14)
    # divergence from a point to itself vanishes
    y = np.array([0.2, 0.3, 0.5])
    assert bregman(entropy(3), y, y) == pytest.approx(0.0, abs=1e-15)


def test_bregman_entropy_handles_zero_coordinates_in_first_argument():
    x = np.array([0.0, 1.0])
    y = np.array([0.5, 0.5])
    assert bregman(entropy(2), x, y) == pytest.approx(math.log(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        bregman(entropy(2), y, x)  # second argument must be strictly positive


def test_bregman_entropy_dominates_half_l1_squared():
    # sampled Pinsker-style lower bound: KL(x, y) >= 0.5 * |x - y|_1^2
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        assert bregman(entropy(4), x, y) >= 0.5 * np.sum(np.abs(x - y)) ** 2 - 1e-12


def test_bregman_euclidean_is_half_squared_distance():
    x = np.array([1.0, -2.0, 0.5])
    y = np.array([0.0, 1.0, 0.5])
    assert bregman(euclidean(3), x, y) == pytest.approx(0.5 * (1.0 + 9.0), rel=1e-15)


def test_prox_solve_zero_cost_returns_anchor_exactly():
    anchor = np.array([0.1, 0.2, 0.7])
    out = prox_solve(entropy(3), np.zeros(3), anchor, 0.7)
    np.testing.assert_allclose(out, anchor, rtol=0, atol=1e-16)
    out2 = prox_solve(euclidean(3), np.zeros(3), anchor, 0.7)
    np.testing.assert_array_equal(out2, anchor)


def test_prox_solve_entropy_closed_form_example():
    # cost (ln 2, 0, 0) at unit step from the uniform anchor:
    # x proportional to (1/2, 1, 1), i.e. (0.2, 0.4, 0.4)
    out = prox_solve(entropy(3), np.array([math.log(2.0), 0.0, 0.0]),
                     np.full(3, 1.0 / 3.0), 1.0)
    np.testing.assert_allclose(out, [0.2, 0.4, 0.4], rtol=1e-15, atol=0)


def test_prox_solve_entropy_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for dim in (2, 3):
        for _ in range(3):
            c = rng.uniform(-2.0, 2.0, dim)
            anchor = rng.uniform(0.1, 1.0, dim)
            anchor /= anchor.sum()
            alpha = rng.uniform(0.1, 3.0)
            closed = prox_solve(entropy(dim), c, anchor, alpha)
            grid = grid_prox_entropy(c, anchor, alpha, steps=1000)
            assert np.max(np.abs(closed - grid)) <= 1e-3


def test_prox_solve_entropy_large_step_approaches_vertex():
    out = prox_solve(entropy(3), np.array([0.0, 1.0, 1.0]), np.full(3, 1.0 / 3.0), 1e3)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-6)


def test_prox_solve_entropy_survives_extreme_costs():
    # exponent shift engages only when the plain update would overflow
    out = prox_solve(entropy(2), np.array([0.0, 2000.0]), np.full(2, 0.5), 1.0)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)
    out2 = prox_solve(entropy(2), np.array([-2000.0, 0.0]), np.full(2, 0.5), 1.0)
    assert np.all(np.isfinite(out2))
    np.testing.assert_allclose(out2, [1.0, 0.0], atol=1e-300)


def test_prox_solve_entropy_rejects_negative_or_zero_anchor():
    for anchor in ([1.5, -0.5], [0.0, 0.0]):
        with pytest.raises(ValueError):
            prox_solve(entropy(2), np.zeros(2), np.array(anchor), 1.0)


def test_prox_solve_entropy_boundary_anchor_is_multiplicative_update():
    # zero entries stay at zero; the rest is the usual multiplicative update
    anchor = np.array([0.5, 0.0, 0.5])
    c = np.array([math.log(3.0), 2.0, 0.0])
    out = prox_solve(entropy(3), c, anchor, 1.0)
    u = anchor * np.exp(-c)
    np.testing.assert_array_equal(out, u / u.sum())
    np.testing.assert_allclose(out, [0.25, 0.0, 0.75], rtol=1e-15)
    assert prox_solve(entropy(2), np.array([3.0, -1.0]), np.array([1.0, 0.0]), 2.0)[1] == 0.0


def test_prox_solve_euclidean_is_gradient_step():
    anchor = np.array([1.0, 2.0])
    c = np.array([0.5, -1.0])
    np.testing.assert_array_equal(prox_solve(euclidean(2), c, anchor, 2.0),
                                  anchor - 2.0 * c)


def test_diameter_bound_entropy_uniform_is_log_m_exactly():
    for m in (2, 5, 10, 64):
        assert diameter_bound(entropy(m), np.full(m, 1.0 / m)) == math.log(m)


def test_diameter_bound_entropy_covers_all_grid_points():
    # every simplex point has KL(x, uniform) <= log m; the bound must dominate
    for dim in (2, 3):
        anchor = np.full(dim, 1.0 / dim)
        bound = diameter_bound(entropy(dim), anchor)
        grid = simplex_grid(dim, 200)
        worst = 0.0
        for x in grid:
            worst = max(worst, bregman(entropy(dim), x, anchor))
        assert worst <= bound + 1e-12


def test_diameter_bound_entropy_nonuniform_anchor():
    anchor = np.array([0.1, 0.9])
    bound = diameter_bound(entropy(2), anchor)
    assert bound == pytest.approx(-math.log(0.1), rel=1e-15)
    # the vertex over the smallest anchor mass attains it
    assert bregman(entropy(2), np.array([1.0, 0.0]), anchor) <= bound + 1e-15


def test_diameter_bound_euclidean_needs_optimum():
    q = euclidean(2)
    with pytest.raises(ValueError):
        diameter_bound(q, np.zeros(2))
    got = diameter_bound(q, np.zeros(2), optimum=np.array([3.0, 4.0]))
    assert got == pytest.approx(12.5, rel=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        prox_solve(entropy(3), np.zeros(2), np.full(3, 1.0 / 3.0), 1.0)
    with pytest.raises(ValueError):
        bregman(entropy(2), np.full(3, 1.0 / 3.0), np.full(3, 1.0 / 3.0))
