"""The two geometries: the Bregman distance of tests/oracles.py, the
closed-form prox step prox._step against a grid oracle (the tests named
prox_solve, after the checked function that once wrapped it), and the
diameter log m that a header derives."""

import math

import numpy as np
import pytest

from conftest import certificate_header, grid_prox_entropy, simplex_grid
from mirrorboost.md_core import MinmaxProblem, MirrorDescentState
from mirrorboost.prox import ENTROPY, EUCLIDEAN, _step
from oracles import bregman


def test_bregman_entropy_closed_form_example():
    # KL((.5,.5) || (.25,.75)) = .5 ln 2 + .5 ln(2/3)
    got = bregman(ENTROPY, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert got == pytest.approx(expect, rel=1e-14)
    # divergence from a point to itself vanishes
    y = np.array([0.2, 0.3, 0.5])
    assert bregman(ENTROPY, y, y) == pytest.approx(0.0, abs=1e-15)


def test_bregman_entropy_handles_zero_coordinates_in_first_argument():
    x = np.array([0.0, 1.0])
    y = np.array([0.5, 0.5])
    assert bregman(ENTROPY, x, y) == pytest.approx(math.log(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        bregman(ENTROPY, y, x)  # second argument must be strictly positive


def test_bregman_entropy_dominates_half_l1_squared():
    # sampled Pinsker-style lower bound: KL(x, y) >= 0.5 * |x - y|_1^2
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        assert bregman(ENTROPY, x, y) >= 0.5 * np.sum(np.abs(x - y)) ** 2 - 1e-12


def test_bregman_euclidean_is_half_squared_distance():
    x = np.array([1.0, -2.0, 0.5])
    y = np.array([0.0, 1.0, 0.5])
    assert bregman(EUCLIDEAN, x, y) == pytest.approx(0.5 * (1.0 + 9.0), rel=1e-15)


def test_prox_solve_zero_cost_returns_anchor_exactly():
    anchor = np.array([0.1, 0.2, 0.7])
    out = _step(ENTROPY, np.zeros(3), anchor, 0.7)
    np.testing.assert_allclose(out, anchor, rtol=0, atol=1e-16)
    out2 = _step(EUCLIDEAN, np.zeros(3), anchor, 0.7)
    np.testing.assert_array_equal(out2, anchor)


def test_prox_solve_entropy_closed_form_example():
    # cost (ln 2, 0, 0) at unit step from the uniform anchor:
    # x proportional to (1/2, 1, 1), i.e. (0.2, 0.4, 0.4)
    out = _step(ENTROPY, np.array([math.log(2.0), 0.0, 0.0]), np.full(3, 1.0 / 3.0), 1.0)
    np.testing.assert_allclose(out, [0.2, 0.4, 0.4], rtol=1e-15, atol=0)


def test_prox_solve_entropy_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for dim in (2, 3):
        for _ in range(3):
            c = rng.uniform(-2.0, 2.0, dim)
            anchor = rng.uniform(0.1, 1.0, dim)
            anchor /= anchor.sum()
            alpha = rng.uniform(0.1, 3.0)
            closed = _step(ENTROPY, c, anchor, alpha)
            grid = grid_prox_entropy(c, anchor, alpha, steps=1000)
            assert np.max(np.abs(closed - grid)) <= 1e-3


def test_prox_solve_entropy_large_step_approaches_vertex():
    out = _step(ENTROPY, np.array([0.0, 1.0, 1.0]), np.full(3, 1.0 / 3.0), 1e3)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-6)


def test_prox_solve_entropy_survives_extreme_costs():
    # exponent shift engages only when the plain update would overflow
    out = _step(ENTROPY, np.array([0.0, 2000.0]), np.full(2, 0.5), 1.0)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)
    out2 = _step(ENTROPY, np.array([-2000.0, 0.0]), np.full(2, 0.5), 1.0)
    assert np.all(np.isfinite(out2))
    np.testing.assert_allclose(out2, [1.0, 0.0], atol=1e-300)


def test_prox_solve_entropy_rejects_negative_or_zero_anchor():
    # the only anchor a step takes unchecked is a state's iterate, and a state
    # refuses to start from a point off the simplex
    problem = MinmaxProblem(np.eye(2))
    for anchor in ([1.5, -0.5], [0.0, 0.0]):
        with pytest.raises(ValueError, match="x0 must lie on the probability simplex"):
            MirrorDescentState.initial(problem, np.array(anchor))


def test_prox_solve_entropy_boundary_anchor_is_multiplicative_update():
    # zero entries stay at zero; the rest is the usual multiplicative update
    anchor = np.array([0.5, 0.0, 0.5])
    c = np.array([math.log(3.0), 2.0, 0.0])
    out = _step(ENTROPY, c, anchor, 1.0)
    u = anchor * np.exp(-c)
    np.testing.assert_array_equal(out, u / u.sum())
    np.testing.assert_allclose(out, [0.25, 0.0, 0.75], rtol=1e-15)
    assert _step(ENTROPY, np.array([3.0, -1.0]), np.array([1.0, 0.0]), 2.0)[1] == 0.0


def test_prox_solve_refuses_a_step_that_leaves_the_domain():
    # every weight left underflows, so the normalizer is 0; and an overflowing
    # Euclidean step: both raise rather than return a point off the domain
    with pytest.raises(ValueError, match="normalizer 0.0"):
        _step(ENTROPY, np.array([-1.0, 1.0]), np.array([0.0, 1.0]), 2000.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="normalizer inf"):
            _step(ENTROPY, np.zeros(2), np.array([1e308, 1e308]), 1.0)
        with pytest.raises(ValueError, match="overflows"):
            _step(EUCLIDEAN, np.array([2.0, 0.0]), np.zeros(2), 1e308)


def test_prox_solve_euclidean_is_gradient_step():
    anchor = np.array([1.0, 2.0])
    c = np.array([0.5, -1.0])
    np.testing.assert_array_equal(_step(EUCLIDEAN, c, anchor, 2.0), anchor - 2.0 * c)


def test_diameter_bound_entropy_uniform_is_log_m_exactly():
    # a header on m examples holds log(m), which the distance from the uniform
    # start to a vertex attains
    for m in (2, 5, 10, 64):
        diameter = certificate_header("adaboost", "dynamic", m=m).diameter
        assert diameter == math.log(m)
        vertex = np.zeros(m)
        vertex[m - 1] = 1.0
        assert bregman(ENTROPY, vertex, np.full(m, 1.0 / m)) == pytest.approx(diameter,
                                                                              rel=1e-14)


def test_diameter_bound_entropy_covers_all_grid_points():
    # every simplex point has KL(x, uniform) <= log m; the diameter must dominate
    for dim in (2, 3):
        anchor = np.full(dim, 1.0 / dim)
        bound = certificate_header("adaboost", "dynamic", m=dim).diameter
        grid = simplex_grid(dim, 200)
        worst = 0.0
        for x in grid:
            worst = max(worst, bregman(ENTROPY, x, anchor))
        assert worst <= bound + 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match=r"x0 must have shape \(3,\), got \(2,\)"):
        MirrorDescentState.initial(MinmaxProblem(np.eye(3)), np.full(2, 0.5))
    with pytest.raises(ValueError):
        bregman(ENTROPY, np.full(2, 0.5), np.full(3, 1.0 / 3.0))
