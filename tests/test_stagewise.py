"""Forward stagewise regression: the classical residual update of
tests/oracles.py, sparsity accounting, projection norms, and exact agreement
of the engine view with the classical update."""

import math
import warnings

import numpy as np
import pytest

from conftest import gram_schmidt_projection_norm
from mirrorboost import datagen, md_core
from mirrorboost.md_core import NNZ_TOLERANCE
from mirrorboost.schedule import StepSchedule
from mirrorboost.stagewise import (
    RegressionProblem,
    least_squares_norm,
    optimal_shrinkage,
)
from oracles import (
    StagewiseState,
    classical_fs,
    correlation_objective,
    fs_step,
    run_with_iterates,
    support_size,
)


def test_problem_validation():
    with pytest.raises(ValueError):
        RegressionProblem(design=np.zeros((3, 2)), response=np.zeros(3))  # zero column
    with pytest.raises(ValueError):
        RegressionProblem(design=np.eye(3), response=np.zeros(2))
    with pytest.raises(ValueError):
        RegressionProblem(design=np.array([[np.inf]]), response=np.array([1.0]))


@pytest.mark.parametrize("design, response, message", [
    ([[0.0, 1.0], [-0.0, 2.0]], [1.0, 2.0], "design must not contain an all-zero column"),
    ([[1.0, np.nan], [0.0, 2.0]], [1.0, 2.0], "design and response must be finite"),
    ([[1.0, 0.0], [np.inf, 2.0]], [1.0, 2.0], "design and response must be finite"),
    ([[1.0, 0.0], [-np.inf, 0.0]], [1.0, 2.0], "design and response must be finite"),
    ([[1.0, 1.0], [0.0, 2.0]], [np.nan, 2.0], "design and response must be finite"),
    ([[1.0, 1.0], [0.0, 2.0]], [1.0, -np.inf], "design and response must be finite"),
])
def test_problem_refusals_name_the_rule(design, response, message):
    with pytest.raises(ValueError, match=message):
        RegressionProblem(design=np.array(design), response=np.array(response))


def test_a_column_is_zero_exactly_when_every_entry_is():
    for tiny in (5e-324, -5e-324, 1e-200):
        design = np.array([[tiny, 1.0], [0.0, 2.0], [-0.0, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rp = RegressionProblem(design=design, response=np.ones(3))
        assert rp.design_norm == np.linalg.norm(design, axis=0).max()


def test_problem_norms_and_minmax_view():
    rp = RegressionProblem(design=np.array([[3.0, 0.0], [4.0, 1.0]]),
                           response=np.array([1.0, 1.0]))
    assert rp.design_norm == 5.0
    prob = rp.to_minmax()
    assert rp.to_minmax() is prob
    assert prob.payoff is rp.design
    assert prob.primal_domain == "residual-space"
    assert prob.dual_domain == "l1-ball"
    assert prob.lipschitz() == 5.0


def test_fs_step_moves_residual_along_best_column():
    rp = RegressionProblem(design=np.eye(2), response=np.array([1.0, 0.0]))
    state = fs_step(StagewiseState.initial(rp), rp, 0.3)
    np.testing.assert_array_equal(state.coefficients, [0.3, 0.0])
    np.testing.assert_array_equal(state.residual, [0.7, 0.0])
    assert state.iteration == 1


def test_fs_step_follows_the_correlation_sign():
    rp = RegressionProblem(design=np.eye(2), response=np.array([-1.0, 0.0]))
    state = fs_step(StagewiseState.initial(rp), rp, 0.3)
    np.testing.assert_array_equal(state.coefficients, [-0.3, 0.0])
    np.testing.assert_array_equal(state.residual, [-0.7, 0.0])


def test_fs_step_ties_resolve_to_lowest_index():
    rp = RegressionProblem(design=np.eye(2), response=np.array([1.0, 1.0]))
    state = fs_step(StagewiseState.initial(rp), rp, 0.1)
    np.testing.assert_array_equal(state.coefficients, [0.1, 0.0])


def test_fs_step_rejects_bad_eps():
    rp = RegressionProblem(design=np.eye(2), response=np.array([1.0, 0.0]))
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            fs_step(StagewiseState.initial(rp), rp, bad)


def test_support_size_threshold():
    assert support_size(np.array([0.0, 1e-15, 1e-13, -0.5])) == 2
    assert support_size(np.zeros(4)) == 0
    assert NNZ_TOLERANCE == 1e-14


def test_correlation_objective_matches_brute_force():
    rng = np.random.default_rng(19)
    design = rng.standard_normal((8, 5))
    rp = RegressionProblem(design=design, response=rng.standard_normal(8))
    r = rng.standard_normal(8)
    best = max(abs(float(design[:, j] @ r)) for j in range(5))
    assert correlation_objective(rp, r) == pytest.approx(best, rel=1e-12)


def test_least_squares_norm_identity_design():
    y = np.array([1.0, -2.0, 3.0])
    rp = RegressionProblem(design=np.eye(3), response=y)
    assert least_squares_norm(rp) == pytest.approx(float(np.linalg.norm(y)), rel=1e-12)


def test_least_squares_norm_orthogonal_response_is_zero():
    rp = RegressionProblem(design=np.array([[1.0], [0.0]]), response=np.array([0.0, 1.0]))
    assert least_squares_norm(rp) == pytest.approx(0.0, abs=1e-12)


def test_least_squares_norm_matches_gram_schmidt_oracle():
    rng = np.random.default_rng(7)
    design = rng.standard_normal((12, 5))
    y = np.random.default_rng(8).standard_normal(12)
    rp = RegressionProblem(design=design, response=y)
    assert abs(least_squares_norm(rp) - gram_schmidt_projection_norm(design, y)) <= 1e-9


def test_least_squares_norm_wide_design_reproduces_response():
    # p > n with generic columns spans everything, so the fit is the response
    rng = np.random.default_rng(31)
    design = rng.standard_normal((10, 25))
    y = rng.standard_normal(10)
    rp = RegressionProblem(design=design, response=y)
    assert abs(least_squares_norm(rp) - float(np.linalg.norm(y))) <= 1e-9


def test_least_squares_norm_rank_deficient_design():
    rng = np.random.default_rng(13)
    base = rng.standard_normal((9, 3))
    design = np.hstack([base, base[:, :2]])  # duplicated columns
    y = rng.standard_normal(9)
    rp = RegressionProblem(design=design, response=y)
    assert abs(least_squares_norm(rp)
               - gram_schmidt_projection_norm(design, y)) <= 1e-9


def test_optimal_shrinkage_formula():
    rp = RegressionProblem(design=np.array([[3.0, 0.0], [4.0, 1.0]]),
                           response=np.array([6.0, 8.0]))
    # explicit projection norm
    assert optimal_shrinkage(rp, 25, projection_norm=10.0) == 10.0 / (5.0 * 5.0)
    # default falls back to the response norm
    assert optimal_shrinkage(rp, 25) == 10.0 / (5.0 * 5.0)
    with pytest.raises(ValueError):
        optimal_shrinkage(rp, 0)


def test_run_fs_records_pre_step_sparsity():
    rp = datagen.make_regression(n=30, p=12, seed=1)
    eps = 0.05
    res = md_core.run(rp.to_minmax(), StepSchedule.fixed(eps), 80, x0=rp.response.copy(),
                      algorithm="stagewise")
    assert res.records[0].l1 == 0.0 and res.records[0].l0 == 0
    for rec in res.records:
        assert rec.l1 <= rec.k * eps + 1e-12
        assert rec.l0 <= rec.k
        assert rec.dual is None and rec.grad_norm is None
        assert rec.sign in (-1.0, 1.0)


def test_run_fs_residual_consistent_with_replayed_coefficients():
    rp = datagen.make_regression(n=25, p=10, seed=9)
    res, residuals = run_with_iterates(md_core.run, rp.to_minmax(), StepSchedule.fixed(0.02), 120,
                                       x0=rp.response.copy(), algorithm="stagewise")
    assert len(residuals) == len(res.records) == 120
    beta = np.zeros(rp.num_columns)
    for rec, residual in zip(res.records, residuals):
        np.testing.assert_allclose(residual, rp.response - rp.design @ beta, atol=1e-9)
        assert rec.l1 == pytest.approx(float(np.sum(np.abs(beta))), abs=1e-12)
        beta[rec.index] += rec.alpha * rec.sign
    np.testing.assert_allclose(res.state.dual_weighted_sum, beta, atol=1e-12)


def test_run_fs_linesearch_step_is_the_polyak_step():
    # the exact line-search shrinkage |corr| / |column|^2 is the polyak step
    # for the known optimal value zero
    rp = datagen.make_regression(n=20, p=8, seed=3)
    res = md_core.run(rp.to_minmax(), StepSchedule.polyak(0.0), 60, x0=rp.response.copy(),
                      algorithm="stagewise")
    for rec in res.records:
        col = rp.design[:, rec.index]
        assert rec.alpha == pytest.approx(rec.primal / float(col @ col), rel=1e-15)


def test_run_fs_linesearch_on_identity_reaches_the_optimum():
    rp = RegressionProblem(design=np.eye(2), response=np.array([1.0, 0.0]))
    res = md_core.run(rp.to_minmax(), StepSchedule.polyak(0.0), 10, x0=rp.response.copy(),
                      algorithm="stagewise")
    assert len(res.records) == 1
    assert res.terminated is not None and "orthogonal" in res.terminated
    np.testing.assert_array_equal(res.state.dual_weighted_sum, [1.0, 0.0])
    np.testing.assert_array_equal(res.state.x, [0.0, 0.0])


def test_run_fs_equals_mirror_descent_run():
    # the engine view against the classical loop, bit for bit
    rp = datagen.make_regression(n=30, p=15, seed=12)
    for sched in (StepSchedule.fixed(0.03), StepSchedule.polyak(0.0)):
        rf, xf = run_with_iterates(classical_fs, rp, sched, 100)
        rm, xm = run_with_iterates(md_core.run, rp.to_minmax(), sched, 100,
                                   x0=rp.response.copy(), algorithm="stagewise")
        assert len(rf.records) == len(rm.records) == len(xf) == len(xm)
        for f, m_, f_x, m_x in zip(rf.records, rm.records, xf, xm):
            assert f.index == m_.index and f.sign == m_.sign
            assert f.alpha == m_.alpha and f.primal == m_.primal
            assert f.l1 == m_.l1 and f.l0 == m_.l0
            np.testing.assert_array_equal(f_x, m_x)
        np.testing.assert_array_equal(rf.state.residual, rm.state.x)
        np.testing.assert_array_equal(rf.state.coefficients, rm.state.dual_weighted_sum)


def test_run_fs_objective_decreases_to_tolerance_with_linesearch():
    rp = datagen.make_regression(n=40, p=10, seed=21, noise=0.2)
    res = md_core.run(rp.to_minmax(), StepSchedule.polyak(0.0), 400, x0=rp.response.copy(),
                      algorithm="stagewise")
    assert res.records[-1].best_primal < res.records[0].primal * 0.05


def test_run_fs_validation_and_sink():
    rp = RegressionProblem(design=np.eye(2), response=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        md_core.run(rp.to_minmax(), StepSchedule.fixed(0.1), 0, x0=rp.response.copy(),
                    algorithm="stagewise")
    seen = []
    md_core.run(rp.to_minmax(), StepSchedule.fixed(0.1), 3, x0=rp.response.copy(),
                algorithm="stagewise", sink=lambda rec, x: seen.append(rec))
    assert [r.k for r in seen] == [0, 1, 2]
