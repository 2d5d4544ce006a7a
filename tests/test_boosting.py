"""AdaBoost: training-set construction, the classical weight update and loss
functionals of tests/oracles.py, and exact agreement of the engine view with
them."""

import math

import numpy as np
import pytest

from conftest import central_difference_gradient
from mirrorboost import datagen, md_core
from mirrorboost.boosting import TrainingSet
from mirrorboost.md_core import MirrorDescentState, md_step
from mirrorboost.schedule import StepSchedule
from oracles import (
    BoostState,
    adaboost_step,
    assert_duals_within_rounding,
    classical_adaboost,
    dual_value,
    edge,
    log_exp_loss,
    margin,
    run_with_iterates,
    weak_learner,
)


def test_negation_closure_adds_missing_columns():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0], [-1.0]]))
    assert ts.num_classifiers == 2
    np.testing.assert_array_equal(ts.margins, [[1.0, -1.0], [-1.0, 1.0]])


def test_from_outputs_builds_label_weighted_margins():
    outputs = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    labels = np.array([1.0, 1.0, -1.0])
    ts = TrainingSet.from_outputs(outputs, labels)
    np.testing.assert_array_equal(ts.margins[:, :2],
                                  [[1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
    assert ts.num_classifiers == 4  # [A, -A]
    assert ts.lipschitz == 1.0


def test_from_outputs_accepts_confidence_rated_values():
    outputs = np.array([[0.3, -0.7], [-0.2, 0.5]])
    labels = np.array([1.0, -1.0])
    ts = TrainingSet.from_outputs(outputs, labels)
    np.testing.assert_array_equal(ts.margins[:, :2], [[0.3, -0.7], [0.2, -0.5]])
    assert ts.lipschitz == 0.7


def test_to_minmax_is_one_problem_that_owns_the_constant():
    ts = TrainingSet.from_margin_matrix(np.array([[0.3, -0.7], [-0.2, 0.5]]))
    problem = ts.to_minmax()
    assert ts.to_minmax() is problem
    assert problem.payoff is ts.margins
    assert ts.lipschitz == problem.lipschitz() == 0.7


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet.from_margin_matrix(np.array([[1.5]]))
    with pytest.raises(ValueError):
        TrainingSet.from_margin_matrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        TrainingSet.from_outputs(np.array([[2.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        TrainingSet.from_outputs(np.array([[1.0], [1.0]]), np.array([1.0]))


def test_weak_learner_picks_largest_weighted_edge():
    ts = TrainingSet.from_margin_matrix(np.array([[0.2, 0.9], [0.2, 0.5]]))
    assert weak_learner(ts, np.array([0.5, 0.5])) == 1
    # shifting the weights can change the winner
    assert weak_learner(ts, np.array([0.0, 1.0])) == 1
    assert edge(ts, np.array([0.5, 0.5])) == pytest.approx(0.7, rel=1e-15)


def test_edge_matches_brute_force_scan():
    rng = np.random.default_rng(14)
    ts = TrainingSet.from_margin_matrix(rng.uniform(-1.0, 1.0, size=(5, 8)))
    for _ in range(20):
        w = rng.dirichlet(np.ones(5))
        best = max(sum(w[i] * ts.margins[i, j] for i in range(5))
                   for j in range(ts.num_classifiers))
        assert edge(ts, w) == pytest.approx(best, rel=1e-12)
        assert edge(ts, w) >= -1e-15  # closure keeps the best edge nonnegative


def test_margin_of_vertices_and_mixtures():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    lam = np.zeros(ts.num_classifiers)
    lam[0] = 1.0
    assert margin(ts, lam) == -1.0
    lam2 = np.full(ts.num_classifiers, 1.0 / ts.num_classifiers)
    assert margin(ts, lam2) == 0.0


def test_adaboost_step_multiplicative_update():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0], [-1.0]]))
    state = adaboost_step(BoostState.initial(ts), ts, math.log(2.0))
    np.testing.assert_allclose(state.weights, [0.2, 0.8], rtol=1e-15)
    assert state.columns == [0]
    assert state.coefficients[0] == math.log(2.0)
    assert state.step_total == math.log(2.0)


def test_adaboost_step_coefficient_l1_is_step_sum():
    ts = TrainingSet.from_margin_matrix(
        np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 4)))
    state = BoostState.initial(ts)
    for alpha in (0.5, 0.25, 0.125, 0.5):
        state = adaboost_step(state, ts, alpha)
    assert float(np.sum(np.abs(state.coefficients))) == 1.375
    assert state.step_total == 1.375
    lam = state.normalized_coefficients()
    assert float(np.sum(lam)) == pytest.approx(1.0, rel=1e-15)
    assert np.all(lam >= 0.0)


def test_adaboost_step_rejects_bad_alpha():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0], [-1.0]]))
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            adaboost_step(BoostState.initial(ts), ts, bad)


def test_log_exp_loss_at_zero_coefficients():
    ts = TrainingSet.from_margin_matrix(
        np.random.default_rng(9).uniform(-1.0, 1.0, size=(4, 3)))
    loss, grad = log_exp_loss(ts, np.zeros(ts.num_classifiers))
    assert loss == 0.0
    np.testing.assert_allclose(grad, -ts.margins.T @ np.full(4, 0.25), rtol=1e-15)


def test_log_exp_loss_gradient_matches_central_differences():
    rng = np.random.default_rng(21)
    ts = TrainingSet.from_margin_matrix(rng.uniform(-1.0, 1.0, size=(7, 3)))
    for _ in range(5):
        lam = rng.uniform(0.0, 1.5, size=ts.num_classifiers)
        _, grad = log_exp_loss(ts, lam)
        numeric = central_difference_gradient(lambda v: log_exp_loss(ts, v)[0], lam)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)


def test_log_exp_loss_is_stable_for_huge_coefficients():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0, -0.5], [-1.0, 0.5]]))
    lam = np.zeros(ts.num_classifiers)
    lam[0] = 800.0
    loss, grad = log_exp_loss(ts, lam)
    assert math.isfinite(loss) and np.all(np.isfinite(grad))
    assert loss == pytest.approx(800.0 - math.log(2.0), rel=1e-12)


def test_log_exp_loss_sandwiched_by_worst_margin():
    # -min margin - log m <= loss <= -min margin, for simplex coefficients
    rng = np.random.default_rng(33)
    ts = TrainingSet.from_margin_matrix(rng.uniform(-1.0, 1.0, size=(10, 6)))
    m = ts.num_examples
    for _ in range(100):
        lam = rng.dirichlet(np.ones(ts.num_classifiers))
        loss, _ = log_exp_loss(ts, lam)
        worst = margin(ts, lam)
        assert -worst - math.log(m) - 1e-12 <= loss <= -worst + 1e-12


def test_run_adaboost_matches_engine_dual_average_exactly():
    # drive both paths in lockstep; the normalized coefficient vector must
    # equal the engine's dual average bit for bit
    ts = datagen.make_margin_matrix(m=12, n=7, seed=4)
    prob = ts.to_minmax()
    sched = StepSchedule.dynamic(ts.lipschitz, math.log(12.0))
    boost = BoostState.initial(ts)
    md_state = MirrorDescentState.initial(prob)
    for k in range(40):
        index, sign, value = md_core._respond(prob, md_state.x)
        alpha = sched.step_size(k)
        boost = adaboost_step(boost, ts, alpha)
        md_step(md_state, (index, sign), alpha, value)
        assert boost.columns[-1] == index
        np.testing.assert_array_equal(boost.weights, md_state.x)
        np.testing.assert_array_equal(boost.normalized_coefficients(),
                                      md_state.dual_average)


def test_run_adaboost_equals_mirror_descent_run():
    # the engine view against the classical loop, bit for bit except the dual
    # value, which the two sum in different orders
    ts = datagen.make_nonseparable_classification(m=20, d=3, seed=2)
    for sched in (StepSchedule.constant(ts.lipschitz, math.log(20.0), 60),
                  StepSchedule.dynamic(ts.lipschitz, math.log(20.0)),
                  StepSchedule.edge_linesearch()):
        rb, wb = run_with_iterates(classical_adaboost, ts, sched, 60)
        rm, wm = run_with_iterates(md_core.run, ts.to_minmax(), sched, 60, algorithm="adaboost")
        assert len(rb.records) == len(rm.records) == len(wb) == len(wm)
        for b, m_, b_x, m_x in zip(rb.records, rm.records, wb, wm):
            assert b.index == m_.index and b.alpha == m_.alpha
            assert b.primal == m_.primal and b.best_primal == m_.best_primal
            np.testing.assert_array_equal(b_x, m_x)
        assert_duals_within_rounding(ts.margins, rb.records, rm.records)
        np.testing.assert_array_equal(rb.state.weights, rm.state.x)
        np.testing.assert_array_equal(rb.state.coefficients, rm.state.dual_weighted_sum)


def test_running_margins_do_not_drift_over_long_runs():
    # the dual value the engine keeps in O(m) per round stays within 1e-12 of
    # the dense dual value of the dual average replayed from the records, over
    # 10000 rounds on an instance of the benchmark's boost-long size
    ts = datagen.make_nonseparable_classification(m=40, d=4, seed=1)
    problem = ts.to_minmax()
    res = md_core.run(problem, StepSchedule.dynamic(ts.lipschitz, math.log(40.0)), 10000,
                      algorithm="adaboost")
    assert len(res.records) == 10000
    dual_sum = np.zeros(problem.n)
    step_sum = 0.0
    for rec in res.records:
        dual_sum[rec.index] += rec.alpha * rec.sign
        step_sum += rec.alpha
        assert abs(rec.dual - dual_value(problem, dual_sum / step_sum)) <= 1e-12, rec.k
    np.testing.assert_array_equal(dual_sum, res.state.dual_weighted_sum)


def test_run_adaboost_records_pre_step_values():
    ts = datagen.make_margin_matrix(m=8, n=5, seed=11)
    res, weights = run_with_iterates(md_core.run, ts.to_minmax(), StepSchedule.fixed(0.3), 10,
                                     algorithm="adaboost")
    np.testing.assert_array_equal(weights[0], np.full(8, 1.0 / 8.0))
    # the edge is the loss-gradient norm, and the records state it once
    assert all(rec.grad_norm is None for rec in res.records)
    # best_primal is the running minimum of the recorded primal values
    best = math.inf
    for rec in res.records:
        best = min(best, rec.primal)
        assert rec.best_primal == best


def test_run_adaboost_weak_duality_every_round():
    ts = datagen.make_margin_matrix(m=15, n=9, seed=8)
    res = md_core.run(ts.to_minmax(), StepSchedule.dynamic(ts.lipschitz, math.log(15.0)), 80,
                      algorithm="adaboost")
    for rec in res.records:
        assert rec.dual <= rec.best_primal + 1e-12


def test_linesearch_zeroes_the_chosen_column_edge():
    # the classical half-log step makes the updated weights orthogonal to the
    # chosen column when all margins are +-1
    ts = datagen.make_nonseparable_classification(m=30, d=3, seed=6)
    assert np.all(np.abs(ts.margins) == 1.0)
    res = md_core.run(ts.to_minmax(), StepSchedule.edge_linesearch(), 30, algorithm="adaboost")
    assert res.terminated is None
    state = BoostState.initial(ts)
    for rec in res.records:
        state = adaboost_step(state, ts, rec.alpha)
        assert abs(float(ts.margins[:, rec.index] @ state.weights)) <= 1e-10


def test_linesearch_terminates_on_perfect_column():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0, 0.5], [1.0, -0.5]]))
    res = md_core.run(ts.to_minmax(), StepSchedule.edge_linesearch(), 10, algorithm="adaboost")
    assert res.terminated is not None and "edge reached 1" in res.terminated
    assert res.records == []


def test_run_adaboost_sink_and_validation():
    ts = TrainingSet.from_margin_matrix(np.array([[1.0, 0.5], [1.0, -0.5]]))
    with pytest.raises(ValueError):
        md_core.run(ts.to_minmax(), StepSchedule.fixed(0.1), 0, algorithm="adaboost")
    seen = []
    md_core.run(ts.to_minmax(), StepSchedule.fixed(0.1), 4, algorithm="adaboost",
                sink=lambda rec, x: seen.append(rec))
    assert [r.k for r in seen] == [0, 1, 2, 3]


def test_large_fixed_steps_drive_weights_to_the_boundary():
    # fixed(20) underflows the first weight to exactly 0 within a few rounds;
    # the engine's prox keeps it at 0 and stays with the classical loop
    ts = TrainingSet.from_margin_matrix([[-0.5], [0.0], [0.0]])
    rb, wb = run_with_iterates(classical_adaboost, ts, StepSchedule.fixed(20.0), 300)
    rm, wm = run_with_iterates(md_core.run, ts.to_minmax(), StepSchedule.fixed(20.0), 300,
                               algorithm="adaboost")
    assert rm.terminated is None and len(rm.records) == len(wb) == len(wm) == 300
    assert rm.state.x[0] == 0.0
    for b, m_, b_x, m_x in zip(rb.records, rm.records, wb, wm):
        assert (b.index, b.alpha, b.primal, b.best_primal) == \
            (m_.index, m_.alpha, m_.primal, m_.best_primal)
        np.testing.assert_array_equal(b_x, m_x)
    assert_duals_within_rounding(ts.margins, rb.records, rm.records)
    np.testing.assert_array_equal(rb.state.weights, rm.state.x)
