"""Property tests: on random small instances the engine views run_adaboost and
run_fs reproduce the classical loops of tests/oracles.py bit for bit, except
AdaBoost's dual value, which the engine keeps in running margins and the
oracle recomputes densely; the two agree within oracles.dual_rounding_bound.

The instances cover ties (entries drawn from a coarse grid), duplicate
columns, zero margin columns, a single example or sample, and large fixed
steps that drive example weights to exactly zero.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mirrorboost.boosting import TrainingSet, run_adaboost
from mirrorboost.md_core import StepSchedule
from mirrorboost.stagewise import RegressionProblem, run_fs
from oracles import assert_duals_within_rounding, classical_adaboost, classical_fs

ITERATIONS = 40
# exp(-alpha * margin) stays within double range for steps up to here, where
# the engine's prox shifts no exponent and the classical update overflows none
MAX_STEP = 60.0

GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
entries = st.one_of(st.sampled_from(GRID), st.floats(-1.0, 1.0, allow_nan=False))
steps = st.one_of(st.sampled_from((0.0, 1.0, 20.0, MAX_STEP)),
                  st.floats(0.0, MAX_STEP, allow_nan=False))


@st.composite
def matrices(draw, *, zero_columns: bool) -> np.ndarray:
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    matrix = draw(arrays(float, (rows, cols), elements=entries))
    if draw(st.booleans()):
        matrix = np.hstack([matrix, matrix[:, [draw(st.integers(0, cols - 1))]]])
    if zero_columns and draw(st.booleans()):
        matrix = np.hstack([matrix, np.zeros((rows, 1))])
    return matrix


@st.composite
def boost_cases(draw):
    ts = TrainingSet.from_margin_matrix(draw(matrices(zero_columns=True)))
    kinds = ["fixed", "linesearch"] + (["constant", "dynamic"] if ts.lipschitz > 0.0 else [])
    kind = draw(st.sampled_from(kinds))
    diameter = math.log(ts.num_examples) if ts.num_examples > 1 else 1.0
    if kind in ("constant", "dynamic"):
        if kind == "constant":
            make = functools.partial(StepSchedule.constant, num_steps=ITERATIONS)
            first, planned = math.sqrt(2.0 * diameter / ITERATIONS) / ts.lipschitz, ITERATIONS
        else:
            make = StepSchedule.dynamic
            first, planned = math.sqrt(2.0 * diameter) / ts.lipschitz, 1
        # the schedules keep twice the squared steps summed over the planned
        # steps (the first step alone for dynamic) finite
        if math.isfinite(2.0 * planned * first * first):
            return ts, make(ts.lipschitz, diameter)
        # a near-subnormal Lipschitz constant: the schedule must refuse the
        # steps, and the instance runs with fixed steps
        with pytest.raises(ValueError, match="no finite square"):
            make(ts.lipschitz, diameter)
        kind = "fixed"
    if kind == "fixed":
        return ts, StepSchedule.fixed(draw(steps))
    return ts, StepSchedule.edge_linesearch()


@st.composite
def fs_cases(draw):
    design = draw(matrices(zero_columns=False).filter(
        lambda d: bool(np.all(np.linalg.norm(d, axis=0) > 0.0))))
    response = draw(arrays(float, design.shape[0],
                           elements=st.one_of(st.sampled_from(GRID),
                                              st.floats(-10.0, 10.0, allow_nan=False))))
    rp = RegressionProblem(design=design, response=response)
    if draw(st.booleans()):
        schedule = StepSchedule.fixed(draw(steps))
    else:
        schedule = StepSchedule.polyak(0.0)
    return rp, schedule


FIELDS = ("k", "algorithm", "index", "sign", "alpha", "primal", "best_primal", "l1", "l0")


def _run_both(oracle_runner, engine_runner, instance, payoff, schedule):
    """Both runs, after checking that they agree record by record."""
    oracle = oracle_runner(instance, schedule, ITERATIONS)
    engine = engine_runner(instance, schedule, ITERATIONS)
    assert engine.terminated == oracle.terminated
    assert len(engine.records) == len(oracle.records)
    for a, b in zip(oracle.records, engine.records):
        for name in FIELDS:
            assert getattr(a, name) == getattr(b, name), (a.k, name)
        np.testing.assert_array_equal(a.x, b.x)
    assert_duals_within_rounding(payoff, oracle.records, engine.records)
    return oracle, engine


@settings(max_examples=300, deadline=None)
@given(boost_cases())
def test_run_adaboost_matches_the_classical_loop(case):
    ts, schedule = case
    oracle, engine = _run_both(classical_adaboost, run_adaboost, ts, ts.margins, schedule)
    np.testing.assert_array_equal(engine.state.x, oracle.state.weights)
    np.testing.assert_array_equal(engine.state.dual_weighted_sum, oracle.state.coefficients)


@settings(max_examples=300, deadline=None)
@given(fs_cases())
def test_run_fs_matches_the_classical_loop(case):
    rp, schedule = case
    oracle, engine = _run_both(classical_fs, run_fs, rp, rp.design, schedule)
    np.testing.assert_array_equal(engine.state.x, oracle.state.residual)
    np.testing.assert_array_equal(engine.state.dual_weighted_sum, oracle.state.coefficients)
