"""Mirror descent engine: dual responses, single steps, schedules, full runs.

The dual response is the engine's private scan, md_core._respond, and the
gradient at its vertex md_core._column. A state checks its start point when
it is made, and md_step checks the vertex it steps toward."""

import math
import tracemalloc

import numpy as np
import pytest

from mirrorboost import md_core
from mirrorboost.md_core import MinmaxProblem, MirrorDescentState, md_step, run
from mirrorboost.schedule import StepSchedule, UndefinedStepError
from oracles import SequenceSchedule, checked_response, dual_value, run_with_iterates

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_problem_validation():
    with pytest.raises(ValueError):
        MinmaxProblem(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        MinmaxProblem(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        MinmaxProblem(PENNIES, primal_domain="cube")
    with pytest.raises(ValueError):
        MinmaxProblem(PENNIES, dual_domain="l2-ball")


def test_lipschitz_constants():
    prob = MinmaxProblem(np.array([[1.0, -3.0], [2.0, 0.5]]))
    assert prob.lipschitz() == 3.0  # largest entry magnitude under the l1 geometry
    res = MinmaxProblem(np.array([[3.0, 0.0], [4.0, 1.0]]),
                        primal_domain="residual-space", dual_domain="l1-ball")
    assert res.lipschitz() == 5.0  # largest column l2 norm


def _residual(matrix) -> MinmaxProblem:
    return MinmaxProblem(matrix, primal_domain="residual-space", dual_domain="l1-ball")


def test_the_residual_space_constant_holds_no_design_sized_temporary():
    design = np.random.default_rng(1).standard_normal((1000, 500))  # fs-path's shape
    tracemalloc.start()
    try:
        problem = _residual(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.lipschitz() == float(np.linalg.norm(design, axis=0).max())
    assert peak < design.nbytes // 4


_DRAW = np.random.default_rng(2).standard_normal(210000)
_TALL = _DRAW.reshape(70000, 3)


# shapes whose squares span several column blocks, or would leave a
# single-column last block, in layouts that numpy sums in different orders
@pytest.mark.parametrize("matrix", [
    _TALL, np.asfortranarray(_TALL), _TALL[:, :2], _TALL[:, ::-1], _TALL[::7],
    _DRAW[:140000].reshape(20000, 7), _DRAW[:180000].reshape(3, 60000), _TALL[::2, :1],
    1e200 * _DRAW[:140000].reshape(20000, 7),
], ids=["tall", "tall-fortran", "two-columns", "reversed", "strided", "seven-columns", "wide",
        "one-column", "overflowing"])
def test_the_blocked_column_norm_is_numpys_bit_for_bit(matrix):
    with np.errstate(over="ignore"):
        want = float(np.linalg.norm(matrix, axis=0).max())
    assert _residual(matrix).lipschitz().hex() == want.hex()


def test_dual_response_simplex_prefers_lowest_index_on_ties():
    prob = MinmaxProblem(PENNIES)
    index, sign, value = md_core._respond(prob, np.array([0.5, 0.5]))
    assert index == 0 and sign == 1.0 and value == 0.0
    np.testing.assert_array_equal(md_core._column(prob, index, sign), PENNIES[:, 0])


def test_dual_response_simplex_picks_best_column():
    prob = MinmaxProblem(PENNIES)
    index, _, value = md_core._respond(prob, np.array([0.9, 0.1]))
    assert index == 0
    assert value == pytest.approx(0.8, rel=1e-15)
    index, _, value = md_core._respond(prob, np.array([0.1, 0.9]))
    assert index == 1
    assert value == pytest.approx(0.8, rel=1e-15)


def test_dual_response_identity_matrix():
    prob = MinmaxProblem(np.eye(3))
    index, sign, value = md_core._respond(prob, np.array([0.0, 1.0, 0.0]))
    assert index == 1 and value == 1.0
    np.testing.assert_array_equal(md_core._column(prob, index, sign), [0.0, 1.0, 0.0])


def test_dual_response_l1_ball_uses_signed_columns():
    prob = MinmaxProblem(np.array([[1.0, 0.0], [0.0, -2.0]]),
                         primal_domain="residual-space", dual_domain="l1-ball")
    index, sign, value = md_core._respond(prob, np.array([0.5, 0.5]))
    assert index == 1 and sign == -1.0
    assert value == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_array_equal(md_core._column(prob, index, sign), [0.0, 2.0])
    # the response value is f(x) = max over the ball, never negative; at a
    # zero response the sign is 0.0, where run stops
    index, sign, value = md_core._respond(prob, np.zeros(2))
    assert (index, sign, value) == (0, 0.0, 0.0)


def test_dual_response_rejects_points_off_the_simplex():
    prob = MinmaxProblem(PENNIES)
    with pytest.raises(ValueError, match="x0 must lie on the probability simplex"):
        checked_response(prob, np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="x0 must lie on the probability simplex"):
        checked_response(prob, np.array([1.5, -0.5]))


def test_dual_value():
    prob = MinmaxProblem(PENNIES)
    assert dual_value(prob, np.array([1.0, 0.0])) == -1.0
    assert dual_value(prob, np.array([0.5, 0.5])) == 0.0
    res = MinmaxProblem(PENNIES, primal_domain="residual-space", dual_domain="l1-ball")
    assert dual_value(res, np.array([0.5, 0.5])) is None


def _state(x0=(0.5, 0.5), payoff=PENNIES, l1_ball=False) -> MirrorDescentState:
    """A state at `x0` on the simplex problem of `payoff`, or with `l1_ball`
    on its residual-space problem."""
    if l1_ball:
        return MirrorDescentState.initial(_residual(payoff), np.array(x0))
    return MirrorDescentState.initial(MinmaxProblem(payoff), np.array(x0))


def test_md_step_zero_alpha_keeps_anchor():
    state = _state()
    md_step(state, (0, 1.0), 0.0, 1.0)
    np.testing.assert_array_equal(state.x, [0.5, 0.5])
    assert state.k == 1


def test_md_step_entropy_closed_form():
    # anchor (1/2, 1/2), cost the column (ln 2, 0), unit step: proportional
    # to (1/4, 1/2)
    state = _state(payoff=np.array([[math.log(2.0), 1.0], [0.0, 1.0]]))
    assert state.geometry == "entropy"
    md_step(state, (0, 1.0), 1.0, 1.0)
    np.testing.assert_allclose(state.x, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)


def test_md_step_euclidean_is_plain_subtraction():
    # the cost is the signed column: -1 times (-0.5, 1)
    state = _state((1.0, 2.0), np.array([[1.0, -0.5], [0.0, 1.0]]), l1_ball=True)
    assert state.geometry == "euclidean"
    md_step(state, (1, -1.0), 2.0, 1.0)
    np.testing.assert_array_equal(state.x, [0.0, 4.0])
    np.testing.assert_array_equal(state.dual_weighted_sum, [0.0, -2.0])


def test_md_step_accumulates_dual_average_and_best_value():
    state = _state(payoff=np.zeros((2, 2)))
    dual_sum = state.dual_weighted_sum
    assert state.dual_average is None
    md_step(state, (0, 1.0), 0.5, 2.0)
    md_step(state, (1, 1.0), 1.5, 1.0)
    np.testing.assert_allclose(state.dual_average, [0.25, 0.75], rtol=1e-15)
    assert state.best_value == 1.0 and state.best_index == 1
    assert state.dual_weighted_sum is dual_sum  # updated in place, never copied
    # a later, worse value does not displace the best
    md_step(state, (0, 1.0), 0.1, 5.0)
    assert state.best_value == 1.0 and state.best_index == 1 and state.k == 3


def test_md_step_rejects_bad_alpha_and_vertex():
    state = _state()
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            md_step(state, (0, 1.0), bad, 1.0)
    with pytest.raises(TypeError):
        md_step(state, (0.0, 1.0), 1.0, 1.0)  # an index is an integer


def test_md_step_leaves_the_state_unchanged_when_it_raises():
    state = _state()
    md_step(state, (0, 1.0), 0.5, 1.0)
    x, x_bytes, dual_sum = state.x, state.x.tobytes(), state.dual_weighted_sum.copy()
    scalars = (state.k, state.step_sum, state.best_value, state.best_index)
    bad_calls = [
        (ValueError, ((0, 1.0), -1.0, 0.0)),  # negative step
        (ValueError, ((5, 1.0), 1.0, 0.0)),  # no such column
        (ValueError, ((1, 1.0), 1.0, "x")),
    ]
    for error, args in bad_calls:
        with pytest.raises(error):
            md_step(state, *args)
        assert state.x is x and state.x.tobytes() == x_bytes
        assert (state.k, state.step_sum, state.best_value, state.best_index) == scalars
        np.testing.assert_array_equal(state.dual_weighted_sum, dual_sum)


@pytest.mark.parametrize("anchor", [[-0.5, 1.5], [0.0, 0.0], [np.nan, 1.0], [0.5, 0.5, 0.0]])
def test_md_step_checks_a_fresh_states_anchor(anchor):
    # a state's first anchor, its start, is checked when the state is made, by
    # every way of making one; later anchors are prox results and go unchecked
    with pytest.raises(ValueError, match="x0"):
        MirrorDescentState.initial(MinmaxProblem(PENNIES), np.array(anchor))
    with pytest.raises(ValueError, match="x0"):
        MirrorDescentState(problem=MinmaxProblem(PENNIES), k=0, x=np.array(anchor),
                           dual_weighted_sum=np.zeros(2), step_sum=0.0,
                           best_value=math.inf, best_index=-1)


@pytest.mark.parametrize("x0", [[-1e-10, 1.0 + 1e-10], [-1e-8, 1.0 + 1e-8]])
def test_a_start_with_a_negative_entry_gets_the_simplex_message(x0):
    # one rule for a start on the simplex: nonnegative, summing to 1 within 1e-6
    with pytest.raises(ValueError, match="^x0 must lie on the probability simplex$"):
        MirrorDescentState.initial(MinmaxProblem(PENNIES), x0)
    # a sum off by less than 1e-6 is kept, as the uniform start's rounding is
    state = MirrorDescentState.initial(MinmaxProblem(PENNIES), [0.5, 0.5 + 1e-7])
    np.testing.assert_array_equal(state.x, [0.5, 0.5 + 1e-7])


def test_the_uniform_start_is_the_default_on_the_simplex_only():
    state = MirrorDescentState.initial(MinmaxProblem(np.ones((4, 3))))
    np.testing.assert_array_equal(state.x, np.full(4, 0.25))
    np.testing.assert_array_equal(state.dual_weighted_sum, np.zeros(3))
    assert (state.k, state.step_sum, state.best_value, state.best_index) == (0, 0.0, math.inf, -1)
    with pytest.raises(ValueError, match="x0 is required for a residual-space primal domain"):
        MirrorDescentState.initial(_residual(PENNIES))


@pytest.mark.parametrize("vertex, message", [
    ((-1, 1.0), r"vertex index -1 names no column: the payoff has 2 columns"),
    ((2, 1.0), r"vertex index 2 names no column: the payoff has 2 columns"),
    ((0, 0.5), r"vertex sign must be 1.0 under the simplex dual, got 0.5"),
    ((0, -1.0), r"vertex sign must be 1.0 under the simplex dual, got -1.0"),
], ids=["index-minus-1", "index-n", "sign-half", "sign-minus-1"])
def test_md_step_checks_the_vertex_after_several_steps(vertex, message):
    # under the l1-ball dual -1.0 is a sign, and 0.5 and a column past n are not
    cases = [(_state(), True)]
    if vertex[1] != -1.0:
        cases.append((_state(l1_ball=True), False))
    for state, simplex in cases:
        for j in range(3):
            md_step(state, (j % 2, 1.0), 0.3, 1.0 - j)
        x, x_bytes, dual_sum = state.x, state.x.tobytes(), state.dual_weighted_sum.copy()
        scalars = (state.k, state.step_sum, state.best_value, state.best_index)
        want = message if simplex else message.replace("1.0 under the simplex dual",
                                                        "1.0 or -1.0 under the l1-ball dual")
        with pytest.raises(ValueError, match=want):
            md_step(state, vertex, 0.3, -5.0)
        assert state.x is x and state.x.tobytes() == x_bytes
        assert (state.k, state.step_sum, state.best_value, state.best_index) == scalars
        np.testing.assert_array_equal(state.dual_weighted_sum, dual_sum)


def test_schedule_constant_formula_and_validation():
    s = StepSchedule.constant(2.0, math.log(4.0), 25)
    assert s.step_size(0) == math.sqrt(2.0 * math.log(4.0) / 25) / 2.0
    assert s.step_size(17) == s.step_size(0)
    for bad in ((0.0, 1.0, 5), (1.0, 0.0, 5), (1.0, 1.0, 0)):
        with pytest.raises(ValueError):
            StepSchedule.constant(*bad)


def test_schedule_dynamic_formula():
    s = StepSchedule.dynamic(2.0, math.log(4.0))
    assert s.step_size(0) == math.sqrt(2.0 * math.log(4.0)) / 2.0
    assert s.step_size(3) == math.sqrt(2.0 * math.log(4.0) / 4.0) / 2.0
    assert s.step_size(3) < s.step_size(0)


@pytest.mark.parametrize("lipschitz", [2e-311, 2e-308, 1e-154])
def test_schedules_reject_steps_with_no_finite_square(lipschitz):
    # 2e-311 makes the first step infinite; 2e-308 makes it finite, but its
    # square overflows and so would the step sums within a few rounds; 1e-154
    # leaves each constant step's square finite (about 1e307), but not their
    # sum over the 25 planned steps, which the certificates reach
    with pytest.raises(ValueError, match="no finite square"):
        StepSchedule.constant(lipschitz, math.log(4.0), 25)
    with pytest.raises(ValueError, match="no finite square"):
        StepSchedule.dynamic(lipschitz, math.log(4.0))
    # a tiny constant whose first step still squares to a finite value is kept
    StepSchedule.constant(1e-150, math.log(4.0), 25)
    StepSchedule.dynamic(1e-150, math.log(4.0))


def test_schedule_polyak_formula_and_contracts():
    s = StepSchedule.polyak(0.5)
    assert s.step_size(0, value=2.0, grad=np.array([1.0, 2.0])) == pytest.approx(0.3)
    assert s.step_size(0, value=0.1, grad=np.array([1.0, 0.0])) == 0.0  # below f*
    assert s.step_size(0, value=2.0, grad=np.zeros(2)) == 0.0
    with pytest.raises(ValueError):
        StepSchedule.polyak(None)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite f_star"):
            StepSchedule.polyak(bad)
    with pytest.raises(ValueError):
        s.step_size(0)


def test_schedule_fixed_and_sequence():
    assert StepSchedule.fixed(0.25).step_size(99) == 0.25
    with pytest.raises(ValueError):
        StepSchedule.fixed(-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            StepSchedule.fixed(bad)
    # the tests' schedule of given steps
    seq = SequenceSchedule((0.1, 0.2))
    assert seq.step_size(1) == 0.2
    with pytest.raises(ValueError):
        seq.step_size(2)
    with pytest.raises(ValueError):
        SequenceSchedule((0.1, -0.2))


def test_schedule_edge_linesearch():
    s = StepSchedule.edge_linesearch()
    assert s.step_size(0, value=0.5) == pytest.approx(0.5 * math.log(3.0), rel=1e-15)
    # the cap keeps near-perfect edges finite
    capped = s.step_size(0, value=1.0 - 1e-16)
    r = 1.0 - 1e-12
    assert capped == 0.5 * math.log((1.0 + r) / (1.0 - r))
    with pytest.raises(UndefinedStepError):
        s.step_size(0, value=1.0)
    with pytest.raises(UndefinedStepError):
        s.step_size(0, value=-0.05)
    with pytest.raises(ValueError):
        s.step_size(0)


def test_run_matching_pennies_closes_the_gap():
    prob = MinmaxProblem(PENNIES)
    sched = StepSchedule.constant(1.0, math.log(2.0), 100)
    res = run(prob, sched, 100)
    assert len(res.records) == 100 and res.terminated is None
    last = res.records[-1]
    assert last.best_primal - last.dual <= math.sqrt(2.0 * math.log(2.0) / 100) + 1e-9
    # weak duality on every record that has a dual value
    for rec in res.records:
        assert rec.dual <= rec.best_primal + 1e-12
    # the sink gets each pre-step iterate; the first is the uniform start
    iterates = []
    run(prob, sched, 100, sink=lambda rec, x: iterates.append(x))
    assert len(iterates) == 100
    np.testing.assert_array_equal(iterates[0], [0.5, 0.5])


def test_run_random_game_respects_gap_bound():
    rng = np.random.default_rng(5)
    payoff = rng.uniform(-1.0, 1.0, size=(6, 9))
    prob = MinmaxProblem(payoff)
    lipschitz = prob.lipschitz()
    diameter = math.log(6.0)
    sched = StepSchedule.constant(lipschitz, diameter, 400)
    res = run(prob, sched, 400)
    last = res.records[-1]
    gap = last.best_primal - last.dual
    assert 0.0 <= gap + 1e-12
    assert gap <= lipschitz * math.sqrt(2.0 * diameter / 400) + 1e-9


def test_run_is_deterministic_bitwise():
    rng = np.random.default_rng(17)
    payoff = rng.uniform(-1.0, 1.0, size=(8, 5))
    prob = MinmaxProblem(payoff)
    sched = StepSchedule.dynamic(prob.lipschitz(), math.log(8.0))
    a, xa = run_with_iterates(run, prob, sched, 50)
    b, xb = run_with_iterates(run, prob, sched, 50)
    assert len(xa) == len(xb) == len(a.records) == 50
    for ra, rb, x_a, x_b in zip(a.records, b.records, xa, xb):
        assert ra.to_dict() == rb.to_dict()
        assert x_a.tobytes() == x_b.tobytes()


def test_run_matches_manual_multiplicative_replay():
    # replay the engine with the textbook multiplicative-weights update
    rng = np.random.default_rng(23)
    payoff = rng.uniform(-1.0, 1.0, size=(7, 4))
    prob = MinmaxProblem(payoff)
    sched = StepSchedule.dynamic(prob.lipschitz(), math.log(7.0))
    res, iterates = run_with_iterates(run, prob, sched, 60)
    assert len(iterates) == len(res.records) == 60
    x = np.full(7, 1.0 / 7.0)
    for k, (rec, pre) in enumerate(zip(res.records, iterates)):
        np.testing.assert_array_equal(pre, x)
        scores = payoff.T @ x
        j = int(np.argmax(scores))
        assert rec.index == j
        alpha = sched.step_size(k)
        assert rec.alpha == alpha
        u = x * np.exp(-alpha * payoff[:, j])
        x = u / float(np.sum(u))


def test_run_dual_absent_until_first_nonzero_step():
    prob = MinmaxProblem(PENNIES)
    sched = SequenceSchedule((0.0, 0.1, 0.1))
    res = run(prob, sched, 3)
    assert res.records[0].dual is None
    assert res.records[1].dual is not None


def test_run_calls_sink_per_record():
    seen = []
    prob = MinmaxProblem(PENNIES)
    res = run(prob, StepSchedule.fixed(0.1), 5,
              sink=lambda rec, x: seen.append(rec))
    assert [rec.k for rec in seen] == list(range(5))
    assert seen == res.records


def test_run_steps_through_md_step_once_per_round(monkeypatch):
    # the loop calls md_step by its module name, so a wrapper set on the
    # module sees every round
    steps = []
    real_step = md_core.md_step
    monkeypatch.setattr(md_core, "md_step",
                        lambda state, *args, **kwargs: steps.append(state.k)
                        or real_step(state, *args, **kwargs))
    res = run(MinmaxProblem(PENNIES), StepSchedule.fixed(0.1), 7)
    assert steps == list(range(7)) and res.state.k == 7


def test_run_checks_x0_once_at_entry():
    prob = MinmaxProblem(PENNIES)
    for bad in ([0.7, 0.7], [1.5, -0.5], [np.nan, 1.0], [0.5, 0.5, 0.0]):
        with pytest.raises(ValueError, match="x0"):
            run(prob, StepSchedule.fixed(0.1), 3, x0=bad)
    res_prob = MinmaxProblem(PENNIES, primal_domain="residual-space", dual_domain="l1-ball")
    with pytest.raises(ValueError, match="x0 must be finite"):
        run(res_prob, StepSchedule.fixed(0.1), 3, x0=[np.inf, 0.0])


def test_run_argument_validation():
    prob = MinmaxProblem(PENNIES)
    with pytest.raises(ValueError):
        run(prob, StepSchedule.fixed(0.1), 0)
    res_prob = MinmaxProblem(PENNIES, primal_domain="residual-space",
                             dual_domain="l1-ball")
    with pytest.raises(ValueError):
        run(res_prob, StepSchedule.fixed(0.1), 5)  # x0 required
