"""Property tests: on random small instances the engine, md_core.run, on a
TrainingSet's and on a RegressionProblem's problem reproduces the classical
loops of tests/oracles.py bit for bit, except AdaBoost's dual value, which
the engine keeps in running margins and the oracle recomputes densely; the
two agree within oracles.dual_rounding_bound.

A run's records survive the round trip through its trace bit for bit, and
`check` rebuilds the same report.json bytes from the written trace. On random
instances of every task and schedule the command line offers, prepared as
`run` prepares them, no certificate of the paper fails. And the engine loop,
which checks its iterate only when its state is made and keeps the support
size as a running count, equals bit for bit a replay that checks the
iterate every round, with oracles.checked_response, and steps through the
closed-form prox._step of the geometry the test names, with a dense
support size. (Those two tests keep the name of prox_solve, the checked
function that once wrapped prox._step.)

The instances cover ties (entries drawn from a coarse grid), duplicate
columns, zero margin columns, a single example or sample, and large fixed
steps that drive example weights to exactly zero.

Every Lipschitz constant comes from the problem, which computes it once, when
it is made; on matrices with ties, signed zeros, subnormals and entries of
+-1 it equals the direct formula of its domain bit for bit, through the
problem and through both views.
"""

import csv
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import certificate_header, certified
from mirrorboost import bounds, cli, md_core, prox
from mirrorboost.boosting import TrainingSet
from mirrorboost.md_core import MinmaxProblem
from mirrorboost.schedule import StepSchedule, UndefinedStepError
from mirrorboost.stagewise import RegressionProblem, least_squares_norm
from mirrorboost.trace import TraceHeader, format_trace, read_trace
from oracles import (
    SequenceSchedule,
    assert_duals_within_rounding,
    checked_response,
    classical_adaboost,
    classical_fs,
    report_json,
    run_with_iterates,
    support_size,
)

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


def _run_both(oracle_runner, instance, schedule, **engine_kwargs):
    """The classical loop's run of `instance` and the engine's run of its
    problem, after checking that they agree record by record."""
    problem = instance.to_minmax()
    oracle, oracle_iterates = run_with_iterates(oracle_runner, instance, schedule, ITERATIONS)
    engine, engine_iterates = run_with_iterates(md_core.run, problem, schedule, ITERATIONS,
                                                **engine_kwargs)
    assert engine.terminated == oracle.terminated
    assert len(engine.records) == len(oracle.records) == len(engine_iterates) \
        == len(oracle_iterates)
    for a, b, a_x, b_x in zip(oracle.records, engine.records, oracle_iterates, engine_iterates):
        for name in FIELDS:
            assert getattr(a, name) == getattr(b, name), (a.k, name)
        np.testing.assert_array_equal(a_x, b_x)
    assert_duals_within_rounding(problem.payoff, oracle.records, engine.records)
    return oracle, engine


@settings(max_examples=300, deadline=None)
@given(boost_cases())
def test_run_adaboost_matches_the_classical_loop(case):
    ts, schedule = case
    oracle, engine = _run_both(classical_adaboost, ts, schedule, algorithm="adaboost")
    np.testing.assert_array_equal(engine.state.x, oracle.state.weights)
    np.testing.assert_array_equal(engine.state.dual_weighted_sum, oracle.state.coefficients)


@settings(max_examples=300, deadline=None)
@given(fs_cases())
def test_run_fs_matches_the_classical_loop(case):
    rp, schedule = case
    oracle, engine = _run_both(classical_fs, rp, schedule, x0=rp.response.copy(),
                               algorithm="stagewise")
    np.testing.assert_array_equal(engine.state.x, oracle.state.residual)
    np.testing.assert_array_equal(engine.state.dual_weighted_sum, oracle.state.coefficients)


def _fields(line) -> list:
    """A trace line's fields with their types and reprs, so that -0.0 differs
    from 0.0 and 1 from 1.0."""
    return [(key, type(value), repr(value)) for key, value in vars(line).items()]


def _assert_check_rebuilds_the_report(result, header: TraceHeader) -> None:
    """Write the run's trace as `run` does and read it back: the header, the
    records and the terminal reason come back bit for bit. Checking it again
    gives the same report.json bytes, which must be json.dump's; a report
    with a value that is not finite is refused by both checks, with the
    message `run` exits 2 with."""
    assume(result.records)  # `run` refuses a run that stopped before its first round
    certs, _ = certified(result.records, header)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace.jsonl"
        path.write_text(format_trace(header, result.records, result.terminated),
                        encoding="utf-8")
        back = read_trace(path)
    assert _fields(back[0]) == _fields(header)
    assert [_fields(r) for r in back[1]] == [_fields(r) for r in result.records]
    assert back[2] == result.terminated
    # as `check` certifies it: with the record count of a whole trace
    again, _ = certified(back[1], back[0], cli._whole_count(back[0], back[2]))
    written = []
    for records in (certs, again):
        fh = io.StringIO()
        with bounds.ReportWriter() as writer:
            writer.add(records)
            non_finite = writer.tally.non_finite
            if non_finite is None:
                writer.write(fh)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(non_finite)}$"):
                    writer.write(fh)
        written.append((non_finite, fh.getvalue()))
    assert written[1] == written[0]
    if written[0][0] is None:
        assert written[0][1] == report_json(certs)


# a subnormal step sum: the running bounds overflow, and are not evaluable
@settings(max_examples=100, deadline=None)
@given(boost_cases())
@example((TrainingSet.from_margin_matrix(np.array([[-1.0, 1.0], [-1.0, 1.0]])),
          StepSchedule.fixed(2.225073858507e-311)))
def test_check_rebuilds_an_adaboost_report_from_its_trace(case):
    ts, schedule = case
    # run writes no fixed-step adaboost header, and a fixed step's records get
    # the same certificates as a line search's: those of every step sequence,
    # and a failed trace-integrity record where a step is not the line search's
    kind = schedule.kind if schedule.kind in ("constant", "dynamic") else "linesearch"
    header = certificate_header("adaboost", kind, m=ts.num_examples, n=ts.num_classifiers,
                                lipschitz=ts.lipschitz, iterations=ITERATIONS)
    _assert_check_rebuilds_the_report(
        md_core.run(ts.to_minmax(), schedule, ITERATIONS, algorithm="adaboost"), header)


@settings(max_examples=100, deadline=None)
@given(fs_cases())
@example((RegressionProblem(design=np.array([[-1.0]]), response=np.array([-1.0])),
          StepSchedule.fixed(5e-324)))
# a column whose norm's square underflows: the opt-running bound is not finite
@example((RegressionProblem(design=np.array([[2.01929633e-162]]), response=np.array([-1.0])),
          StepSchedule.polyak(0.0)))
def test_check_rebuilds_a_stagewise_report_from_its_trace(case):
    rp, schedule = case
    dist0 = least_squares_norm(rp)
    fixed = schedule.kind == "fixed"
    header = certificate_header("stagewise", "constant" if fixed else "linesearch",
                                m=rp.num_samples, n=rp.num_columns, lipschitz=rp.design_norm,
                                iterations=ITERATIONS, f_star=0.0, dist0=dist0,
                                eps=schedule.alpha if fixed else None)
    _assert_check_rebuilds_the_report(
        md_core.run(rp.to_minmax(), schedule, ITERATIONS, x0=rp.response.copy(),
                    algorithm="stagewise"), header)


# every task and schedule `run` accepts, but minmax-game's polyak schedule,
# which needs the game's optimal value f*, and a random game comes without it
TASK_SCHEDULES = [(task, schedule) for task, schedules in cli._TASK_SCHEDULES.items()
                  for schedule in schedules if (task, schedule) != ("minmax-game", "polyak")]


@st.composite
def certified_runs(draw, pairs=TASK_SCHEDULES):
    """A config of one of the (task, schedule) `pairs` and an instance of at
    most 6 x 6 entries from [-1, 1], some on a coarse grid, so that scores
    tie."""
    task, schedule = draw(st.sampled_from(pairs))
    matrix = draw(arrays(float, (draw(st.integers(1, 6)), draw(st.integers(1, 6))),
                         elements=entries))
    config = cli.ExperimentConfig(task=task, data="", schedule=schedule,
                                  iterations=draw(st.integers(1, 60)))
    if task != "fs":
        return config, TrainingSet.from_margin_matrix(matrix)
    assume(np.all(np.linalg.norm(matrix, axis=0) > 0.0))
    response = draw(arrays(float, matrix.shape[0], elements=entries))
    config.use_response_bound = draw(st.booleans())
    if schedule == "constant":
        config.epsilon = draw(st.one_of(st.sampled_from((0.01, 0.5, 2.0)),
                                        st.floats(1e-3, 2.0)))
    return config, RegressionProblem(design=matrix, response=response)


# sparsity-l1 at k=7 exceeds the float 7 * eps by one rounding unit of its sum
@settings(max_examples=400, deadline=None)
@given(certified_runs())
@example((cli.ExperimentConfig(task="fs", data="", schedule="optimal", iterations=12),
          RegressionProblem(design=np.array([[0.0, 1e-12], [1e-12, 1e-12]]),
                            response=np.array([-1.0, -0.5]))))
def test_no_certificate_fails_on_a_random_instance(case):
    config, instance = case
    try:  # `run` refuses these set-ups with exit 2: a zero Lipschitz constant or diameter
        problem, header, schedule, x0 = cli._prepare_run(config, instance)
    except ValueError:
        reject()
    result = md_core.run(problem, schedule, config.iterations, x0=x0,
                         algorithm=header.algorithm)
    assume(result.records)  # `run` refuses a run that stopped before its first round
    assert certified(result.records, header)[1].failures == []


# every task and schedule `run` accepts
ALL_TASK_SCHEDULES = [(task, schedule) for task, schedules in cli._TASK_SCHEDULES.items()
                      for schedule in schedules]
OUTPUTS = ("trace.jsonl", "report.json", "report.txt", "plot.csv")


def _collected_plot(records, certs) -> str:
    """plot.csv as it was made from a whole report: each record's row shows
    the observed value and the bound of the last gap-running or opt-running
    certificate with its k."""
    running = {}
    for rec in certs:
        if rec.tag in (bounds.GAP_RUNNING, bounds.OPT_RUNNING):
            running[rec.k] = (rec.observed, rec.bound)
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["k", "objective", "best_objective", "dual", "gap", "bound"])
    for rec in records:
        observed, bound = running.get(rec.k, (None, None))
        writer.writerow([rec.k, repr(rec.primal), repr(rec.best_primal),
                         "" if rec.dual is None else repr(rec.dual),
                         "" if observed is None else repr(observed),
                         "" if bound is None else repr(bound)])
    return fh.getvalue()


def _collected_outputs(config, instance, results) -> dict[str, str] | None:
    """The four outputs of the run in `results`, made by the writers of
    whole texts from the collected certificates: format_trace, json.dump's
    report.json (oracles.report_json), the report text of their tally and
    _collected_plot; None where `run` refuses the run."""
    if not results or not results[0].records:
        return None
    result = results[0]
    _, header, _, _ = cli._prepare_run(config, instance)
    certs, tally = certified(result.records, header)
    try:
        trace = format_trace(header, result.records, result.terminated)
        report = report_json(certs)
    except ValueError:
        return None
    return {"trace.jsonl": trace, "report.json": report,
            "report.txt": cli._render_report_text(header, tally.summary(), tally.by_tag,
                                                  tally.failures),
            "plot.csv": _collected_plot(result.records, certs)}


@settings(max_examples=150, deadline=None)
@given(certified_runs(ALL_TASK_SCHEDULES), st.sampled_from((None, -1.0, 0.0, 0.5)))
def test_run_and_check_stream_the_bytes_of_the_collected_writers(case, f_star):
    config, instance = case
    if (config.task, config.schedule) == ("minmax-game", "polyak") and f_star is None:
        f_star = 0.0  # the polyak schedule needs f*
    if config.task != "fs":  # fs's f* is 0.0, and run refuses --f-star for it
        config.f_star = f_star
    results = []
    engine = md_core.run

    def recorded(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_build_instance", lambda _: instance), \
            mock.patch.object(md_core, "run", recorded):
        tmp = Path(tmp)
        config.out_dir, config.prefix = str(tmp / "run"), "r"
        (tmp / "config.json").write_text(json.dumps(config.to_dict()))
        code = cli.main(["run", "--config", str(tmp / "config.json")])
        expected = _collected_outputs(config, instance, results)
        if expected is None:
            assert code == cli.EXIT_USAGE
            assert not (tmp / "run").exists()
            return
        written = {name: (tmp / "run" / f"r.{name}").read_bytes().decode() for name in OUTPUTS}
        assert written == expected
        failed = "\n  FAILED " in expected["report.txt"]
        assert code == (cli.EXIT_CERTIFICATE if failed else cli.EXIT_OK)
        assert cli.main(["check", str(tmp / "run" / "r.trace.jsonl"),
                         "--out", str(tmp / "check")]) == code
        for name in ("report.json", "report.txt"):
            assert (tmp / "check" / f"r.{name}").read_bytes() == \
                (tmp / "run" / f"r.{name}").read_bytes()


def _replay(problem: MinmaxProblem, schedule: StepSchedule, geometry: str, iterations: int,
            x0):
    """The engine's loop, with the iterate checked every round by
    checked_response, and the gradient, the signed column sign * A[:, index],
    formed here: the column itself under the simplex dual, a new vector under
    the l1-ball dual. Each step is prox._step of `geometry`. Returns per round
    the pre-step iterate, the (index, sign, value, alpha) and the support size
    of the pre-step dual sum, and the final iterate."""
    x, dual_sum, rounds = x0, np.zeros(problem.n), []
    for k in range(iterations):
        index, sign, value = checked_response(problem, x)
        if sign == 0.0:
            break
        column = problem.payoff[:, index]
        grad = column if problem.dual_domain == md_core.DUAL_SIMPLEX else sign * column
        try:
            alpha = schedule.step_size(k, value=value, grad=grad)
        except UndefinedStepError:
            break
        rounds.append((x, (index, sign, value, alpha), support_size(dual_sum)))
        x = prox._step(geometry, grad, x, alpha)
        dual_sum[index] += alpha * sign
    return rounds, x


def _assert_run_equals_replay(problem, schedule, geometry, x0=None) -> None:
    """run's records, pre-step iterates and final iterate equal the replay's
    through `geometry` bit for bit, and under the l1-ball dual each record's
    l0 is the support size of the replayed pre-step dual sum. run's state
    reads its geometry from the primal domain, so this checks that it reads
    `geometry`."""
    result, iterates = run_with_iterates(md_core.run, problem, schedule, ITERATIONS, x0)
    start = np.full(problem.m, 1.0 / problem.m) if x0 is None else np.asarray(x0, dtype=float)
    rounds, final = _replay(problem, schedule, geometry, ITERATIONS, start)
    assert len(result.records) == len(iterates) == len(rounds)
    for rec, x, (pre, step, support) in zip(result.records, iterates, rounds):
        assert x.tobytes() == pre.tobytes(), rec.k
        assert (rec.index, rec.sign, rec.primal, rec.alpha) == step, rec.k
        if problem.dual_domain == md_core.DUAL_L1_BALL:
            assert rec.l0 == support, rec.k
    assert result.state.x.tobytes() == final.tobytes()
    assert result.state.geometry == geometry


@settings(max_examples=200, deadline=None)
@given(boost_cases())
def test_run_equals_a_replay_through_prox_solve_on_games(case):
    ts, schedule = case
    _assert_run_equals_replay(ts.to_minmax(), schedule, prox.ENTROPY)


# steps of 1e-15 leave coefficients below NNZ_TOLERANCE, and grid entries and
# repeated steps cancel some coefficients to zero, so the support also shrinks
fs_steps = st.one_of(st.sampled_from((1e-15, 0.5, 1.0)), st.floats(1e-16, 2.0))


@settings(max_examples=200, deadline=None)
@given(matrices(zero_columns=True), st.data())
def test_run_equals_a_replay_through_prox_solve_on_fs(design, data):
    response = data.draw(arrays(float, design.shape[0], elements=entries))
    schedule = data.draw(st.one_of(
        st.builds(StepSchedule.fixed, fs_steps),
        st.builds(SequenceSchedule, st.lists(fs_steps, min_size=ITERATIONS,
                                             max_size=ITERATIONS).map(tuple))))
    problem = MinmaxProblem(design, primal_domain=md_core.PRIMAL_RESIDUAL,
                            dual_domain=md_core.DUAL_L1_BALL)
    _assert_run_equals_replay(problem, schedule, prox.EUCLIDEAN, x0=response)


# ties, signed zeros, subnormals, the smallest normal and the ends of [-1, 1]
lipschitz_entries = st.one_of(
    st.sampled_from((-1.0, 1.0, 0.5, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     2.2250738585072014e-308)),
    st.floats(-1.0, 1.0, allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=lipschitz_entries))
@example(np.array([[-0.0, -0.0], [-0.0, -0.0]]))
@example(np.array([[5e-324, -0.0], [-5e-324, 1.0]]))
def test_each_lipschitz_constant_is_its_domains_formula_bit_for_bit(matrix):
    largest_entry = float(max(matrix.max(), -matrix.min()))
    largest_column = float(np.linalg.norm(matrix, axis=0).max())
    simplex = MinmaxProblem(matrix)
    residual = MinmaxProblem(matrix, primal_domain="residual-space", dual_domain="l1-ball")
    assert simplex.lipschitz().hex() == largest_entry.hex()
    assert residual.lipschitz().hex() == largest_column.hex()
    assert TrainingSet(margins=matrix).lipschitz.hex() == largest_entry.hex()
    if np.all(np.any(matrix != 0.0, axis=0)):  # a design has no zero column
        rp = RegressionProblem(design=matrix, response=np.zeros(matrix.shape[0]))
        assert rp.design_norm.hex() == largest_column.hex()
