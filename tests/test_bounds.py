"""Certificate bounds: closed forms, the step-sum bound, and the checker's
applicability rules."""

import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import certificate_header
from mirrorboost import bounds, cli, md_core
from mirrorboost.bounds import (
    CertificateRecord,
    CertificateReport,
    check,
    constant_bound,
    dynamic_bound,
    polyak_bound,
)
from mirrorboost.trace import IterationRecord
from oracles import md_gap_bound


def _rec(k, alpha, primal, best, dual=None, grad_norm=None, l1=None, l0=None,
         algorithm="mirror-descent", index=0, sign=1.0):
    return IterationRecord(k=k, algorithm=algorithm, index=index, sign=sign,
                           alpha=alpha, primal=primal, best_primal=best,
                           dual=dual, grad_norm=grad_norm, l1=l1, l0=l0)


def test_md_gap_bound_single_step():
    d, lip, a = math.log(2.0), 2.0, 0.3
    assert md_gap_bound(d, lip, [a]) == (d + 0.5 * lip * lip * a * a) / a


def test_md_gap_bound_matches_manual_sums():
    steps = [0.5, 0.25, 0.1, 0.7]
    d, lip = 1.3, 0.8
    sa = sum(steps)
    sa2 = sum(a * a for a in steps)
    assert md_gap_bound(d, lip, steps) == pytest.approx(
        (d + 0.5 * lip * lip * sa2) / sa, rel=1e-15)


def test_md_gap_bound_rejects_zero_step_mass():
    with pytest.raises(ValueError):
        md_gap_bound(1.0, 1.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        md_gap_bound(1.0, 1.0, [])


def test_constant_bound_formula():
    assert constant_bound(math.log(2.0), 1.0, 8) == math.sqrt(2.0 * math.log(2.0) / 8)
    with pytest.raises(ValueError):
        constant_bound(1.0, 1.0, 0)


def test_constant_bound_equals_step_sum_bound_at_tuned_step():
    # N equal steps sqrt(2D/N)/L collapse the step-sum bound to L sqrt(2D/N)
    for n in (1, 4, 30, 100):
        d, lip = math.log(10.0), 1.7
        alpha = math.sqrt(2.0 * d / n) / lip
        assert md_gap_bound(d, lip, [alpha] * n) == pytest.approx(
            constant_bound(d, lip, n), rel=1e-12)


def test_dynamic_bound_value_at_zero():
    d, lip = math.log(4.0), 2.0
    expect = lip * math.sqrt(0.5 * d) * 2.0 / (2.0 * (math.sqrt(2.0) - 1.0))
    assert dynamic_bound(d, lip, 0) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError):
        dynamic_bound(d, lip, -1)


def test_dynamic_bound_dominates_the_step_sum_bound():
    # the closed form must be an upper bound on the running bound it summarizes
    d, lip = math.log(10.0), 1.0
    alphas = []
    for k in range(1001):
        alphas.append(math.sqrt(2.0 * d / (k + 1.0)) / lip)
        assert md_gap_bound(d, lip, alphas) <= dynamic_bound(d, lip, k) + 1e-12


def test_dynamic_bound_eventually_decreases():
    d, lip = math.log(10.0), 1.0
    values = [dynamic_bound(d, lip, k) for k in range(20, 300)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_polyak_bound_formula_and_scaling():
    assert polyak_bound(2.0, 3.0, 0) == 6.0
    assert polyak_bound(2.0, 3.0, 3) == 3.0
    # four times the iterations halves the bound
    for k in (0, 5, 48):
        assert polyak_bound(1.5, 2.0, 4 * (k + 1) - 1) == pytest.approx(
            0.5 * polyak_bound(1.5, 2.0, k), rel=1e-15)
    with pytest.raises(ValueError):
        polyak_bound(1.0, 1.0, -1)


def test_step_sum_bound_two_term_form_for_fixed_shrinkage():
    # (B^2/2 + |X|^2 (k+1) eps^2 / 2) / ((k+1) eps) splits into the familiar
    # B^2 / (2 (k+1) eps) + eps |X|^2 / 2
    b, xnorm, eps = 3.7, 2.2, 0.05
    for k in (0, 3, 99):
        got = md_gap_bound(0.5 * b * b, xnorm, [eps] * (k + 1))
        expect = b * b / (2.0 * (k + 1) * eps) + eps * xnorm * xnorm / 2.0
        assert got == pytest.approx(expect, rel=1e-12)


# A kind that run writes and that adds no closed form of its own: a
# mirror-descent polyak header without f*, and an adaboost line search.
def test_check_rejects_empty_trace():
    header = certificate_header("mirror-descent", "polyak", m=2)
    with pytest.raises(ValueError):
        check([], header)


def test_check_weak_duality_and_gap_running():
    header = certificate_header("mirror-descent", "polyak", m=2, lipschitz=1.0)
    recs = [_rec(0, 0.5, 1.0, 1.0, dual=0.2), _rec(1, 0.5, 0.8, 0.8, dual=0.5)]
    report = check(recs, header)
    by_tag = report.by_tag()
    assert by_tag["weak-duality"]["passed"] == 2
    assert by_tag["gap-running"]["passed"] == 2
    # the k=1 gap record compares against the two-step bound
    gap1 = [r for r in report.records if r.tag == "gap-running" and r.k == 1][0]
    assert gap1.observed == pytest.approx(0.3, rel=1e-12)
    assert gap1.bound == pytest.approx(md_gap_bound(header.diameter, 1.0, [0.5, 0.5]),
                                       rel=1e-15)
    assert report.all_passed and report.summary()["failed"] == 0


def test_check_flags_violations():
    header = certificate_header("mirror-descent", "polyak", m=2, lipschitz=1.0)
    recs = [_rec(0, 0.5, 1.0, 1.0, dual=1.5)]  # dual above the primal: impossible run
    report = check(recs, header)
    failures = report.failures()
    assert len(failures) == 1 and failures[0].tag == "weak-duality"
    assert not report.all_passed
    assert report.summary()["failed"] == 1


def test_check_fails_inconsistent_traces_once():
    plain = certificate_header("mirror-descent", "polyak", m=2, lipschitz=1.0)
    dynamic, polyak = (
        certificate_header("mirror-descent", kind, m=2, lipschitz=1.0, f_star=0.0, dist0=1.0)
        for kind in ("dynamic", "polyak"))
    edge = certificate_header("adaboost", "linesearch", m=2)
    first, second, third = (_rec(0, 0.5, 1.0, 1.0, dual=0.2), _rec(1, 0.5, 0.8, 0.8, dual=0.5),
                            _rec(2, 0.5, 0.9, 0.8, dual=0.5))
    report = check([first, second, third], plain)
    assert all(r.tag != bounds.TRACE_INTEGRITY for r in report.records)
    cases = [
        (plain, [first, third, second], "record 1 has k=2"),  # reordered
        (plain, [first, first, second], "record 1 has k=0"),  # repeated
        (plain, [first, third], "record 1 has k=2"),  # a gap
        (plain, [first, _rec(1, 0.5, 0.8, 1.0, dual=0.5)], "not the running minimum"),
        (plain, [first, _rec(1, 0.5, 1.2, 1.2, dual=0.5)], "not the running minimum"),
        (plain, [first, _rec(1, -0.5, 0.8, 0.8, dual=0.5)], "alpha -0.5 is not finite"),
        (plain, [first, _rec(1, math.inf, 0.8, 0.8, dual=0.5)], "alpha inf is not finite"),
        (plain, [_rec(0, math.nan, 1.0, 1.0, dual=0.2)], "alpha nan is not finite"),
        # the per-record closed forms are undefined at a negative k and skip it
        (dynamic, [_rec(-1, 0.5, 1.0, 1.0, dual=0.2)], "record 0 has k=-1"),
        (polyak, [_rec(-1, 0.5, 1.0, 1.0, dual=0.2)], "record 0 has k=-1"),
        # a step other than the header's rule gives at k; a polyak step cannot be checked
        (dynamic, [_rec(0, _dynamic_step(dynamic.diameter, 1.0, 0), 1.0, 1.0, dual=0.2),
                   _rec(1, 0.5, 0.8, 0.8, dual=0.5)],
         f"step size alpha 0.5 is not the dynamic step "
         f"{_dynamic_step(dynamic.diameter, 1.0, 1)!r}"),
        # bit for bit: an edge of 0.0 steps by 0.0, not -0.0
        (edge, [_rec(0, -0.0, 0.0, 0.0, dual=None, algorithm="adaboost")],
         "step size alpha -0.0 is not the edge-linesearch step 0.0"),
        (edge, [_rec(0, _edge_step(0.5), 0.5, 0.5, dual=0.2, algorithm="adaboost"),
                _rec(1, _edge_step(0.5), 0.4, 0.4, dual=0.3, algorithm="adaboost")],
         f"step size alpha {_edge_step(0.5)!r} is not the edge-linesearch step "
         f"{_edge_step(0.4)!r}"),
        # an edge of 1 has no line-search step
        (edge, [_rec(0, 1.0, 1.0, 1.0, dual=0.2, algorithm="adaboost")],
         "step size alpha 1.0 has no edge-linesearch step to equal: edge reached 1"),
    ]
    for header, records, note in cases:
        report = check(records, header)
        broken = [r for r in report.records if r.tag == bounds.TRACE_INTEGRITY]
        assert len(broken) == 1 and report.records[-1] is broken[0]
        assert broken[0].passed is False and note in broken[0].note
        assert not report.all_passed


# runs that close with each kind of closing record: gap-constant, opt-horizon, none
ONE_PASS_RUNS = {
    "adaboost-constant": ("adaboost", "constant", "synthetic:nonseparable:seed=1:m=30:d=3"),
    "fs-optimal": ("fs", "optimal", "synthetic:regression:seed=1:n=30:p=20"),
    "game-dynamic": ("minmax-game", "dynamic", "synthetic:game:seed=1:m=20:n=10"),
}


def _one_pass_run(name: str, iterations: int = 30):
    """The header and the records of a `run` of ONE_PASS_RUNS[name]."""
    task, schedule, data = ONE_PASS_RUNS[name]
    config = cli.ExperimentConfig(task=task, data=data, schedule=schedule, iterations=iterations)
    problem, header, rule, x0 = cli._prepare_run(config, cli._build_instance(config))
    result = md_core.run(problem, rule, iterations, x0=x0, algorithm=header.algorithm)
    assert result.terminated is None and len(result.records) == iterations
    return header, result.records


@pytest.mark.parametrize("name", sorted(ONE_PASS_RUNS))
def test_the_checker_takes_a_one_shot_iterator_of_records(name):
    header, records = _one_pass_run(name)
    expected = list(bounds.certificates(records, header))
    assert list(bounds.certificates(iter(records), header)) == expected
    assert list(bounds.certificates((r for r in records), header, len(records))) == expected
    assert check(iter(records), header).records == expected
    with pytest.raises(ValueError, match="empty trace"):
        list(bounds.certificates(iter([]), header))


# each forgery of a run's records: the records, whether the trace ends with a
# terminal line, and the note of its trace-integrity record (None for none)
FORGERIES = {
    "honest": (lambda records: records, False, None),
    "reordered": (lambda records: [records[i] for i in (3, 1, 1, 2)], False,
                  "record 0 has k=3: iterations must run 0, 1, 2, ... once each"),
    "alpha halved": (lambda records: [dataclasses.replace(r, alpha=0.5 * r.alpha)
                                      for r in records], False, "step size alpha "),
    "cut short": (lambda records: records[:3], False,
                  "3 records and no terminal line, but the header asks for 30 iterations"),
    "cut short, terminal line": (lambda records: records[:3], True, None),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
@pytest.mark.parametrize("name", sorted(ONE_PASS_RUNS))
def test_the_checker_groups_each_records_certificates_with_it(name, forgery):
    header, records = _one_pass_run(name)
    forge, terminated, note = FORGERIES[forgery]
    records = forge(records)
    count = None if terminated else header.iterations
    *groups, (last, closing) = bounds.certify(records, header, count)
    assert [rec for rec, _ in groups] == records and last is None
    flat = [c for _, group in groups for c in group]
    assert flat + closing == list(bounds.certificates(records, header, count))
    for rec, group in groups:
        assert all(c.k == rec.k for c in group)
        if [r.k for r in records].count(rec.k) == 1:
            assert group == [c for c in flat if c.k == rec.k]
    # the closing records: the horizon closed forms, then the trace-integrity record
    broken = [c for c in closing if c.tag == bounds.TRACE_INTEGRITY]
    assert all(c.tag in (bounds.GAP_CONSTANT, bounds.OPT_HORIZON) for c in closing[:-1])
    if note is None:
        assert broken == []
    else:
        assert len(broken) == 1 and closing[-1] is broken[0] and broken[0].passed is False
        assert broken[0].note.startswith(note)
    # the library's check has no count rule
    assert [c for c in check(records, header).records if c.note.endswith("iterations")] == []


def test_check_zero_first_step_is_not_evaluable_not_passed():
    header = certificate_header("mirror-descent", "polyak", m=2, lipschitz=1.0)
    recs = [_rec(0, 0.0, 1.0, 1.0, dual=None), _rec(1, 0.5, 0.8, 0.8, dual=0.1)]
    report = check(recs, header)
    k0 = [r for r in report.records if r.k == 0]
    assert all(r.passed is None for r in k0)
    assert all(not r.evaluable for r in k0)
    summary = report.summary()
    assert summary["not_evaluable"] == 2  # weak-duality and gap-running at k=0
    assert summary["passed"] == 2


def test_check_missing_constants_never_pass_silently():
    # a game's polyak header has f* but no dist0, which opt-polyak needs
    header = certificate_header("mirror-descent", "polyak", m=2, f_star=0.0)
    recs = [_rec(0, 0.5, 1.0, 1.0, dual=0.2)]
    report = check(recs, header)
    opt = [r for r in report.records if r.tag == "opt-polyak"][0]
    assert opt.passed is None and opt.note == "missing dist0 or lipschitz constant"
    # weak duality needs no constants and still evaluates
    wd = [r for r in report.records if r.tag == "weak-duality"][0]
    assert wd.passed is True


def _edge_step(edge: float) -> float:
    """The edge line search's step at an edge below 1 - EDGE_CAP."""
    return 0.5 * math.log((1.0 + edge) / (1.0 - edge))


def _dynamic_step(diameter: float, lipschitz: float, k: int) -> float:
    return math.sqrt(2.0 * diameter / (k + 1.0)) / lipschitz


def test_check_adaboost_gap_uses_best_gradient_norm():
    header = certificate_header("adaboost", "linesearch", m=4, lipschitz=1.0, format=1)
    recs = [
        _rec(0, _edge_step(0.9), 0.9, 0.9, dual=0.1, grad_norm=0.6, algorithm="adaboost"),
        _rec(1, _edge_step(0.8), 0.8, 0.8, dual=0.2, grad_norm=0.7, algorithm="adaboost"),
    ]
    report = check(recs, header)
    assert all(r.tag != bounds.TRACE_INTEGRITY for r in report.records)
    gaps = [r for r in report.records if r.tag == "gap-running"]
    assert gaps[0].observed == pytest.approx(0.6 - 0.1, rel=1e-12)
    # the reference is the running minimum of the gradient norm, not 0.7
    assert gaps[1].observed == pytest.approx(0.6 - 0.2, rel=1e-12)
    # format 2 holds no gradient norm: the reference is best_primal
    report = check(recs, certificate_header("adaboost", "linesearch", m=4, lipschitz=1.0))
    assert [r.observed for r in report.records if r.tag == "gap-running"] == [
        0.9 - 0.1, 0.8 - 0.2]


def test_check_dynamic_schedule_adds_per_record_closed_form():
    header = certificate_header("mirror-descent", "dynamic", m=2, lipschitz=1.0)
    recs = [_rec(0, _dynamic_step(header.diameter, 1.0, 0), 1.0, 1.0, dual=0.0),
            _rec(1, _dynamic_step(header.diameter, 1.0, 1), 0.9, 0.9, dual=0.1)]
    report = check(recs, header)
    assert report.all_passed
    dyn = [r for r in report.records if r.tag == "gap-dynamic"]
    assert len(dyn) == 2
    assert dyn[1].bound == pytest.approx(dynamic_bound(header.diameter, 1.0, 1), rel=1e-15)


def test_check_constant_schedule_horizon_record():
    header = certificate_header("mirror-descent", "constant", m=2, lipschitz=1.0, iterations=2)
    alpha = math.sqrt(2.0 * header.diameter / 2)  # the step tuned to 2 iterations
    recs = [_rec(0, alpha, 1.0, 1.0, dual=0.0), _rec(1, alpha, 0.9, 0.9, dual=0.4)]
    report = check(recs, header)
    assert report.all_passed
    gc = [r for r in report.records if r.tag == "gap-constant"]
    assert len(gc) == 1 and gc[0].k == 1
    assert gc[0].observed == pytest.approx(0.5, rel=1e-12)
    assert gc[0].bound == constant_bound(header.diameter, 1.0, 2)


def test_check_constant_schedule_short_run_not_evaluable():
    header = certificate_header("mirror-descent", "constant", m=2, lipschitz=1.0, iterations=5)
    recs = [_rec(0, math.sqrt(2.0 * header.diameter / 5), 1.0, 1.0, dual=0.0)]
    report = check(recs, header)
    assert all(r.tag != bounds.TRACE_INTEGRITY for r in report.records)
    gc = [r for r in report.records if r.tag == "gap-constant"][0]
    assert gc.passed is None and "horizon" in gc.note


def test_check_f_star_certificates():
    # the stagewise line search: its dist0 3.0 gives the diameter 4.5, and it has no dual
    header = certificate_header("stagewise", "linesearch", lipschitz=2.0, f_star=0.25,
                                dist0=3.0)
    recs = [_rec(0, 1.0, 1.0, 1.0), _rec(1, 0.5, 0.75, 0.75)]
    report = check(recs, header)
    tags = {r.tag for r in report.records}
    assert tags == {"opt-running", "opt-polyak"}
    opt = [r for r in report.records if r.tag == "opt-polyak"]
    assert opt[0].observed == pytest.approx(0.75, rel=1e-15)
    assert opt[0].bound == polyak_bound(2.0, 3.0, 0)
    assert opt[1].bound == polyak_bound(2.0, 3.0, 1)


def test_check_stagewise_sparsity_certificates():
    header = certificate_header("stagewise", "constant", lipschitz=2.0, f_star=0.0, dist0=3.0,
                                eps=0.1)
    recs = [
        _rec(0, 0.1, 2.0, 2.0, l1=0.0, l0=0, algorithm="stagewise"),
        _rec(1, 0.1, 1.5, 1.5, l1=0.1, l0=1, algorithm="stagewise"),
    ]
    report = check(recs, header)
    l1 = [r for r in report.records if r.tag == "sparsity-l1"]
    l0 = [r for r in report.records if r.tag == "sparsity-l0"]
    assert [r.passed for r in l1] == [True, True]
    assert l1[1].bound == pytest.approx(0.1, rel=1e-15)
    assert [r.bound for r in l0] == [0.0, 1.0]
    # without a constant shrinkage the l1 certificate cannot be evaluated
    no_eps = certificate_header("stagewise", "linesearch", lipschitz=2.0, f_star=0.0,
                                dist0=3.0)
    report2 = check(recs, no_eps)
    assert all(r.passed is None for r in report2.records if r.tag == "sparsity-l1")
    # nor can a constant shrinkage header without one: it gives no step rule to check
    report3 = check(recs, certificate_header("stagewise", "constant", lipschitz=2.0,
                                             f_star=0.0, dist0=3.0))
    assert all(r.passed is None for r in report3.records if r.tag == "sparsity-l1")
    assert all(r.tag != bounds.TRACE_INTEGRITY for r in report3.records)


def test_check_sparsity_l1_allows_the_rounding_of_its_sum_and_no_more():
    # the l1 norm of t steps of eps may exceed the float t * eps by the
    # rounding of its float sum, at most t^2 * EPS * eps; beyond that it fails
    eps, t = 228217732293.8192, 7
    allowance = t * t * sys.float_info.epsilon * eps
    header = certificate_header("stagewise", "constant", dist0=1.0, eps=eps)
    for excess, passed in ((0.0, True), (0.5 * allowance, True), (2.0 * allowance, False)):
        recs = [_rec(k, eps, 1.0, 1.0, l1=0.0, algorithm="stagewise") for k in range(t)]
        recs.append(_rec(t, eps, 1.0, 1.0, l1=t * eps + excess, algorithm="stagewise"))
        (l1,) = [r for r in check(recs, header).records if r.tag == "sparsity-l1" and r.k == t]
        # the allowance moves the verdict only: observed, bound and slack keep their values
        assert (l1.observed, l1.bound, l1.slack) == (t * eps + excess, t * eps,
                                                      t * eps - (t * eps + excess))
        assert l1.passed is passed, excess


def test_check_a_bound_that_overflows_from_finite_steps_is_not_evaluable():
    # a subnormal step sum puts the running bound past the largest float
    header = certificate_header("stagewise", "constant", lipschitz=1.0, f_star=0.0, dist0=1.0,
                                eps=5e-324)
    report = check([_rec(0, 5e-324, 1.0, 1.0, algorithm="stagewise")], header)
    (opt,) = [r for r in report.records if r.tag == "opt-running"]
    assert (opt.passed, opt.bound, opt.slack, opt.note) == (None, None, None,
                                                            "bound is not finite")
    # steps whose squares overflow keep the infinite bound, which the strict
    # writers refuse, as the schedules refuse such steps
    report = check([_rec(0, 1e300, 1.0, 1.0, algorithm="stagewise")], header)
    (opt,) = [r for r in report.records if r.tag == "opt-running"]
    assert opt.bound == math.inf and opt.slack == math.inf
    # and a step other than the header's eps fails the trace
    assert report.records[-1] == CertificateRecord(
        0, bounds.TRACE_INTEGRITY, None, None, None, False,
        "step size alpha 1e+300 is not the fixed step 5e-324")


def test_check_optimal_schedule_horizon_record():
    header = certificate_header("stagewise", "optimal", lipschitz=2.0, iterations=2,
                                f_star=0.0, dist0=3.0, eps=0.1)
    recs = [
        _rec(0, 0.1, 2.0, 2.0, l1=0.0, l0=0, algorithm="stagewise"),
        _rec(1, 0.1, 1.5, 1.5, l1=0.1, l0=1, algorithm="stagewise"),
    ]
    report = check(recs, header)
    oh = [r for r in report.records if r.tag == "opt-horizon"]
    assert len(oh) == 1 and oh[0].k == 1
    assert oh[0].bound == polyak_bound(2.0, 3.0, 1)
    assert oh[0].observed == pytest.approx(1.5, rel=1e-15)


def test_check_is_pure_and_reproducible():
    header = certificate_header("mirror-descent", "dynamic", m=8, lipschitz=1.0)
    rng = np.random.default_rng(2)
    recs = []
    best = math.inf
    for k in range(30):
        primal = float(rng.uniform(0.2, 1.0))
        best = min(best, primal)
        recs.append(_rec(k, _dynamic_step(header.diameter, 1.0, k), primal, best,
                         dual=float(rng.uniform(-1.0, 0.1))))
    first = check(recs, header).to_dict()
    assert all(r["tag"] != bounds.TRACE_INTEGRITY for r in first["records"])
    second = check(recs, header).to_dict()
    assert first == second


def test_report_aggregations():
    header = certificate_header("mirror-descent", "polyak", m=2, lipschitz=1.0)
    recs = [_rec(0, 0.5, 1.0, 1.0, dual=0.9), _rec(1, 0.5, 0.9, 0.9, dual=0.95)]
    report = check(recs, header)
    by_tag = report.by_tag()
    wd = by_tag["weak-duality"]
    assert wd["total"] == 2 and wd["failed"] == 1
    assert wd["min_slack"] == pytest.approx(-0.05, rel=1e-12)
    d = report.to_dict()
    assert set(d) == {"summary", "by_tag", "records"}
    assert d["summary"]["total"] == len(report.records)


def _oracle_bytes(report: CertificateReport) -> str:
    """The report.json text of the generic encoder, which write_json must reproduce."""
    fh = io.StringIO()
    json.dump(report.to_dict(), fh, sort_keys=True, indent=2, allow_nan=False)
    fh.write("\n")
    return fh.getvalue()


def _written(report: CertificateReport) -> str:
    fh = io.StringIO()
    report.write_json(fh)
    return fh.getvalue()


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e-7)
EDGE_NOTES = ("", "ü", '"', "\\", "\x00\n\t\x1f\x7f", "\u2028é\"\\\U0001f600")
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# numpy scalars too: a record may be built from them, and to_dict converts them
report_floats = st.one_of(st.none(), st.sampled_from(EDGE_FLOATS), finite_floats,
                          finite_floats.map(np.float64))
certificate_records = st.builds(
    CertificateRecord,
    k=st.one_of(st.just(-1), st.integers(-1, 10**6), st.integers(2**62, 2**80),
                st.integers(-1, 10**6).map(np.int64)),
    tag=st.one_of(st.sampled_from((bounds.WEAK_DUALITY, bounds.GAP_RUNNING,
                                   bounds.TRACE_INTEGRITY)), st.text(max_size=8)),
    observed=report_floats, bound=report_floats, slack=report_floats,
    passed=st.sampled_from((None, True, False)),
    note=st.one_of(st.sampled_from(EDGE_NOTES), st.text(max_size=12)),
)
EDGE_REPORT = CertificateReport([
    CertificateRecord(k=-1, tag="gap-constant", observed=None, bound=None, slack=None,
                      passed=None, note="no planned horizon"),
    CertificateRecord(k=2**80, tag="weak-duality", observed=-0.0, bound=5e-324,
                      slack=1.7976931348623157e308, passed=True, note=EDGE_NOTES[-1]),
    CertificateRecord(k=3, tag="weak-duality", observed=1.7976931348623157e308, bound=-0.0,
                      slack=-1.7976931348623157e308, passed=False, note='"\\\x00'),
])


@settings(max_examples=300, deadline=None)
@given(st.lists(certificate_records, max_size=12).map(CertificateReport))
@example(EDGE_REPORT)
@example(CertificateReport())
def test_write_json_writes_the_bytes_of_json_dump(report):
    assert _written(report) == _oracle_bytes(report)


def test_write_json_writes_a_long_report_in_chunks():
    records = [CertificateRecord(k=k, tag=("weak-duality", "gap-running")[k % 2],
                                 observed=k / 7.0, bound=1.0, slack=1.0 - k / 7.0,
                                 passed=k < 7) for k in range(2 * 2048 + 1)]
    report = CertificateReport(records)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    report.write_json(Recorder())
    assert "".join(writes) == _oracle_bytes(report)
    # the spooled records go out 64 KiB at a time, never the whole report at once
    assert max(map(len, writes)) <= 64 * 1024
    assert sum('"tag": ' in text for text in writes) > 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["observed", "bound", "slack"])
def test_write_json_refuses_a_non_finite_value_like_json_dump(value, name):
    fields = dict(k=0, tag="weak-duality", observed=0.5, bound=1.0, slack=0.5, passed=True)
    report = CertificateReport([CertificateRecord(**{**fields, name: value})])
    with pytest.raises(ValueError):
        _oracle_bytes(report)
    fh = io.StringIO()
    with pytest.raises(ValueError, match=f"report record k=0, tag 'weak-duality': field "
                                         f"'{name}' is not finite, and reports are strict JSON"):
        report.write_json(fh)
    assert fh.getvalue() == ""  # refused before anything is written
