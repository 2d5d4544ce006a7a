"""End-to-end acceptance checks.

Each test evaluates one claim the library is built around and prints a single
verdict line (run pytest with -s to see them). The claims cover: exact
equivalence of the classical boosting and stagewise updates (tests/oracles.py)
with the mirror descent engine that runs both, the edge/loss-gradient identity, every certificate family holding at
runtime, sparsity accounting, oracle agreement for the prox and the loss
gradient, the sandwich between the exponential loss and the margin, closed
forms matching the step-sum bound, and byte-level reproducibility of the
command-line harness.
"""

import json
import math

import numpy as np

from conftest import (
    central_difference_gradient,
    certificate_header,
    certified,
    grid_prox_entropy,
    simplex_grid,
)
from mirrorboost import bounds, datagen, md_core, prox
from mirrorboost.cli import main
from mirrorboost.schedule import StepSchedule
from mirrorboost.stagewise import least_squares_norm, optimal_shrinkage
from mirrorboost.trace import read_trace
from oracles import (
    bregman,
    classical_adaboost,
    classical_fs,
    log_exp_loss,
    margin,
    md_gap_bound,
    run_with_iterates,
)


def _verdict(name: str, failures: list) -> None:
    print(f"[acceptance] {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: {failures[:5]}"


def _boost_instances():
    out = []
    for seed in range(10):
        out.append(datagen.make_nonseparable_classification(m=25, d=3, seed=seed))
        out.append(datagen.make_margin_matrix(m=20, n=15, seed=seed))
    return out


def _boost_schedules(ts):
    d = math.log(ts.num_examples)
    return (("constant", StepSchedule.constant(ts.lipschitz, d, 200)),
            ("dynamic", StepSchedule.dynamic(ts.lipschitz, d)),
            ("linesearch", StepSchedule.edge_linesearch()))


def test_01_adaboost_is_mirror_descent():
    failures = []
    for i, ts in enumerate(_boost_instances()):
        for label, sched in _boost_schedules(ts):
            rb, wb = run_with_iterates(classical_adaboost, ts, sched, 200)
            rm, wm = run_with_iterates(md_core.run, ts.to_minmax(), sched, 200,
                                       algorithm="adaboost")
            if len(rb.records) != len(rm.records) or rb.terminated != rm.terminated:
                failures.append((i, label, "length or termination mismatch"))
                continue
            for b, m_, b_x, m_x in zip(rb.records, rm.records, wb, wm):
                if b.index != m_.index:
                    failures.append((i, label, b.k, "column mismatch"))
                    break
                if float(np.max(np.abs(b_x - m_x))) > 1e-10:
                    failures.append((i, label, b.k, "weights drift"))
                    break
                if abs(b.alpha - m_.alpha) > 1e-10:
                    failures.append((i, label, b.k, "step mismatch"))
                    break
    _verdict("01 adaboost reproduces the mirror descent path", failures)


def test_02_edge_equals_loss_gradient_norm():
    # the engine records the edge; the loss gradient comes from the oracle, at
    # the coefficients rebuilt from the recorded columns and steps
    failures = []
    for i, ts in enumerate(_boost_instances()):
        for label, sched in _boost_schedules(ts):
            res = md_core.run(ts.to_minmax(), sched, 200, algorithm="adaboost")
            coefficients = np.zeros(ts.num_classifiers)
            drift = 0.0
            for rec in res.records:
                _, grad = log_exp_loss(ts, coefficients)
                drift = max(drift, abs(rec.primal - float(np.abs(grad).max())))
                coefficients[rec.index] += rec.alpha
            if drift > 1e-10:
                failures.append((i, label, drift))
    _verdict("02 weighted edge equals the loss-gradient max norm", failures)


def test_03_boosting_gap_certificates():
    failures = []
    ts = datagen.make_nonseparable_classification(m=10, d=2, seed=0)
    if ts.lipschitz != 1.0:
        failures.append("stump margins must give lipschitz constant 1")
    d = math.log(10.0)

    res = md_core.run(ts.to_minmax(), StepSchedule.constant(1.0, d, 100), 100,
                      algorithm="adaboost")
    last = res.records[-1]
    best_grad = min(rec.primal for rec in res.records)  # the edge is the gradient norm
    if best_grad - last.dual > math.sqrt(2.0 * d / 100.0) + 1e-9:
        failures.append("final gap exceeds the tuned-constant closed form")
    header = certificate_header("adaboost", "constant", m=10, lipschitz=1.0, iterations=100)
    summary = certified(res.records, header)[1].summary()
    if not summary["all_passed"] or summary["not_evaluable"] > 0:
        failures.append(("constant-run certificates", summary))

    res_dyn = md_core.run(ts.to_minmax(), StepSchedule.dynamic(1.0, d), 100, algorithm="adaboost")
    best = math.inf
    for rec in res_dyn.records:
        best = min(best, rec.primal)
        if best - rec.dual > bounds.dynamic_bound(d, 1.0, rec.k) + 1e-9:
            failures.append(("dynamic closed form violated at", rec.k))
            break
    header_dyn = certificate_header("adaboost", "dynamic", m=10, lipschitz=1.0)
    summary_dyn = certified(res_dyn.records, header_dyn)[1].summary()
    if not summary_dyn["all_passed"] or summary_dyn["not_evaluable"] > 0:
        failures.append(("dynamic-run certificates", summary_dyn))
    _verdict("03 boosting gap certificates hold at every prefix", failures)


def test_04_stagewise_is_mirror_descent():
    failures = []
    for seed in range(20):
        rp = datagen.make_regression(n=40, p=20, seed=seed)
        for label, sched in (("constant", StepSchedule.fixed(0.02)),
                             ("linesearch", StepSchedule.polyak(0.0))):
            rf, xf = run_with_iterates(classical_fs, rp, sched, 500)
            rm, xm = run_with_iterates(md_core.run, rp.to_minmax(), sched, 500,
                                       x0=rp.response.copy(), algorithm="stagewise")
            if len(rf.records) != len(rm.records):
                failures.append((seed, label, "length mismatch"))
                continue
            for f, m_, f_x, m_x in zip(rf.records, rm.records, xf, xm):
                if f.index != m_.index or f.sign != m_.sign:
                    failures.append((seed, label, f.k, "column mismatch"))
                    break
                if float(np.max(np.abs(f_x - m_x))) > 1e-10:
                    failures.append((seed, label, f.k, "residual drift"))
                    break
    _verdict("04 stagewise reproduces the mirror descent path", failures)


def test_05_stagewise_objective_certificates():
    failures = []
    for seed in range(5):
        rp = datagen.make_regression(n=40, p=20, seed=seed)
        b = least_squares_norm(rp)
        lip = rp.design_norm
        eps = 0.02

        res = md_core.run(rp.to_minmax(), StepSchedule.fixed(eps), 300,
                          x0=rp.response.copy(), algorithm="stagewise")
        for rec in res.records:
            direct = b * b / (2.0 * eps * (rec.k + 1)) + eps * lip * lip / 2.0
            if rec.best_primal > direct + 1e-9:
                failures.append((seed, "constant", rec.k))
                break
            running = md_gap_bound(0.5 * b * b, lip, [eps] * (rec.k + 1))
            if abs(running - direct) > 1e-9 * max(1.0, direct):
                failures.append((seed, "two-term form mismatch", rec.k))
                break

        n = 300
        eps_opt = optimal_shrinkage(rp, n, projection_norm=b)
        res_opt = md_core.run(rp.to_minmax(), StepSchedule.fixed(eps_opt), n,
                              x0=rp.response.copy(), algorithm="stagewise")
        if res_opt.records[-1].best_primal > lip * b / math.sqrt(n) + 1e-9:
            failures.append((seed, "optimal horizon bound"))

        res_ls = md_core.run(rp.to_minmax(), StepSchedule.polyak(0.0), 300,
                             x0=rp.response.copy(), algorithm="stagewise")
        for rec in res_ls.records:
            if rec.best_primal > bounds.polyak_bound(lip, b, rec.k) + 1e-9:
                failures.append((seed, "linesearch polyak bound", rec.k))
                break
    _verdict("05 stagewise objective certificates hold at every prefix", failures)


def test_06_stagewise_sparsity_certificates():
    failures = []
    for seed in range(5):
        rp = datagen.make_regression(n=40, p=20, seed=seed)
        eps = 0.05
        res = md_core.run(rp.to_minmax(), StepSchedule.fixed(eps), 200,
                          x0=rp.response.copy(), algorithm="stagewise")
        beta = np.zeros(rp.num_columns)
        for rec in res.records:
            if rec.l0 != int(np.count_nonzero(np.abs(beta) > 1e-14)):
                failures.append((seed, rec.k, "support size mismatch"))
                break
            if rec.l0 > rec.k:
                failures.append((seed, rec.k, "support exceeds iteration count"))
                break
            if rec.l1 > rec.k * eps + 1e-9:
                failures.append((seed, rec.k, "l1 exceeds the shrinkage budget"))
                break
            beta[rec.index] += rec.alpha * rec.sign
    _verdict("06 stagewise sparsity certificates are exact", failures)


def test_07_loss_gradient_matches_finite_differences():
    failures = []
    rng = np.random.default_rng(100)
    pairs = 0
    for seed in range(5):
        ts = datagen.make_margin_matrix(m=12, n=6, seed=seed)
        for _ in range(10):
            lam = rng.uniform(0.0, 1.0, size=ts.num_classifiers)
            _, grad = log_exp_loss(ts, lam)
            numeric = central_difference_gradient(
                lambda v: log_exp_loss(ts, v)[0], lam, h=1e-5)
            rel = float(np.max(np.abs(grad - numeric))) / max(1e-12,
                                                              float(np.max(np.abs(grad))))
            pairs += 1
            if rel > 1e-6:
                failures.append((seed, rel))
    if pairs != 50:
        failures.append(("expected 50 pairs", pairs))
    _verdict("07 loss gradient matches central differences", failures)


def test_08_entropy_prox_matches_grid_oracle():
    failures = []
    out = prox._step(prox.ENTROPY, np.array([math.log(2.0), 0.0, 0.0]),
                     np.full(3, 1.0 / 3.0), 1.0)
    if float(np.max(np.abs(out - np.array([0.2, 0.4, 0.4])))) > 1e-12:
        failures.append("closed-form example mismatch")
    rng = np.random.default_rng(55)
    for dim in (2, 3):
        for _ in range(3):
            c = rng.uniform(-2.0, 2.0, dim)
            anchor = rng.dirichlet(np.ones(dim))
            alpha = rng.uniform(0.2, 2.0)
            closed = prox._step(prox.ENTROPY, c, anchor, alpha)
            grid = grid_prox_entropy(c, anchor, alpha, steps=1000)
            if float(np.max(np.abs(closed - grid))) > 1e-3:
                failures.append(("grid disagreement", dim))
    # the diameter a header holds for a run on m examples, from the uniform start
    for m in (2, 3, 10, 50):
        if certificate_header("adaboost", "dynamic", m=m).diameter != math.log(m):
            failures.append(("diameter not exactly log m", m))
    for dim in (2, 3):
        anchor = np.full(dim, 1.0 / dim)
        worst = max(bregman(prox.ENTROPY, x, anchor) for x in simplex_grid(dim, 300))
        if worst > certificate_header("adaboost", "dynamic", m=dim).diameter + 1e-12:
            failures.append(("grid point beyond the diameter", dim))
    _verdict("08 entropy prox and diameter match the grid oracle", failures)


def test_09_sandwich_and_weak_duality():
    failures = []
    ts = datagen.make_margin_matrix(m=10, n=6, seed=3)
    rng = np.random.default_rng(31)
    logm = math.log(ts.num_examples)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(ts.num_classifiers))
        loss, _ = log_exp_loss(ts, lam)
        p = margin(ts, lam)
        if not (-p - logm - 1e-12 <= loss <= -p + 1e-12):
            failures.append(("sandwich violated", float(loss)))
            break
    for seed in range(10):
        ts2 = datagen.make_margin_matrix(m=15, n=8, seed=seed)
        res = md_core.run(ts2.to_minmax(), StepSchedule.dynamic(ts2.lipschitz, math.log(15.0)),
                          150, algorithm="adaboost")
        for rec in res.records:
            if rec.dual > rec.best_primal + 1e-9:
                failures.append(("weak duality violated", seed, rec.k))
                break
    _verdict("09 loss sandwich and weak duality hold", failures)


def test_10_closed_forms_match_the_step_sum_bound():
    failures = []
    d, lip = math.log(10.0), 1.0
    for n in (1, 2, 5, 10, 100, 1000):
        tuned = math.sqrt(2.0 * d / n) / lip
        running = md_gap_bound(d, lip, [tuned] * n)
        closed = bounds.constant_bound(d, lip, n)
        if abs(running - closed) > 1e-12 * closed:
            failures.append(("constant form mismatch", n))
    alphas = []
    for k in range(1001):
        alphas.append(math.sqrt(2.0 * d / (k + 1.0)) / lip)
        if md_gap_bound(d, lip, alphas) > bounds.dynamic_bound(d, lip, k) + 1e-12:
            failures.append(("dynamic form does not dominate", k))
            break
    _verdict("10 closed-form bounds agree with the step-sum bound", failures)


def test_11_cli_byte_reproducibility(tmp_path):
    failures = []
    argv = ["run", "adaboost", "--data", "synthetic:nonseparable:seed=21",
            "--schedule", "constant", "--iters", "50", "--prefix", "r"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    if main(argv + ["--out", str(out_a)]) != 0:
        failures.append("first run failed")
    if main(argv + ["--out", str(out_b)]) != 0:
        failures.append("second run failed")
    for name in ("r.trace.jsonl", "r.report.json", "r.report.txt", "r.plot.csv"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            failures.append(("file differs between runs", name))
    redo = tmp_path / "redo"
    if main(["check", str(out_a / "r.trace.jsonl"), "--out", str(redo)]) != 0:
        failures.append("check failed")
    for name in ("r.report.json", "r.report.txt"):
        if (redo / name).read_bytes() != (out_a / name).read_bytes():
            failures.append(("check output differs from the run", name))
    header, records, _ = read_trace(out_a / "r.trace.jsonl")
    if len(records) != 50:
        failures.append("trace does not carry one record per iteration")
    report = json.loads((out_a / "r.report.json").read_text())
    if report["summary"]["failed"] != 0:
        failures.append("certificates failed on a healthy run")
    _verdict("11 the harness is byte-for-byte reproducible", failures)
