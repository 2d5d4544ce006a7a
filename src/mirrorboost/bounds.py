"""Runtime convergence certificates.

Every bound the runners are entitled to is evaluated numerically against the
observed trace, one certificate record per (iteration, bound). A record
passes when observed <= bound + TOLERANCE (sparsity-l1 adds the rounding of
its float sum); when a bound cannot be evaluated (missing constants, undefined
dual average, unreached horizon, a bound that overflows from finite step
sums) the record is marked not evaluable rather than silently passed. The
checker is a pure function of the trace, its header's problem constants and
its records, so re-running it on a serialized trace reproduces the report
exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .schedule import StepSchedule, UndefinedStepError
from .trace import IterationRecord, TraceHeader

TOLERANCE = 1e-9
_EPS = sys.float_info.epsilon  # twice the unit roundoff

# certificate tags
WEAK_DUALITY = "weak-duality"          # dual average value <= best primal value
GAP_RUNNING = "gap-running"            # duality gap vs the step-sum bound
GAP_CONSTANT = "gap-constant"          # duality gap vs the tuned-constant closed form
GAP_DYNAMIC = "gap-dynamic"            # duality gap vs the dynamic-schedule closed form
OPT_RUNNING = "opt-running"            # best value minus f* vs the step-sum bound
OPT_POLYAK = "opt-polyak"              # best value minus f* vs the polyak closed form
OPT_HORIZON = "opt-horizon"            # best value minus f* vs the tuned-shrinkage closed form
SPARSITY_L1 = "sparsity-l1"            # coefficient l1 norm vs iteration count times shrinkage
SPARSITY_L0 = "sparsity-l0"            # coefficient support size vs iteration count
TRACE_INTEGRITY = "trace-integrity"    # the records are in order and self-consistent


def _ratio_bound(offset: float, lipschitz: float, step_sum: float, step_sq_sum: float) -> float:
    return (offset + 0.5 * lipschitz * lipschitz * step_sq_sum) / step_sum


def constant_bound(diameter: float, lipschitz: float, num_steps: int) -> float:
    """Closed form of the step-sum bound under the tuned constant schedule."""
    if num_steps < 1:
        raise ValueError("num_steps must be at least 1")
    return lipschitz * math.sqrt(2.0 * diameter / num_steps)


def dynamic_bound(diameter: float, lipschitz: float, k: int) -> float:
    """Closed-form bound for the dynamic schedule, covering iterates 0..k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (lipschitz * math.sqrt(0.5 * diameter) * (2.0 + math.log(k + 1.0))
            / (2.0 * (math.sqrt(k + 2.0) - 1.0)))


def polyak_bound(lipschitz: float, dist0: float, k: int) -> float:
    """Closed-form bound for the polyak schedule, covering iterates 0..k;
    dist0 is the l2 distance from the start to an optimum."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return lipschitz * dist0 / math.sqrt(k + 1.0)


class CertificateRecord(NamedTuple):
    """One bound at one iteration. A named tuple, not a frozen dataclass: a
    long run's report holds tens of thousands, and a tuple is made at a
    fraction of the cost."""

    k: int
    tag: str
    observed: float | None
    bound: float | None
    slack: float | None
    passed: bool | None
    note: str = ""

    @property
    def evaluable(self) -> bool:
        return self.passed is not None

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "tag": self.tag,
            "observed": None if self.observed is None else float(self.observed),
            "bound": None if self.bound is None else float(self.bound),
            "slack": None if self.slack is None else float(self.slack),
            "passed": self.passed,
            "note": self.note,
        }


def _evaluated(k: int, tag: str, observed: float, bound: float, allowance: float = 0.0,
               steps_finite: bool = True) -> CertificateRecord:
    """The record of observed <= bound, with TOLERANCE and the tag's rounding
    `allowance` to spare. A bound that overflows from finite step sums (a
    subnormal step sum, say) is not evaluable. Steps whose squares sum past
    the float range (`steps_finite` false) are refused, as the schedules'
    no-finite-square rule refuses them: their record keeps the infinite bound
    and slack, which the strict trace and report writers reject."""
    if steps_finite and not math.isfinite(bound):
        return _not_evaluable(k, tag, "bound is not finite")
    return CertificateRecord(k, tag, observed, bound, bound - observed,
                             bool(observed <= bound + TOLERANCE + allowance))


def _shrinkage_rounding(t: int, eps: float) -> float:
    """Rounding allowance of sparsity-l1 at iteration t: how far the float l1
    norm of t shrinkage steps of size eps may exceed the float t * eps.

    The coefficients are sums of t terms +-eps, each added to one entry, and
    the l1 norm adds their magnitudes: one tree of at most t - 1 additions
    over the t terms (an addition of a zero is exact). Each sum is at most
    t * eps in magnitude, so each addition rounds by at most u t eps (u the
    unit roundoff), and the norm exceeds its exact value, at most t * eps, by
    at most (t - 1) u t eps. The bound fl(t * eps) is at least (1 - u) t eps.
    Together the excess is at most t^2 u eps to first order; EPS = 2u in
    place of u covers the second-order terms.
    """
    return t * t * _EPS * eps


def _not_evaluable(k: int, tag: str, note: str) -> CertificateRecord:
    return CertificateRecord(k, tag, None, None, None, None, note)


class _Tally:
    """The summary counts, the by_tag entries, the failed records and what is
    wrong with the first record whose observed, bound or slack is not finite
    (None while every one is) of the certificate records added so far."""

    def __init__(self) -> None:
        self.counts = {"total": 0, "passed": 0, "failed": 0, "not_evaluable": 0}
        self.by_tag: dict[str, dict] = {}
        self.failures: list[CertificateRecord] = []
        self.non_finite: str | None = None

    def summary(self) -> dict:
        return {**self.counts, "all_passed": self.counts["failed"] == 0}

    def add(self, records) -> None:
        counts, by_tag = self.counts, self.by_tag
        isfinite = math.isfinite
        for r in records:
            k, tag, observed, bound, slack, passed, _ = r
            entry = by_tag.get(tag)
            if entry is None:
                entry = by_tag[tag] = {"total": 0, "passed": 0, "failed": 0,
                                       "not_evaluable": 0, "min_slack": None}
            entry["total"] += 1
            counts["total"] += 1
            if passed is True:
                outcome = "passed"
            elif passed is False:
                outcome = "failed"
                self.failures.append(r)
            else:
                outcome = "not_evaluable"
            entry[outcome] += 1
            counts[outcome] += 1
            if slack is not None and (entry["min_slack"] is None or slack < entry["min_slack"]):
                entry["min_slack"] = slack
            if self.non_finite is None and not ((observed is None or isfinite(observed))
                                                and (bound is None or isfinite(bound))
                                                and (slack is None or isfinite(slack))):
                name = next(name for name, value in
                            (("observed", observed), ("bound", bound), ("slack", slack))
                            if value is not None and not isfinite(value))
                self.non_finite = (f"report record k={k}, tag {tag!r}: field {name!r} is not "
                                   "finite, and reports are strict JSON")


class ReportWriter:
    """The writer of report.json: json.dump(report.to_dict(), fh,
    sort_keys=True, indent=2, allow_nan=False) and a newline, from fixed
    templates, for certificate records that arrive as a stream.

    report.json puts by_tag before the records, and by_tag is known only once
    every record has arrived. So `add` takes the records _CHUNK_RECORDS at a
    time, tallies them and spools their texts to an anonymous temporary file;
    `finish` refuses a non-finite value; `write` writes by_tag, copies the
    spooled texts _COPY_CHARS at a time, and writes the summary. No step
    holds the records or the whole report. Closing the writer removes its
    spool.
    """

    def __init__(self) -> None:
        self.tally = _Tally()
        self._spool = tempfile.TemporaryFile("w+", encoding="ascii", newline="")
        self._spooled = False

    def __enter__(self) -> "ReportWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._spool.close()

    def add(self, records: Iterable[CertificateRecord]) -> None:
        """Tally `records` and spool their texts, _CHUNK_RECORDS at a time."""
        records = iter(records)
        while batch := list(itertools.islice(records, _CHUNK_RECORDS)):
            self.tally.add(batch)
            # a report with a non-finite value is refused, so its texts are not needed
            if self.tally.non_finite is None:
                self._spool.write((",\n" if self._spooled else "") + _record_texts(batch))
                self._spooled = True

    def finish(self) -> None:
        """Raise ValueError naming the first record with a value that is not
        finite, if there is one."""
        if self.tally.non_finite is not None:
            raise ValueError(self.tally.non_finite)

    def write(self, fh) -> None:
        """Write report.json to `fh`, a text file, after finish()."""
        self.finish()
        summary, by_tag = self.tally.summary(), self.tally.by_tag
        fh.write("{\n")
        if by_tag:
            fh.write('  "by_tag": {\n')
            fh.write(",\n".join(
                _TAG_TEMPLATE % (_json_str(tag), entry["failed"], _json_num(entry["min_slack"]),
                                 entry["not_evaluable"], entry["passed"], entry["total"])
                for tag, entry in sorted(by_tag.items())))
            fh.write("\n  },\n")
        else:
            fh.write('  "by_tag": {},\n')
        if self._spooled:
            fh.write('  "records": [\n')
            self._spool.seek(0)
            shutil.copyfileobj(self._spool, fh, _COPY_CHARS)
            fh.write("\n  ],\n")
        else:
            fh.write('  "records": [],\n')
        fh.write(_SUMMARY_TEMPLATE % (
            _JSON_LITERALS[summary["all_passed"]], summary["failed"],
            summary["not_evaluable"], summary["passed"], summary["total"]))


@dataclass
class CertificateReport:
    """The report.json dict of a list of certificate records, built by the
    generic route: the reference whose json.dump bytes ReportWriter's are
    tested against. No command builds one."""

    records: list[CertificateRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        tally = _Tally()
        tally.add(self.records)
        return {
            "summary": tally.summary(),
            "by_tag": tally.by_tag,
            "records": [r.to_dict() for r in self.records],
        }


# report.json templates: json.dump(sort_keys=True, indent=2) of one by_tag
# entry, one certificate record and the summary, at their depth in the report
_TAG_TEMPLATE = """\
    %s: {
      "failed": %d,
      "min_slack": %s,
      "not_evaluable": %d,
      "passed": %d,
      "total": %d
    }"""
_RECORD_TEMPLATE = """\
    {
      "bound": %s,
      "k": %d,
      "note": %s,
      "observed": %s,
      "passed": %s,
      "slack": %s,
      "tag": %s
    }"""
_SUMMARY_TEMPLATE = """\
  "summary": {
    "all_passed": %s,
    "failed": %d,
    "not_evaluable": %d,
    "passed": %d,
    "total": %d
  }
}
"""
# records per text spooled, and characters per copy of the spool: one string
# for a long run's whole report, or a large part of it, would raise its peak
_CHUNK_RECORDS = 256
_COPY_CHARS = 64 * 1024
_JSON_LITERALS = {None: "null", True: "true", False: "false"}
_json_str = json.encoder.encode_basestring_ascii  # the C encoder json.dump uses for strings


# the record template with a float's repr in place of _json_num's text, which
# is the same for a finite float
_FLOAT_RECORD_TEMPLATE = (_RECORD_TEMPLATE.replace('"bound": %s', '"bound": %r')
                          .replace('"observed": %s', '"observed": %r')
                          .replace('"slack": %s', '"slack": %r'))


def _record_text(r: CertificateRecord) -> str:
    """A certificate record's text in report.json, as json.dump writes it."""
    return _RECORD_TEMPLATE % (_json_num(r.bound), r.k, _json_str(r.note), _json_num(r.observed),
                               _JSON_LITERALS[r.passed], _json_num(r.slack), _json_str(r.tag))


def _record_texts(records) -> str:
    """The report.json texts of `records`, joined by ",\n", each the bytes
    of _record_text. A record whose observed, bound and slack are floats with
    a finite sum, so finite each, is formatted with _FLOAT_RECORD_TEMPLATE,
    with no call per value; _record_text formats any other, and raises what
    json.dump would."""
    isfinite = math.isfinite
    return ",\n".join(
        _FLOAT_RECORD_TEMPLATE % (r.bound, r.k, _json_str(r.note), r.observed,
                                  _JSON_LITERALS[r.passed], r.slack, _json_str(r.tag))
        if type(r.observed) is type(r.bound) is type(r.slack) is float
        and isfinite(r.observed + r.bound + r.slack) else _record_text(r)
        for r in records)


def _json_num(value) -> str:
    """A report float as json.dump writes it: null, or the float's repr."""
    if value is None:
        return "null"
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not a number in strict JSON")
    return float.__repr__(value)


def _integrity_note(i: int, rec, best: float, rule: StepSchedule | None) -> str | None:
    """What record i breaks of the trace's invariants, or None when it keeps
    them: it has k = i, its best_primal is `best`, the running minimum of
    primal, its alpha is finite and nonnegative, and alpha is, bit for bit,
    `rule`'s step at k from the record's primal. A polyak step needs ||g||^2,
    which no trace holds, and `run` refuses a header of no rule (`rule` None:
    lipschitz 0.0, say), so neither is checked."""
    if rec.k != i:
        return f"record {i} has k={rec.k}: iterations must run 0, 1, 2, ... once each"
    if rec.best_primal != best:
        return f"best_primal {rec.best_primal!r} is not the running minimum {best!r} of primal"
    if not (math.isfinite(rec.alpha) and rec.alpha >= 0.0):
        return f"step size alpha {rec.alpha!r} is not finite and nonnegative"
    if rule is None or rule.kind == "polyak":
        return None
    try:
        step = rule.step_size(i, value=rec.primal)
    except UndefinedStepError as exc:
        return f"step size alpha {rec.alpha!r} has no {rule.kind} step to equal: {exc}"
    # equal floats differ in their bits only as 0.0 and -0.0
    if rec.alpha == step and (step or str(rec.alpha) == str(step)):
        return None
    return f"step size alpha {rec.alpha!r} is not the {rule.kind} step {step!r}"


def certify(records: Iterable[IterationRecord], header: TraceHeader, count: int | None = None,
            ) -> Iterator[tuple[IterationRecord | None, list[CertificateRecord]]]:
    """The checker: one walk over `records`, any iterable, that yields each
    record with its certificate records, in report order, as the caller
    takes them, and last (None, the closing records). Every applicable bound
    is evaluated with the problem constants the header holds: the algorithm,
    the schedule kind, lipschitz, diameter, f_star, dist0, eps, horizon,
    dual_defined and format. A header is checked when it is made, so
    lipschitz and the diameter are always there, and so is the horizon of a
    kind tied to it.

    The certificates of the record at iteration k pair the best pre-step
    value over iterations 0..k with the post-step dual average (or the known
    optimal value) and with the bound built from step sizes 0..k. The closing
    records are the closed forms tied to a planned horizon, one each at the
    final planned iteration, then at most one failed trace-integrity record.
    It names the first record that breaks the trace's invariants
    (_integrity_note), checked in the same walk. When every record keeps
    them and `count`, the record count a whole trace holds, is given and
    differs from theirs, it names the count instead; a consistent trace gets
    none, so its report is unchanged.
    """
    algo = header.algorithm
    try:
        rule = StepSchedule.of(header)
    except ValueError:
        rule = None

    step_sum = 0.0
    step_sq_sum = 0.0
    # the gap certificates refer to best_primal; a format-1 adaboost trace's
    # reports keep their bytes by referring to its running minimum grad_norm
    by_grad_norm = algo == "adaboost" and header.format == 1
    best_grad_norm = math.inf
    dual_ref = " (dual average undefined: zero step-size mass)"
    best = math.inf
    broken = None
    n = 0

    for n, rec in enumerate(records, 1):
        t = rec.k
        if broken is None:
            if rec.primal < best:
                best = rec.primal
            note = _integrity_note(n - 1, rec, best, rule)
            if note is not None:
                broken = CertificateRecord(t, TRACE_INTEGRITY, None, None, None, False, note)
        group: list[CertificateRecord] = []
        add = group.append
        step_sum += rec.alpha
        step_sq_sum += rec.alpha * rec.alpha
        if by_grad_norm and rec.grad_norm is not None and rec.grad_norm < best_grad_norm:
            best_grad_norm = rec.grad_norm
        gap_ref = best_grad_norm if by_grad_norm else rec.best_primal

        if header.dual_defined:
            if rec.dual is None:
                add(_not_evaluable(t, WEAK_DUALITY, "no dual value" + dual_ref))
            else:
                add(_evaluated(t, WEAK_DUALITY, rec.dual, rec.best_primal))
            if rec.dual is None:
                add(_not_evaluable(t, GAP_RUNNING, "no dual value" + dual_ref))
            elif step_sum <= 0.0:  # only in a tampered trace: runs record no dual then
                add(_not_evaluable(t, GAP_RUNNING, "zero step-size sum"))
            else:
                bound = _ratio_bound(header.diameter, header.lipschitz, step_sum, step_sq_sum)
                add(_evaluated(t, GAP_RUNNING, gap_ref - rec.dual, bound,
                               steps_finite=math.isfinite(step_sq_sum)))
            if header.schedule_kind == "dynamic":
                if rec.dual is None:
                    add(_not_evaluable(t, GAP_DYNAMIC, "no dual value" + dual_ref))
                elif t < 0:  # only in a tampered trace, which fails trace-integrity
                    add(_not_evaluable(t, GAP_DYNAMIC, "negative iteration"))
                else:
                    bound = dynamic_bound(header.diameter, header.lipschitz, t)
                    add(_evaluated(t, GAP_DYNAMIC, gap_ref - rec.dual, bound))

        if header.f_star is not None:
            observed = rec.best_primal - header.f_star
            if step_sum <= 0.0:
                add(_not_evaluable(t, OPT_RUNNING, "zero step-size sum"))
            else:
                bound = _ratio_bound(header.diameter, header.lipschitz, step_sum, step_sq_sum)
                add(_evaluated(t, OPT_RUNNING, observed, bound,
                               steps_finite=math.isfinite(step_sq_sum)))
            if header.schedule_kind in ("polyak", "linesearch"):
                if header.dist0 is None:  # the game's simplex header has none
                    add(_not_evaluable(t, OPT_POLYAK, "missing dist0 or lipschitz constant"))
                elif t < 0:  # only in a tampered trace, which fails trace-integrity
                    add(_not_evaluable(t, OPT_POLYAK, "negative iteration"))
                else:
                    bound = polyak_bound(header.lipschitz, header.dist0, t)
                    add(_evaluated(t, OPT_POLYAK, observed, bound))

        if algo == "stagewise":
            if rec.l0 is not None:
                add(_evaluated(t, SPARSITY_L0, float(rec.l0), float(t)))
            if rec.l1 is not None:
                if header.eps is None:
                    add(_not_evaluable(t, SPARSITY_L1, "no constant shrinkage for this run"))
                else:
                    add(_evaluated(t, SPARSITY_L1, rec.l1, t * header.eps,
                                   _shrinkage_rounding(t, header.eps)))
        yield rec, group

    if n == 0:
        raise ValueError("cannot check an empty trace")
    final = rec
    # horizon-tied closed forms: one record per run, at the planned final iteration
    closing: list[CertificateRecord] = []
    add = closing.append
    if header.dual_defined and header.schedule_kind == "constant":
        if final.k != header.horizon - 1:
            add(_not_evaluable(header.horizon - 1, GAP_CONSTANT,
                               "run ended before the planned horizon"))
        elif final.dual is None:
            add(_not_evaluable(final.k, GAP_CONSTANT, "no dual value" + dual_ref))
        else:
            gap_ref = best_grad_norm if by_grad_norm else final.best_primal
            bound = constant_bound(header.diameter, header.lipschitz, header.horizon)
            add(_evaluated(final.k, GAP_CONSTANT, gap_ref - final.dual, bound))
    if header.f_star is not None and header.schedule_kind == "optimal":
        if final.k != header.horizon - 1:
            add(_not_evaluable(header.horizon - 1, OPT_HORIZON,
                               "run ended before the planned horizon"))
        else:
            observed = final.best_primal - header.f_star
            bound = polyak_bound(header.lipschitz, header.dist0, header.horizon - 1)
            add(_evaluated(final.k, OPT_HORIZON, observed, bound))
    if broken is None and count is not None and n != count:
        broken = CertificateRecord(
            n, TRACE_INTEGRITY, None, None, None, False,
            f"{n} records and no terminal line, but the header asks for {count} iterations")
    if broken is not None:
        add(broken)
    yield None, closing
