"""The engine views reproduce the outputs of the separate loops they replaced.

tests/data/parent holds the trace, report and plot files that the separate
AdaBoost and FS_ε loops and the engine of that commit wrote, with the commands
in its README. Its traces are format 1; runs now write format 2, which states
each fact once. So each parent trace line, without its `slacks`, `grad_norm`
and `schedule` and with the header's `"format": 2`, is compared with the new
line, and each dropped fact with where it lives now:
- a record's slacks with the slack report.json holds for the same k and tag
- adaboost's grad_norm with the record's primal, within 1e-12: the old loop
  evaluated the loss gradient, whose max-norm equals the edge by identity
- the header's schedule dict with the one its other fields derive

fs must write the parent's bytes exactly: its trace after that transform,
its reports and its plot. On the simplex primal domain (adaboost and
minmax-game) the engine now keeps the dual value in running margins where
the parent recomputed it densely: `dual` may differ within
oracles.dual_rounding_bound, and the values derived from it (the observed
values and slacks of weak-duality and the gap certificates, and the plot's
gap) by at most 1e-12. Nothing else may differ.
"""

import csv
import io
import json
import math
import shutil
from pathlib import Path

import pytest

from mirrorboost.cli import main
from mirrorboost.schedule import EDGE_CAP
from oracles import dual_rounding_bound

PARENT = Path(__file__).parent / "data" / "parent"
COMMANDS = {
    "adaboost": ["adaboost", "--data", "synthetic:nonseparable:seed=1:m=20:d=2",
                 "--schedule", "dynamic"],
    "fs": ["fs", "--data", "synthetic:regression:seed=1:n=20:p=10", "--schedule", "linesearch"],
    "game": ["minmax-game", "--data", "synthetic:game:seed=1:m=20:n=15",
             "--schedule", "dynamic"],
}
OUTPUTS = ("trace.jsonl", "report.json", "report.txt", "plot.csv")
TOLERANCE = 1e-12


def _run(prefix: str, out: Path) -> None:
    argv = ["run", *COMMANDS[prefix], "--iters", "30", "--out", str(out), "--prefix", prefix]
    assert main(argv) == 0


def _moves(tag: str) -> bool:
    # the certificates whose observed value is computed from the dual value
    return tag == "weak-duality" or tag.startswith("gap-")


def _assert_near(old, new, where: str, tolerance: float = TOLERANCE) -> None:
    assert abs(new - old) <= tolerance, f"{where}: {old!r} -> {new!r}"


def _dual_bounds(trace: str) -> dict[int, float]:
    """dual_rounding_bound at each record of a simplex-domain trace."""
    header, *lines = map(json.loads, trace.splitlines())
    # on the simplex primal domain the Lipschitz constant is max|A|
    max_abs, n = header["lipschitz"], header["shape"]["n"]
    step_sum, bounds = 0.0, {}
    for rec in lines:
        if rec["type"] == "record":
            step_sum += rec["alpha"]
            bounds[rec["k"]] = dual_rounding_bound(max_abs, n, rec["k"], step_sum)
    return bounds


def _format_2(line: dict) -> dict:
    """A format-1 trace line as format 2 writes it: without the facts that
    live elsewhere, and a header that says its format."""
    line = {key: value for key, value in line.items()
            if key not in ("slacks", "grad_norm", "schedule")}
    if line["type"] == "header":
        line["format"] = 2
    return line


def _derived_schedule(header: dict) -> dict:
    """The schedule dict runs wrote into a format-1 header, from the fields
    of the format-2 header: its kind follows from the algorithm and the
    schedule kind, a constant step from the diameter, the Lipschitz constant
    and the horizon, a fixed step is eps, and the edge cap is EDGE_CAP."""
    kind = {("adaboost", "linesearch"): "edge-linesearch", ("stagewise", "constant"): "fixed",
            ("stagewise", "optimal"): "fixed", ("stagewise", "linesearch"): "polyak",
            }.get((header["algorithm"], header["schedule_kind"]), header["schedule_kind"])
    lipschitz, diameter = header["lipschitz"], header["diameter"]
    if kind == "constant":
        alpha = math.sqrt(2.0 * diameter / header["horizon"]) / lipschitz
        return {"kind": kind, "alpha": alpha, "lipschitz": lipschitz, "diameter": diameter}
    if kind == "dynamic":
        return {"kind": kind, "lipschitz": lipschitz, "diameter": diameter}
    if kind == "polyak":
        return {"kind": kind, "f_star": header["f_star"]}
    if kind == "fixed":
        return {"kind": kind, "alpha": header["eps"]}
    return {"kind": kind, "edge_cap": EDGE_CAP}


def _compare_dropped_facts(old: str, new: str, report: str) -> None:
    """Each fact a parent trace states that format 2 drops, against where it
    lives now: slacks in report.json, under the rules of _compare_report;
    adaboost's grad_norm as the primal of the new trace, within 1e-12 (null
    elsewhere); and the schedule dict as the new header derives it."""
    old_lines, new_lines = list(map(json.loads, old.splitlines())), \
        list(map(json.loads, new.splitlines()))
    assert old_lines[0]["schedule"] == _derived_schedule(new_lines[0])
    slacks = {(r["k"], r["tag"]): r["slack"] for r in json.loads(report)["records"]
              if r["slack"] is not None}
    old_slacks = {}
    for a, b in zip(old_lines[1:], new_lines[1:]):
        old_slacks.update(((a["k"], tag), slack) for tag, slack in a["slacks"].items())
        if a["algorithm"] == "adaboost":
            _assert_near(a["grad_norm"], b["primal"], f"k={a['k']} grad_norm")
        else:
            assert a["grad_norm"] is None
    assert old_slacks.keys() == slacks.keys()
    for (k, tag), slack in old_slacks.items():
        if _moves(tag):
            _assert_near(slack, slacks[k, tag], f"k={k} {tag} slack")
        else:
            assert slack == slacks[k, tag], f"k={k} {tag} slack"


def _compare_trace(old: str, new: str, dual_bounds: dict[int, float]) -> None:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    assert len(old_lines) == len(new_lines)
    for a, b in zip(map(json.loads, old_lines), map(json.loads, new_lines)):
        a = _format_2(a)
        if a["type"] != "record":
            assert a == b
            continue
        k = a["k"]
        _assert_near(a.pop("dual"), b.pop("dual"), f"k={k} dual", dual_bounds[k])
        assert a == b


def _compare_report(old: str, new: str) -> None:
    a, b = json.loads(old), json.loads(new)
    assert a["summary"] == b["summary"]
    assert a["by_tag"].keys() == b["by_tag"].keys()
    for tag, entry in a["by_tag"].items():
        other = dict(b["by_tag"][tag])
        if _moves(tag):
            _assert_near(entry["min_slack"], other["min_slack"], f"{tag} min_slack")
            other["min_slack"] = entry["min_slack"]
        assert entry == other
    assert len(a["records"]) == len(b["records"])
    for ra, rb in zip(a["records"], b["records"]):
        rb = dict(rb)
        if _moves(ra["tag"]):
            for key in ("observed", "slack"):
                _assert_near(ra[key], rb[key], f"k={ra['k']} {ra['tag']} {key}")
                rb[key] = ra[key]
        assert ra == rb


def _compare_plot(old: str, new: str, dual_bounds: dict[int, float]) -> None:
    a = list(csv.DictReader(io.StringIO(old)))
    b = list(csv.DictReader(io.StringIO(new)))
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        k = int(ra["k"])
        _assert_near(float(ra.pop("dual")), float(rb.pop("dual")), f"k={k} dual", dual_bounds[k])
        _assert_near(float(ra.pop("gap")), float(rb.pop("gap")), f"k={k} gap")
        assert ra == rb


@pytest.mark.parametrize("prefix", ["fs"])
def test_engine_views_write_the_parent_bytes(tmp_path, prefix):
    _run(prefix, tmp_path)
    for name in OUTPUTS[1:]:
        assert (tmp_path / f"{prefix}.{name}").read_bytes() == \
            (PARENT / f"{prefix}.{name}").read_bytes(), name
    old = (PARENT / f"{prefix}.trace.jsonl").read_text(encoding="utf-8")
    new = (tmp_path / f"{prefix}.trace.jsonl").read_text(encoding="utf-8")
    assert new == "".join(json.dumps(_format_2(json.loads(line)), sort_keys=True) + "\n"
                          for line in old.splitlines())
    _compare_dropped_facts(old, new, (tmp_path / f"{prefix}.report.json").read_text())


@pytest.mark.parametrize("prefix", ["adaboost", "game"])
def test_simplex_runs_differ_from_the_parent_only_by_rounding(tmp_path, prefix):
    _run(prefix, tmp_path)

    def read(root: Path, name: str) -> str:
        return (root / f"{prefix}.{name}").read_text(encoding="utf-8")

    dual_bounds = _dual_bounds(read(PARENT, "trace.jsonl"))
    _compare_trace(read(PARENT, "trace.jsonl"), read(tmp_path, "trace.jsonl"), dual_bounds)
    _compare_dropped_facts(read(PARENT, "trace.jsonl"), read(tmp_path, "trace.jsonl"),
                           read(tmp_path, "report.json"))
    _compare_report(read(PARENT, "report.json"), read(tmp_path, "report.json"))
    _compare_plot(read(PARENT, "plot.csv"), read(tmp_path, "plot.csv"), dual_bounds)
    assert read(tmp_path, "report.txt") == read(PARENT, "report.txt")


@pytest.mark.parametrize("prefix", ["adaboost", "fs", "game"])
def test_check_regenerates_the_parent_report(tmp_path, prefix):
    # the checker reads grad_norm from the trace, so the parent's adaboost
    # trace still yields the parent's report
    shutil.copy(PARENT / f"{prefix}.trace.jsonl", tmp_path)
    assert main(["check", str(tmp_path / f"{prefix}.trace.jsonl"),
                 "--out", str(tmp_path / "redo")]) == 0
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "redo" / f"{prefix}.{name}").read_bytes() == \
            (PARENT / f"{prefix}.{name}").read_bytes(), name
