"""The engine views reproduce the outputs of the separate loops they replaced.

tests/data/parent holds the trace, report and plot files that the separate
AdaBoost and FS_ε loops and the engine of that commit wrote, with the commands
in its README. fs must write those bytes exactly. On the simplex primal
domain (adaboost and minmax-game) the engine now keeps the dual value in
running margins where the parent recomputed it densely: `dual` may differ
within oracles.dual_rounding_bound, and the values derived from it (the
observed values and slacks of weak-duality and the gap certificates, and the
plot's gap) by at most 1e-12. adaboost also records the edge as grad_norm
where the old loop evaluated the loss gradient; the two agree by identity up
to rounding, within 1e-12. Nothing else may differ.
"""

import csv
import io
import json
import shutil
from pathlib import Path

import pytest

from mirrorboost.cli import main
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


def _compare_trace(old: str, new: str, dual_bounds: dict[int, float]) -> None:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    assert len(old_lines) == len(new_lines)
    for a, b in zip(map(json.loads, old_lines), map(json.loads, new_lines)):
        if a["type"] != "record":
            assert a == b
            continue
        k = a["k"]
        _assert_near(a.pop("dual"), b.pop("dual"), f"k={k} dual", dual_bounds[k])
        if a["algorithm"] == "adaboost":
            _assert_near(a.pop("grad_norm"), b.pop("grad_norm"), f"k={k} grad_norm")
        slacks_a, slacks_b = a.pop("slacks"), b.pop("slacks")
        assert a == b
        assert slacks_a.keys() == slacks_b.keys()
        for tag, slack in slacks_a.items():
            if _moves(tag):
                _assert_near(slack, slacks_b[tag], f"k={k} {tag} slack")
            else:
                assert slack == slacks_b[tag]


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
    for name in OUTPUTS:
        assert (tmp_path / f"{prefix}.{name}").read_bytes() == \
            (PARENT / f"{prefix}.{name}").read_bytes(), name


@pytest.mark.parametrize("prefix", ["adaboost", "game"])
def test_simplex_runs_differ_from_the_parent_only_by_rounding(tmp_path, prefix):
    _run(prefix, tmp_path)

    def read(root: Path, name: str) -> str:
        return (root / f"{prefix}.{name}").read_text(encoding="utf-8")

    dual_bounds = _dual_bounds(read(PARENT, "trace.jsonl"))
    _compare_trace(read(PARENT, "trace.jsonl"), read(tmp_path, "trace.jsonl"), dual_bounds)
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
