"""Benchmark of the mirrorboost command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload boost-stumps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A closed loop with a single client: each mirrorboost process starts only
after the previous one has ended. One operation is

  1. `mirrorboost run`, launched through tracer.py with spans on the instance
     build and the runner call only (run_s, run_peak_rss_mb, and from the
     spans setup_s and iters_per_s);
  2. `python -m mirrorboost check` on the trace that run wrote, repeated the
     workload's number of times (check_s, check_peak_rss_mb, one sample each).

With --trace 1 each operation is followed by the same two commands run
in-process under tracer.py with every layer traced. Those spans give the
per-layer metrics; the two run times give the tracing overhead.

Before the first operation, reference.py builds the instance with its own
code, fails unless mirrorboost's data build yields the same matrix, and
computes the final values every operation must reproduce. An operation fails
unless every command exits 0, each check regenerates run's report.json and
report.txt byte for byte, the trace header gives the reference's matrix shape,
and the final best primal and dual values in the trace agree with the
reference to 1e-9 relative (or to 1e-12 of the problem's scale). Under
--trace 1 the traced run's outputs must also equal the untraced run's byte for
byte, and no span wrapper may be left in place after a traced command.

Operations start while the next one is expected to end within --seconds of
the start, and at least MIN_OPS run. Timings are medians over their samples. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, holding the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from layers import ALIAS, COMPUTED, NAMED, RUNNERS, Spans, per_layer, resolve
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# One BLAS thread in every child: steadier on a small shared machine, and never above nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 2
CHILD_TIMEOUT_S = 120
REL_TOL = 1e-9
# Absolute floor of the gate, as a share of the problem's scale: the best edge
# of a non-separable instance sinks into rounding noise near 0.
ABS_TOL = 1e-12
PREFIX = "op"
REPORTS = ("report.json", "report.txt")
# spans recorded in the untraced run: the instance build (with the least-squares
# solve fs makes before running) and the runner call
TIMED = ("datagen.generate_synthetic", "stagewise.least_squares_norm", *RUNNERS)
OUTPUTS = ("trace.jsonl", "report.json", "report.txt", "plot.csv")


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    code: int
    output: str


def read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


class Bench:
    """Operations of one workload at one seed, and what they measured."""

    def __init__(self, root: Path, workload, seed: int, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("MIRRORBOOST_OUTDIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layers: list[dict[str, float]] = []
        self.windows: list[float] = []
        self.reference: dict | None = None
        self.layer: str | None = None  # layer of the workload's runner
        self.trace_hashes: set[str] = set()
        self.shape: tuple[int, int] | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to its end; its own peak RSS comes from wait4."""
        with open(self.work / "child.log", "w+b") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            output = log.read().decode("utf-8", "replace")
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, output)

    def compare_final(self, final: dict, where: str) -> list[str]:
        """The gate on results: within REL_TOL of the reference, or within
        ABS_TOL times the problem's scale."""
        problems = []
        for key in ("best_primal", "dual"):
            got, want = final[key], self.reference[key]
            if got is None or want is None:
                ok = got is None and want is None
            else:
                ok = abs(got - want) <= max(REL_TOL * max(abs(got), abs(want)),
                                            ABS_TOL * self.reference["scale"])
            if not ok:
                problems.append(f"{where}: final {key} {got!r} differs from the reference {want!r}")
        return problems

    def fetch_reference(self) -> list[str]:
        child = self.spawn([sys.executable, str(HERE / "reference.py"),
                            "--workload", self.workload.name, "--seed", str(self.seed)])
        if child.code != 0:
            return [f"reference.py exited {child.code}: {tail(child.output)}"]
        self.reference = json.loads(child.output.strip().splitlines()[-1])
        return []

    def spans(self, path: Path, problems: list[str]) -> Spans | None:
        if not path.exists():
            problems.append(f"{path.name} was not written")
            return None
        obj = json.loads(path.read_text(encoding="utf-8"))
        if obj["leftovers"]:
            problems.append(f"{path.name}: span wrappers left in place on "
                            f"{', '.join(obj['leftovers'])}")
        return Spans.from_dict(obj["spans"])

    def run_and_check(self, tag: str, op: int, traced: bool, problems: list[str],
                      checks: int = 1):
        """`mirrorboost run` then `checks` times `check`, all fully traced or not.
        The untraced run records only the TIMED spans; the untraced check is the
        plain CLI. Each check writes to a directory of its own."""
        out = self.work / tag

        def tracer(command: str, only: tuple[str, ...] = ()) -> list[str]:
            return [sys.executable, str(HERE / "tracer.py"), "--op", str(op),
                    "--spans", str(self.work / f"{tag}.{command}.spans.json"),
                    *(["--only", ",".join(only)] if only else []), "--"]

        run_args = ["run", *self.workload.run_args(self.seed),
                    "--out", str(out), "--prefix", PREFIX]
        run = self.spawn(tracer("run", () if traced else TIMED) + run_args)
        if run.code != 0:
            problems.append(f"{tag} run exited {run.code}: {tail(run.output)}")
        reports = {f"{PREFIX}.{name}": read_bytes(out / f"{PREFIX}.{name}") for name in REPORTS}
        checked = []
        for k in range(checks):
            check_out = self.work / f"{tag}-check{k}"
            check = self.spawn((tracer("check") if traced else [sys.executable, "-m", "mirrorboost"])
                               + ["check", str(out / f"{PREFIX}.trace.jsonl"),
                                  "--out", str(check_out)])
            if check.code != 0:
                problems.append(f"{tag} check {k} exited {check.code}: {tail(check.output)}")
            for report, data in reports.items():
                if read_bytes(check_out / report) != data:
                    problems.append(f"{tag}: check {k}'s {report} differs from run's")
            checked.append(check)
        return run, checked, out

    def read_trace(self, out: Path, problems: list[str]) -> dict | None:
        data = read_bytes(out / f"{PREFIX}.trace.jsonl")
        if not data:
            problems.append("run wrote no trace")
            return None
        self.trace_hashes.add(hashlib.sha256(data).hexdigest())
        lines = data.splitlines()
        header, last = json.loads(lines[0]), json.loads(lines[-1])
        terminal = last["type"] == "terminal"
        if terminal:
            last = json.loads(lines[-2])
        shape = header["shape"]
        self.shape = (shape["n"], shape["p"]) if "p" in shape else (shape["m"], shape["n"])
        if list(self.shape) != self.reference["shape"]:
            problems.append(f"run: matrix shape {self.shape} in the trace, "
                            f"{tuple(self.reference['shape'])} in the reference")
        problems.extend(self.compare_final(last, "run"))
        return {"bytes": data, "records": len(lines) - 1 - terminal}

    def untraced_op(self, index: int, problems: list[str]):
        run, checks, out = self.run_and_check(str(index), index, False, problems,
                                              self.workload.checks)
        trace = self.read_trace(out, problems)
        timers = self.spans(self.work / f"{index}.run.spans.json", problems)
        if trace is None or timers is None:
            return None
        runner = next(i for i, name in enumerate(timers.names) if name in RUNNERS)
        self.layer = RUNNERS[timers.names[runner]][0]
        self.samples["setup_s"].append(timers.total_s("datagen.generate_synthetic")
                                       + timers.total_s("stagewise.least_squares_norm"))
        self.samples["run_s"].append(run.wall_s)
        self.samples["check_s"].extend(check.wall_s for check in checks)
        self.samples["iters_per_s"].append(trace["records"] * 1e9 / timers.duration(runner))
        self.samples["run_peak_rss_mb"].append(run.peak_rss_mb)
        self.samples["check_peak_rss_mb"].extend(check.peak_rss_mb for check in checks)
        return out, trace

    def traced_op(self, index: int, problems: list[str]) -> None:
        untraced = self.untraced_op(index, problems)
        traced_run, _, traced_out = self.run_and_check(f"{index}-traced", index, True, problems)
        self.samples["traced_run_s"].append(traced_run.wall_s)
        if untraced is None:
            return
        out, trace = untraced
        for name in OUTPUTS:
            if read_bytes(traced_out / f"{PREFIX}.{name}") != read_bytes(out / f"{PREFIX}.{name}"):
                problems.append(f"the traced run's {name} differs from the untraced run's")
        run = self.spans(self.work / f"{index}-traced.run.spans.json", problems)
        check = self.spans(self.work / f"{index}-traced.check.spans.json", problems)
        if run is None or check is None:
            return
        report_txt = (out / f"{PREFIX}.report.txt").read_text(encoding="utf-8")
        metrics, self.windows = per_layer(
            run, check, shape=self.shape, records=trace["records"],
            certificates=int(re.search(r"^summary: (\d+) checked", report_txt, re.M).group(1)),
            trace_bytes=len(trace["bytes"]),
            output_bytes=sum((out / f"{PREFIX}.{name}").stat().st_size for name in OUTPUTS))
        self.layers.append(metrics)

    def measure(self, deadline: float, traced: bool) -> None:
        problems = self.fetch_reference()
        if problems:
            self.attempted = self.failed = 1
            self.problems.extend(problems)
            return
        last = 0.0
        while self.attempted < MIN_OPS or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            problems = []
            (self.traced_op if traced else self.untraced_op)(self.attempted, problems)
            for path in self.work.iterdir():
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()
            if problems:
                self.failed += 1
                self.problems.extend(f"op {self.attempted}: {p}" for p in problems)
            self.attempted += 1
            last = time.perf_counter() - t0

    def end_to_end(self) -> dict[str, float]:
        return {name: statistics.median(values) for name, values in self.samples.items()
                if name != "traced_run_s" and values}

    def per_layer(self) -> dict[str, float]:
        names = {name for metrics in self.layers for name in metrics}
        out = {name: statistics.median(m[name] for m in self.layers if name in m) for name in names}
        if self.samples["traced_run_s"]:
            out["bench.tracing_overhead_s"] = (statistics.median(self.samples["traced_run_s"])
                                               - statistics.median(self.samples["run_s"]))
        return out


def environment(seed: int) -> list[str]:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    nproc = len(os.sched_getaffinity(0))
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        llc = f"{int(llc) / 2**20:.1f} MiB" if llc.isdigit() and int(llc) else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        llc = "unknown"
    return [
        f"environment: python {platform.python_version()}, numpy {version('numpy')}, "
        f"scipy {version('scipy')}, nproc {nproc}, BLAS threads {BLAS_THREADS} "
        f"({', '.join(BLAS_VARS)}), last-level cache {llc}, workload seed {seed}",
        f"note: all numbers come from a shared {nproc}-core CPU sandbox; "
        "other tenants' load adds noise",
    ]


def describe(bench: Bench, traced: bool, seconds: int, spec: dict) -> list[str]:
    w = bench.workload
    why = next(entry["why"] for entry in spec["workloads"] if entry["name"] == w.name)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines = [f"workload {w.name}: {w.task} {w.data_spec(bench.seed)} --schedule {w.schedule} "
             f"--iters {w.iterations}",
             f"  why: {why}",
             f"  closed loop, 1 client, {bench.attempted} operations in about {seconds} s, "
             f"{bench.failed} failed"]
    if bench.shape is not None:
        rows, cols = bench.shape
        lines.append(f"  matrix {rows}x{cols}, {rows * cols * 8 / 1e6:.1f} MB (computed from the "
                     "trace header); compare with the last-level cache above")
    if bench.reference is not None:
        lines.append(f"  matrix sha256 (information only): {bench.reference['sha256']}")
    lines.append(f"  trace sha256 (information only): {', '.join(sorted(bench.trace_hashes))}")
    if not traced:
        lines.append("  end-to-end: median [min, max] over samples, and the sample count")
        for name, values in bench.samples.items():
            lines.append(f"    {name:<18} {statistics.median(values):.6g} {units[name]}  "
                         f"[{min(values):.6g}, {max(values):.6g}]  n={len(values)}")
        lines.append(f"    {'fail_ratio':<18} {bench.failed / max(bench.attempted, 1):.6g}  "
                     f"({bench.failed} of {bench.attempted} operations failed)")
    else:
        layers = bench.per_layer()
        # units from BENCHMARK.json where it lists the metric; the rest are timings
        units = {resolve(m["name"], bench.layer): m["unit"] for m in spec["per_layer"]}
        lines.append(f"  per-layer: median over {len(bench.layers)} traced operations; "
                     "(computed) marks counts derived from call counts, not measured; "
                     f"BENCHMARK.json's {ALIAS}* metrics are {bench.layer}.* here")
        for name in NAMED + tuple(sorted(set(layers) - set(NAMED))):
            if name in layers:
                tag = " (computed)" if name.rpartition(".")[2].startswith(COMPUTED) else ""
                unit = units.get(name, "us" if name.endswith("_us") else "s")
                lines.append(f"    {name:<30} {layers[name]:.6g} {unit}{tag}")
            else:
                lines.append(f"    {name:<30} n/a: this workload does not reach the layer")
        if bench.windows:
            lines.append("  round time per window of rounds (us, last traced run): "
                         + " ".join(f"{v:.1f}" for v in bench.windows))
    lines.extend(f"  FAILED {p}" for p in bench.problems[:10])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # so that a terminated benchmark still kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "mirrorboost" / "__init__.py").is_file():
        print("error: src/mirrorboost not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)

    for line in environment(args.seed):
        print(line)
    (root / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench-work"))
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            bench = Bench(root, WORKLOADS[name], args.seed, work)
            bench.measure(time.perf_counter() + args.seconds, traced=bool(args.trace))
            for line in describe(bench, bool(args.trace), args.seconds, spec):
                print(line, flush=True)
            attempted += bench.attempted
            failed += bench.failed
            values = bench.per_layer() if args.trace else bench.end_to_end()
            values = {m["name"]: values[resolve(m["name"], bench.layer)] for m in listed
                      if resolve(m["name"], bench.layer) in values}
            missing = [m["name"] for m in listed if m["name"] not in values]
            if missing:
                print(f"error: {name}: no value for {', '.join(missing)}", file=sys.stderr)
                return 1
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                            for m in listed})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
