"""Per-layer metrics from the spans of one traced operation (a run and its check).

Times are summed over calls and, for per-round layers, divided by the number
of rounds. Self time is a span's duration minus that of its child spans.
Counts marked computed are derived from call counts and the number of full
passes over the matrix each call makes, read from the code below; they are
not measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

# Full O(m*n) passes over the payoff or design matrix made by one call.
PASSES_PER_CALL = {
    "boosting.weak_learner": 1,  # margins.T @ weights
    "boosting.edge": 1,  # margins.T @ weights
    "boosting.margin": 1,  # margins @ lam
    "boosting.log_exp_loss": 2,  # margins @ coefficients, then margins.T @ soft
    "md_core.dual_response": 1,  # payoff.T @ x
    "md_core.dual_value": 1,  # payoff @ lam
    "stagewise.fs_step": 1,  # design.T @ residual
    "stagewise.correlation_objective": 1,  # design.T @ residual
}

# runner span -> (layer, its per-round public function, passes its own loop body makes per round)
RUNNERS = {
    "boosting.run_adaboost": ("boosting", "boosting.adaboost_step", 1),  # margins.T @ w
    "md_core.run": ("md_core", "md_core.md_step", 0),
    "stagewise.run_fs": ("stagewise", "stagewise.fs_step", 1),  # design.T @ r
}

# Rounds per window for the windowed round times and round_growth.
WINDOW = 1000

# Every per-layer metric this benchmark names, in print order. A workload that
# does not reach a layer lists the metric as not applicable.
NAMED = (
    "datagen.build_s", "datagen.build_stumps_s", "datagen.closure_s", "datagen.columns",
    "datagen.matrix_mb",
    "boosting.round_us", "boosting.log_exp_loss_us", "boosting.adaboost_step_us",
    "boosting.margin_us", "boosting.loop_self_us", "boosting.passes_per_round",
    "boosting.bytes_per_round", "boosting.round_growth",
    "md_core.round_us", "md_core.dual_response_us", "md_core.dual_value_us",
    "md_core.md_step_us", "md_core.passes_per_round", "prox.prox_solve_us",
    "stagewise.round_us", "stagewise.fs_step_us", "stagewise.support_size_us",
    "stagewise.passes_per_round", "stagewise.lstsq_s",
    "bounds.check_s", "bounds.us_per_record", "bounds.certificates", "bounds.report_to_dict_s",
    "trace.write_s", "trace.read_s", "trace.bytes",
    "cli.self_s", "cli.output_bytes",
    "bench.tracing_overhead_s",
)

COMPUTED = ("passes_per_round", "bytes_per_round", "matrix_mb", "columns")

# BENCHMARK.json lists every per-layer metric each workload reports, so the
# metrics of the workload's one runner appear there as runner.<metric>, an
# alias of <layer>.<metric> for the runner's layer.
ALIAS = "runner."


def resolve(name: str, layer: str) -> str:
    """The metric a BENCHMARK.json per-layer name stands for on a workload
    whose runner lives in `layer`."""
    return f"{layer}.{name[len(ALIAS):]}" if name.startswith(ALIAS) else name


@dataclass
class Spans:
    names: list[str]
    start: list[int]
    end: list[int]
    parent: list[int]

    @classmethod
    def from_dict(cls, obj: dict) -> "Spans":
        table = obj["names"]
        return cls([table[i] for i in obj["name"]], obj["start"], obj["end"], obj["parent"])

    def duration(self, i: int) -> int:
        return self.end[i] - self.start[i]

    def where(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def total_s(self, name: str) -> float:
        return sum(self.duration(i) for i in self.where(name)) / 1e9

    def self_ns(self, i: int) -> int:
        children = sum(self.duration(c) for c, p in enumerate(self.parent) if p == i)
        return self.duration(i) - children


def runner_metrics(run: Spans, matrix_bytes: int) -> tuple[dict[str, float], list[float]]:
    """Per-round metrics of the one runner in the run command, under its
    layer's name, plus the mean round time of each window of WINDOW rounds (us)."""
    (runner,) = [i for i, n in enumerate(run.names) if n in RUNNERS]
    layer, per_round, loop_passes = RUNNERS[run.names[runner]]
    inside = [i for i in range(len(run.names))
              if run.start[runner] <= run.start[i] and run.end[i] <= run.end[runner]]
    starts = sorted(run.start[i] for i in inside if run.names[i] == per_round)
    rounds = len(starts)
    passes = loop_passes * rounds + sum(PASSES_PER_CALL.get(run.names[i], 0) for i in inside)
    metrics = {
        "round_us": run.duration(runner) / rounds / 1e3,
        "loop_self_us": run.self_ns(runner) / rounds / 1e3,
        "passes_per_round": passes / rounds,
        "bytes_per_round": passes / rounds * matrix_bytes,
    }
    # round boundaries: successive calls of the per-round function
    gaps = [(b - a) / 1e3 for a, b in zip(starts, starts[1:])]
    width = min(WINDOW, len(gaps) // 2)
    windows = []
    if width:
        windows = [fmean(gaps[k:k + width]) for k in range(0, len(gaps) - width + 1, width)]
        metrics["round_growth"] = fmean(gaps[-width:]) / fmean(gaps[:width])
    metrics = {f"{layer}.{k}": v for k, v in metrics.items()}
    for child in {run.names[i] for i, p in enumerate(run.parent) if p == runner}:
        metrics[f"{child}_us"] = run.total_s(child) / rounds * 1e6
    if layer == "md_core":
        prox = [i for i in inside if run.names[i] == "prox.prox_solve"
                and run.names[run.parent[i]] == "md_core.md_step"]
        metrics["prox.prox_solve_us"] = sum(run.duration(i) for i in prox) / rounds / 1e3
    return metrics, windows


def per_layer(run: Spans, check: Spans, *, shape: tuple[int, int], records: int,
              certificates: int, trace_bytes: int, output_bytes: int) -> tuple[dict, list[float]]:
    """Per-layer metrics of one operation; see NAMED for the full list."""
    rows, cols = shape
    matrix_bytes = rows * cols * 8
    metrics, windows = runner_metrics(run, matrix_bytes)
    metrics.update({
        "datagen.build_s": run.total_s("datagen.generate_synthetic"),
        "datagen.columns": cols,
        "datagen.matrix_mb": matrix_bytes / 1e6,
        "bounds.check_s": run.total_s("bounds.check"),
        "bounds.us_per_record": run.total_s("bounds.check") * 1e6 / records,
        "bounds.certificates": certificates,
        "bounds.report_to_dict_s": run.total_s("bounds.CertificateReport.to_dict"),
        "trace.write_s": run.total_s("trace.write_trace"),
        "trace.read_s": check.total_s("trace.read_trace"),
        "trace.bytes": trace_bytes,
        "cli.self_s": sum(s.self_ns(i) for s in (run, check) for i in s.where("cli.main")) / 1e9,
        "cli.output_bytes": output_bytes,
    })
    for name, span in (("datagen.build_stumps_s", "datagen.build_stumps"),
                       ("datagen.closure_s", "boosting.TrainingSet.__post_init__"),
                       ("stagewise.lstsq_s", "stagewise.least_squares_norm")):
        if run.where(span):
            metrics[name] = run.total_s(span)
    return metrics, windows
