"""The benchmark's workloads: one mirrorboost experiment each, built from a seed.

Each workload stresses a different layer; BENCHMARK.json records why each one
is in the mix:
  boost-stumps  data build (stumps, negation closure) and the O(m*n) scans
  boost-long    per-round overhead, history copies growing with K, certificate
                records and trace/report bytes
  game-wide     the md_core engine: dual response, dual value, entropy prox
  fs-path       stagewise, the Euclidean geometry and the least-squares set-up
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    kind: str
    sizes: str
    schedule: str
    iterations: int
    # `check` runs per operation. A check takes a fraction of its run's time,
    # so one check per operation would leave check_s too few samples for a
    # steady median.
    checks: int

    def data_spec(self, seed: int) -> str:
        return f"synthetic:{self.kind}:seed={seed}:{self.sizes}"

    def run_args(self, seed: int) -> list[str]:
        return [self.task, "--data", self.data_spec(seed), "--schedule", self.schedule,
                "--iters", str(self.iterations)]


WORKLOADS = {
    w.name: w for w in (
        Workload("boost-stumps", "adaboost", "nonseparable", "m=1000:d=5", "constant", 100, 4),
        Workload("boost-long", "adaboost", "nonseparable", "m=40:d=4", "dynamic", 10000, 2),
        Workload("game-wide", "minmax-game", "game", "m=2000:n=2000", "dynamic", 200, 4),
        Workload("fs-path", "fs", "regression", "n=1000:p=500", "linesearch", 3000, 3),
    )
}
