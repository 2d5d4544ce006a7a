"""The names the benchmark in perfbench/ looks up in the package, and the
instance build it checks against its own.

perfbench/tracer.py wraps functions and methods by their attribute names, and
perfbench/run.py times a run by some of those spans. A refactor that deletes
or renames one of them makes every benchmark operation fail, or its row read
0, and this test fails first. perfbench/reference.py builds each workload's
instance without mirrorboost, and every benchmark operation fails unless
mirrorboost's build equals it; so does this test. The perfbench modules are
imported, not run or written.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODULES = ("tracer", "layers", "workloads", "run", "reference")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, imported from its directory and removed from
    sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield {name: importlib.import_module(name) for name in MODULES}
    for name in MODULES:
        sys.modules.pop(name, None)


def test_the_benchmark_finds_every_name_it_wraps_and_times(perfbench):
    tracer, layers, run = perfbench["tracer"], perfbench["layers"], perfbench["run"]
    targets = tracer.targets()  # raises KeyError or AttributeError on a missing method
    spans = {name for _, _, _, name in targets}
    for module, cls, method in tracer.METHODS:
        assert f"{module}.{cls}.{method}" in spans
    timed = {"datagen.generate_synthetic", "stagewise.least_squares_norm", "md_core.run"}
    assert timed <= set(run.TIMED)
    assert layers.RUNNERS["md_core.run"][1] == "md_core.md_step"
    assert timed | {"md_core.md_step", "datagen.build_stumps"} <= spans


@pytest.mark.parametrize("workload", ["boost-long", "fs-path"])
def test_the_benchmark_reference_build_equals_mirrorboosts(perfbench, workload):
    reference, workloads = perfbench["reference"], perfbench["workloads"]
    w = workloads.WORKLOADS[workload]
    assert reference.mirrorboost_mismatch(w, 1, reference.build(w, 1)) is None
