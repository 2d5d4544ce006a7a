"""The names the benchmark in perfbench/ looks up in the package.

perfbench/tracer.py wraps functions and methods by their attribute names, and
perfbench/run.py times a run by some of those spans. A refactor that deletes
or renames one of them makes every benchmark operation fail, or its row read
0, and this test fails first. The perfbench modules are imported, not run or
written.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODULES = ("tracer", "layers", "workloads", "run")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracer, layers and run modules, imported from its
    directory and removed from sys.modules afterwards."""
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
    assert timed | {"md_core.md_step"} <= spans
