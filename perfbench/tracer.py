"""Run one mirrorboost command in-process with its layers traced.

    python3 perfbench/tracer.py --op ID --spans FILE [--only NAME,...] -- run adaboost ...

Every public function of every mirrorboost module is replaced, at module
attribute level, by a wrapper that records a span: name, start, end and the
span that was open when it was called. Functions imported into another module
are wrapped there too, so calls across modules are seen. METHODS adds the few
methods that carry a layer of their own. The command runs through
mirrorboost.cli.main; then every attribute is put back, the modules and their
classes are scanned again for any wrapper left in place, and the spans, kept
in memory until then, are written to FILE as JSON together with the operation
id they share and the names of the leftover wrappers. The exit code is main's.

With --only, just the named spans are recorded. The benchmark's untraced runs
use this to time the instance build and the runner call: a handful of calls,
so the run is not perturbed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import pkgutil
import sys
import time
import types
from array import array

import mirrorboost

# attribute that marks a span wrapper, so that one left in place can be found
MARK = "perfbench_span"
# (module, class, method): layers that live in a method rather than a function
METHODS = (
    ("boosting", "TrainingSet", "__post_init__"),  # validation and negation closure
    ("bounds", "CertificateReport", "to_dict"),  # report serialization
)


class Recorder:
    """Spans in flat arrays; parent is an index into them, -1 at the top."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0)
            self._open.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._open.pop()

        setattr(traced, MARK, name)
        return traced

    def to_dict(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist()}


def modules() -> list[types.ModuleType]:
    return [importlib.import_module(f"mirrorboost.{info.name}")
            for info in pkgutil.iter_modules(mirrorboost.__path__)
            if not info.name.startswith("_")]  # __main__ would run the CLI on import


def targets() -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for everything to wrap."""
    found = []
    for module in modules():
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("mirrorboost.")):
                continue
            layer = value.__module__.rpartition(".")[2]
            found.append((module, attr, value, f"{layer}.{value.__qualname__}"))
    for module_name, class_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"mirrorboost.{module_name}"), class_name)
        found.append((cls, attr, cls.__dict__[attr], f"{module_name}.{class_name}.{attr}"))
    return found


def leftovers() -> list[str]:
    """Attributes of the mirrorboost modules, and of the classes they define,
    that still hold a span wrapper."""
    found = []
    for module in modules():
        owners = [module, *(value for value in vars(module).values()
                            if isinstance(value, type) and value.__module__ == module.__name__)]
        for owner in owners:
            found.extend(f"{owner.__name__}.{attr}" for attr, value in vars(owner).items()
                         if isinstance(value, types.FunctionType) and hasattr(value, MARK))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--op", type=int, required=True, help="operation id the spans share")
    parser.add_argument("--spans", required=True, help="JSON file to write the spans to")
    parser.add_argument("--only", help="comma-separated span names to record (default: all)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the mirrorboost arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = Recorder()
    patches = targets()
    if args.only:
        patches = [p for p in patches if p[3] in args.only.split(",")]
    for owner, attr, original, name in patches:
        setattr(owner, attr, recorder.wrap(original, name))
    try:
        code = importlib.import_module("mirrorboost.cli").main(argv)
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"op": args.op, "leftovers": leftovers(), "spans": recorder.to_dict()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
