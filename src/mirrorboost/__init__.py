"""Mirror descent with the prox function its primal domain dictates,
step-size schedules, and runtime convergence certificates. AdaBoost and
incremental forward stagewise regression are thin views that run the same
engine.

The public names below are resolved on first use (PEP 562), so importing the
package, as `python -m mirrorboost check` does, loads neither numpy nor the
modules that need it.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_SUBMODULE_NAMES = {
    "bounds": ("CertificateRecord", "constant_bound", "dynamic_bound", "polyak_bound"),
    "boosting": ("TrainingSet",),
    "md_core": ("MinmaxProblem", "MirrorDescentState", "md_step"),
    "schedule": ("StepSchedule", "UndefinedStepError"),
    "stagewise": ("RegressionProblem", "least_squares_norm", "optimal_shrinkage"),
    "trace": ("IterationRecord", "RunResult", "TraceHeader", "read_trace"),
}
# public name -> (submodule, attribute of that submodule)
_ORIGIN = {name: (module, name) for module, names in _SUBMODULE_NAMES.items() for name in names}
_ORIGIN["run_mirror_descent"] = ("md_core", "run")

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
