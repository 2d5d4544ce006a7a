"""Command-line harness: run experiments, re-check saved traces, generate data.

Exit codes: 0 success, 1 at least one certificate failed, 2 usage or
configuration error (an instance too large to allocate included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

# `check` needs only bounds and trace. numpy and the modules built on it are
# imported by the functions that use them, so `check` never loads them.
from . import bounds
from .trace import RUN_SCHEDULES, TraceHeader, format_trace, read_trace, typed_fields

if TYPE_CHECKING:
    from .md_core import MinmaxProblem
    from .stagewise import RegressionProblem

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_USAGE = 2
EXIT_IO = 3

OUTDIR_ENV = "MIRRORBOOST_OUTDIR"

# options of `run` that take a number, which may be negative
_NUMBER_FLAGS = ("--epsilon", "--f-star")

# each task's algorithm, which names it in the trace
_TASK_ALGORITHMS = {"adaboost": "adaboost", "fs": "stagewise", "minmax-game": "mirror-descent"}
TASKS = tuple(_TASK_ALGORITHMS)
_TASK_SCHEDULES = {task: tuple(RUN_SCHEDULES[algorithm])
                   for task, algorithm in _TASK_ALGORITHMS.items()}


class ConfigError(Exception):
    """Invalid experiment configuration."""


# JSON types each config field accepts, and whether it may be null
_CONFIG_TYPES = {
    "task": (str, False),
    "data": (str, False),
    "schedule": (str, False),
    "iterations": (int, False),
    "epsilon": (float, True),
    "f_star": (float, True),
    "use_response_bound": (bool, False),
    "center": (bool, False),
    "scale": (bool, False),
    "out_dir": (str, True),
    "prefix": (str, True),
}
_CONFIG_OPTIONAL = frozenset(_CONFIG_TYPES) - {"task", "data"}


@dataclass
class ExperimentConfig:
    task: str
    data: str
    schedule: str = "constant"
    iterations: int = 100
    epsilon: float | None = None
    f_star: float | None = None
    use_response_bound: bool = False
    center: bool = False
    scale: bool = False
    out_dir: str | None = None
    prefix: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def experiment_dict(self) -> dict:
        """The config without output-location fields, so identical experiments
        produce byte-identical traces regardless of where they are written."""
        out = asdict(self)
        del out["out_dir"]
        del out["prefix"]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        try:
            return cls(**typed_fields(obj, _CONFIG_TYPES, _CONFIG_OPTIONAL, "config key",
                                      "config must define 'task' and 'data'",
                                      "unknown config keys: {}"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task: {self.task!r}")
        if self.schedule not in _TASK_SCHEDULES[self.task]:
            raise ConfigError(
                f"task {self.task!r} supports schedules {_TASK_SCHEDULES[self.task]}, "
                f"got {self.schedule!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        for name in ("epsilon", "f_star"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.task == "fs" and self.schedule == "constant":
            if self.epsilon is None or self.epsilon <= 0.0:
                raise ConfigError("fs with the constant schedule needs --epsilon > 0")
        if self.task == "minmax-game" and self.schedule == "polyak" and self.f_star is None:
            raise ConfigError("the polyak schedule needs --f-star")


def parse_data_spec(spec: str):
    """'synthetic:KIND:seed=N[:key=val...]' or 'csv:PATH' or a bare *.csv path."""
    from . import datagen

    if spec.startswith("csv:"):
        return ("csv", spec[4:])
    if spec.endswith(".csv"):
        return ("csv", spec)
    if not spec.startswith("synthetic:"):
        raise ConfigError(f"cannot parse data spec {spec!r}")
    parts = spec.split(":")
    if len(parts) < 2 or not parts[1]:
        raise ConfigError(f"data spec {spec!r} is missing the synthetic kind")
    kind = parts[1]
    if kind not in datagen._KIND_ALIASES:
        raise ConfigError(f"unknown synthetic kind: {kind!r}")
    seed = None
    sizes: dict[str, float | int] = {}
    for token in parts[2:]:
        if "=" not in token:
            raise ConfigError(f"bad data spec token {token!r}, expected key=value")
        key, _, raw = token.partition("=")
        try:
            value: float | int = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(f"bad numeric value in data spec token {token!r}") from None
        if key == "seed":
            if type(value) is not int or value < 0:
                raise ConfigError(f"seed must be a non-negative integer, got data spec "
                                  f"token {token!r}")
            seed = value
        else:
            sizes[key] = value
    if seed is None:
        raise ConfigError(f"data spec {spec!r} must set seed=N")
    return ("synthetic", kind, seed, sizes)


def _build_instance(config: ExperimentConfig):
    from . import datagen

    parsed = parse_data_spec(config.data)
    if parsed[0] == "csv":
        path = parsed[1]
        if config.task == "fs":
            return datagen.load_regression_csv(path)
        return datagen.load_classification_csv(path)
    _, kind, seed, sizes = parsed
    canonical = datagen._KIND_ALIASES[kind]
    if config.task == "fs" and canonical != "regression":
        raise ConfigError(f"task 'fs' needs regression data, got kind {kind!r}")
    if config.task != "fs" and canonical == "regression":
        raise ConfigError(f"task {config.task!r} needs classification data, got kind {kind!r}")
    return _generate(kind, seed, sizes)


def _generate(kind: str, seed: int, sizes: dict):
    """datagen.generate_synthetic, with size parameters it does not take as a
    ConfigError."""
    from . import datagen

    try:
        return datagen.generate_synthetic(kind, seed, **sizes)
    except TypeError as exc:
        raise ConfigError(f"bad size parameters for kind {kind!r}: {exc}") from None


def _prepare_boost_run(config: ExperimentConfig, problem: MinmaxProblem):
    """The schedule and the trace header of an adaboost or minmax-game run on
    `problem`, whose shape and Lipschitz constant the header carries. The
    constant and dynamic schedules take the header's diameter, log(m) from
    the uniform start."""
    from . import md_core

    header = TraceHeader(
        algorithm=_TASK_ALGORITHMS[config.task],
        schedule_kind=config.schedule,
        iterations=config.iterations,
        shape={"m": problem.m, "n": problem.n},
        lipschitz=problem.lipschitz(),
        f_star=config.f_star,
        config=config.experiment_dict(),
    )
    if config.schedule == "constant":
        schedule = md_core.StepSchedule.constant(header.lipschitz, header.diameter,
                                                 config.iterations)
    elif config.schedule == "dynamic":
        schedule = md_core.StepSchedule.dynamic(header.lipschitz, header.diameter)
    elif config.schedule == "linesearch":
        schedule = md_core.StepSchedule.edge_linesearch()
    else:  # polyak, minmax-game only
        schedule = md_core.StepSchedule.polyak(config.f_star)
    return schedule, header


def _prepare_fs_run(config: ExperimentConfig, rp: RegressionProblem, problem: MinmaxProblem):
    """The schedule and the trace header of an fs run of `rp` on `problem`,
    its residual-space problem, whose shape and Lipschitz constant the header
    carries.

    A design whose Lipschitz constant underflows to 0.0 is refused, and so is a
    shrinkage whose square, summed over the planned iterations, overflows, as
    the constant schedule refuses such a step. A projection norm that
    overflows is not: the header refuses it before the run."""
    import numpy as np

    from . import md_core
    from .stagewise import least_squares_norm, optimal_shrinkage

    lipschitz = problem.lipschitz()
    if lipschitz == 0.0:  # every column's norm underflows; nothing may divide by it
        raise ConfigError("the design's column l2 norms all underflow to 0.0, so its "
                          "Lipschitz constant is 0.0: rescale the design")
    with np.errstate(over="ignore"):
        if config.use_response_bound:
            projection_norm = float(np.linalg.norm(rp.response))
        else:
            projection_norm = least_squares_norm(rp)
    eps = None
    if config.schedule == "constant":
        eps = float(config.epsilon)
        schedule = md_core.StepSchedule.fixed(eps)
    elif config.schedule == "optimal":
        eps = optimal_shrinkage(rp, config.iterations, projection_norm=projection_norm)
        schedule = md_core.StepSchedule.fixed(eps)
    else:  # linesearch: the polyak step with the known optimal value 0
        schedule = md_core.StepSchedule.polyak(0.0)
    if eps is not None:
        md_core._check_square(eps, lipschitz, config.iterations)
    header = TraceHeader(
        algorithm="stagewise",
        schedule_kind=config.schedule,
        iterations=config.iterations,
        shape={"n": problem.m, "p": problem.n},
        lipschitz=lipschitz,
        f_star=0.0,
        dist0=projection_norm,
        eps=eps,
        config=config.experiment_dict(),
    )
    return schedule, header


def _render_report_text(header: TraceHeader, report: bounds.CertificateReport,
                        summary: dict, by_tag: dict) -> str:
    """report.txt; `summary` and `by_tag` are report.summary() and report.by_tag()."""
    lines = [
        f"certificate report: {header.algorithm}, schedule {header.schedule_kind}, "
        f"{header.iterations} iterations requested",
    ]
    for tag, entry in sorted(by_tag.items()):
        slack = ("" if entry["min_slack"] is None
                 else f", min slack {entry['min_slack']:.6e}")
        lines.append(
            f"  {tag:<14} {entry['passed']}/{entry['total']} passed, "
            f"{entry['failed']} failed, {entry['not_evaluable']} not evaluable{slack}")
    lines.append(
        f"summary: {summary['total']} checked, {summary['passed']} passed, "
        f"{summary['failed']} failed, {summary['not_evaluable']} not evaluable")
    for rec in report.failures():
        if rec.observed is None:
            lines.append(f"  FAILED {rec.tag} at k={rec.k}: {rec.note}")
        else:
            lines.append(
                f"  FAILED {rec.tag} at k={rec.k}: observed {rec.observed!r} "
                f"> bound {rec.bound!r}")
    return "\n".join(lines) + "\n"


def _write_outputs(out_dir: Path, prefix: str, header: TraceHeader, result,
                   report: bounds.CertificateReport, summary: dict, by_tag: dict,
                   non_finite: str | None) -> dict[str, Path]:
    """Write the trace, both reports and the plot; `summary`, `by_tag` and
    `non_finite` are report.tally()'s. The trace is serialized and the report
    refused for its non-finite value, if it has one, before `out_dir` is
    made, so a refused output leaves no directory behind."""
    paths = {
        "trace": out_dir / f"{prefix}.trace.jsonl",
        "report_json": out_dir / f"{prefix}.report.json",
        "report_txt": out_dir / f"{prefix}.report.txt",
        "plot": out_dir / f"{prefix}.plot.csv",
    }
    trace = format_trace(header, result.records, terminated=result.terminated)
    if non_finite is not None:
        raise ValueError(non_finite)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(paths["trace"], "w", encoding="utf-8") as fh:
        fh.write(trace)
        fh.flush()
    del trace  # not held while the reports and the plot are written
    _write_report_files(paths["report_json"], paths["report_txt"], header, report,
                        summary, by_tag)
    running = {}
    for rec in report.records:
        if rec.tag in (bounds.GAP_RUNNING, bounds.OPT_RUNNING):
            running[rec.k] = (rec.observed, rec.bound)
    with open(paths["plot"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "objective", "best_objective", "dual", "gap", "bound"])
        for rec in result.records:
            observed, bound = running.get(rec.k, (None, None))
            writer.writerow([
                rec.k,
                repr(float(rec.primal)),
                repr(float(rec.best_primal)),
                "" if rec.dual is None else repr(float(rec.dual)),
                "" if observed is None else repr(float(observed)),
                "" if bound is None else repr(float(bound)),
            ])
        fh.flush()
    return paths


def _write_report_files(json_path: Path, txt_path: Path, header: TraceHeader,
                        report: bounds.CertificateReport, summary: dict,
                        by_tag: dict) -> str:
    """Write report.json and report.txt, and return report.txt's text."""
    with open(json_path, "w", encoding="utf-8") as fh:
        report.write_json(fh, summary, by_tag)
        fh.flush()
    text = _render_report_text(header, report, summary, by_tag)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
    return text


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        if args.task is not None or args.data is not None:
            raise ConfigError("--config replaces the task and data arguments")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        config = ExperimentConfig.from_dict(obj)
    else:
        if args.task is None:
            raise ConfigError("a task (or --config) is required")
        if args.data is None:
            raise ConfigError("--data is required")
        config = ExperimentConfig(
            task=args.task,
            data=args.data,
            schedule=args.schedule,
            iterations=args.iters,
            epsilon=args.epsilon,
            f_star=args.f_star,
            use_response_bound=args.use_response_bound,
            center=args.center,
            scale=args.scale,
            out_dir=args.out,
            prefix=args.prefix,
        )
    config.validate()
    return config


def _resolve_out_dir(configured: str | None) -> Path:
    if configured:
        return Path(configured)
    return Path(os.environ.get(OUTDIR_ENV, "."))


def _cmd_run(args) -> int:
    from . import datagen, md_core

    config = _config_from_args(args)
    instance = _build_instance(config)
    if config.task == "fs" and (config.center or config.scale):
        instance = datagen.center_scale(instance, center=config.center, scale=config.scale)
    # the one problem of the run: the header's shape and constants are its own
    problem = instance.to_minmax()
    if config.task == "fs":
        schedule, header = _prepare_fs_run(config, instance, problem)
        x0 = instance.response.copy()
    else:
        schedule, header = _prepare_boost_run(config, problem)
        x0 = None
    result = md_core.run(problem, schedule, config.iterations, x0=x0,
                         algorithm=header.algorithm)
    if not result.records:
        raise ConfigError(f"run produced no iterations: {result.terminated}")
    report = bounds.check(result.records, header)
    summary, by_tag, non_finite = report.tally()
    out_dir = _resolve_out_dir(config.out_dir)
    prefix = config.prefix or config.task
    paths = _write_outputs(out_dir, prefix, header, result, report, summary, by_tag, non_finite)
    print(f"{config.task}: {len(result.records)} iterations"
          + (f" (stopped early: {result.terminated})" if result.terminated else ""))
    print(f"certificates: {summary['passed']} passed, {summary['failed']} failed, "
          f"{summary['not_evaluable']} not evaluable")
    print(f"wrote {paths['trace']}")
    return EXIT_OK if summary["failed"] == 0 else EXIT_CERTIFICATE


def _cmd_check(args) -> int:
    header, records, terminated = read_trace(args.trace)
    if not records:
        raise ConfigError(f"trace {args.trace} has no iteration records")
    report = bounds.check_trace(header, records, terminated)
    trace_path = Path(args.trace)
    out_dir = Path(args.out) if args.out else trace_path.parent
    stem = trace_path.name
    for suffix in (".trace.jsonl", ".jsonl"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    summary, by_tag, non_finite = report.tally()
    if non_finite is not None:  # the report is strict JSON; refused before anything is written
        raise ValueError(non_finite)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = _write_report_files(out_dir / f"{stem}.report.json",
                               out_dir / f"{stem}.report.txt", header, report, summary, by_tag)
    print(text, end="")
    return EXIT_OK if summary["failed"] == 0 else EXIT_CERTIFICATE


def _cmd_gen(args) -> int:
    from . import datagen

    parsed = parse_data_spec(args.spec)
    if parsed[0] != "synthetic":
        raise ConfigError("gen needs a synthetic:... data spec")
    _, kind, seed, sizes = parsed
    canonical = datagen._KIND_ALIASES[kind]
    if canonical == "game":
        raise ConfigError("kind 'game' is matrix-level and has no CSV form; "
                          "use separable, nonseparable, or regression")
    instance = _generate(kind, seed, sizes)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    if canonical == "regression":
        datagen.write_regression_csv(out, instance.design, instance.response)
    else:
        datagen.write_classification_csv(out, instance.features, instance.labels)
    print(f"wrote {out}")
    return EXIT_OK


def _joined_numbers(argv: list[str]) -> list[str]:
    """`argv` with each number that follows one of _NUMBER_FLAGS, or a prefix
    of one as argparse allows, as its own token joined to the flag, as
    `--f-star=-1e-3`. argparse reads a token that starts with '-' as an option
    unless it has the form -N or -N.N, so without this a value such as -1e-3
    or -inf is "expected one argument"."""
    joined: list[str] = []
    for token in argv:
        if (joined and len(joined[-1]) > 2 and token.startswith("-")
                and any(flag.startswith(joined[-1]) for flag in _NUMBER_FLAGS)):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{joined[-1]}={token}"
                continue
        joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorboost",
        description="mirror descent runs with per-iteration convergence certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write trace/report/plot files")
    p_run.add_argument("task", nargs="?", choices=TASKS, default=None)
    p_run.add_argument("--data", default=None,
                       help="synthetic:KIND:seed=N[:key=val...] or a CSV path")
    p_run.add_argument("--schedule", default="constant",
                       choices=("constant", "dynamic", "linesearch", "optimal", "polyak"))
    p_run.add_argument("--iters", type=int, default=100)
    p_run.add_argument("--epsilon", type=float, default=None,
                       help="shrinkage for fs with the constant schedule")
    p_run.add_argument("--f-star", dest="f_star", type=float, default=None,
                       help="known optimal value (minmax-game polyak schedule)")
    p_run.add_argument("--use-response-bound", action="store_true",
                       help="bound the projection norm by the response norm (fs)")
    p_run.add_argument("--center", action="store_true", help="center columns and response (fs)")
    p_run.add_argument("--scale", action="store_true", help="scale columns to unit norm (fs)")
    p_run.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    p_run.add_argument("--prefix", default=None, help="output file prefix (default: the task)")
    p_run.add_argument("--config", default=None, help="JSON experiment config file")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="re-verify the certificates of a saved trace")
    p_check.add_argument("trace")
    p_check.add_argument("--out", default=None,
                         help="directory for the regenerated report (default: next to the trace)")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="write a synthetic data set to CSV")
    p_gen.add_argument("spec", help="synthetic:KIND:seed=N[:key=val...]")
    p_gen.add_argument("--out", required=True, help="CSV path to write")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    # A command builds tens of thousands of records and certificates that
    # hold no reference cycles; the cyclic collector would only walk them
    # again and again as they pile up (about a tenth of `check`'s CPU time on
    # a 10000-round trace). It is off for the command and restored after it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:
        # a MemoryError here is an instance too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
