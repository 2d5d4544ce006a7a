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
import shutil
import sys
import tempfile
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

# `check` needs only bounds, schedule and trace. numpy and the modules built
# on it are imported by the functions that use them, so `check` never loads them.
from . import bounds
from .schedule import RUN_SCHEDULES, StepSchedule
from .trace import TraceHeader, read_trace, trace_lines, typed_fields

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
            return cls(**typed_fields(obj, _CONFIG_TYPES, frozenset(_CONFIG_DEFAULTS), "config key",
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
        # an option the run would not read is refused, not written into the
        # header's config as an experiment that did not run
        fs_constant = self.task == "fs" and self.schedule == "constant"
        if fs_constant and (self.epsilon is None or self.epsilon <= 0.0):
            raise ConfigError("fs with the constant schedule needs --epsilon > 0")
        if self.epsilon is not None and not fs_constant:
            raise ConfigError("--epsilon is only for fs with the constant schedule")
        if self.task == "minmax-game" and self.schedule == "polyak" and self.f_star is None:
            raise ConfigError("the polyak schedule needs --f-star")
        if self.task == "fs" and self.f_star is not None:
            raise ConfigError("--f-star is not for fs, whose optimal value is 0.0")
        for name in ("center", "scale", "use_response_bound"):
            if getattr(self, name) and self.task != "fs":
                raise ConfigError(f"--{name.replace('_', '-')} is only for fs")


# each config field's JSON type and whether it may be null, from its
# annotation, and the default of each field a config may omit
_CONFIG_TYPES = {name: (get_args(hint)[0], True) if get_args(hint) else (hint, False)
                 for name, hint in get_type_hints(ExperimentConfig).items()}
_CONFIG_DEFAULTS = {field.name: field.default for field in fields(ExperimentConfig)
                    if field.default is not MISSING}


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
        if key in sizes or (key == "seed" and seed is not None):
            raise ConfigError(f"data spec token {token!r} repeats the key {key!r}")
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


def _prepare_run(config: ExperimentConfig, instance):
    """The one problem of a run of `config` on `instance`, its trace header,
    which carries the problem's shape and Lipschitz constant, the step rule
    StepSchedule.of(header), and the start: fs's response, None otherwise.
    fs refuses, in this order, a Lipschitz constant of 0.0, and through the
    header a projection norm (dist0) or a tuned shrinkage (eps) that is not
    finite, and through the rule a shrinkage with no finite square sum."""
    problem = instance.to_minmax()
    lipschitz = problem.lipschitz()
    shape = {"m": problem.m, "n": problem.n}
    f_star, dist0, eps, x0 = config.f_star, None, None, None
    if config.task == "fs":
        import numpy as np

        from .stagewise import least_squares_norm, optimal_shrinkage

        if lipschitz == 0.0:  # every column's norm underflows; nothing may divide by it
            raise ConfigError("the design's column l2 norms all underflow to 0.0, so its "
                              "Lipschitz constant is 0.0: rescale the design")
        # a norm that overflows, or a fit whose coefficients do (inf * 0.0 is
        # nan), is refused by the header as not finite, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            if config.use_response_bound:
                dist0 = float(np.linalg.norm(instance.response))
            else:
                dist0 = least_squares_norm(instance)
        if config.schedule == "constant":
            eps = config.epsilon
        elif config.schedule == "optimal":
            eps = optimal_shrinkage(instance, config.iterations, projection_norm=dist0)
        shape = {"n": problem.m, "p": problem.n}
        f_star, x0 = 0.0, instance.response.copy()
    header = TraceHeader(
        algorithm=_TASK_ALGORITHMS[config.task],
        schedule_kind=config.schedule,
        iterations=config.iterations,
        shape=shape,
        lipschitz=lipschitz,
        f_star=f_star,
        dist0=dist0,
        eps=eps,
        config=config.experiment_dict(),
    )
    return problem, header, StepSchedule.of(header), x0


def _render_report_text(header: TraceHeader, summary: dict, by_tag: dict, failures) -> str:
    """report.txt, from a report tally's summary(), by_tag and failures."""
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
    for rec in failures:
        if rec.observed is None:
            lines.append(f"  FAILED {rec.tag} at k={rec.k}: {rec.note}")
        else:
            lines.append(
                f"  FAILED {rec.tag} at k={rec.k}: observed {rec.observed!r} "
                f"> bound {rec.bound!r}")
    return "\n".join(lines) + "\n"


# the certificate tags whose observed value and bound a plot row shows; the
# later one wins when a record has both
_PLOTTED = (bounds.GAP_RUNNING, bounds.OPT_RUNNING)


def _whole_count(header: TraceHeader, terminated: str | None) -> int | None:
    """The record count of a whole trace: one without a terminal line ran
    its header's full count of iterations; a stopped one, any count."""
    return header.iterations if terminated is None else None


def _lines_and_rows(header: TraceHeader, result, trace, plot):
    """The certificate records of the run's one pass over its records, passed
    on as they are taken, while the trace lines go to `trace` and the plot
    rows to `plot`, text files: each record's trace line before its
    certificates, and its plot row after them, whose gap and bound come from
    the last of them with a _PLOTTED tag. A trace line is refused when it is
    made, and the report only by report.finish() after the pass, so a
    refused trace is what a run reports, as when its trace was made first."""
    lines = trace_lines(header, result.records, result.terminated)
    trace.write(next(lines))  # the header line
    rows = csv.writer(plot)
    rows.writerow(["k", "objective", "best_objective", "dual", "gap", "bound"])
    count = _whole_count(header, result.terminated)
    for rec, certs in bounds.certify(result.records, header, count):
        if rec is None:  # the closing records
            yield from certs
            continue
        trace.write(next(lines))
        yield from certs
        plotted = None
        for cert in certs:
            if cert.tag in _PLOTTED:
                plotted = cert
        rows.writerow([
            rec.k,
            repr(float(rec.primal)),
            repr(float(rec.best_primal)),
            "" if rec.dual is None else repr(float(rec.dual)),
            "" if plotted is None or plotted.observed is None else repr(float(plotted.observed)),
            "" if plotted is None or plotted.bound is None else repr(float(plotted.bound)),
        ])
    for line in lines:  # the terminal line
        trace.write(line)


def _spool():
    """An anonymous temporary file, which an output is written to until every
    refusal has had its chance, and which is gone once closed."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="")


def _copy(spool, path: Path, newline: str | None = None) -> None:
    """Write `spool`'s text to `path`, a chunk at a time."""
    spool.seek(0)
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        shutil.copyfileobj(spool, fh, bounds._COPY_CHARS)


def _write_outputs(out_dir: Path, prefix: str, header: TraceHeader, result) -> tuple[dict, dict]:
    """Write the trace, both reports and the plot, and return their paths
    and the report's summary. The outputs are made in one pass over the
    records into temporary files; `out_dir` is made, and the files are
    copied to their names, only after the trace and the report have had
    every refusal, so a refused output leaves no directory or file behind."""
    paths = {
        "trace": out_dir / f"{prefix}.trace.jsonl",
        "report_json": out_dir / f"{prefix}.report.json",
        "report_txt": out_dir / f"{prefix}.report.txt",
        "plot": out_dir / f"{prefix}.plot.csv",
    }
    with _spool() as trace, _spool() as plot, bounds.ReportWriter() as report:
        report.add(_lines_and_rows(header, result, trace, plot))
        report.finish()
        out_dir.mkdir(parents=True, exist_ok=True)
        _copy(trace, paths["trace"])
        _write_report_files(paths["report_json"], paths["report_txt"], header, report)
        _copy(plot, paths["plot"], newline="")
    return paths, report.tally.summary()


def _write_report_files(json_path: Path, txt_path: Path, header: TraceHeader,
                        report: bounds.ReportWriter) -> str:
    """Write report.json and report.txt of a finished `report`, and return
    report.txt's text."""
    with open(json_path, "w", encoding="utf-8") as fh:
        report.write(fh)
    tally = report.tally
    text = _render_report_text(header, tally.summary(), tally.by_tag, tally.failures)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text)
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
        config = ExperimentConfig(**{field.name: getattr(args, field.name)
                                     for field in fields(ExperimentConfig)})
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
    problem, header, schedule, x0 = _prepare_run(config, instance)
    result = md_core.run(problem, schedule, config.iterations, x0=x0,
                         algorithm=header.algorithm)
    if not result.records:
        raise ConfigError(f"run produced no iterations: {result.terminated}")
    out_dir = _resolve_out_dir(config.out_dir)
    prefix = config.prefix or config.task
    paths, summary = _write_outputs(out_dir, prefix, header, result)
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
    trace_path = Path(args.trace)
    out_dir = Path(args.out) if args.out else trace_path.parent
    stem = trace_path.name
    for suffix in (".trace.jsonl", ".jsonl"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    with bounds.ReportWriter() as report:
        certified = bounds.certify(records, header, _whole_count(header, terminated))
        report.add(cert for _, certs in certified for cert in certs)
        report.finish()  # the report is strict JSON; refused before anything is written
        out_dir.mkdir(parents=True, exist_ok=True)
        text = _write_report_files(out_dir / f"{stem}.report.json",
                                   out_dir / f"{stem}.report.txt", header, report)
    print(text, end="")
    return EXIT_OK if report.tally.counts["failed"] == 0 else EXIT_CERTIFICATE


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
    p_run.add_argument("--schedule", choices=sorted({kind for kinds in RUN_SCHEDULES.values()
                                                     for kind in kinds}))
    p_run.add_argument("--iters", dest="iterations", metavar="ITERS", type=int)
    p_run.add_argument("--epsilon", type=float,
                       help="shrinkage for fs with the constant schedule")
    p_run.add_argument("--f-star", type=float,
                       help="known optimal value (minmax-game polyak schedule)")
    p_run.add_argument("--use-response-bound", action="store_true",
                       help="bound the projection norm by the response norm (fs)")
    p_run.add_argument("--center", action="store_true", help="center columns and response (fs)")
    p_run.add_argument("--scale", action="store_true", help="scale columns to unit norm (fs)")
    p_run.add_argument("--out", dest="out_dir", metavar="OUT",
                       help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    p_run.add_argument("--prefix", help="output file prefix (default: the task)")
    p_run.add_argument("--config", help="JSON experiment config file")
    # each option's dest is a config field, whose default is the config's
    p_run.set_defaults(func=_cmd_run, **_CONFIG_DEFAULTS)

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
