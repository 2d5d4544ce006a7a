"""Structured per-iteration records and line-delimited trace serialization.

A trace file is plain text, one JSON object per line: a single header line
carrying the problem constants, one line per iteration, and an optional
terminal line when a run stopped before its requested horizon. Keys are
sorted and floats keep full round-trip precision, so identical runs produce
byte-identical files. Traces are strict JSON: a non-finite value is an error
when writing, and a NaN or Infinity token is an error when reading.

The tables below are the schema: each maps a field of one kind of line, in
one trace format, to its JSON type and whether it may be null, and the keys a
line may omit sit next to it. `to_dict` writes a line's fields as the table
of format 2 declares them, and `parse_line` reads one back in a single pass
over the table of its format; nothing else names a field. Format 1, whose
header has no `format` key, is read but not written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

ALGORITHMS = ("mirror-descent", "adaboost", "stagewise")

# the trace format `format_trace` writes
FORMAT = 2

# Format 2. Apart from `type`, a table's keys are its line class's fields,
# but for a record's grad_norm, which only format 1 holds.
_HEADER_TYPES = {
    "type": (str, False), "format": (int, False), "algorithm": (str, False),
    "schedule_kind": (str, False), "iterations": (int, False), "shape": (dict, False),
    "lipschitz": (float, True), "diameter": (float, True), "f_star": (float, True),
    "dist0": (float, True), "eps": (float, True), "horizon": (int, True),
    "dual_defined": (bool, False), "config": (dict, True),
}
_HEADER_OPTIONAL = frozenset({"config"})
_RECORD_TYPES = {
    "type": (str, False), "k": (int, False), "algorithm": (str, False),
    "index": (int, False), "sign": (float, False), "alpha": (float, False),
    "primal": (float, False), "best_primal": (float, False), "dual": (float, True),
    "l1": (float, True), "l0": (int, True),
}
_RECORD_OPTIONAL = frozenset({"l1", "l0"})
_TERMINAL_TYPES = {"type": (str, False), "k": (int, False), "reason": (str, False)}
_TERMINAL_OPTIONAL = frozenset()

# Format 1 repeats three facts: its header has a `schedule` dict in place of
# `format`, and its records a `grad_norm` and, optionally, their certificate
# `slacks`. The schedule dict and the slacks are checked, then dropped.
_HEADER_TYPES_1 = {**{key: types for key, types in _HEADER_TYPES.items() if key != "format"},
                   "schedule": (dict, False)}
_RECORD_TYPES_1 = {**_RECORD_TYPES, "grad_norm": (float, True), "slacks": (dict, False)}
_RECORD_OPTIONAL_1 = _RECORD_OPTIONAL | {"slacks"}
# the table and optional keys of each kind of line that format 1 reads in its own way
_FORMAT_1 = {"header": (_HEADER_TYPES_1, _HEADER_OPTIONAL),
             "record": (_RECORD_TYPES_1, _RECORD_OPTIONAL_1)}

# the schedule dict's kind of a format-1 header, by (algorithm, schedule_kind),
# where it is not schedule_kind itself
_SCHEDULE_KINDS = {("adaboost", "linesearch"): "edge-linesearch",
                   ("stagewise", "constant"): "fixed", ("stagewise", "optimal"): "fixed",
                   ("stagewise", "linesearch"): "polyak"}


def typed_fields(obj: dict, types: dict[str, tuple[type, bool]], optional: frozenset,
                 field: str, missing: str, unknown: str) -> dict:
    """The values of `obj`'s keys, checked against `types` in one pass.

    Raises ValueError with `missing` or `unknown`, formatted with the sorted
    keys, when a key of `types` outside `optional` is absent or a key is not
    in `types`; and with `field`, the key and its JSON type, when a value has
    another JSON type or is null where that is not allowed. A float also takes
    an integer, which comes back as a float; bool is no number.
    """
    absent = types.keys() - obj.keys()
    if not absent <= optional:
        raise ValueError(missing.format(sorted(absent - optional)))
    if len(obj) + len(absent) != len(types):
        raise ValueError(unknown.format(sorted(obj.keys() - types.keys())))
    values = {}
    mistyped = []
    for key, value in obj.items():
        kind, nullable = types[key]
        if type(value) is not kind and not (value is None and nullable):
            if kind is float and type(value) is int:
                value = float(value)
            else:
                mistyped.append(key)
        values[key] = value
    if mistyped:
        key = min(mistyped, key=list(types).index)  # the first in the table's order
        kind, nullable = types[key]
        expected = kind.__name__ + (" or null" if nullable else "")
        raise ValueError(f"{field} {key!r} must be {expected}, got {obj[key]!r}")
    return values


class _Line:
    """A trace line of the kind `kind` names in _LINES."""

    kind = ""

    def to_dict(self) -> dict:
        """The line's format-2 JSON object: the fields its table types int,
        float or bool are converted to that type, the others are written as
        they are, and a field outside the table is not."""
        out = {"type": self.kind}
        # not self.__dict__: reading it would give every record a dict of its own
        for key, (kind, _) in _LINES[self.kind][1].items():
            if key != "type":
                value = getattr(self, key)
                out[key] = value if value is None or kind is str or kind is dict else kind(value)
        return out


@dataclass
class IterationRecord(_Line):
    """One iteration of any of the runners, iterate-side values first.

    `primal`, `l1` and `l0` describe the iterate before the step; `dual` is
    the value of the running dual average after the step, None when the
    average is undefined (zero step mass) or the dual value does not exist
    for the problem. `grad_norm` is the loss-gradient norm that format-1
    traces carry; runs leave it None, and format 2 does not write it.
    """

    kind = "record"

    k: int
    algorithm: str
    index: int
    sign: float
    alpha: float
    primal: float
    best_primal: float
    dual: float | None = None
    grad_norm: float | None = None
    l1: float | None = None
    l0: int | None = None


@dataclass
class RunResult:
    """Records plus final algorithm state; `terminated` explains early stops."""

    records: list[IterationRecord]
    state: object
    terminated: str | None = None


@dataclass
class TraceHeader(_Line):
    """The first line of a trace: the run's schedule and size, the constants
    its certificates are evaluated with, and the trace's format, 2 for a run."""

    kind = "header"

    algorithm: str
    schedule_kind: str
    iterations: int
    shape: dict
    lipschitz: float | None = None
    diameter: float | None = None
    f_star: float | None = None
    dist0: float | None = None
    eps: float | None = None
    horizon: int | None = None
    dual_defined: bool = True
    config: dict | None = None
    format: int = FORMAT


@dataclass
class Terminal(_Line):
    """The last line of a trace whose run stopped early: `k` counts the
    records before it."""

    kind = "terminal"

    k: int
    reason: str


# each kind of line: its class, its format-2 table, the keys it may omit, and
# the texts of its errors for a field's type, missing keys and unknown keys
_LINES = {
    "header": (TraceHeader, _HEADER_TYPES, _HEADER_OPTIONAL, "header line field",
               "header line missing keys: {}", "header line has unknown keys: {}"),
    "record": (IterationRecord, _RECORD_TYPES, _RECORD_OPTIONAL, "record line field",
               "record line missing keys: {}", "record line has unknown keys: {}"),
    "terminal": (Terminal, _TERMINAL_TYPES, _TERMINAL_OPTIONAL, "terminal line field",
                 "terminal line must carry k and reason", "terminal line has unknown keys: {}"),
}


def parse_line(obj, format: int = FORMAT) -> TraceHeader | IterationRecord | Terminal:
    """The header, record or terminal line that one decoded trace line holds.

    A record or terminal line is read in `format`, its header's; a header is
    format 1 without a `format` key, and may say no format but 2. One pass
    over the line's table checks that each key is known, each key the line
    may not omit is there, and each value has its JSON type; a float field's
    integer becomes a float. Records and the header must name a known
    algorithm, a record's sign must be 1.0 or -1.0, and stagewise records and
    format-1 adaboost records must carry the fields their certificates read.
    A header's dual_defined and format-1 schedule dict must be what runs
    write. Raises ValueError on the first violation.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("trace line must be an object with a 'type' key")
    kind = obj["type"]
    if type(kind) is not str or kind not in _LINES:
        raise ValueError(f"unknown trace line type: {kind!r}")
    if kind == "header":
        format = obj.get("format", 1)
        if "format" in obj and (type(format) is not int or format != FORMAT):
            raise ValueError(f"header line field 'format' must be {FORMAT}, got {format!r}")
    cls, types, optional, field, missing, unknown = _LINES[kind]
    if format == 1:
        types, optional = _FORMAT_1.get(kind, (types, optional))
    values = typed_fields(obj, types, optional, field, missing, unknown)
    del values["type"]
    values.pop("slacks", None)
    schedule = values.pop("schedule", None)
    if cls is TraceHeader:
        values["format"] = format
    line = cls(**values)
    if cls is Terminal:
        return line
    if line.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag: {line.algorithm!r}")
    if cls is TraceHeader:
        dual_defined = line.algorithm != "stagewise"
        if line.dual_defined != dual_defined:
            raise ValueError(f"header line field 'dual_defined' must be {dual_defined} for "
                             f"algorithm {line.algorithm!r}, got {line.dual_defined!r}")
        if schedule is not None:
            _check_schedule(schedule, line)
    else:
        if line.algorithm == "stagewise" and (line.l1 is None or line.l0 is None):
            raise ValueError("stagewise records must carry l1 and l0")
        if format == 1 and line.algorithm == "adaboost" and line.grad_norm is None:
            raise ValueError("adaboost records must carry grad_norm")
        if line.sign != 1.0 and line.sign != -1.0:
            raise ValueError(f"record line field 'sign' must be 1.0 or -1.0, got {line.sign!r}")
    return line


def _check_schedule(schedule: dict, header: TraceHeader) -> None:
    """Refuse a format-1 header whose schedule dict contradicts its other
    fields, as no run writes it: the dict's kind must be the one runs write
    for the header's algorithm and schedule_kind, its lipschitz, diameter and
    f_star, where it has them, the header's, and a fixed step's alpha the
    header's eps."""
    kind = _SCHEDULE_KINDS.get((header.algorithm, header.schedule_kind), header.schedule_kind)
    if schedule.get("kind") != kind:
        raise ValueError(f"header line field 'schedule.kind' must be {kind!r} for algorithm "
                         f"{header.algorithm!r} and schedule_kind {header.schedule_kind!r}, "
                         f"got {schedule.get('kind')!r}")
    # each constant of the dict to check, and the header field it must equal
    fields = {name: name for name in ("lipschitz", "diameter", "f_star") if name in schedule}
    if kind == "fixed":
        fields["alpha"] = "eps"
    for name, field in fields.items():
        value, want = schedule.get(name), getattr(header, field)
        if type(value) not in (int, float) or want is None or value != want:
            raise ValueError(f"header line field 'schedule.{name}' must equal the header's "
                             f"{field} {want!r}, got {value!r}")


def _non_finite_field(value, name: str = "") -> str | None:
    """Dotted name of the first non-finite float in a line's fields, if any."""
    if isinstance(value, float):
        return None if math.isfinite(value) else name
    if isinstance(value, dict):
        for key, item in value.items():
            found = _non_finite_field(item, f"{name}.{key}" if name else key)
            if found is not None:
                return found
    return None


def _dumps(obj: dict) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:
        field_name = _non_finite_field(obj)
        where = f"{obj['type']} line" + (f" k={obj['k']}" if obj["type"] == "record" else "")
        raise ValueError(f"{where}: field {field_name!r} is not finite, and traces "
                         "are strict JSON") from None


def _contradiction(rec: IterationRecord, header: TraceHeader) -> str | None:
    """How a record contradicts the header, if it does: another algorithm, or
    an index that names no column. The column count is the header's
    shape["p"] for stagewise, the design's columns, and shape["n"] otherwise,
    the payoff's; a shape without it as an int has no column to name."""
    if rec.algorithm != header.algorithm:
        return (f"record algorithm {rec.algorithm!r} differs from the header's "
                f"{header.algorithm!r}")
    key = "p" if header.algorithm == "stagewise" else "n"
    columns = header.shape.get(key)
    if type(columns) is not int:
        return (f"record index {rec.index} names no column: the header's shape has no "
                f"int {key!r}")
    if not 0 <= rec.index < columns:
        return f"record index {rec.index} names no column: the header's shape has {key}={columns}"
    return None


def format_trace(header: TraceHeader, records: Iterable[IterationRecord],
                 terminated: str | None = None) -> str:
    """The text of a format-2 trace file. Every line passes parse_line and
    every record carries the header's algorithm and an index below its column
    count, as read_trace requires; the terminal line counts the records. A
    non-finite value in any field raises ValueError naming the field."""
    head = header.to_dict()
    parse_line(head)
    lines = [_dumps(head)]
    for rec in records:
        problem = _contradiction(rec, header)
        if problem is not None:
            raise ValueError(f"record line k={rec.k}: {problem}")
        obj = rec.to_dict()
        parse_line(obj)
        lines.append(_dumps(obj))
    if terminated is not None:
        term = Terminal(k=len(lines) - 1, reason=terminated).to_dict()  # the record count
        parse_line(term)
        lines.append(_dumps(term))
    lines.append("")  # the final newline, without a second copy of the whole text
    return "\n".join(lines)


def write_trace(path, header: TraceHeader, records: Iterable[IterationRecord],
                terminated: str | None = None) -> None:
    """Write format_trace's text to `path`; a non-finite field raises
    ValueError before the file is opened."""
    text = format_trace(header, records, terminated=terminated)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a number in strict JSON")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_trace(path) -> tuple[TraceHeader, list[IterationRecord], str | None]:
    """The header, records and terminal reason (None without a terminal line)
    of a trace file, read in its header's format. Raises ValueError, naming
    the line, for a line that is not strict JSON or that parse_line refuses,
    for a record whose algorithm is not the header's or whose index names no
    column of its shape, and unless the header is the first non-empty line
    and at most one terminal line ends the trace, with k equal to the number
    of records before it."""
    header = None
    records: list[IterationRecord] = []
    terminated = None
    terminal_line = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                obj = _DECODER.decode(text)
            except ValueError as exc:  # json.JSONDecodeError is one
                raise ValueError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
            try:
                line = parse_line(obj, FORMAT if header is None else header.format)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if terminal_line is not None:
                raise ValueError(f"{path}: line {lineno} follows the terminal line "
                                 f"at line {terminal_line}")
            kind = line.kind
            if kind == "header":
                if header is not None:
                    raise ValueError(f"{path}: duplicate header at line {lineno}")
                header = line
            elif header is None:
                raise ValueError(f"{path}: missing header line: line {lineno} is a {kind} "
                                 "line, and the header must come first")
            elif kind == "record":
                problem = _contradiction(line, header)
                if problem is not None:
                    raise ValueError(f"{path}: line {lineno}: {problem}")
                records.append(line)
            else:
                if line.k != len(records):
                    raise ValueError(f"{path}: terminal line {lineno} has k={line.k}, but "
                                     f"{len(records)} records precede it")
                terminated = line.reason
                terminal_line = lineno
    if header is None:
        raise ValueError(f"{path}: missing header line")
    return header, records, terminated
