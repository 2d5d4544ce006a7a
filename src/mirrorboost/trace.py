"""Structured per-iteration records and line-delimited trace serialization.

A trace file is plain text, one JSON object per line: a single header line
carrying the problem constants, one line per iteration, and an optional
terminal line when a run stopped before its requested horizon. Keys are
sorted and floats keep full round-trip precision, so identical runs produce
byte-identical files. Traces are strict JSON: a non-finite value is an error
when writing, and when reading so are a NaN or Infinity token and a number,
such as 1e999, that json reads as an infinity.

The tables below are the schema: each maps a field of one kind of line, in
one trace format, to its JSON type and whether it may be null, and the keys a
line may omit sit next to it. `to_dict` writes a line's fields as the table
of format 2 declares them, a record line is formatted from a template built
from its table, and `parse_line` reads a line back in a single pass over the
table of its format, which a format-2 record line with exactly the table's
keys and types skips; only the rules on a line's values name a field. Format
1, whose header has no `format` key, is read but not written.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .schedule import RUN_SCHEDULES

ALGORITHMS = ("mirror-descent", "adaboost", "stagewise")

# the trace format `format_trace` writes
FORMAT = 2

# Format 2. Apart from `type`, a table's keys are its line class's fields,
# but for a record's grad_norm, which only format 1 holds.
_HEADER_TYPES = {
    "type": (str, False), "format": (int, False), "algorithm": (str, False),
    "schedule_kind": (str, False), "iterations": (int, False), "shape": (dict, False),
    "lipschitz": (float, False), "diameter": (float, False), "f_star": (float, True),
    "dist0": (float, True), "eps": (float, True), "horizon": (int, True),
    "dual_defined": (bool, False), "config": (dict, True),
}
_HEADER_OPTIONAL = frozenset({"config"})
# the header fields TraceHeader derives, which a header line states, and the
# others, which it is made of
_DERIVED = ("dual_defined", "horizon", "diameter")
_HEADER_ARGUMENTS = {key: types for key, types in _HEADER_TYPES.items()
                     if key not in ("type", *_DERIVED)}
# the numbers a header converts to each JSON number type
_NUMBERS = {int: numbers.Integral, float: numbers.Real}
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
# a record's float fields in either format, in the table's order
_RECORD_FLOATS = tuple(key for key, (kind, _) in _RECORD_TYPES_1.items() if kind is float)


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
    traces carry; runs leave it None, and format 2 does not write it. The
    fields before it are format 2's, in its table's order.
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
    l1: float | None = None
    l0: int | None = None
    grad_norm: float | None = None


@dataclass
class RunResult:
    """Records plus final algorithm state; `terminated` explains early stops."""

    records: list[IterationRecord]
    state: object
    terminated: str | None = None


@dataclass(frozen=True)
class TraceHeader(_Line):
    """The first line of a trace: the run's schedule and size, the constants
    its certificates are evaluated with, and the trace's format, 2 for a run.

    A header is valid when it is made, and frozen. The diameter, the horizon
    and dual_defined are not arguments: each is derived as `run` derives it,
    the diameter by _diameter_rule, the horizon as the iteration count of a
    kind RUN_SCHEDULES ties to it and None otherwise, and dual_defined as
    whether the algorithm has a dual value, which stagewise has not. Making a
    header converts its numbers to their JSON types and refuses, in this
    order and with the messages parse_line gives: a field of another JSON
    type, named first in _HEADER_TYPES's order; an unknown algorithm; a
    schedule kind that `run` does not write for it; a shape or dist0 that
    gives no diameter; a non-finite value, named first in _HEADER_TYPES's
    order; and a negative dist0.
    """

    kind = "header"

    algorithm: str
    schedule_kind: str
    iterations: int
    shape: dict
    lipschitz: float
    f_star: float | None = None
    dist0: float | None = None
    eps: float | None = None
    config: dict | None = None
    format: int = FORMAT
    diameter: float = field(init=False)
    horizon: int | None = field(init=False)
    dual_defined: bool = field(init=False)

    def __post_init__(self) -> None:
        for key, (kind, nullable) in _HEADER_ARGUMENTS.items():
            value = getattr(self, key)
            if kind in _NUMBERS and isinstance(value, _NUMBERS[kind]) and type(value) is not bool:
                object.__setattr__(self, key, kind(value))
            elif not (type(value) is kind or value is None and nullable):
                expected = kind.__name__ + (" or null" if nullable else "")
                raise ValueError(f"header line field {key!r} must be {expected}, got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag: {self.algorithm!r}")
        kinds = RUN_SCHEDULES[self.algorithm]
        if self.schedule_kind not in kinds:
            raise ValueError(f"header line field 'schedule_kind' must be one of {tuple(kinds)} "
                             f"for algorithm {self.algorithm!r}, got {self.schedule_kind!r}")
        object.__setattr__(self, "horizon",
                           self.iterations if kinds[self.schedule_kind].tied else None)
        object.__setattr__(self, "dual_defined", self.algorithm != "stagewise")
        rule, name, value, diameter = _diameter_rule(self)
        object.__setattr__(self, "diameter", diameter)
        if diameter is None:
            raise ValueError(f"header line field 'diameter' must be {rule}, which {name} "
                             f"{value!r} does not give")
        non_finite = _non_finite_field(self.to_dict())
        if non_finite is not None:
            raise ValueError(f"header line: field {non_finite!r} is not finite, and traces "
                             "are strict JSON")
        if self.dist0 is not None and self.dist0 < 0.0:
            raise ValueError(f"header line field 'dist0' must be nonnegative, got {self.dist0!r}")


def _diameter_rule(header: TraceHeader) -> tuple[str, str, object, float | None]:
    """The expression `run` computes a header's diameter by, the name and the
    value of what it reads, and the diameter, None when that value gives
    none: half the squared dist0 in residual space, and log(m) over the
    simplex from its uniform start, for an int m of at least 1."""
    if header.algorithm == "stagewise":
        d = header.dist0
        return "0.5 * dist0 * dist0", "dist0", d, None if d is None else 0.5 * d * d
    m = header.shape.get("m")
    return "log(shape['m'])", "m", m, math.log(m) if type(m) is int and m >= 1 else None


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
    integer becomes a float. A record must keep _check_record's rules on its
    fields. A header must be one TraceHeader makes, its dual_defined,
    format-1 schedule dict, horizon and diameter, in that order, what runs
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
    cls, types, optional, named, missing, unknown = _LINES[kind]
    if format == 1:
        types, optional = _FORMAT_1.get(kind, (types, optional))
    values = typed_fields(obj, types, optional, named, missing, unknown)
    del values["type"]
    values.pop("slacks", None)
    if cls is Terminal:
        return Terminal(**values)
    if cls is IterationRecord:
        _check_record(values, format)
        return IterationRecord(**values)
    schedule = values.pop("schedule", None)
    stated = {key: values.pop(key) for key in _DERIVED}
    values["format"] = format
    line = TraceHeader(**values)
    if stated["dual_defined"] != line.dual_defined:
        raise ValueError(f"header line field 'dual_defined' must be {line.dual_defined} for "
                         f"algorithm {line.algorithm!r}, got {stated['dual_defined']!r}")
    if schedule is not None:
        _check_schedule(schedule, {**values, **stated})
    if stated["horizon"] != line.horizon:
        raise ValueError(f"header line field 'horizon' must be {line.horizon!r} for algorithm "
                         f"{line.algorithm!r} and schedule_kind {line.schedule_kind!r}, "
                         f"got {stated['horizon']!r}")
    if stated["diameter"] != line.diameter:
        rule, name, value, _ = _diameter_rule(line)
        raise ValueError(f"header line field 'diameter' must be {rule} with {name} {value!r}, "
                         f"got {stated['diameter']!r}")
    return line


def _check_record(fields: dict, format: int = FORMAT) -> None:
    """Refuse the fields of a record, by name, that no run writes, in this
    order: an unknown algorithm; a stagewise record without l1 and l0; an
    adaboost or mirror-descent record with l1 or l0, which only stagewise's
    coefficient path has; a stagewise record with a dual value, which its
    residual space has not; a format-1 adaboost record without grad_norm; a
    sign other than 1.0 or -1.0; and a float that is not finite, which json
    reads a token such as 1e999 as. The sign must be 1.0 under the simplex
    dual of adaboost and mirror-descent, over a matrix closed under negation;
    only stagewise's l1-ball dual negates a column. A key that `fields` lacks
    is null."""
    algorithm, sign, dual = fields["algorithm"], fields["sign"], fields["dual"]
    l1, l0, grad_norm = fields.get("l1"), fields.get("l0"), fields.get("grad_norm")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag: {algorithm!r}")
    if algorithm == "stagewise":
        if l1 is None or l0 is None:
            raise ValueError("stagewise records must carry l1 and l0")
        if dual is not None:
            raise ValueError("record line field 'dual' must be null for algorithm 'stagewise', "
                             f"which has no dual value, got {dual!r}")
    elif l1 is not None or l0 is not None:
        key, value = ("l1", l1) if l1 is not None else ("l0", l0)
        raise ValueError(f"record line field {key!r} must be null for algorithm {algorithm!r}, "
                         f"got {value!r}")
    if format == 1 and algorithm == "adaboost" and grad_norm is None:
        raise ValueError("adaboost records must carry grad_norm")
    if sign != 1.0 and sign != -1.0:
        raise ValueError(f"record line field 'sign' must be 1.0 or -1.0, got {sign!r}")
    if sign != 1.0 and algorithm != "stagewise":
        raise ValueError(f"record line field 'sign' must be 1.0 under the simplex dual of a "
                         f"format-{format} {algorithm} trace, got {sign!r}")
    # the sign is 1.0 or -1.0 by now; one test of the others, then a search
    # for the first that is not finite
    if not (math.isfinite(fields["alpha"]) and math.isfinite(fields["primal"])
            and math.isfinite(fields["best_primal"])
            and (dual is None or math.isfinite(dual)) and (l1 is None or math.isfinite(l1))
            and (grad_norm is None or math.isfinite(grad_norm))):
        key = next(key for key in _RECORD_FLOATS
                   if fields.get(key) is not None and not math.isfinite(fields[key]))
        raise ValueError(f"record line k={fields['k']}: field {key!r} is not finite, "
                         "and traces are strict JSON")


def _check_schedule(schedule: dict, header: dict) -> None:
    """Refuse a format-1 header line whose schedule dict contradicts the
    line's other fields `header`, as no run writes it: the dict's kind must
    be the one runs write for the line's algorithm and schedule_kind, its
    lipschitz, diameter and f_star, where it has them, the line's, and a
    fixed step's alpha the line's eps."""
    algorithm, schedule_kind = header["algorithm"], header["schedule_kind"]
    kind = RUN_SCHEDULES[algorithm][schedule_kind].step
    if schedule.get("kind") != kind:
        raise ValueError(f"header line field 'schedule.kind' must be {kind!r} for algorithm "
                         f"{algorithm!r} and schedule_kind {schedule_kind!r}, "
                         f"got {schedule.get('kind')!r}")
    # each constant of the dict to check, and the header field it must equal
    keys = {name: name for name in ("lipschitz", "diameter", "f_star") if name in schedule}
    if kind == "fixed":
        keys["alpha"] = "eps"
    for name, key in keys.items():
        value, want = schedule.get(name), header[key]
        if type(value) not in (int, float) or want is None or value != want:
            raise ValueError(f"header line field 'schedule.{name}' must equal the header's "
                             f"{key} {want!r}, got {value!r}")


def _non_finite_field(value, name: str = "") -> str | None:
    """Dotted name of the first non-finite float in a line's fields, if any.
    The walk keeps its own stack: a header's config may nest dicts as deeply
    as json decodes them, deeper than Python would recurse."""
    stack = [(name, value)]
    while stack:
        name, value = stack.pop()
        if isinstance(value, float):
            if not math.isfinite(value):
                return name
        elif isinstance(value, dict):
            stack.extend((f"{name}.{key}" if name else key, item)
                         for key, item in reversed(value.items()))
    return None


_json_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses for strings


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


# A format-2 record line: the record's fields in the table's order, without
# `type`, and the template of the line with its newline, its keys sorted as
# json.dumps sorts them, each value slot named by its field.
_RECORD_FIELDS = tuple((key, kind, nullable) for key, (kind, nullable) in _RECORD_TYPES.items()
                       if key != "type")
_record_values = operator.attrgetter(*(key for key, _, _ in _RECORD_FIELDS))
_RECORD_LINE = "{{" + ", ".join(
    f"{_json_str(key)}: " + (_json_str("record") if key == "type" else f"{{{key}}}")
    for key in sorted(_RECORD_TYPES)) + "}}\n"


def _record_line(rec: IterationRecord) -> str:
    """The bytes of json.dumps(rec.to_dict(), sort_keys=True, allow_nan=False)
    and a newline, from _RECORD_LINE, after the refusals parse_line makes of
    that dict, with its messages and in its order: a conversion that raises,
    in the table's order; a null where the table allows none, or an algorithm
    that is no str; then _check_record's rules, a non-finite value last. A
    float is written by float.__repr__ after float(), an int by
    int.__repr__ after int()."""
    values = {}
    texts = {}
    mistyped = None
    for (key, kind, nullable), value in zip(_RECORD_FIELDS, _record_values(rec)):
        if value is None:
            if not nullable and mistyped is None:
                mistyped = key
            texts[key] = "null"
        elif kind is float:
            value = float(value)
            texts[key] = float.__repr__(value)
        elif kind is int:
            value = int(value)
            texts[key] = int.__repr__(value)
        elif type(value) is str:
            texts[key] = _json_str(value)
        elif mistyped is None:
            mistyped = key
        values[key] = value
    if mistyped is not None:
        kind, nullable = _RECORD_TYPES[mistyped]
        expected = kind.__name__ + (" or null" if nullable else "")
        raise ValueError(f"record line field {mistyped!r} must be {expected}, "
                         f"got {values[mistyped]!r}")
    _check_record(values)
    return _RECORD_LINE.format_map(texts)


def trace_lines(header: TraceHeader, records: Iterable[IterationRecord],
                terminated: str | None = None) -> Iterator[str]:
    """The lines of a format-2 trace file, each with its newline, made one at
    a time as the caller takes them; the header must be format 2. Every line
    passes parse_line and every record carries the header's algorithm and an
    index below its column count, as read_trace requires; the terminal line
    counts the records. A record field that is not finite raises ValueError
    naming the field, when its line is taken."""
    if header.format != FORMAT:
        raise ValueError(f"header line field 'format' must be {FORMAT}, got {header.format!r}")
    yield json.dumps(header.to_dict(), sort_keys=True, allow_nan=False) + "\n"
    count = 0
    for rec in records:
        problem = _contradiction(rec, header)
        if problem is not None:
            raise ValueError(f"record line k={rec.k}: {problem}")
        yield _record_line(rec)
        count += 1
    if terminated is not None:
        term = Terminal(k=count, reason=terminated).to_dict()
        parse_line(term)
        yield json.dumps(term, sort_keys=True, allow_nan=False) + "\n"


def format_trace(header: TraceHeader, records: Iterable[IterationRecord],
                 terminated: str | None = None) -> str:
    """The text of a format-2 trace file: the lines of trace_lines()."""
    return "".join(trace_lines(header, records, terminated))


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a number in strict JSON")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_scan = _DECODER.scan_once  # decode() without its checks for surrounding whitespace

# A format-2 record line that the fast path of read_trace takes: its keys are
# the table's, and each value has exactly the JSON type the table gives it,
# null only where the table allows null. Its values after `type`, in the
# table's order, are IterationRecord's arguments.
_RECORD_KEYS = _RECORD_TYPES.keys()
_record_items = operator.itemgetter(*_RECORD_TYPES)
_RECORD_ROWS = frozenset(itertools.product(*(
    (kind, type(None)) if nullable else (kind,) for kind, nullable in _RECORD_TYPES.values())))


def _decoded(text: str):
    """The JSON value of a stripped trace line; a line that is not strict JSON
    raises decode()'s error, and a line nested deeper than the decoder can
    recurse a ValueError with the RecursionError's text."""
    try:
        try:
            obj, end = _scan(text, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(text):
            obj = _DECODER.decode(text)  # raises the error the scan met
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    return obj


def _read_line(obj, format: int) -> TraceHeader | IterationRecord | Terminal:
    """parse_line(obj, format), through a direct IterationRecord(...) for a
    format-2 record line with the table's keys and types, which parse_line
    would return unchanged but for its refusals of the record's fields."""
    if format == FORMAT and type(obj) is dict and obj.keys() == _RECORD_KEYS:
        values = _record_items(obj)
        if values[0] == "record" and tuple(map(type, values)) in _RECORD_ROWS:
            _check_record(obj)
            return IterationRecord(*values[1:])
    return parse_line(obj, format)


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
                obj = _decoded(text)
            except ValueError as exc:  # json.JSONDecodeError is one
                raise ValueError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
            try:
                line = _read_line(obj, FORMAT if header is None else header.format)
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
