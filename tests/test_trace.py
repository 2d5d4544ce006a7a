"""Trace serialization: schema validation, round trips, byte-level determinism.

The test_validate_line_* tests check the validation parse_line does. Traces
are written in format 2; format 1, which the parent fixtures of
tests/data/parent are written in, is still read."""

import dataclasses
import json
import math
import re
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorboost import trace
from mirrorboost.schedule import RUN_SCHEDULES, StepSchedule
from mirrorboost.trace import (
    ALGORITHMS,
    IterationRecord,
    Terminal,
    TraceHeader,
    format_trace,
    parse_line,
    read_trace,
)


def _header(**overrides) -> TraceHeader:
    """A header of a run: dual_defined, the horizon and the diameter follow
    from the algorithm, the schedule kind, the iteration count, the shape's m
    and dist0, 1.5 for stagewise unless given."""
    base = dict(algorithm="adaboost", schedule_kind="constant", iterations=2,
                shape={"m": 4, "n": 3}, lipschitz=1.0, config={"task": "adaboost"})
    if overrides.get("algorithm") == "stagewise":
        base["dist0"] = 1.5
    return TraceHeader(**{**base, **overrides})


def _write(path: Path, header: TraceHeader, records, terminated: str | None = None) -> None:
    """Write format_trace's text to `path`; a refused trace writes no file."""
    path.write_text(format_trace(header, records, terminated), encoding="utf-8")


def _record(k: int, **overrides) -> IterationRecord:
    base = dict(k=k, algorithm="adaboost", index=1, sign=1.0, alpha=0.25,
                primal=0.5 - 0.1 * k, best_primal=0.5 - 0.1 * k, dual=-0.2)
    base.update(overrides)
    return IterationRecord(**base)


def _header_1(schedule: dict | None = None, **overrides) -> dict:
    """A format-1 header line: _header(**overrides) without `format`, and
    `schedule` as its schedule dict, by default the one runs wrote for
    _header()'s constant schedule."""
    line = {key: value for key, value in _header(**overrides).to_dict().items()
            if key != "format"}
    line["schedule"] = schedule if schedule is not None else {
        "kind": "constant", "alpha": 0.25, "lipschitz": 1.0, "diameter": math.log(4.0)}
    return line


def _record_1(k: int, **overrides) -> dict:
    """A format-1 record line, with the loss-gradient norm and the slacks."""
    return {**_record(k).to_dict(), "grad_norm": 0.4, "slacks": {"weak-duality": 0.7},
            **overrides}


def test_record_round_trip_preserves_floats_exactly():
    rec = _record(0, primal=1.0 / 3.0, alpha=math.sqrt(2.0) / 7.0)
    back = parse_line(json.loads(json.dumps(rec.to_dict())))
    assert back == rec
    assert back.primal == rec.primal and back.alpha == rec.alpha


def test_to_dict_writes_numpy_scalars_as_python_numbers():
    rec = _record(np.int64(3), algorithm="stagewise", index=np.int64(7), sign=np.float64(-1.0),
                  alpha=np.float32(0.5), dual=None, l0=np.int32(2), l1=np.float64(0.25))
    obj = rec.to_dict()
    assert [type(obj[key]) for key in ("k", "index", "sign", "alpha", "l0", "l1")] == \
        [int, int, float, float, int, float]
    assert parse_line(json.loads(json.dumps(obj))) == rec
    # a header converts its numbers when it is made
    header = _header(iterations=np.int64(2), lipschitz=np.float32(1.0), f_star=np.int64(0))
    assert [type(v) for v in header.to_dict().values()] == \
        [type(v) for v in _header(f_star=0.0).to_dict().values()]
    assert type(header.iterations) is int and type(header.f_star) is float


def test_header_round_trip():
    header = _header(f_star=0.0, dist0=2.5, eps=0.01)
    back = parse_line(json.loads(json.dumps(header.to_dict())))
    assert back == header


def test_each_table_declares_its_line_class_fields():
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    # format 2 writes every field but a record's grad_norm; format 1 has no
    # `format`, and holds a schedule dict and a record's slacks besides
    assert set(trace._HEADER_TYPES) == fields(TraceHeader) | {"type"}
    assert set(trace._RECORD_TYPES) == fields(IterationRecord) - {"grad_norm"} | {"type"}
    assert set(trace._TERMINAL_TYPES) == fields(Terminal) | {"type"}
    assert set(trace._HEADER_TYPES_1) == fields(TraceHeader) - {"format"} | {"type", "schedule"}
    assert set(trace._RECORD_TYPES_1) == fields(IterationRecord) | {"type", "slacks"}
    assert trace._HEADER_OPTIONAL == {"config"}
    assert trace._RECORD_OPTIONAL == {"l1", "l0"}
    assert trace._RECORD_OPTIONAL_1 == {"l1", "l0", "slacks"}
    assert trace._TERMINAL_OPTIONAL == set()
    for kind, (cls, types, optional, *_texts) in trace._LINES.items():
        assert cls.kind == kind and optional <= types.keys()
    for kind, (types, optional) in trace._FORMAT_1.items():
        assert optional <= types.keys() and types.keys() - trace._LINES[kind][1].keys()


def test_validate_line_rejects_malformed_objects():
    with pytest.raises(ValueError):
        parse_line({"no_type": 1})
    with pytest.raises(ValueError):
        parse_line({"type": "mystery"})
    head = _header().to_dict()
    del head["lipschitz"]
    with pytest.raises(ValueError):
        parse_line(head)
    head2 = _header().to_dict()
    head2["surprise"] = 1
    with pytest.raises(ValueError):
        parse_line(head2)
    head3 = _header().to_dict()
    head3["algorithm"] = "gradient-boosting"
    with pytest.raises(ValueError):
        parse_line(head3)


@pytest.mark.parametrize("kind, key, bad", [
    ("header", "lipschitz", "x"), ("header", "horizon", 1.5), ("header", "dual_defined", "yes"),
    ("header", "iterations", 2.0), ("header", "iterations", True), ("header", "schedule", []),
    ("header", "shape", None), ("header", "config", "adaboost"), ("header", "eps", False),
    ("record", "dual", [1]), ("record", "k", 1.5), ("record", "index", "1"),
    ("record", "alpha", None), ("record", "sign", True), ("record", "l0", 0.0),
    ("record", "slacks", [0.1]), ("record", "algorithm", 3),
    ("terminal", "k", "2"), ("terminal", "reason", None),
])
def test_validate_line_checks_field_types(kind, key, bad):
    # a schedule dict and slacks are format-1 fields, type-checked on read
    format = 1 if key in ("schedule", "slacks") else 2
    line = {"header": _header_1() if format == 1 else _header().to_dict(),
            "record": _record_1(0) if format == 1 else _record(0).to_dict(),
            "terminal": {"type": "terminal", "k": 2, "reason": "stopped"}}[kind]
    parse_line(line, format)
    with pytest.raises(ValueError, match=f"{kind} line field {key!r} must be"):
        parse_line({**line, key: bad}, format)


def test_parse_line_names_the_first_mistyped_field_in_the_tables_order():
    # a trace line's keys are sorted; the error names the table's first
    record = {**_record(0).to_dict(), "alpha": "a", "k": "b", "sign": None}
    with pytest.raises(ValueError, match="record line field 'k' must be int"):
        parse_line(dict(sorted(record.items())))
    header = {**_header().to_dict(), "dual_defined": "yes", "schedule_kind": 3}
    with pytest.raises(ValueError, match="header line field 'schedule_kind' must be str"):
        parse_line(dict(sorted(header.items())))


def test_validate_line_takes_integers_for_floats_and_null_where_optional():
    header = parse_line({**_header(schedule_kind="dynamic").to_dict(), "lipschitz": 1,
                         "f_star": None, "horizon": None})
    assert header == _header(schedule_kind="dynamic", lipschitz=1.0, f_star=None)
    assert type(header.lipschitz) is float
    record = parse_line({**_record(0).to_dict(), "alpha": 0, "sign": 1, "dual": None, "l1": 2})
    assert record == _record(0, alpha=0.0, sign=1.0, dual=None, l1=2.0)
    assert type(record.alpha) is type(record.sign) is type(record.l1) is float


def test_validate_line_per_algorithm_requirements():
    # format-1 adaboost records carry the loss-gradient norm; format 2 has none
    parse_line(_record_1(0), 1)
    with pytest.raises(ValueError, match="adaboost records must carry grad_norm"):
        parse_line(_record_1(0, grad_norm=None), 1)
    no_grad_norm = _record_1(0)
    del no_grad_norm["grad_norm"]
    with pytest.raises(ValueError, match=r"record line missing keys: \['grad_norm'\]"):
        parse_line(no_grad_norm, 1)
    parse_line(_record(0).to_dict())
    fs = _record(0, algorithm="stagewise", dual=None).to_dict()
    with pytest.raises(ValueError):
        parse_line(fs)  # stagewise records carry l1 and l0
    fs["l1"] = 0.0
    fs["l0"] = 0
    parse_line(fs)


@pytest.mark.parametrize("sign", [7.5, 0.0, -0.0, 0.5, -2, 1e-300])
def test_parse_line_refuses_a_sign_other_than_one(sign):
    parse_line({**_record(0, algorithm="stagewise", l1=0.0, l0=0).to_dict(), "sign": -1})
    with pytest.raises(ValueError, match="record line field 'sign' must be 1.0 or -1.0"):
        parse_line({**_record(0).to_dict(), "sign": sign})


def test_parse_line_refuses_unknown_terminal_keys():
    line = {"type": "terminal", "k": 2, "reason": "stopped"}
    assert parse_line(line) == Terminal(k=2, reason="stopped")
    with pytest.raises(ValueError, match=r"terminal line has unknown keys: \['extra'\]"):
        parse_line({**line, "extra": 1})
    with pytest.raises(ValueError, match="terminal line must carry k and reason"):
        parse_line({"type": "terminal", "k": 2})


def test_a_record_must_carry_the_headers_algorithm(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    records = [_record(0), _record(1, algorithm="mirror-descent")]
    with pytest.raises(ValueError, match="record line k=1: record algorithm 'mirror-descent' "
                                         "differs from the header's 'adaboost'"):
        _write(path, _header(), records)
    assert not path.exists()
    head = json.dumps(_header().to_dict())
    good, bad = (json.dumps(rec.to_dict()) for rec in records)
    path.write_text("\n".join([head, good, bad]) + "\n")
    with pytest.raises(ValueError, match="line 3: record algorithm 'mirror-descent' differs "
                                         "from the header's 'adaboost'"):
        read_trace(path)


@pytest.mark.parametrize("algorithm, shape, index, message", [
    ("adaboost", {"m": 4, "n": 3}, 3, "shape has n=3"),
    ("adaboost", {"m": 4, "n": 3}, -1, "shape has n=3"),
    ("stagewise", {"n": 4, "p": 2}, 2, "shape has p=2"),
    ("adaboost", {"m": 4}, 0, "shape has no int 'n'"),
    ("stagewise", {"n": 4, "p": 2.0}, 0, "shape has no int 'p'"),
])
def test_a_record_must_name_a_column_of_the_headers_shape(tmp_path, algorithm, shape, index,
                                                          message):
    # the first record names column 0, the second `index`
    path = tmp_path / "run.trace.jsonl"
    fs = algorithm == "stagewise"
    first = _record(0, algorithm=algorithm, index=0, l1=0.0 if fs else None,
                    l0=0 if fs else None)
    records = [first, dataclasses.replace(first, k=1, index=index)]
    header = _header(algorithm=algorithm, shape=shape)
    k = 0 if index == 0 else 1
    message = f"record index {index} names no column: the header's {message}"
    with pytest.raises(ValueError, match=f"record line k={k}: {message}"):
        _write(path, header, records)
    assert not path.exists()
    path.write_text("\n".join(json.dumps(line.to_dict()) for line in [header, *records]) + "\n")
    with pytest.raises(ValueError, match=f"line {k + 2}: {message}"):
        read_trace(path)


# every float a trace may hold, the extremes of the double range among them,
# and integers, which a float field reads back as floats
finite = st.one_of(st.sampled_from((-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308)),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2**60, 2**60))
nullable = st.one_of(st.none(), finite)
text = st.text(max_size=8)
small_dicts = st.dictionaries(text, st.one_of(finite, st.none(), text, st.booleans()),
                              max_size=3)


@st.composite
def traces(draw):
    """A header and records that agree: each record carries the header's
    algorithm and an index below the column count of the header's shape, and
    a negated sign only under stagewise's l1-ball dual. The header is one a
    run may write: a kind of its algorithm, a finite lipschitz, a shape with
    an int m of at least 1 for the simplex, and a dist0 that is null or
    finite and nonnegative, and for stagewise not null, with a finite half
    square."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    stagewise = algorithm == "stagewise"
    columns = draw(st.integers(1, 2**40))
    shape = {**draw(small_dicts), "p" if stagewise else "n": columns}
    if stagewise:  # diameter 0.5 * dist0 * dist0
        dist0 = draw(st.one_of(st.integers(0, 2**60), st.floats(0.0, 1e154)))
    else:  # diameter log(m)
        dist0 = draw(st.one_of(st.none(), finite.map(abs)))
        shape["m"] = draw(st.integers(1, 2**40))
    header = TraceHeader(
        algorithm=algorithm, schedule_kind=draw(st.sampled_from(
            sorted(RUN_SCHEDULES[algorithm]))), iterations=draw(st.integers(0, 2**40)),
        shape=shape, lipschitz=draw(finite), f_star=draw(nullable), dist0=dist0,
        eps=draw(nullable), config=draw(st.one_of(st.none(), small_dicts)))
    signs = (1.0, -1.0, 1, -1) if stagewise else (1.0, 1)
    records = []
    for k in range(draw(st.integers(0, 4))):
        records.append(IterationRecord(
            k=k, algorithm=algorithm, index=draw(st.integers(0, columns - 1)),
            sign=draw(st.sampled_from(signs)), alpha=draw(finite),
            primal=draw(finite), best_primal=draw(finite), dual=draw(nullable),
            l1=draw(finite if stagewise else nullable),
            l0=draw(st.integers(0, 99) if stagewise else st.one_of(st.none(),
                                                                   st.integers(0, 99)))))
    terminated = draw(st.one_of(st.none(), text))
    return header, records, terminated


def _as_read(line):
    """The line read_trace gives back for `line`: float fields hold floats, as
    a header's do from when it is made."""
    types = trace._LINES[line.kind][1]
    arguments = {field.name for field in dataclasses.fields(line) if field.init}
    return dataclasses.replace(line, **{key: float(getattr(line, key)) for key, (kind, _) in
                                        types.items() if kind is float and key in arguments
                                        and getattr(line, key) is not None})


def _exactly(value):
    """A line's fields, or a dict's items, with their types and reprs, so that
    -0.0 differs from 0.0 and 1 from 1.0; the order of a dict's keys is not."""
    if isinstance(value, dict):
        return sorted((key, type(item), repr(item)) for key, item in value.items())
    return [(key, type(item), _exactly(item) if isinstance(item, dict) else repr(item))
            for key, item in vars(value).items()]


@settings(max_examples=300, deadline=None)
@given(traces())
def test_read_trace_gives_back_what_format_trace_wrote(case):
    header, records, terminated = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace.jsonl"
        path.write_text(format_trace(header, records, terminated), encoding="utf-8")
        back_header, back_records, back_terminated = read_trace(path)
    assert _exactly(back_header) == _exactly(_as_read(header))
    assert [_exactly(r) for r in back_records] == [_exactly(_as_read(r)) for r in records]
    assert back_terminated == terminated


def test_read_trace_gives_back_nulls_and_extreme_floats(tmp_path):
    header = _header(schedule_kind="dynamic", lipschitz=1.7976931348623157e308, f_star=None,
                     dist0=None, eps=None, config=None)
    records = [_record(0, alpha=5e-324, primal=1.7976931348623157e308,
                       best_primal=1.7976931348623157e308, dual=None),
               _record(1, sign=1, alpha=3, primal=-0.0, best_primal=-0.0, dual=None,
                       l1=None, l0=None)]
    path = tmp_path / "run.trace.jsonl"
    _write(path, header, records, terminated="stopped")
    back_header, back_records, terminated = read_trace(path)
    assert _exactly(back_header) == _exactly(header)
    assert [_exactly(r) for r in back_records] == [_exactly(_as_read(r)) for r in records]
    assert back_records[1].sign == 1.0 and type(back_records[1].sign) is float
    assert type(back_records[1].alpha) is float
    assert repr(back_records[1].primal) == "-0.0" and terminated == "stopped"


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    records = [_record(0), _record(1, primal=0.4, best_primal=0.4)]
    _write(path, _header(), records, terminated="stopped for testing")
    header, back, terminated = read_trace(path)
    assert header == _header()
    assert back == records
    assert terminated == "stopped for testing"
    # format 2: the header says so, and states no fact twice
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert lines[0]["format"] == 2 and "schedule" not in lines[0]
    assert all("slacks" not in line and "grad_norm" not in line for line in lines[1:3])
    assert lines[3] == {"type": "terminal", "k": 2, "reason": "stopped for testing"}


def test_read_trace_rejects_non_finite_tokens(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    _write(path, _header(), [_record(0), _record(1)])
    lines = path.read_text().splitlines()
    for token in ("NaN", "Infinity", "-Infinity"):
        doctored = lines[2].replace('"dual": -0.2', f'"dual": {token}')
        assert doctored != lines[2]
        path.write_text("\n".join(lines[:2] + [doctored]) + "\n")
        with pytest.raises(ValueError, match=f"line 3 is not valid JSON: {token} is not a number"):
            read_trace(path)


def test_write_trace_rejects_non_finite_fields(tmp_path):
    # a header is refused when it is made
    path = tmp_path / "run.trace.jsonl"
    cases = [
        (dict(), [_record(0, dual=math.nan)], "record line k=0: field 'dual'"),
        (dict(), [_record(0), _record(1, alpha=math.inf)], "record line k=1: field 'alpha'"),
        (dict(lipschitz=math.inf), [_record(0)], "header line: field 'lipschitz'"),
        # a non-finite value in a dict field is named by its dotted path
        (dict(config={"task": "fs", "epsilon": -math.inf}), [_record(0)],
         "header line: field 'config.epsilon'"),
    ]
    # and so is one nested deeper than Python recurses, as json may read it
    deep = -math.inf
    for _ in range(sys.getrecursionlimit()):
        deep = {"a": deep}
    cases.append((dict(config={"task": "fs", "deep": deep}), [_record(0)],
                  r"header line: field 'config\.deep(\.a)+' is not finite"))
    for fields, records, message in cases:
        with pytest.raises(ValueError, match=message):
            _write(path, _header(**fields), records)
        assert not path.exists()


def test_write_trace_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = [_record(0, primal=math.pi / 4.0), _record(1, alpha=1e-17)]
    _write(a, _header(), records)
    _write(b, _header(), records)
    assert a.read_bytes() == b.read_bytes()


def test_read_trace_error_reporting(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="line 1"):
        read_trace(path)
    path.write_text(json.dumps(_record(0).to_dict()) + "\n")
    with pytest.raises(ValueError, match="missing header"):
        read_trace(path)
    head = json.dumps(_header().to_dict())
    path.write_text(head + "\n" + head + "\n")
    with pytest.raises(ValueError, match="duplicate header"):
        read_trace(path)
    path.write_text(head + "\n\n" + json.dumps({**_record(0).to_dict(), "k": 0.5}) + "\n")
    with pytest.raises(ValueError, match="line 3: record line field 'k' must be int"):
        read_trace(path)
    # a line nested deeper than the decoder recurses is refused like any other
    path.write_text(head + "\n" + "[" * 100000 + "\n")
    with pytest.raises(ValueError, match="line 2 is not valid JSON: maximum recursion depth"):
        read_trace(path)


def test_a_format_1_trace_is_read_with_its_grad_norm_and_without_its_schedule_and_slacks(
        tmp_path):
    path = tmp_path / "old.trace.jsonl"
    lines = [_header_1(), _record_1(0), _record_1(1, grad_norm=0.3)]
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    header, records, terminated = read_trace(path)
    assert header == _header(format=1)
    assert records == [_record(0, grad_norm=0.4), _record(1, grad_norm=0.3)]
    assert terminated is None
    # format 1 is read, never written
    with pytest.raises(ValueError, match="header line field 'format' must be 2, got 1"):
        format_trace(header, records)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dual_defined_must_be_what_runs_of_the_algorithm_write(tmp_path, algorithm):
    # a header derives it; a header line must state what it derives
    dual_defined = algorithm != "stagewise"
    header = _header(algorithm=algorithm)
    assert header.dual_defined is dual_defined
    message = (f"header line field 'dual_defined' must be {dual_defined} for algorithm "
               f"{algorithm!r}, got {not dual_defined}")
    parse_line(header.to_dict())
    with pytest.raises(ValueError, match=message):
        parse_line(header.to_dict() | {"dual_defined": not dual_defined})
    kind = {"adaboost": "constant", "stagewise": "linesearch"}.get(algorithm, "constant")
    schedule = {"kind": "polyak" if algorithm == "stagewise" else "constant"}
    old = _header_1(algorithm=algorithm, schedule_kind=kind, schedule=schedule)
    parse_line({**old, "dual_defined": dual_defined}, 1)
    with pytest.raises(ValueError, match=message):
        parse_line({**old, "dual_defined": not dual_defined}, 1)


# (algorithm, schedule_kind, the schedule dict's kind that runs wrote)
RUN_SCHEDULE_KINDS = [
    ("adaboost", "constant", "constant"), ("adaboost", "dynamic", "dynamic"),
    ("adaboost", "linesearch", "edge-linesearch"), ("stagewise", "constant", "fixed"),
    ("stagewise", "optimal", "fixed"), ("stagewise", "linesearch", "polyak"),
    ("mirror-descent", "constant", "constant"), ("mirror-descent", "dynamic", "dynamic"),
    ("mirror-descent", "polyak", "polyak"),
]


def test_the_one_schedule_table_gives_each_pair_the_step_kind_runs_wrote():
    # the table holds the nine pairs of the oracle table, and StepSchedule.of
    # builds each pair's header's steps by the kind its runs wrote
    assert sorted((algorithm, schedule_kind) for algorithm, kinds in RUN_SCHEDULES.items()
                  for schedule_kind in kinds) == sorted(
        (algorithm, schedule_kind) for algorithm, schedule_kind, _ in RUN_SCHEDULE_KINDS)
    for algorithm, schedule_kind, kind in RUN_SCHEDULE_KINDS:
        assert RUN_SCHEDULES[algorithm][schedule_kind].step == kind
        header = _header(algorithm=algorithm, schedule_kind=schedule_kind, f_star=-0.5,
                         eps=0.1)
        assert StepSchedule.of(header).kind == kind
    # a pair without a step kind gives no rule; TraceHeader refuses to make one
    for algorithm, schedule_kind in (("adaboost", "polyak"), ("stagewise", "dynamic"),
                                     ("mirror-descent", "linesearch"), ("boost", "constant")):
        header = types.SimpleNamespace(algorithm=algorithm, schedule_kind=schedule_kind)
        with pytest.raises(ValueError, match=f"no step rule for algorithm {algorithm!r} and "
                                             f"schedule_kind {schedule_kind!r}"):
            StepSchedule.of(header)


def _header_1_for(algorithm: str, schedule_kind: str, kind: str, **schedule) -> dict:
    """A format-1 header whose schedule dict has `kind`, its constants the
    header's (f_star -0.5, eps 0.1) and the fields in `schedule`."""
    fields = dict(algorithm=algorithm, schedule_kind=schedule_kind, f_star=-0.5, eps=0.1)
    constants = {"lipschitz": 1.0, "diameter": _header(**fields).diameter, "f_star": -0.5}
    if kind == "fixed":
        constants = {"alpha": 0.1}
    return _header_1(schedule={"kind": kind, **constants, **schedule}, **fields)


@pytest.mark.parametrize("algorithm, schedule_kind, kind", RUN_SCHEDULE_KINDS)
def test_a_format_1_schedule_dict_must_agree_with_its_header(algorithm, schedule_kind, kind):
    assert parse_line(_header_1_for(algorithm, schedule_kind, kind), 1).format == 1
    for other in {"constant", "fixed", "polyak", "dynamic", "edge-linesearch", 3} - {kind}:
        with pytest.raises(ValueError, match=f"header line field 'schedule.kind' must be "
                                             f"{kind!r} for algorithm {algorithm!r} and "
                                             f"schedule_kind {schedule_kind!r}, got {other!r}"):
            parse_line(_header_1_for(algorithm, schedule_kind, other), 1)
    names = ["alpha"] if kind == "fixed" else ["lipschitz", "diameter", "f_star"]
    for name in names:
        field = "eps" if name == "alpha" else name
        for bad in (0.25, True, "1.0", None):
            with pytest.raises(ValueError, match=f"header line field 'schedule.{name}' must "
                                                 f"equal the header's {field}"):
                parse_line(_header_1_for(algorithm, schedule_kind, kind, **{name: bad}), 1)
    header = _header_1_for(algorithm, schedule_kind, kind)
    name = names[-1]  # alpha or f_star, whose header field may be null
    field = "eps" if name == "alpha" else name
    with pytest.raises(ValueError, match=f"schedule.{name}' must equal the header's "
                                         f"{field} None"):
        parse_line({**header, field: None}, 1)
    # a fixed step names its alpha; the dict of another kind may omit its constants
    header["schedule"] = {"kind": kind}
    if kind == "fixed":
        with pytest.raises(ValueError, match="'schedule.alpha' must equal the header's eps 0.1, "
                                             "got None"):
            parse_line(header, 1)
    else:
        parse_line(header, 1)


@pytest.mark.parametrize("algorithm, schedule_kind, kind", RUN_SCHEDULE_KINDS)
def test_a_header_must_carry_the_kind_horizon_and_diameter_that_run_writes(
        tmp_path, algorithm, schedule_kind, kind):
    tied = RUN_SCHEDULES[algorithm][schedule_kind].tied
    header = _header(algorithm=algorithm, schedule_kind=schedule_kind, iterations=7)
    assert header.horizon == (7 if tied else None)
    # format 1, with a schedule dict that names no constant the forgeries change
    old = {**_header_1_for(algorithm, schedule_kind, kind), "iterations": 7,
           "horizon": header.horizon, "schedule": {"kind": kind}}
    if kind == "fixed":
        old["schedule"]["alpha"] = 0.1
    format_trace(header, ())
    parse_line(old, 1)
    others = {"constant", "dynamic", "linesearch", "optimal", "polyak", "fixed"} - {
        *RUN_SCHEDULES[algorithm]}
    # each forgery: its fields, the refusal, and whether a header made with
    # them is refused too; it is not when a field is one the header derives,
    # or when the fields make another header that runs write
    forgeries = [({"schedule_kind": other}, "header line field 'schedule_kind' must be one of",
                  True) for other in others]
    forgeries += [({"horizon": horizon}, f"header line field 'horizon' must be {header.horizon!r}",
                   False) for horizon in ([None, 6, 8] if tied else [7, 0])]
    forgeries += [
        ({"diameter": math.nextafter(header.diameter, math.inf)},
         "header line field 'diameter' must be", False),
        ({"lipschitz": math.inf}, "header line: field 'lipschitz' is not finite", True),
        ({"lipschitz": None}, "header line field 'lipschitz' must be float, got None", True),
        # the diameter of a negated dist0 is the header's own
        ({"dist0": -(header.dist0 or 1.0)},
         f"header line field 'dist0' must be nonnegative, got {-(header.dist0 or 1.0)!r}", True),
    ]
    if algorithm == "stagewise":
        forgeries += [
            ({"dist0": 2.0 * header.dist0}, "header line field 'diameter' must be 0.5 * dist0",
             False),
            ({"dist0": None}, "header line field 'diameter' must be 0.5 * dist0 * dist0, which "
                              "dist0 None does not give", True)]
    else:
        forgeries.append(({"shape": {**header.shape, "m": 5}},
                          "header line field 'diameter' must be log(shape['m']) with m 5",
                          False))
        forgeries += [({"shape": {**header.shape, "m": m}},
                       f"header line field 'diameter' must be log(shape['m']), which m {m!r} "
                       "does not give", True) for m in (0, 4.0, None)]
    path = tmp_path / "run.trace.jsonl"
    for fields, message, made in forgeries:
        pattern = re.escape(message)
        if made:
            with pytest.raises(ValueError, match=pattern):
                dataclasses.replace(header, **fields)
        with pytest.raises(ValueError, match=pattern):
            parse_line({**old, **fields}, 1)
        # a format-2 line as check reads it, where json reads 1e999 as inf
        line = json.dumps({**header.to_dict(), **fields}, sort_keys=True)
        path.write_text(line.replace("Infinity", "1e999") + "\n")
        with pytest.raises(ValueError, match="line 1: " + pattern):
            read_trace(path)


# The record writer formats a line from one template; json.dumps of the
# record's to_dict() is its byte-for-byte oracle.
REPR_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 1e-4,
              9.999999999999999e-05, 0.00010000000000000002, -1e-4, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, 1.0 / 3.0)
written_floats = st.one_of(st.sampled_from(REPR_EDGES),
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-2**60, 2**60),
                           st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                           st.floats(allow_nan=False, allow_infinity=False,
                                     width=32).map(np.float32))
written_ints = st.one_of(st.integers(0, 2**62), st.integers(0, 2**62).map(np.int64))


@st.composite
def records_to_write(draw):
    """A header and a record it admits, in any algorithm, with numpy scalars
    among the values; stagewise records carry l1 and l0, the others may, and
    only they may negate their sign."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    stagewise = algorithm == "stagewise"
    header = _header(algorithm=algorithm, shape={"m": 4, "n": 2**63, "p": 2**63})
    nullable_float = st.one_of(st.none(), written_floats)
    signs = (1.0, 1, np.int64(1)) + ((-1.0, -1, np.float64(-1.0)) if stagewise else ())
    record = IterationRecord(
        k=draw(written_ints), algorithm=algorithm, index=draw(written_ints),
        sign=draw(st.sampled_from(signs)),
        alpha=draw(written_floats), primal=draw(written_floats),
        best_primal=draw(written_floats), dual=draw(nullable_float),
        l1=draw(written_floats if stagewise else nullable_float),
        l0=draw(written_ints if stagewise else st.one_of(st.none(), written_ints)))
    return header, record


@settings(max_examples=400, deadline=None)
@given(records_to_write())
def test_a_record_line_is_the_bytes_of_json_dumps(case):
    header, record = case
    line = format_trace(header, [record]).splitlines()[1]
    assert line == json.dumps(record.to_dict(), sort_keys=True, allow_nan=False)


class _Str(str):
    """A str that is not exactly a str, as a trace's algorithm must be."""


# each record the writer refuses, with the message it gives: the message
# that reading the record's dict back through parse_line gives
@pytest.mark.parametrize("fields, message", [
    ({"algorithm": "mirror-descent"},
     "record line k=0: record algorithm 'mirror-descent' differs from the header's 'adaboost'"),
    ({"index": 3}, "record line k=0: record index 3 names no column: the header's shape has n=3"),
    ({"index": -1}, "record index -1 names no column"),
    ({"algorithm": "mirror-descent", "index": 9}, "record algorithm 'mirror-descent' differs"),
    ({"sign": 0.5}, "record line field 'sign' must be 1.0 or -1.0, got 0.5"),
    ({"sign": np.float64(-0.0)}, "record line field 'sign' must be 1.0 or -1.0, got -0.0"),
    ({"sign": math.nan}, "record line field 'sign' must be 1.0 or -1.0, got nan"),
    ({"sign": 0.5, "dual": math.nan}, "field 'sign' must be 1.0 or -1.0, got 0.5"),
    ({"sign": None}, "record line field 'sign' must be float, got None"),
    ({"k": None, "alpha": None}, "record line field 'k' must be int, got None"),
    ({"primal": None, "sign": 0.5}, "record line field 'primal' must be float, got None"),
    ({"algorithm": _Str("adaboost")}, "record line field 'algorithm' must be str, got 'adaboost'"),
    ({"alpha": "x", "k": "y"}, "invalid literal for int() with base 10: 'y'"),
    ({"dual": math.nan}, "record line k=0: field 'dual' is not finite, and traces are strict JSON"),
    ({"alpha": math.inf, "dual": math.nan}, "record line k=0: field 'alpha' is not finite"),
    ({"k": np.int64(4), "best_primal": -math.inf}, "record line k=4: field 'best_primal'"),
    ({"l1": np.float32("inf"), "l0": 2}, "record line k=0: field 'l1' is not finite"),
    ({"sign": -1.0}, "record line field 'sign' must be 1.0 under the simplex dual of a "
                     "format-2 adaboost trace, got -1.0"),
    ({"sign": np.int64(-1), "dual": math.nan}, "field 'sign' must be 1.0 under the simplex"),
])
def test_format_trace_refuses_each_record_as_reading_it_back_does(fields, message):
    record = dataclasses.replace(_record(0), **fields)
    with pytest.raises((TypeError, ValueError), match=re.escape(message)) as refused:
        format_trace(_header(), [record])
    assert str(refused.value) == _refusal_by_reading_back(_header(), record)


def _refusal_by_reading_back(header: TraceHeader, record: IterationRecord) -> str:
    """The message for `record` from reading its dict back: the header's
    contradictions, then parse_line's refusals of the record's dict, then its
    first non-finite value; empty if none refuses."""
    problem = trace._contradiction(record, header)
    if problem is not None:
        return f"record line k={record.k}: {problem}"
    try:
        obj = record.to_dict()
        parse_line(obj)
    except (TypeError, ValueError) as exc:
        return str(exc)
    name = trace._non_finite_field(obj)
    if name is not None:
        return (f"record line k={obj['k']}: field {name!r} is not finite, and traces are "
                "strict JSON")
    return ""


@pytest.mark.parametrize("fields, message", [
    ({"l1": None, "l0": 0}, "stagewise records must carry l1 and l0"),
    ({"l1": 0.5, "l0": None, "sign": 0.5}, "stagewise records must carry l1 and l0"),
    ({"l1": 0.5, "l0": 1.5}, ""),  # l0 is written as int(1.5), as to_dict converts it
])
def test_format_trace_refuses_a_stagewise_record_without_l1_and_l0(fields, message):
    header = _header(algorithm="stagewise", shape={"n": 4, "p": 3})
    record = _record(0, algorithm="stagewise", dual=None, **fields)
    assert _refusal_by_reading_back(header, record) == message
    if message:
        with pytest.raises(ValueError, match=re.escape(message)):
            format_trace(header, [record])
    else:
        assert '"l0": 1,' in format_trace(header, [record])


def test_a_record_line_is_read_by_the_fast_path_or_by_parse_line(tmp_path, monkeypatch):
    # a line with the table's keys and exact JSON types skips parse_line; any
    # other is read by it, with its conversions and messages
    parsed = []
    monkeypatch.setattr(trace, "parse_line",
                        lambda obj, format=2: parsed.append(obj) or parse_line(obj, format))
    path = tmp_path / "run.trace.jsonl"
    records = [_record(0), _record(1, dual=None, l1=0.5, l0=3)]
    _write(path, _header(), records)
    parsed.clear()
    assert read_trace(path)[1] == records
    assert [line["type"] for line in parsed] == ["header"]
    head, first, second = path.read_text().splitlines()

    def read(line: str):
        parsed.clear()
        path.write_text("\n".join([head, first, line]) + "\n")
        return read_trace(path)[1][1]

    as_int = read(second.replace('"alpha": 0.25', '"alpha": 1'))
    assert as_int == dataclasses.replace(records[1], alpha=1.0) and type(as_int.alpha) is float
    assert len(parsed) == 2  # the header and the converted record
    for line, message in [
        (second[:-1] + ', "extra": 1}', r"line 3: record line has unknown keys: \['extra'\]"),
        (second.replace('"alpha": 0.25', '"alpha": null'),
         "line 3: record line field 'alpha' must be float, got None"),
        (second.replace('"k": 1', '"k": 1.0'), "line 3: record line field 'k' must be int"),
        (second.replace('"sign": 1.0', '"sign": true'), "field 'sign' must be float, got True"),
        (second.replace('"type": "record"', '"type": "terminal"'),
         "line 3: terminal line must carry k and reason"),
        (second.replace('"sign": 1.0', '"sign": 2.0'),
         "line 3: record line field 'sign' must be 1.0 or -1.0, got 2.0"),
        (second.replace('"algorithm": "adaboost"', '"algorithm": "boost"'),
         "line 3: unknown algorithm tag: 'boost'"),
    ]:
        with pytest.raises(ValueError, match=message):
            read(line)


def test_a_format_2_record_holds_its_lines_values_in_the_tables_order():
    # the fast path passes a line's values to IterationRecord by position
    names = [field.name for field in dataclasses.fields(IterationRecord)]
    assert names[:len(trace._RECORD_TYPES) - 1] == list(trace._RECORD_TYPES)[1:]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_negated_sign_is_a_stagewise_record(algorithm):
    # only stagewise's l1-ball dual negates a column; adaboost and
    # mirror-descent run a simplex dual over a matrix closed under negation
    fs = algorithm == "stagewise"
    record = {**_record_1(0), "algorithm": algorithm, "sign": -1.0,
              **({"l1": 0.5, "l0": 1} if fs else {})}
    format_2 = {key: value for key, value in record.items() if key not in ("grad_norm", "slacks")}
    for line, format in ((format_2, 2), (record, 1)):
        if fs:
            assert parse_line(line, format).sign == -1.0
        else:
            with pytest.raises(ValueError, match="record line field 'sign' must be 1.0 under the "
                                                 f"simplex dual of a format-{format} "
                                                 f"{algorithm} trace, got -1.0"):
                parse_line(line, format)
        assert parse_line({**line, "sign": 1.0}, format).sign == 1.0
