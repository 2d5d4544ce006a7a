"""Trace serialization: schema validation, round trips, byte-level determinism."""

import json
import math

import pytest

from mirrorboost.trace import (
    IterationRecord,
    TraceHeader,
    read_trace,
    validate_line,
    write_trace,
)


def _header(**overrides) -> TraceHeader:
    base = dict(algorithm="adaboost", schedule_kind="constant",
                schedule={"kind": "constant", "alpha": 0.25}, iterations=2,
                shape={"m": 4, "n": 3}, lipschitz=1.0, diameter=math.log(4.0),
                horizon=2, dual_defined=True, config={"task": "adaboost"})
    base.update(overrides)
    return TraceHeader(**base)


def _record(k: int, **overrides) -> IterationRecord:
    base = dict(k=k, algorithm="adaboost", index=1, sign=1.0, alpha=0.25,
                primal=0.5 - 0.1 * k, best_primal=0.5 - 0.1 * k, dual=-0.2,
                grad_norm=0.4)
    base.update(overrides)
    return IterationRecord(**base)


def test_record_round_trip_preserves_floats_exactly():
    rec = _record(0, primal=1.0 / 3.0, alpha=math.sqrt(2.0) / 7.0)
    back = IterationRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back == rec
    assert back.primal == rec.primal and back.alpha == rec.alpha


def test_header_round_trip():
    header = _header(f_star=0.0, dist0=2.5, eps=0.01)
    back = TraceHeader.from_dict(json.loads(json.dumps(header.to_dict())))
    assert back == header


def test_validate_line_rejects_malformed_objects():
    with pytest.raises(ValueError):
        validate_line({"no_type": 1})
    with pytest.raises(ValueError):
        validate_line({"type": "mystery"})
    head = _header().to_dict()
    del head["lipschitz"]
    with pytest.raises(ValueError):
        validate_line(head)
    head2 = _header().to_dict()
    head2["surprise"] = 1
    with pytest.raises(ValueError):
        validate_line(head2)
    head3 = _header().to_dict()
    head3["algorithm"] = "gradient-boosting"
    with pytest.raises(ValueError):
        validate_line(head3)


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
    line = {"header": _header().to_dict(), "record": _record(0).to_dict(),
            "terminal": {"type": "terminal", "k": 2, "reason": "stopped"}}[kind]
    validate_line(line)
    with pytest.raises(ValueError, match=f"{kind} line field {key!r} must be"):
        validate_line({**line, key: bad})


def test_validate_line_takes_integers_for_floats_and_null_where_optional():
    validate_line({**_header().to_dict(), "lipschitz": 1, "diameter": None, "horizon": None})
    validate_line({**_record(0).to_dict(), "alpha": 0, "sign": -1, "dual": None, "l1": 2})


def test_validate_line_per_algorithm_requirements():
    rec = _record(0).to_dict()
    rec["grad_norm"] = None
    with pytest.raises(ValueError):
        validate_line(rec)  # adaboost records carry the loss-gradient norm
    fs = _record(0, algorithm="stagewise", grad_norm=None, dual=None).to_dict()
    with pytest.raises(ValueError):
        validate_line(fs)  # stagewise records carry l1 and l0
    fs["l1"] = 0.0
    fs["l0"] = 0
    validate_line(fs)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    records = [_record(0), _record(1, primal=0.4, best_primal=0.4)]
    write_trace(path, _header(), records, terminated="stopped for testing",
                slacks={0: {"weak-duality": 0.7}})
    header, back, terminated = read_trace(path)
    assert header == _header()
    assert back == records
    assert terminated == "stopped for testing"
    # the slack annotation lands on the k=0 line only
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert lines[1]["slacks"] == {"weak-duality": 0.7}
    assert "slacks" not in lines[2]
    assert lines[3] == {"type": "terminal", "k": 2, "reason": "stopped for testing"}


def test_read_trace_rejects_non_finite_tokens(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    write_trace(path, _header(), [_record(0), _record(1)])
    lines = path.read_text().splitlines()
    for token in ("NaN", "Infinity", "-Infinity"):
        doctored = lines[2].replace('"dual": -0.2', f'"dual": {token}')
        assert doctored != lines[2]
        path.write_text("\n".join(lines[:2] + [doctored]) + "\n")
        with pytest.raises(ValueError, match=f"line 3 is not valid JSON: {token} is not a number"):
            read_trace(path)


def test_write_trace_rejects_non_finite_fields(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    cases = [
        (_header(), [_record(0, dual=math.nan)], None, "record line k=0: field 'dual'"),
        (_header(), [_record(0), _record(1, alpha=math.inf)], None,
         "record line k=1: field 'alpha'"),
        (_header(), [_record(0)], {0: {"gap-running": -math.inf}},
         "field 'slacks.gap-running'"),
        (_header(lipschitz=math.inf), [_record(0)], None, "header line: field 'lipschitz'"),
        (_header(schedule={"kind": "constant", "alpha": math.nan}), [_record(0)], None,
         "field 'schedule.alpha'"),
    ]
    for header, records, slacks, message in cases:
        with pytest.raises(ValueError, match=message):
            write_trace(path, header, records, slacks=slacks)
        assert not path.exists()


def test_write_trace_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = [_record(0, primal=math.pi / 4.0), _record(1, alpha=1e-17)]
    write_trace(a, _header(), records)
    write_trace(b, _header(), records)
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
