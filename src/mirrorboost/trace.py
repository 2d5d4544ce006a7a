"""Structured per-iteration records and line-delimited trace serialization.

A trace file is plain text, one JSON object per line: a single header line
carrying the problem constants, one line per iteration, and an optional
terminal line when a run stopped before its requested horizon. Keys are
sorted and floats keep full round-trip precision, so identical runs produce
byte-identical files. Traces are strict JSON: a non-finite value is an error
when writing, never a NaN or Infinity token.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

ALGORITHMS = ("mirror-descent", "adaboost", "stagewise")

_RECORD_KEYS = {
    "type", "k", "algorithm", "index", "sign", "alpha", "primal",
    "best_primal", "dual", "grad_norm", "l1", "l0", "slacks",
}
_HEADER_KEYS = {
    "type", "algorithm", "schedule_kind", "schedule", "iterations", "shape",
    "lipschitz", "diameter", "f_star", "dist0", "eps", "horizon",
    "dual_defined", "config",
}


@dataclass
class IterationRecord:
    """One iteration of any of the runners, iterate-side values first.

    `primal`, `grad_norm`, `l1` and `l0` describe the iterate before the step;
    `dual` is the value of the running dual average after the step, None when
    the average is undefined (zero step mass) or the dual value does not exist
    for the problem. `x` holds the pre-step iterate for in-memory consumers
    and is never serialized.
    """

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
    x: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "type": "record",
            "k": int(self.k),
            "algorithm": self.algorithm,
            "index": int(self.index),
            "sign": float(self.sign),
            "alpha": float(self.alpha),
            "primal": float(self.primal),
            "best_primal": float(self.best_primal),
            "dual": None if self.dual is None else float(self.dual),
            "grad_norm": None if self.grad_norm is None else float(self.grad_norm),
            "l1": None if self.l1 is None else float(self.l1),
            "l0": None if self.l0 is None else int(self.l0),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "IterationRecord":
        return cls(
            k=int(obj["k"]),
            algorithm=obj["algorithm"],
            index=int(obj["index"]),
            sign=float(obj["sign"]),
            alpha=float(obj["alpha"]),
            primal=float(obj["primal"]),
            best_primal=float(obj["best_primal"]),
            dual=None if obj["dual"] is None else float(obj["dual"]),
            grad_norm=None if obj["grad_norm"] is None else float(obj["grad_norm"]),
            l1=None if obj.get("l1") is None else float(obj["l1"]),
            l0=None if obj.get("l0") is None else int(obj["l0"]),
        )


@dataclass
class RunResult:
    """Records plus final algorithm state; `terminated` explains early stops."""

    records: list[IterationRecord]
    state: object
    terminated: str | None = None


@dataclass
class TraceHeader:
    algorithm: str
    schedule_kind: str
    schedule: dict
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

    def to_dict(self) -> dict:
        return {
            "type": "header",
            "algorithm": self.algorithm,
            "schedule_kind": self.schedule_kind,
            "schedule": self.schedule,
            "iterations": int(self.iterations),
            "shape": self.shape,
            "lipschitz": None if self.lipschitz is None else float(self.lipschitz),
            "diameter": None if self.diameter is None else float(self.diameter),
            "f_star": None if self.f_star is None else float(self.f_star),
            "dist0": None if self.dist0 is None else float(self.dist0),
            "eps": None if self.eps is None else float(self.eps),
            "horizon": None if self.horizon is None else int(self.horizon),
            "dual_defined": bool(self.dual_defined),
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TraceHeader":
        return cls(
            algorithm=obj["algorithm"],
            schedule_kind=obj["schedule_kind"],
            schedule=obj["schedule"],
            iterations=int(obj["iterations"]),
            shape=obj["shape"],
            lipschitz=obj.get("lipschitz"),
            diameter=obj.get("diameter"),
            f_star=obj.get("f_star"),
            dist0=obj.get("dist0"),
            eps=obj.get("eps"),
            horizon=obj.get("horizon"),
            dual_defined=bool(obj.get("dual_defined", True)),
            config=obj.get("config"),
        )


def validate_line(obj: dict) -> None:
    """Schema check for one parsed trace line; raises ValueError on violation."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("trace line must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "header":
        missing = _HEADER_KEYS - {"config"} - set(obj)
        if missing:
            raise ValueError(f"header line missing keys: {sorted(missing)}")
        unknown = set(obj) - _HEADER_KEYS
        if unknown:
            raise ValueError(f"header line has unknown keys: {sorted(unknown)}")
        if obj["algorithm"] not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag: {obj['algorithm']!r}")
    elif kind == "record":
        missing = _RECORD_KEYS - {"l1", "l0", "slacks"} - set(obj)
        if missing:
            raise ValueError(f"record line missing keys: {sorted(missing)}")
        unknown = set(obj) - _RECORD_KEYS
        if unknown:
            raise ValueError(f"record line has unknown keys: {sorted(unknown)}")
        if obj["algorithm"] not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag: {obj['algorithm']!r}")
        if obj["algorithm"] == "stagewise" and (obj.get("l1") is None or obj.get("l0") is None):
            raise ValueError("stagewise records must carry l1 and l0")
        if obj["algorithm"] == "adaboost" and obj.get("grad_norm") is None:
            raise ValueError("adaboost records must carry grad_norm")
    elif kind == "terminal":
        if "k" not in obj or "reason" not in obj:
            raise ValueError("terminal line must carry k and reason")
    else:
        raise ValueError(f"unknown trace line type: {kind!r}")


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


def write_trace(path, header: TraceHeader, records: Iterable[IterationRecord],
                terminated: str | None = None,
                slacks: dict[int, dict[str, float]] | None = None) -> None:
    """Write a trace file; optional per-iteration certificate slacks are merged in.

    A non-finite value in any field raises ValueError naming the field, before
    the file is opened.
    """
    lines = []
    head = header.to_dict()
    validate_line(head)
    lines.append(_dumps(head))
    last_k = -1
    for rec in records:
        obj = rec.to_dict()
        if slacks is not None and rec.k in slacks:
            obj["slacks"] = {tag: float(v) for tag, v in sorted(slacks[rec.k].items())}
        validate_line(obj)
        lines.append(_dumps(obj))
        last_k = rec.k
    if terminated is not None:
        term = {"type": "terminal", "k": last_k + 1, "reason": terminated}
        validate_line(term)
        lines.append(_dumps(term))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
        fh.flush()


def read_trace(path) -> tuple[TraceHeader, list[IterationRecord], str | None]:
    header = None
    records: list[IterationRecord] = []
    terminated = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
            validate_line(obj)
            if obj["type"] == "header":
                if header is not None:
                    raise ValueError(f"{path}: duplicate header at line {lineno}")
                header = TraceHeader.from_dict(obj)
            elif obj["type"] == "record":
                records.append(IterationRecord.from_dict(obj))
            else:
                terminated = obj["reason"]
    if header is None:
        raise ValueError(f"{path}: missing header line")
    return header, records, terminated
