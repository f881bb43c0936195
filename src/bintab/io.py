"""File formats and run configuration.

Tables, parameter sets, traces, decompositions and reports all exchange as
JSON.  Table entries are written with Python's shortest-round-trip float
repr, so decimal inputs survive a parse/serialize cycle bit-identically.

Table file:      {"k": 2, "entries": [2.0, 3.0, 4.0, 5.0], "labels": [...]}
                 entries row-major with variable 1 most significant.
Parameter file:  {"k": 2, "kind": "di", "00": 14.0, "01": -2.0, ...}
                 one key per mask bitstring.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict
from typing import Optional, TextIO, Union

import numpy as np

from ._version import __version__
from .collapsibility import CollapseReport, PropertyBatterySummary
from .errors import InvalidTableError
from .paramset import ParamSet
from .structure import CanonicalTrace, Decomposition
from .table import MAX_DIM, BinaryTable, MarginMask

Pathish = Union[str, "os.PathLike[str]"]


def _load_json(source: Union[Pathish, TextIO]) -> object:
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except json.JSONDecodeError as exc:
        raise InvalidTableError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except OSError as exc:
        raise InvalidTableError(f"cannot read {source!r}: {exc}") from exc


def _dump_json(payload: object, dest: Optional[Union[Pathish, TextIO]]) -> Optional[str]:
    text = json.dumps(payload, indent=2)
    if dest is None:
        return text
    if hasattr(dest, "write"):
        dest.write(text + "\n")
        return None
    with open(dest, "w", encoding="utf-8") as fp:
        fp.write(text + "\n")
    return None


def table_to_dict(table: BinaryTable, labels: Optional[list[str]] = None) -> dict:
    payload: dict = {"k": table.k, "entries": [float(x) for x in table.entries]}
    if labels is not None:
        payload["labels"] = list(labels)
    return payload


def table_from_dict(payload: object) -> BinaryTable:
    if not isinstance(payload, dict):
        raise InvalidTableError(f"table file must be a JSON object, got {type(payload).__name__}")
    if "entries" not in payload:
        raise InvalidTableError("table file is missing the 'entries' field")
    entries = payload["entries"]
    if not isinstance(entries, list) or not all(isinstance(x, (int, float)) for x in entries):
        raise InvalidTableError("field 'entries' must be a list of numbers")
    k = payload.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
        raise InvalidTableError(f"field 'k' must be an integer, got {k!r}")
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InvalidTableError("field 'labels' must be a list of strings")
        if k is not None and len(labels) != k:
            raise InvalidTableError(f"expected {k} labels, got {len(labels)}")
    return BinaryTable.from_entries(entries, k=k)


def load_table(source: Union[Pathish, TextIO]) -> BinaryTable:
    return table_from_dict(_load_json(source))


def save_table(table: BinaryTable, dest: Union[Pathish, TextIO],
               labels: Optional[list[str]] = None) -> None:
    _dump_json(table_to_dict(table, labels), dest)


def paramset_to_dict(params: ParamSet) -> dict:
    payload: dict = {"k": params.k, "kind": params.kind}
    payload.update(params.as_dict())
    return payload


def paramset_from_dict(payload: object) -> ParamSet:
    if not isinstance(payload, dict):
        raise InvalidTableError("parameter file must be a JSON object")
    k, kind = payload.get("k"), payload.get("kind")
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= MAX_DIM:
        raise InvalidTableError(f"field 'k' must be an integer in [0, {MAX_DIM}], got {k!r}")
    if kind not in ("di", "lor"):
        raise InvalidTableError(f"field 'kind' must be 'di' or 'lor', got {kind!r}")
    values = np.empty(2**k)
    seen = set()
    for key, value in payload.items():
        if key in ("k", "kind"):
            continue
        mask = MarginMask.from_string(key)
        if mask.k != k:
            raise InvalidTableError(f"mask {key!r} has length {mask.k}, expected {k}")
        if not isinstance(value, (int, float)):
            raise InvalidTableError(f"value for mask {key!r} must be a number, got {value!r}")
        values[mask.to_int()] = float(value)
        seen.add(mask.to_int())
    missing = set(range(2**k)) - seen
    if missing:
        bad = MarginMask.from_int(min(missing), k).to_string()
        raise InvalidTableError(f"parameter file is missing {len(missing)} masks (e.g. {bad!r})")
    return ParamSet(k, kind, values)


def load_paramset(source: Union[Pathish, TextIO]) -> ParamSet:
    """Read a parameter file, or the report envelope that wraps one."""
    payload = _load_json(source)
    if isinstance(payload, dict) and "command" in payload and "result" in payload:
        payload = payload["result"]
    return paramset_from_dict(payload)


def save_paramset(params: ParamSet, dest: Union[Pathish, TextIO]) -> None:
    _dump_json(paramset_to_dict(params), dest)


def trace_to_dict(trace: CanonicalTrace) -> dict:
    return {
        "steps": [
            {"variable": i, "table": table_to_dict(t)} for i, t in trace.steps
        ],
        "final": table_to_dict(trace.final),
    }


def decomposition_to_dict(d: Decomposition) -> dict:
    return {
        "s": d.s,
        "case": d.case,
        "increment": d.increment,
        "pair_components": [table_to_dict(t) for t in d.pair_components],
        "peak_components": [
            {"cell": list(cell), "table": table_to_dict(t)}
            for cell, t in d.peak_components
        ],
    }


def collapse_report_to_dict(report: CollapseReport) -> dict:
    return {
        "variable": report.variable,
        "kind": report.kind,
        "values": list(report.values),
        "layer_signs": list(report.layer_signs),
        "collapsed_sign": report.collapsed_sign,
        "paradox": report.paradox,
    }


def battery_to_dict(summary: PropertyBatterySummary) -> dict:
    def jsonable(obj):
        if isinstance(obj, BinaryTable):
            return table_to_dict(obj)
        if isinstance(obj, dict):
            return {key: jsonable(val) for key, val in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [jsonable(val) for val in obj]
        return obj

    return {
        "kind": summary.kind,
        "k": summary.k,
        "trials": summary.trials,
        "seed": summary.seed,
        "failures": dict(summary.failures),
        "witnesses": jsonable(summary.witnesses),
    }


@dataclass
class RunConfig:
    """Resolved invocation settings, echoed verbatim in every report.

    ``seed = 0`` means "derive a fresh seed from OS entropy"; the derived
    value replaces the 0 so the run can be replayed.
    """

    seed: int = 0
    tol: float = 1e-8
    max_iter: int = 10_000
    output_format: str = "json"

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise InvalidTableError(
                f"output format must be 'json' or 'csv', got {self.output_format!r}"
            )
        if self.seed == 0:
            self.seed = int(np.random.SeedSequence().entropy % (2**63))

    def as_dict(self) -> dict:
        return asdict(self)


def report_envelope(command: str, config: RunConfig, result: object) -> dict:
    """Wrap a result with tool version and the resolved configuration."""
    return {
        "tool": "bintab",
        "version": __version__,
        "command": command,
        "config": config.as_dict(),
        "result": result,
    }
