"""File formats, the JSON form of every result, and the report envelope.

Both file formats are written and parsed here only.  Table entries are
written with Python's shortest-round-trip float repr, so decimal inputs
survive a parse/serialize cycle bit-identically.

Table file:      {"k": 2, "entries": [2.0, 3.0, 4.0, 5.0], "labels": [...]}
                 entries row-major with variable 1 most significant.
Parameter file:  {"k": 2, "kind": "di", "00": 14.0, "01": -2.0, ...}
                 one key per mask: the k-digit bitstring of the mask
                 integer, variable 1 first ("" for the single mask of k=0).

Every result reaches JSON through the one converter :func:`to_jsonable`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional, TextIO, Union

import numpy as np

from ._version import __version__
from .errors import InvalidTableError
from .paramset import ParamSet, _system_kind
from .table import MAX_DIM, BinaryTable, _check_count

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


def _dump_json(payload: object, dest: Union[Pathish, TextIO]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
        return
    with open(dest, "w", encoding="utf-8") as fp:
        fp.write(text)


def _is_number(x: object) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
    if not isinstance(entries, list) or not all(_is_number(x) for x in entries):
        raise InvalidTableError("field 'entries' must be a list of numbers")
    k = payload.get("k")
    if k is not None:
        _check_count("field 'k'", k, 0, MAX_DIM)
    labels = payload.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        raise InvalidTableError("field 'labels' must be a list of strings")
    table = BinaryTable.from_entries(entries, k=k)
    # checked against the k inferred from the entries when the file gives none
    if labels is not None and len(labels) != table.k:
        raise InvalidTableError(f"expected {table.k} labels, got {len(labels)}")
    return table


def load_table(source: Union[Pathish, TextIO]) -> BinaryTable:
    return table_from_dict(_load_json(source))


def save_table(table: BinaryTable, dest: Union[Pathish, TextIO],
               labels: Optional[list[str]] = None) -> None:
    _dump_json(table_to_dict(table, labels), dest)


def _mask_key(m: int, k: int) -> str:
    """Bitstring of mask ``m``, k digits with variable 1 first (``""`` when k=0)."""
    return format(m, f"0{k}b") if k else ""


def paramset_to_dict(params: ParamSet) -> dict:
    """Parameter file payload: k, kind, then one value per mask in ascending order."""
    payload: dict = {"k": params.k, "kind": params.kind}
    for m, value in enumerate(params.values):
        payload[_mask_key(m, params.k)] = float(value)
    return payload


def paramset_from_dict(payload: object) -> ParamSet:
    if not isinstance(payload, dict):
        raise InvalidTableError("parameter file must be a JSON object")
    k = _check_count("field 'k'", payload.get("k"), 0, MAX_DIM)  # before 2^k is allocated
    kind = _system_kind(payload.get("kind"))
    values = np.empty(2**k)
    seen = set()
    for key, value in payload.items():
        if key in ("k", "kind"):
            continue
        if len(key) != k or not set(key) <= {"0", "1"}:
            raise InvalidTableError(f"mask {key!r} is not a bitstring of length {k}")
        if not _is_number(value):
            raise InvalidTableError(f"value for mask {key!r} must be a number, got {value!r}")
        mask = int(key or "0", 2)
        values[mask] = float(value)
        seen.add(mask)
    missing = set(range(2**k)) - seen
    if missing:
        bad = _mask_key(min(missing), k)
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


def to_jsonable(obj: object) -> object:
    """The JSON form of a library result, converted item by item.

    Tables and parameter sets take their file formats; other dataclasses and
    named tuples become dicts keyed by field name, and sequences and arrays lists.
    """
    if isinstance(obj, (str, int, float)) or obj is None:  # most calls: leaves first
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, BinaryTable):
        return table_to_dict(obj)
    if isinstance(obj, ParamSet):
        return paramset_to_dict(obj)
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {key: to_jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(val) for val in obj]
    return obj


def report_envelope(command: str, config: dict, result: object) -> dict:
    """Wrap a result, in its JSON form, with the tool version and the settings read."""
    return {
        "tool": "bintab",
        "version": __version__,
        "command": command,
        "config": config,
        "result": to_jsonable(result),
    }
