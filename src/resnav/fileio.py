"""The artifact formats: crash-safe file replacement, JSON documents and row CSVs.

Each artifact's schema is its dataclass. A row CSV's header is the row class's
field names (a field's metadata may rename its column), a cell's kind comes
from the field's annotation (int, float, bool or str), and a field whose
annotation admits None may be empty. A JSON object is read into its record
class by from_doc, which checks each value against its field's annotation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import types
import typing
from dataclasses import MISSING, astuple, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path

from .errors import ConfigurationError, UsageError, check_item

_BOOLS = {"true": True, "false": False}


def write_atomically(path: str | Path, data: str | bytes) -> None:
    """Write data to a temp file beside path, sync it, then rename it over path.

    If anything fails, the previous file at path is left intact (a hard crash
    can leave the temp file behind). Text is written as UTF-8, unmodified.
    A missing parent directory is created first.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def json_text(doc: dict) -> str:
    """The text of every JSON artifact: two-space indent, sorted keys, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, doc: dict) -> None:
    write_atomically(path, json_text(doc))


def _finite(text: str) -> float:
    value = float(text)  # also the text of NaN, Infinity and -Infinity
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path: str | Path, read):
    """read(doc) for the JSON object doc in the file at path; any fault is a ConfigurationError that names path.

    Unlike json.loads, NaN, Infinity and numbers beyond float range are rejected.
    """
    try:
        doc = json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise ConfigurationError(f"expected a JSON object, got {type(doc).__name__}")
        return read(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


@cache
def _schema(cls) -> tuple[tuple[str, object, dict, bool], ...]:
    """(name, annotation, bounds, required) of each init field of a record class, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata, f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls) if f.init)


def from_doc(cls, doc, name: str, fmt: str | None = None):
    """cls built from the JSON object doc, whose keys are cls's init fields (plus "format" holding fmt, if given).

    A field with a default may be left out. A record-class field is built the same way, and a union of record
    classes is tagged {"type": <class name in lower case>, "params": [field values in order]}. X | None takes
    null, a tuple or list is checked item by item (tuple[X, Y] for its length too), an Enum by its value, and
    str, bool, int and float by check_item, bounded by the field's metadata. Each error is prefixed by the name
    of the innermost object that holds it: name here, the field's name for a nested record.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{name}: expected an object, got {type(doc).__name__}")
    if fmt is not None:
        if doc.get("format") != fmt:
            raise ConfigurationError(f"{name}: unsupported format {doc.get('format')!r}, expected {fmt!r}")
        doc = {key: value for key, value in doc.items() if key != "format"}
    schema = _schema(cls)
    unknown = sorted(set(doc) - {key for key, *_ in schema})
    if unknown:
        raise ConfigurationError(f"{name}: unknown key(s) {unknown}")
    missing = [key for key, _hint, _bounds, required in schema if required and key not in doc]
    if missing:
        raise ConfigurationError(f"{name}: missing key(s) {missing}")
    values = {key: _value(hint, doc[key], key, bounds, name) for key, hint, bounds, _ in schema if key in doc}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def _value(hint, value, key: str, bounds, name: str):
    """value checked against hint, the annotation of field key of the object called name."""
    label, origin, args = f"{name}: {key}", typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        options = [arg for arg in args if arg is not type(None)]
        if len(options) < len(args):  # X | None
            return None if value is None else _value(options[0], value, key, bounds, name)
        return _tagged(options, value, key)
    if origin in (tuple, list):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, (list, tuple)) or (fixed and len(value) != len(args)):
            raise ConfigurationError(f"{label} must be a list{f' of {len(args)}' if fixed else ''}, got {value!r}")
        hints = args if fixed else args[:1] * len(value)
        return origin(_value(h, item, key, bounds, name) for h, item in zip(hints, value))
    if is_dataclass(hint):
        return from_doc(hint, value, key)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigurationError(f"{label} must be one of {[m.value for m in hint]}, got {value!r}") from None
    check_item(label, value, hint, bounds)
    return value


def _tagged(options, value, key: str):
    """The record class out of options that value's type tag names, built from its params in field order."""
    if not isinstance(value, dict) or set(value) != {"type", "params"}:
        raise ConfigurationError(f"{key}: expected an object of type and params, got {value!r}")
    tags = {cls.__name__.lower(): cls for cls in options}
    tag, params = value["type"], value["params"]
    if not isinstance(tag, str) or tag not in tags:
        raise ConfigurationError(f"{key}: unknown type {tag!r}, expected one of {sorted(tags)}")
    names = [field_name for field_name, *_ in _schema(tags[tag])]
    if not isinstance(params, list) or len(params) != len(names):
        raise ConfigurationError(f"{key}: {tag} needs {len(names)} params, got {params!r}")
    return from_doc(tags[tag], dict(zip(names, params)), key)


def _columns(cls) -> list[tuple[str, type, bool]]:
    """(column name, cell kind, may be empty) of each field of a row dataclass, in field order."""
    columns = []
    for name, hint, metadata, _required in _schema(cls):
        args = typing.get_args(hint) or (hint,)
        (kind,) = (arg for arg in args if arg is not type(None))
        columns.append((metadata.get("column", name), kind, type(None) in args))
    return columns


def _cell(value) -> str:
    """One CSV field: empty for None, true/false for bools, repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(path: str | Path, cls, rows) -> None:
    """A header of cls's columns, then one line per row of cls; replaced atomically."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([name for name, _kind, _optional in _columns(cls)])
    writer.writerows([_cell(v) for v in astuple(row)] for row in rows)
    write_atomically(path, text.getvalue())


def read_rows(path: str | Path, cls) -> list:
    """The rows of a CSV written by write_rows for cls, one cls per line.

    The header must be cls's columns. An empty cell is None where the
    field admits None and an error elsewhere; a bool cell is true or false.
    """
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"no such file: {path}")
    columns = _columns(cls)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != [name for name, _kind, _optional in columns]:
            raise ConfigurationError(f"{path}: unexpected header {header}")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(columns):
                raise ConfigurationError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(rec)}")
            cells = []
            for (name, kind, optional), raw in zip(columns, rec):
                if raw == "":
                    if not optional:
                        raise ConfigurationError(f"{path}:{lineno}: missing {name}")
                    cells.append(None)
                    continue
                try:
                    cells.append(_BOOLS[raw] if kind is bool else kind(raw))
                except (KeyError, ValueError) as exc:
                    raise ConfigurationError(f"{path}:{lineno}: bad {name} field {raw!r}") from exc
            rows.append(cls(*cells))
    return rows
