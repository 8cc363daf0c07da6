"""The artifact formats: crash-safe file replacement, JSON documents and row CSVs.

Each row CSV's schema is its row dataclass: the header is the field names
(a field's metadata may rename its column), a cell's kind comes from the
field's annotation (int, float, bool or str), and a field whose annotation
admits None may be empty.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import typing
from dataclasses import astuple, fields
from pathlib import Path

from .errors import ConfigurationError, UsageError

_BOOLS = {"true": True, "false": False}


def write_atomically(path: str | Path, data: str | bytes) -> None:
    """Write data to a temp file beside path, sync it, then rename it over path.

    If anything fails, the previous file at path is left intact (a hard crash
    can leave the temp file behind). Text is written as UTF-8, unmodified.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
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


def read_json(path: str | Path, required: tuple[str, ...] = ()) -> dict:
    """The JSON object in the file at path, holding at least the keys in required.

    Unlike json.loads, NaN, Infinity and numbers beyond float range are
    rejected. Any fault is a ConfigurationError that names path.
    """
    try:
        doc = json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigurationError(f"{path}: missing key(s) {missing}")
    return doc


def _columns(cls) -> list[tuple[str, type, bool]]:
    """(column name, cell kind, may be empty) of each field of a row dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    columns = []
    for f in fields(cls):
        args = typing.get_args(hints[f.name]) or (hints[f.name],)
        (kind,) = (arg for arg in args if arg is not type(None))
        columns.append((f.metadata.get("column", f.name), kind, type(None) in args))
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
