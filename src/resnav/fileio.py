"""Crash-safe file replacement for artifacts, and the one JSON document reader."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import ConfigurationError


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
