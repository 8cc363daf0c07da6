"""Crash-safe file replacement for training and evaluation artifacts."""

from __future__ import annotations

import os
from pathlib import Path


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
