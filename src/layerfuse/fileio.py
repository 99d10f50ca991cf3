"""Crash-safe file writes shared by the corpus, checkpoint and run writers,
and the number check shared by their config dataclasses."""
from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from pathlib import Path

__all__ = ["atomic_write", "check_number_fields"]


def check_number_fields(config, error=ValueError) -> None:
    """Raise ``error`` unless every int field of dataclass ``config`` holds an
    int >= 0 and every float field a finite int or float; bools are refused in
    both."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in (int, "int") and (type(value) is not int or value < 0):
            raise error(f"{f.name} must be an integer >= 0, got {value!r}")
        if f.type in (float, "float") and (type(value) not in (int, float)
                                           or not math.isfinite(value)):
            raise error(f"{f.name} must be a finite number, got {value!r}")


@contextlib.contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Write ``path`` through a temp file in the same directory.

    Yields the open temp file; on success it replaces ``path`` in one rename,
    so a write that fails or is killed midway leaves the previous file whole.
    A failed write removes its temp file. Text is UTF-8, newlines untranslated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
