"""Crash-safe file writes shared by the corpus, checkpoint and run writers."""
from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["atomic_write"]


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
