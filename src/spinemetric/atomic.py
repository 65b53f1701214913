"""Atomic replacement of run artifacts.

Checkpoints and the JSON files of a run are written through ``atomic_open``,
so a run killed mid-write leaves each file either as it was or whole.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path):
    """Open a binary file that replaces ``path`` once the block ends cleanly.

    The bytes go to a temp file in the same directory, which ``os.replace``
    then renames over ``path``: a reader sees the old file or the whole new
    one, never part of it. If the block raises, the temp file is removed and
    ``path`` is left as it was. There is no fsync, so this guards against a
    killed process, not against a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
