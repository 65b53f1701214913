"""Canonical JSON and atomic replacement of run artifacts.

Every JSON artifact, ``records.json`` included, is ``canonical_json``, and
every digest is a SHA-256 over that encoding. ``atomic_open`` writes each
checkpoint and run file, so a killed run leaves it as it was or whole.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


def canonical_json(doc) -> str:
    """``doc`` as JSON with sorted keys and no optional whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
