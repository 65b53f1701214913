"""Model checkpoint file format.

Layout: magic ``GMCK`` | version u32 LE | manifest length u32 LE |
SHA-256 of everything after it (32 bytes) | manifest JSON (utf-8) | raw
float32 little-endian tensor payloads in manifest order. ``_manifest``
builds the manifest for save and load alike: network config, mounted head,
and every tensor's name/shape/dtype (parameters and batch-norm running
statistics), sorted by name. A load checks the digest first, so a damaged
byte anywhere is refused; it then builds the model the config and head
describe, refuses any other manifest or payload size, and fills each slot
straight from the file's bytes. save -> load -> save reproduces the file
byte for byte, and a save replaces the file atomically.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..atomic import atomic_open, canonical_json
from .model import NetworkConfig, PatchEncoder

MAGIC = b"GMCK"
VERSION = 3
HEADER = 12 + hashlib.sha256().digest_size


def _manifest(model: PatchEncoder) -> tuple[dict, dict]:
    """The manifest that ``model`` is saved under, and its tensors by name."""
    tensors = {**model.parameters(), **model.bn_stats()}
    manifest = {
        "config": model.config.to_dict(),
        "head": model.head,
        "tensors": [{"name": n, "shape": list(tensors[n].shape), "dtype": "float32"} for n in sorted(tensors)],
    }
    return manifest, tensors


def _first_difference(found, expected, where=""):
    """``(where, found, expected)`` at the first place, depth first, where two JSON
    values differ as canonical JSON (2.0 is not 2), or None; a missing entry reads None."""
    if canonical_json(found) == canonical_json(expected):
        return None
    if type(found) is type(expected) and type(found) in (dict, list):
        a, b = (dict(enumerate(v)) if type(v) is list else v for v in (found, expected))
        for key in sorted(a.keys() | b.keys()):
            diff = _first_difference(a.get(key), b.get(key), f"{where}[{key!r}]")
            if diff:
                return diff
    return where, found, expected


def save_model(model: PatchEncoder, path) -> None:
    """Write a checkpoint. Tensors are stored as float32 regardless of the
    in-memory dtype (the format is fixed)."""
    manifest, tensors = _manifest(model)
    blob = canonical_json(manifest).encode("utf-8")
    body = blob + b"".join(np.ascontiguousarray(tensors[n], dtype="<f4").tobytes() for n in sorted(tensors))
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(hashlib.sha256(body).digest())
        fh.write(body)


def load_model(path) -> PatchEncoder:
    """Reconstruct a model from a checkpoint."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic {data[:4]!r})")
    if len(data) < HEADER:
        raise ValueError(f"{path}: truncated header ({len(data)} of {HEADER} bytes)")
    version, mlen = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if HEADER + mlen > len(data):
        raise ValueError(f"{path}: truncated manifest ({len(data) - HEADER} of {mlen} bytes)")
    if hashlib.sha256(memoryview(data)[HEADER:]).digest() != data[12:HEADER]:
        raise ValueError(f"{path}: checksum mismatch (damaged or truncated checkpoint)")
    try:
        manifest = json.loads(data[HEADER : HEADER + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: manifest is not UTF-8 JSON ({exc})") from exc

    try:
        model = PatchEncoder(NetworkConfig(**manifest["config"]), seed=None, head=manifest["head"])
    except (TypeError, KeyError, ValueError, MemoryError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc!r})") from exc
    expected, tensors = _manifest(model)
    if diff := _first_difference(manifest, expected):
        raise ValueError(f"{path}: manifest%s differs: found %r, expected %r" % diff)

    offset = HEADER + mlen
    listed = 4 * sum(t.size for t in tensors.values())
    if len(data) - offset != listed:
        raise ValueError(f"{path}: payload is {len(data) - offset} bytes, the manifest lists {listed}")
    for name in sorted(tensors):
        tensor = tensors[name]
        tensor[...] = np.frombuffer(data, "<f4", tensor.size, offset).reshape(tensor.shape)
        offset += 4 * tensor.size
    return model
