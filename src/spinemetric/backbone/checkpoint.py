"""Model checkpoint file format.

Layout: magic ``GMCK`` | version u32 LE | manifest length u32 LE |
SHA-256 of everything after it (32 bytes) | manifest JSON (utf-8) | raw
float32 little-endian tensor payloads in manifest order. The manifest
records the network configuration, the mounted head, and every tensor's
name/shape/dtype (trainable parameters plus batch-norm running
statistics). A load checks the digest before it parses the manifest, so a
damaged byte anywhere, payload included, is refused rather than loaded.
save -> load -> save reproduces the file byte for byte, and a save
replaces the file atomically.
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


def save_model(model: PatchEncoder, path) -> None:
    """Write a checkpoint. Tensors are stored as float32 regardless of the
    in-memory dtype (the format is fixed)."""
    tensors = {**model.parameters(), **model.bn_stats()}
    names = sorted(tensors)
    manifest = {
        "config": model.config.to_dict(),
        "head": model.head,
        "tensors": [
            {"name": n, "shape": list(tensors[n].shape), "dtype": "float32"}
            for n in names
        ],
    }
    blob = canonical_json(manifest).encode("utf-8")
    body = blob + b"".join(np.ascontiguousarray(tensors[n], dtype="<f4").tobytes() for n in names)
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
        raise ValueError(
            f"{path}: truncated manifest ({len(data) - HEADER} of {mlen} bytes)"
        )
    if hashlib.sha256(memoryview(data)[HEADER:]).digest() != data[12:HEADER]:
        raise ValueError(f"{path}: checksum mismatch (damaged or truncated checkpoint)")
    try:
        manifest = json.loads(data[HEADER : HEADER + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: manifest is not UTF-8 JSON ({exc})") from exc

    try:
        config = NetworkConfig.from_dict(manifest["config"])
        model = PatchEncoder(config, seed=None)  # every slot is filled below
        if manifest["head"] != model.head:
            model.swap_head(manifest["head"], seed=None)
        entries = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in manifest["tensors"]]
        if not all(isinstance(name, str) for name, *_ in entries):
            raise TypeError("tensor names must be strings")
        # A float or bool entry compares equal to the model's int.
        if not all(type(d) is int and d >= 0 for _, shape, _ in entries for d in shape):
            raise ValueError("tensor shapes must list nonnegative ints")
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc!r})") from exc

    tensors = {**model.parameters(), **model.bn_stats()}
    listed = [name for name, *_ in entries]
    if sorted(listed) != sorted(tensors):
        missing = sorted(set(tensors) - set(listed))
        unknown = sorted(set(listed) - set(tensors))
        raise ValueError(
            f"{path}: manifest tensors do not match the model "
            f"(missing {missing}, unknown {unknown}, {len(listed)} listed)"
        )
    offset = HEADER + mlen
    for name, shape, dtype in entries:
        if dtype != "float32":
            raise ValueError(f"{path}: tensor {name!r} dtype {dtype!r} is not 'float32'")
        if tensors[name].shape != shape:
            raise ValueError(
                f"{path}: tensor {name!r} shape {shape} does not match "
                f"model shape {tensors[name].shape}"
            )
        nbytes = int(np.prod(shape)) * 4 if shape else 4
        payload = data[offset : offset + nbytes]
        if len(payload) != nbytes:
            raise ValueError(
                f"{path}: truncated payload for tensor {name!r} "
                f"({len(payload)} of {nbytes} bytes)"
            )
        raw = np.frombuffer(payload, dtype="<f4")
        tensors[name][...] = raw.reshape(shape).astype(config.np_dtype)
        offset += nbytes
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return model
