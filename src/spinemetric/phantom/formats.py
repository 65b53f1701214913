"""On-disk formats for samples, volumes, and dataset manifests.

Sample tensors: magic ``VPAT`` | u32 channels | u32 height | u32 width |
float32 LE row-major payload. Volumes: magic ``VVOL`` | u32 z | u32 y |
u32 x | float32 LE payload | JSON centroid trailer. Manifests are canonical
JSON (sorted keys, compact separators) so their SHA-256 digest is stable.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..mining import GradeLabel, RegionLabel
from .patches import PATCH_SIZE, PatchSample
from .volume import SpineVolume

VPAT_MAGIC = b"VPAT"
VVOL_MAGIC = b"VVOL"


def write_sample_tensor(path, channels: np.ndarray) -> None:
    channels = np.asarray(channels, dtype="<f4")
    if channels.ndim != 3:
        raise ValueError(f"expected (channels, H, W), got shape {channels.shape}")
    with open(path, "wb") as fh:
        fh.write(VPAT_MAGIC)
        fh.write(struct.pack("<III", *channels.shape))
        fh.write(np.ascontiguousarray(channels).tobytes())


def _read_header(path, magic: bytes, kind: str):
    """File bytes and the three u32 dimensions after the magic."""
    data = Path(path).read_bytes()
    if data[:4] != magic:
        raise ValueError(f"{path}: not a {kind} file")
    if len(data) < 16:
        raise ValueError(f"{path}: truncated header ({len(data)} of 16 bytes)")
    return data, struct.unpack("<III", data[4:16])


def read_sample_tensor(path) -> np.ndarray:
    data, (c, h, w) = _read_header(path, VPAT_MAGIC, "sample tensor")
    nbytes = c * h * w * 4
    if len(data) - 16 != nbytes:
        raise ValueError(
            f"{path}: payload size mismatch ({len(data) - 16} of {nbytes} bytes)"
        )
    return np.frombuffer(data[16:], dtype="<f4").reshape(c, h, w).copy()


def write_volume(path, volume: SpineVolume) -> None:
    vox = np.asarray(volume.voxels, dtype="<f4")
    trailer = json.dumps(
        {
            "centroids": [
                {"label": name, "position": [float(v) for v in pos]}
                for name, pos in volume.centroids
            ],
            "grades": [int(g) for g in volume.grades],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(VVOL_MAGIC)
        fh.write(struct.pack("<III", *vox.shape))
        fh.write(np.ascontiguousarray(vox).tobytes())
        fh.write(trailer)


def read_volume(path) -> SpineVolume:
    data, (z, y, x) = _read_header(path, VVOL_MAGIC, "volume")
    nbytes = z * y * x * 4
    if len(data) - 16 < nbytes:
        raise ValueError(
            f"{path}: truncated voxel payload ({len(data) - 16} of {nbytes} bytes)"
        )
    vox = np.frombuffer(data[16 : 16 + nbytes], dtype="<f4").reshape(z, y, x).copy()
    try:
        trailer = json.loads(data[16 + nbytes :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: centroid trailer is not UTF-8 JSON ({exc})") from exc
    try:
        centroids = [(c["label"], tuple(c["position"])) for c in trailer["centroids"]]
        grades = [GradeLabel(g) for g in trailer.get("grades", [])]
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed centroid trailer ({exc!r})") from exc
    return SpineVolume(voxels=vox, centroids=centroids, grades=grades)


def manifest_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def manifest_digest(manifest: dict) -> str:
    return hashlib.sha256(manifest_json(manifest).encode("utf-8")).hexdigest()


def save_dataset(samples, manifest: dict, out_dir) -> dict:
    """Write each sample as a VPAT file plus the manifest; returns the
    manifest with file paths filled in."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = json.loads(json.dumps(manifest))  # deep copy
    for sample, entry in zip(samples, manifest["samples"]):
        fname = f"sample_{sample.id:06d}.vpat"
        write_sample_tensor(out_dir / fname, sample.to_tensor())
        entry["file"] = fname
    (out_dir / "manifest.json").write_text(manifest_json(manifest))
    return manifest


def load_dataset(manifest_path):
    """Load samples listed in a manifest back into PatchSample objects.
    Each sample file must hold a (2, PATCH_SIZE, PATCH_SIZE) tensor."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{manifest_path}: manifest is not UTF-8 JSON ({exc})") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("samples"), list):
        raise ValueError(f"{manifest_path}: manifest has no samples list")
    base = manifest_path.parent
    samples = []
    for k, entry in enumerate(manifest["samples"]):
        try:
            if not isinstance(entry["file"], str):
                raise TypeError(f"file {entry['file']!r} is not a string")
            fields = dict(
                grade=GradeLabel(entry["grade"]),
                region=RegionLabel(entry["region"]),
                id=entry["id"],
                params=entry.get("params", {}),
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"{manifest_path}: malformed sample entry {k} ({exc!r})") from exc
        path = base / entry["file"]
        tensor = read_sample_tensor(path)
        if tensor.shape != (2, PATCH_SIZE, PATCH_SIZE):
            raise ValueError(f"{path}: sample tensor shape {tensor.shape} is not (2, {PATCH_SIZE}, {PATCH_SIZE})")
        samples.append(PatchSample(image=tensor[0], heatmap=tensor[1], **fields))
    return samples, manifest
