"""On-disk formats for samples, volumes, and dataset manifests.

Sample tensors: magic ``VPAT`` | u32 channels | u32 height | u32 width |
float32 LE row-major payload. Volumes: magic ``VVOL`` | u32 z | u32 y |
u32 x | float32 LE payload | JSON centroid trailer; readers check the size
against the header, then read the payload in place. Manifests and trailers
are ``canonical_json``, so a manifest's SHA-256 digest is stable.

Single files are written through ``atomic_open``. A dataset's sample files
are guarded by its manifest instead: ``save_dataset`` and ``stream_dataset``
(``gen``) share one writer, which removes an earlier manifest before it
writes any sample file and writes the new one last, so a dataset directory
holds either no manifest or one whose files are all written. The writer
writes one chunk at a time on one background thread; ``stream_dataset``
renders the next chunk into its other buffer meanwhile, hands over each
``(2, 112, 112)`` row as it lies in the buffer, and keeps only the manifest
entries. ``read_manifest`` parses and checks a manifest without opening any
sample file. ``load_dataset`` builds on it and reads each sample file's
payload straight into its row of one ``(N, 2, 112, 112)`` stack, once its
header has been checked; ``data.load_patch_set`` reads them into a reused
buffer instead, straight to a network's input size.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..atomic import atomic_open, canonical_json
from ..mining import GradeLabel, RegionLabel
from .patches import CHUNK, PATCH_SIZE, PatchSample, PhantomConfig, _dataset_plan, _render
from .volume import SpineVolume

VPAT_MAGIC = b"VPAT"
VVOL_MAGIC = b"VVOL"


def _write_vpat(fh, channels: np.ndarray) -> None:
    channels = np.asarray(channels, dtype="<f4")
    if channels.ndim != 3:
        raise ValueError(f"expected (channels, H, W), got shape {channels.shape}")
    fh.write(VPAT_MAGIC + struct.pack("<III", *channels.shape))
    fh.write(np.ascontiguousarray(channels))


def write_sample_tensor(path, channels: np.ndarray) -> None:
    with atomic_open(path) as fh:
        _write_vpat(fh, channels)


def _read_header(fh, path, magic: bytes, kind: str):
    """The three u32 dimensions after the magic and the bytes after them; ``fh`` is left at the payload."""
    head = fh.read(16)
    if head[:4] != magic:
        raise ValueError(f"{path}: not a {kind} file")
    if len(head) < 16:
        raise ValueError(f"{path}: truncated header ({len(head)} of 16 bytes)")
    return struct.unpack("<III", head[4:]), os.fstat(fh.fileno()).st_size - 16


def read_sample_tensor(path, out=None) -> np.ndarray:
    """Read the sample tensor at ``path`` into ``out``, or into a new array.

    The header is checked before the payload is read: the payload must hold
    exactly ``c·h·w`` floats, and ``(c, h, w)`` must be ``out``'s shape.
    """
    with open(path, "rb") as fh:
        shape, size = _read_header(fh, path, VPAT_MAGIC, "sample tensor")
        nbytes = 4 * shape[0] * shape[1] * shape[2]
        if size != nbytes:
            raise ValueError(f"{path}: payload size mismatch ({size} of {nbytes} bytes)")
        if out is None:
            out = np.empty(shape, dtype="<f4")
        elif shape != out.shape:
            raise ValueError(f"{path}: sample tensor shape {shape} is not {out.shape}")
        got = fh.readinto(out)
        if got != nbytes:
            raise ValueError(f"{path}: payload size mismatch ({got} of {nbytes} bytes)")
    return out


def write_volume(path, volume: SpineVolume) -> None:
    vox = np.asarray(volume.voxels, dtype="<f4")
    centroids = [{"label": name, "position": [float(v) for v in pos]} for name, pos in volume.centroids]
    grades = [int(g) for g in volume.grades]
    trailer = canonical_json({"centroids": centroids, "grades": grades}).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(VVOL_MAGIC + struct.pack("<III", *vox.shape))
        fh.write(np.ascontiguousarray(vox))
        fh.write(trailer)


def read_volume(path) -> SpineVolume:
    with open(path, "rb") as fh:
        shape, size = _read_header(fh, path, VVOL_MAGIC, "volume")
        nbytes = 4 * shape[0] * shape[1] * shape[2]
        if size < nbytes:
            raise ValueError(f"{path}: truncated voxel payload ({size} of {nbytes} bytes)")
        vox = np.empty(shape, dtype="<f4")
        fh.readinto(vox)
        trailer = fh.read()
    try:
        trailer = json.loads(trailer.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: centroid trailer is not UTF-8 JSON ({exc})") from exc
    try:
        centroids = [(c["label"], tuple(c["position"])) for c in trailer["centroids"]]
        grades = [GradeLabel(g) for g in trailer.get("grades", [])]
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed centroid trailer ({exc!r})") from exc
    return SpineVolume(voxels=vox, centroids=centroids, grades=grades)


def manifest_digest(manifest: dict) -> str:
    return hashlib.sha256(canonical_json(manifest).encode("utf-8")).hexdigest()


def _write_samples(out_dir: Path, rows, names) -> None:
    for row, name in zip(rows, names):
        with open(out_dir / name, "wb") as fh:
            _write_vpat(fh, row)


def _write_dataset(out_dir, chunks, manifest: dict) -> dict:
    """Write a dataset directory: the one writer behind ``save_dataset`` and
    ``stream_dataset``. Returns ``manifest`` with file paths filled in.

    ``chunks`` yields ``(rows, ids)``, each sample's ``(2, H, W)`` channels
    and id; ``manifest``'s entries are read after the last chunk, so they
    may be appended as chunks are produced. One writer thread writes a
    chunk's files while the next chunk is produced; the caller waits for
    them before it hands over the next, so a failed write is raised by the
    next chunk boundary and the thread is joined before any exception
    leaves. The earlier manifest is removed before the first sample file is
    written, sample files that ``manifest`` does not name are deleted after
    the last, and it is written last. A run killed midway therefore leaves
    no manifest, not an old one naming a mix of old and new files; no other
    file is touched.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    files = []
    writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="vpat-writer")
    try:
        pending = None
        for rows, ids in chunks:
            if pending is not None:
                pending.result()
            names = [f"sample_{id:06d}.vpat" for id in ids]
            pending = writer.submit(_write_samples, out_dir, rows, names)
            files += names
        if pending is not None:
            pending.result()
    finally:
        writer.shutdown(cancel_futures=True)
    for name, entry in zip(files, manifest["samples"]):
        entry["file"] = name
    named = {entry["file"] for entry in manifest["samples"]}
    for stale in out_dir.glob("sample_*.vpat"):
        if stale.name not in named:
            stale.unlink()
    with atomic_open(out_dir / "manifest.json") as fh:
        fh.write(canonical_json(manifest).encode("utf-8"))
    return manifest


def save_dataset(samples, manifest: dict, out_dir) -> dict:
    """Write each sample as a VPAT file plus the manifest; returns the
    manifest with file paths filled in.

    The earlier manifest is removed before the first sample file is written
    and the new one is written last; sample files it does not name are
    deleted (see ``_write_dataset``)."""
    manifest = json.loads(json.dumps(manifest))  # deep copy
    chunk = ([(s.image, s.heatmap) for s in samples], [s.id for s in samples])
    return _write_dataset(out_dir, [chunk], manifest)


def stream_dataset(config: PhantomConfig, counts: dict, seed: int, out_dir) -> dict:
    """``save_dataset(*generate_dataset(config, counts, seed), out_dir)``,
    with the same bytes, but each chunk's sample files are written while
    the next chunk renders. Returns the saved manifest."""
    cfg, labels, manifest = _dataset_plan(config, counts, seed)
    # Chunk k + 2 renders into chunk k's buffer, whose files are written by
    # then: memory is flat in the sample count.
    buffers = np.empty((2, min(CHUNK, len(labels)), 2, PATCH_SIZE, PATCH_SIZE), dtype=np.float32)
    chunks = _render(cfg, labels, itertools.cycle(buffers), manifest["samples"])
    return _write_dataset(out_dir, chunks, manifest)


def read_manifest(manifest_path):
    """The checked manifest at ``manifest_path`` and, per sample entry, its
    sample file's path and PatchSample fields; no sample file is opened."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{manifest_path}: manifest is not UTF-8 JSON ({exc})") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("samples"), list):
        raise ValueError(f"{manifest_path}: manifest has no samples list")
    if not manifest["samples"]:
        raise ValueError(f"{manifest_path}: manifest lists no samples")
    entries, ids = [], set()
    for k, entry in enumerate(manifest["samples"]):
        try:
            if not isinstance(entry["file"], str):
                raise TypeError(f"file {entry['file']!r} is not a string")
            sample_id, params = entry["id"], entry.get("params", {})
            if type(sample_id) is not int or sample_id < 0:  # a bool is no id
                raise ValueError(f"id {sample_id!r} is not a nonnegative int")
            if sample_id in ids:
                raise ValueError(f"id {sample_id} repeats an earlier entry's")
            if not isinstance(params, dict):
                raise TypeError(f"params {params!r} is not an object")
            ids.add(sample_id)
            fields = dict(
                grade=GradeLabel(entry["grade"]),
                region=RegionLabel(entry["region"]),
                id=sample_id,
                params=params,
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"{manifest_path}: malformed sample entry {k} ({exc!r})") from exc
        entries.append((manifest_path.parent / entry["file"], fields))
    return manifest, entries


def load_dataset(manifest_path):
    """Load samples listed in a manifest back into PatchSample objects.

    Each sample file must hold a (2, PATCH_SIZE, PATCH_SIZE) tensor. Its
    payload is read straight into its row of one float32 stack, and the
    sample's ``image`` and ``heatmap`` are views of that row."""
    manifest, entries = read_manifest(manifest_path)
    stack = np.empty((len(entries), 2, PATCH_SIZE, PATCH_SIZE), dtype="<f4")
    samples = []
    for (path, fields), tensor in zip(entries, stack):
        read_sample_tensor(path, out=tensor)
        samples.append(PatchSample(image=tensor[0], heatmap=tensor[1], **fields))
    return samples, manifest
