"""Fuzzed sample-tensor, manifest, volume and checkpoint files.

Every damaged file must either fail to load with a ``ValueError`` whose
message starts with the damaged file's path, or, where the damage leaves it
valid, load bit-equal to the original. A damaged dataset is loaded both
ways, through ``load_dataset`` and through ``load_patch_set`` at 112 px,
and both must give the same result. A checkpoint carries a digest of its
manifest and payload, so any changed byte of it is refused.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinemetric.backbone import init_model, load_model, save_model
from spinemetric.backbone.checkpoint import HEADER
from spinemetric.cli import NETWORK_PRESETS
from spinemetric.data import load_patch_set
from spinemetric.mining import GradeLabel, RegionLabel
from spinemetric.phantom import (
    PhantomConfig,
    generate_dataset,
    PATCH_SIZE,
    generate_spine_volume,
    load_dataset,
    read_volume,
    save_dataset,
    write_volume,
)
from spinemetric.phantom.formats import read_manifest

FUZZ = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A one-sample dataset: its directory and the original file bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    samples, manifest = generate_dataset(
        PhantomConfig(seed=0), {(GradeLabel.G2, RegionLabel.L5): 1}, seed=0
    )
    manifest = save_dataset(samples, manifest, root)
    vpat = root / manifest["samples"][0]["file"]
    return root, vpat.read_bytes(), (root / "manifest.json").read_bytes(), samples[0].to_tensor()


def _load_damaged(dataset, vpat=None, manifest=None):
    """Write the dataset with the given bytes in place of the originals and
    load it both ways; returns the loaded tensor or the error message, which
    must be the same both ways."""
    root, good_vpat, good_manifest, _ = dataset
    (root / "sample_000000.vpat").write_bytes(good_vpat if vpat is None else vpat)
    (root / "manifest.json").write_bytes(good_manifest if manifest is None else manifest)
    results = []
    for load in (
        lambda path: load_dataset(path)[0][0].to_tensor(),
        lambda path: load_patch_set(read_manifest(path)[1], PATCH_SIZE).images[0],
    ):
        try:
            results.append(load(root / "manifest.json"))
        except ValueError as exc:
            results.append(str(exc))
    samples, patch_set = results
    if isinstance(samples, str):
        assert patch_set == samples
    else:
        assert np.array_equal(patch_set.view(np.uint32), samples.view(np.uint32))
    return samples


def _assert_rejected_naming(result, path):
    assert isinstance(result, str), "damaged file loaded"
    assert result.startswith(f"{path}: ")


@FUZZ
@given(data=st.data())
def test_truncated_sample_rejected(dataset, data):
    root, good_vpat, _, _ = dataset
    length = data.draw(st.integers(0, len(good_vpat) - 1))
    _assert_rejected_naming(_load_damaged(dataset, vpat=good_vpat[:length]), root / "sample_000000.vpat")


@FUZZ
@given(tail=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_rejected(dataset, tail):
    root, good_vpat, _, _ = dataset
    result = _load_damaged(dataset, vpat=good_vpat + tail)
    _assert_rejected_naming(result, root / "sample_000000.vpat")
    assert "payload size mismatch" in result


@FUZZ
@given(position=st.integers(0, 15), value=st.integers(0, 255))
@example(position=4, value=2)  # the channel count, unchanged: still valid
@example(position=0, value=0)
def test_header_byte_overwritten(dataset, position, value):
    root, good_vpat, _, tensor = dataset
    damaged = bytearray(good_vpat)
    damaged[position] = value
    result = _load_damaged(dataset, vpat=bytes(damaged))
    if value == good_vpat[position]:
        assert np.array_equal(result.view(np.uint32), tensor.view(np.uint32))
    else:
        _assert_rejected_naming(result, root / "sample_000000.vpat")


@FUZZ
@given(data=st.data())
def test_truncated_manifest_rejected(dataset, data):
    root, _, good_manifest, _ = dataset
    length = data.draw(st.integers(0, len(good_manifest) - 1))
    _assert_rejected_naming(_load_damaged(dataset, manifest=good_manifest[:length]), root / "manifest.json")


@pytest.fixture(scope="module")
def volume_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_volume") / "v.vvol"
    volume = generate_spine_volume(
        PhantomConfig(seed=0), 2, curvature=0.1, grades=[GradeLabel.G0, GradeLabel.G3], seed=0
    )
    write_volume(path, volume)
    return path, path.read_bytes()


@FUZZ
@given(data=st.data())
def test_truncated_volume_rejected(volume_file, data):
    path, good = volume_file
    damaged = path.with_name("damaged.vvol")
    damaged.write_bytes(good[: data.draw(st.integers(0, len(good) - 1))])
    with pytest.raises(ValueError) as info:
        read_volume(damaged)
    assert str(info.value).startswith(f"{damaged}: ")


@FUZZ
@given(position=st.integers(0, 15), value=st.integers(0, 255))
@example(position=4, value=0)  # zero slices: the trailer then starts at the voxels
def test_volume_header_byte_overwritten(volume_file, position, value):
    path, good = volume_file
    damaged = path.with_name("damaged.vvol")
    data = bytearray(good)
    data[position] = value
    damaged.write_bytes(bytes(data))
    if value == good[position]:
        assert np.array_equal(read_volume(damaged).voxels, read_volume(path).voxels)
        return
    with pytest.raises(ValueError) as info:
        read_volume(damaged)
    assert str(info.value).startswith(f"{damaged}: ")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A ``tiny`` checkpoint: its path, its bytes, and the header plus
    manifest length (the bytes before the tensor payload)."""
    path = tmp_path_factory.mktemp("fuzz_checkpoint") / "m.gmck"
    save_model(init_model(NETWORK_PRESETS["tiny"], seed=0), path)
    good = path.read_bytes()
    (mlen,) = struct.unpack("<I", good[8:12])
    return path, good, HEADER + mlen


@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_rejected(checkpoint, data):
    path, good, _ = checkpoint
    damaged = path.with_name("damaged.gmck")
    damaged.write_bytes(good[: data.draw(st.integers(0, len(good) - 1))])
    with pytest.raises(ValueError) as info:
        load_model(damaged)
    assert str(info.value).startswith(f"{damaged}: ")


def _assert_overwrite_refused(checkpoint, position, value):
    """Byte ``position`` of the checkpoint set to ``value`` must fail to load
    naming the file, unless it is unchanged; then the file loads and saves
    back to the same bytes."""
    path, good, _ = checkpoint
    damaged = path.with_name("damaged.gmck")
    flipped = bytearray(good)
    flipped[position] = value
    damaged.write_bytes(bytes(flipped))
    if value == good[position]:
        save_model(load_model(damaged), damaged)
        assert damaged.read_bytes() == good
        return
    with pytest.raises(ValueError) as info:
        load_model(damaged)
    assert str(info.value).startswith(f"{damaged}: ")


@FUZZ
@given(data=st.data(), value=st.integers(0, 255))
def test_checkpoint_manifest_byte_overwritten(checkpoint, data, value):
    _, _, manifest_end = checkpoint
    _assert_overwrite_refused(checkpoint, data.draw(st.integers(0, manifest_end - 1)), value)


@FUZZ
@given(data=st.data(), value=st.integers(0, 255))
def test_checkpoint_payload_byte_overwritten(checkpoint, data, value):
    _, good, manifest_end = checkpoint
    _assert_overwrite_refused(checkpoint, data.draw(st.integers(manifest_end, len(good) - 1)), value)
