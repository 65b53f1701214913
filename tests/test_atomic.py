"""Atomic artifact writes: a write that fails midway keeps the old file."""

import numpy as np
import pytest

from spinemetric.atomic import atomic_open
from spinemetric.backbone import NetworkConfig, init_model, load_model, save_model


def test_block_that_raises_keeps_old_file_and_no_temp(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_bytes(b'{"f1":0.5}\n')
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_open(path) as fh:
            fh.write(b'{"f1":')
            raise RuntimeError("midway")
    assert path.read_bytes() == b'{"f1":0.5}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_clean_block_replaces_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b"old, and longer than the new file\n")
    with atomic_open(path) as fh:
        fh.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_save_model_failing_midway_keeps_earlier_checkpoint(tmp_path):
    cfg = NetworkConfig(input_size=16, conv_channels=(4, 6), linear_dims=(12, 8))
    model = init_model(cfg, seed=3)
    path = tmp_path / "final.gmck"
    save_model(model, path)
    before = path.read_bytes()

    # A tensor that sorts last and cannot be written as float32: every real
    # tensor goes out before the save fails.
    stats = model.bn_stats
    model.bn_stats = lambda: {**stats(), "zz.bad": np.array(["x"], dtype=object)}
    model.parameters()["conv1.weight"][...] += 1.0
    with pytest.raises(ValueError):
        save_model(model, path)

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["final.gmck"]
    load_model(path)
