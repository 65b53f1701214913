import hashlib
import io
import json
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinemetric import atomic, cli, data, phantom
from spinemetric.backbone import NetworkConfig
from spinemetric.cli import NETWORK_PRESETS, _build_pipeline_config, build_parser, main
from spinemetric.evaluation import PROBE_GAP_TOL, PROBE_STEPS
from spinemetric.mining import GradeLabel
from spinemetric.phantom import formats, read_sample_tensor
from spinemetric.pipeline import PipelineConfig


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = run_cli(
        "gen", "--counts", "g0=12,g2=5,g3=5", "--seed", "7", "--out", str(out)
    )
    assert code == 0
    return out


class TestGen:
    def test_paper_ratio_halved(self, tmp_path, capsys):
        out = tmp_path / "half"
        assert run_cli("gen", "--preset", "paper-ratio", "--scale", "0.05",
                       "--seed", "7", "--out", str(out)) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64
        manifest = json.loads((out / "manifest.json").read_text())
        grades = [e["grade"] for e in manifest["samples"]]
        # paper totals scaled by 0.05 with largest-remainder rounding
        assert (grades.count(0), grades.count(2), grades.count(3)) == (57, 5, 2)

    def test_zero_count_errors(self, tmp_path, capsys):
        code = run_cli("gen", "--counts", "g0=0,g2=0,g3=0", "--out", str(tmp_path / "z"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts,message",
        [
            ("g0=5,g1=3", "--counts token 'g1=3': unknown grade 'g1' (valid grades: g0, g2, g3)"),
            ("g0=5,g2", "--counts token 'g2' is not of the form grade=count"),
            ("g0=5,g2=x", "--counts token 'g2=x': count 'x' is not an integer"),
            ("g0=6,g0=9,g2=3,g3=3", "--counts token 'g0=9': grade 'g0' is given more than once"),
        ],
    )
    def test_bad_counts_token_named(self, tmp_path, capsys, counts, message):
        assert run_cli("gen", "--counts", counts, "--out", str(tmp_path / "c")) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"

    # 1 sample, one full chunk, one past it, three chunks, and five, so gen
    # renders into each of its two chunk buffers more than once; ids are sample counts.
    @pytest.mark.parametrize(
        "totals", [(1, 0, 0), (20, 8, 4), (21, 8, 4), (50, 12, 8), (100, 20, 10)], ids=lambda t: str(sum(t))
    )
    def test_repeat_run_identical_digest(self, tmp_path, capsys, totals):
        # gen streams its writes; the library's generate + save writes after
        # rendering. Every file must be the same, and a rerun changes none.
        counts = ",".join(f"{g}={n}" for g, n in zip(("g0", "g2", "g3"), totals))
        out, lib = tmp_path / "gen", tmp_path / "lib"
        assert run_cli("gen", "--counts", counts, "--seed", "3", "--out", str(out)) == 0
        digest = capsys.readouterr().out.strip()
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("gen", "--counts", counts, "--seed", "3", "--out", str(out)) == 0
        assert capsys.readouterr().out.strip() == digest
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files

        per_grade = phantom.counts_at_ratio(dict(zip((GradeLabel.G0, GradeLabel.G2, GradeLabel.G3), totals)))
        manifest = phantom.save_dataset(*phantom.generate_dataset(phantom.PhantomConfig(), per_grade, seed=3), lib)
        assert phantom.manifest_digest(manifest) == digest
        del files["run.json"]
        assert len(files) == sum(totals) + 1
        assert {p.name: p.read_bytes() for p in lib.iterdir()} == files

    def test_digest_pinned(self, tmp_path, capsys):
        # The manifest is canonical JSON: a change of encoding moves its digest.
        assert run_cli("gen", "--counts", "g0=6,g2=3,g3=3", "--seed", "3", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.strip() == "1f63a78d4019c299c7cef89ca06f289b056eb7269f0c3cf16a8dd0224ab3d9b6"

    def test_writes_run_json_and_samples(self, dataset_dir):
        run = json.loads((dataset_dir / "run.json").read_text())
        assert run["command"] == "gen"
        assert run["seed"] == 7
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        first = manifest["samples"][0]
        tensor = read_sample_tensor(dataset_dir / first["file"])
        assert tensor.shape == (2, 112, 112)

    @pytest.mark.parametrize("k", [0, 3])
    def test_regen_failing_after_k_samples_leaves_no_manifest(self, tmp_path, capsys, monkeypatch, k):
        out = tmp_path / "ds"
        assert run_cli("gen", "--counts", "g0=4,g2=2,g3=2", "--seed", "1", "--out", str(out)) == 0
        real_write, written = phantom.formats._write_vpat, []

        def fail_after_k(fh, channels):
            assert not (out / "manifest.json").exists()
            if len(written) == k:
                raise OSError("killed")
            written.append(fh.name)
            real_write(fh, channels)

        monkeypatch.setattr(phantom.formats, "_write_vpat", fail_after_k)
        assert run_cli("gen", "--counts", "g0=4,g2=2,g3=2", "--seed", "2", "--out", str(out)) == 1
        assert len(written) == k and not (out / "manifest.json").exists()
        capsys.readouterr()
        code = run_cli("train", "--dataset", str(out), "--stages", "fracture", "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: dataset manifest not found at {out / 'manifest.json'}")

    def test_write_failing_mid_stream(self, tmp_path, capsys, monkeypatch):
        # The 41st file, in the second chunk, cannot be opened: a directory
        # holds its name. The writer fails while the third chunk renders.
        out = tmp_path / "ds"
        blocked = out / "sample_000040.vpat"
        blocked.mkdir(parents=True)
        real_paint, chunks = phantom.patches._paint, []

        def counting_paint(bodies, n, radius):
            chunks.append(n)
            return real_paint(bodies, n, radius)

        monkeypatch.setattr(phantom.patches, "_paint", counting_paint)
        threads = threading.active_count()
        assert run_cli("gen", "--counts", "g0=150,g2=30,g3=20", "--seed", "1", "--out", str(out)) == 1
        assert threading.active_count() == threads
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(blocked) in err[0]
        assert len(chunks) <= 3  # of 7
        written = {f"sample_{i:06d}.vpat" for i in range(41)}
        assert {p.name for p in out.iterdir()} == written  # no manifest, no temp file
        assert blocked.is_dir()

    def test_stream_memory_flat_in_sample_count(self, tmp_path):
        # gen renders into two chunk buffers in turn and keeps no sample past
        # its chunk, so its peak stays under half of one stack of every sample.
        counts = phantom.counts_at_ratio(phantom.PAPER_GRADE_TOTALS, scale=400 / 1283)
        stack_bytes = 400 * 2 * 112 * 112 * 4  # one float32 (N, 2, 112, 112) stack: 40 MB
        tracemalloc.start()
        try:
            manifest = phantom.stream_dataset(phantom.PhantomConfig(seed=3), counts, 3, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(manifest["samples"]) == 400 and len(list(tmp_path.glob("sample_*.vpat"))) == 400
        assert peak < stack_bytes / 2

    def test_lagging_writer_keeps_every_byte(self, tmp_path, monkeypatch):
        # With the writer slower than the renderer, each chunk buffer is
        # rendered into again as soon as the hand-off lets it; every file must
        # still hold its own sample.
        counts = phantom.counts_at_ratio(dict(zip((GradeLabel.G0, GradeLabel.G2, GradeLabel.G3), (100, 20, 10))))
        samples, _ = phantom.generate_dataset(phantom.PhantomConfig(), counts, seed=3)
        real_write = formats._write_vpat
        monkeypatch.setattr(formats, "_write_vpat", lambda fh, rows: time.sleep(0.002) or real_write(fh, rows))
        phantom.stream_dataset(phantom.PhantomConfig(), counts, 3, tmp_path)
        for s in samples:
            assert read_sample_tensor(tmp_path / f"sample_{s.id:06d}.vpat").tobytes() == s.to_tensor().tobytes()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_refused(self, tmp_path, capsys, scale):
        out = tmp_path / "ds"
        assert run_cli("gen", "--scale", scale, "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == f"error: --scale must be a finite number, got {scale}"
        assert not out.exists()

    def test_smaller_regen_removes_stale_sample_files(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("gen", "--counts", "g0=6,g2=2,g3=2", "--seed", "1", "--out", str(out)) == 0
        for name in ("notes.txt", "reformation.vpat"):
            (out / name).write_text(name)
        assert run_cli("gen", "--counts", "g0=3,g2=1,g3=1", "--seed", "1", "--out", str(out)) == 0
        named = {e["file"] for e in json.loads((out / "manifest.json").read_text())["samples"]}
        assert len(named) == 5
        kept = {"manifest.json", "run.json", "notes.txt", "reformation.vpat"}
        assert {p.name for p in out.iterdir()} == named | kept
        assert (out / "reformation.vpat").read_text() == "reformation.vpat"


class TestConfigFile:
    @pytest.mark.parametrize("command", ["gen", "train"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{not json", "config file is not UTF-8 JSON (Expecting property name"),
            (b'{"seed": "\xff"}', "config file is not UTF-8 JSON ("),
        ],
        ids=["not-json", "not-utf8"],
    )
    def test_not_json_named(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_not_an_object_named(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.strip() == f"error: {path}: config file is not a JSON object"

    def test_bad_pipeline_section_named(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": {"bogus": 1}}))
        code = run_cli("train", "--dataset", str(dataset_dir), "--config", str(path),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {path}: bad pipeline section (TypeError(") and "'bogus'" in err

    def test_zero_network_size_named(self, dataset_dir, tmp_path, capsys):
        network = dict(NETWORK_PRESETS["tiny"].to_dict(), input_size=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": {"network": network}}))
        code = run_cli("train", "--dataset", str(dataset_dir), "--config", str(path),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {path}: bad pipeline section (") and "input_size must be at least 1" in err

    @pytest.mark.parametrize(
        "key", ["input_channels", "kernel", "classifier_classes", "leaky_slope", "bn_epsilon", "bn_momentum", "enabled"]
    )
    def test_fixed_architecture_key_named(self, key):
        # The encoder's fixed choices are constants, and a stage runs unless
        # it has 0 epochs: a pipeline section that sets any of them is refused.
        pipeline = PipelineConfig().to_dict()
        (pipeline["stages"][0] if key == "enabled" else pipeline["network"])[key] = 1
        args = build_parser().parse_args(["train", "--config", "cfg.json", "--out", "o"])
        with pytest.raises(ValueError, match=rf"^cfg\.json: bad pipeline section \(TypeError\(.*'{key}'"):
            _build_pipeline_config(args, {"pipeline": pipeline})

    @pytest.mark.parametrize(
        "key", ["probe_steps", "probe_regularization", "margins", "triplet_margin", "contrastive_margin",
                "clustering_mode"]
    )
    def test_probe_key_named(self, key):
        # The probe's settings belong to eval (--probe-steps) and evaluation,
        # and the loss margins are constants of losses: a pipeline section
        # that sets any of them, even to the value in use, is refused.
        value = {"margins": {"alpha": 1.5, "beta": 1.0, "gamma": 0.5}, "clustering_mode": "textual"}.get(key, 1)
        pipeline = {**PipelineConfig().to_dict(), key: value}
        args = build_parser().parse_args(["train", "--config", "cfg.json", "--out", "o"])
        with pytest.raises(ValueError, match=rf"^cfg\.json: bad pipeline section \(TypeError\(.*'{key}'"):
            _build_pipeline_config(args, {"pipeline": pipeline})

    @pytest.mark.parametrize(
        "network, expected",
        [
            ({"input_size": 16, "conv_channels": [6, 12]}, {"input_size": 16, "conv_channels": (6, 12)}),
            ({"linear_dims": [32, 8]}, {"linear_dims": (32, 8)}),
            ({}, {}),
        ],
        ids=["no-linear-dims", "no-conv-channels", "empty"],
    )
    def test_partial_network_section_loads(self, network, expected):
        # The fields left out keep their defaults.
        args = build_parser().parse_args(["train", "--config", "cfg.json", "--out", "o"])
        loaded = _build_pipeline_config(args, {"pipeline": {"network": network}}).network.to_dict()
        assert loaded == {**NetworkConfig().to_dict(), **expected}

    def test_readme_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("A JSON config file can replace flags:", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        config = PipelineConfig.from_dict(example["pipeline"])
        assert config.network == NETWORK_PRESETS["reduced"]

    def test_unknown_gen_key_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"jiter_px": 3, "sed": 9}))
        out = tmp_path / "o"
        assert run_cli("gen", "--counts", "g0=3,g2=2,g3=2", "--config", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: {path}: unknown config keys ['jiter_px', 'sed'] (known keys: ['jitter_px', 'seed'])"
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"seed": "7"}, "config key 'seed' must be an integer, got \"7\""),
            ({"seed": True}, "config key 'seed' must be an integer, got true"),
            ({"jitter_px": 1.5}, "config key 'jitter_px' must be an integer, got 1.5"),
        ],
        ids=["seed-string", "seed-bool", "jitter-float"],
    )
    def test_gen_value_type_named(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("gen", "--counts", "g0=3,g2=2,g3=2", "--config", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == f"error: {path}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "jitter, message",
        [
            (-1, "jitter_px must be nonnegative"),
            (150, "jitter_px 150 can move the graded body off the patch (at most 35 px)"),
        ],
        ids=["negative", "off-the-patch"],
    )
    def test_gen_bad_jitter_named(self, tmp_path, capsys, jitter, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"jitter_px": jitter}))
        out = tmp_path / "o"
        assert run_cli("gen", "--counts", "g0=3,g2=1,g3=1", "--seed", "1", "--config", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == f"error: {path}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"folds": 1.7}, "config key 'folds' must be an integer, got 1.7"),
            ({"folds": True}, "config key 'folds' must be an integer, got true"),
            ({"folds": "x"}, "config key 'folds' must be an integer, got \"x\""),
            ({"test_fraction": "0.3"}, "config key 'test_fraction' must be a number, got \"0.3\""),
            ({"test_fraction": True}, "config key 'test_fraction' must be a number, got true"),
            ({"dataset": 5}, "config key 'dataset' must be a string, got 5"),
            ({"pipeline": []}, "config key 'pipeline' must be an object, got []"),
        ],
        ids=["folds-float", "folds-bool", "folds-string", "fraction-string", "fraction-bool",
             "dataset-int", "pipeline-list"],
    )
    def test_train_value_type_named(self, dataset_dir, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("train", "--dataset", str(dataset_dir), "--network", "tiny", "--epochs", "1,1,1",
                       "--config", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == f"error: {path}: {message}"
        assert not out.exists()

    def test_unknown_train_key_named(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": str(dataset_dir), "seed": 3, "folds": 2}))
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip()
        assert err == (
            f"error: {path}: unknown config keys ['seed'] "
            "(known keys: ['dataset', 'folds', 'pipeline', 'test_fraction'])"
        )
        assert not out.exists()


class TestReformat:
    def test_straight_and_curved(self, tmp_path):
        out = tmp_path / "cpr"
        assert run_cli("reformat", "--vertebrae", "5", "--curvature", "0.2",
                       "--seed", "1", "--out", str(out)) == 0
        assert (out / "volume.vvol").exists()
        reformation = read_sample_tensor(out / "reformation.vpat")
        assert reformation.ndim == 3 and reformation.shape[0] == 1
        doc = json.loads((out / "centroids.json").read_text())
        assert len(doc["centroids_rc"]) == 5

    @pytest.mark.parametrize("failing", ["volume.vvol", "reformation.vpat"])
    def test_write_failing_midway_keeps_earlier_files(self, tmp_path, monkeypatch, failing):
        out = tmp_path / "cpr"
        assert run_cli("reformat", "--vertebrae", "3", "--seed", "1", "--out", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        class HeaderThenFail(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:4])
                raise OSError("disk full")

        def open_failing(path, mode):
            return (HeaderThenFail if failing in Path(path).name else open)(path, mode)

        monkeypatch.setattr(atomic, "open", open_failing, raising=False)
        assert run_cli("reformat", "--vertebrae", "3", "--seed", "2", "--out", str(out)) == 1
        # The failed file and those after it are the earlier run's; a file
        # written before the failure is the new run's, whole.
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert (out / failing).read_bytes() == before[failing]
        assert (out / "run.json").read_bytes() == before["run.json"]
        phantom.read_volume(out / "volume.vvol")
        read_sample_tensor(out / "reformation.vpat")

    def test_grades_length_mismatch_errors(self, tmp_path, capsys):
        code = run_cli("reformat", "--vertebrae", "4", "--grades", "g0,g0",
                       "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--curvature", "nan", "--curvature must be a finite number, got nan"),
            ("--curvature", "inf", "--curvature must be a finite number, got inf"),
            ("--vertebrae", "2", "--vertebrae must lie in [3, 17], got 2"),
            ("--vertebrae", "18", "--vertebrae must lie in [3, 17], got 18"),
        ],
        ids=["curvature-nan", "curvature-inf", "vertebrae-2", "vertebrae-18"],
    )
    def test_bad_flag_named_before_any_work(self, tmp_path, capsys, monkeypatch, flag, value, message):
        monkeypatch.setattr(phantom, "generate_spine_volume", lambda *a, **k: pytest.fail("volume built"))
        out = tmp_path / "x"
        assert run_cli("reformat", flag, value, "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2.0000000000000004", "-2.5"])
    def test_curvature_beyond_bound_named_before_any_work(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr(phantom.volume, "_paint_body", lambda *a: pytest.fail("volume painted"))
        out = tmp_path / "x"
        assert run_cli("reformat", "--curvature", value, "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == f"error: |curvature| must be at most MAX_CURVATURE = 2, got {value}"
        assert not out.exists()

    def test_unknown_grade_named(self, tmp_path, capsys):
        code = run_cli("reformat", "--vertebrae", "2", "--grades", "g0,g4",
                       "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: --grades: unknown grade 'g4' (valid grades: g0, g2, g3)"


class TestStagesFlag:
    @staticmethod
    def plans(stages, cfg_file=None):
        args = build_parser().parse_args(["train", "--stages", stages, "--out", "o"])
        config = _build_pipeline_config(args, cfg_file or {})
        return [(p.stage, p.loss_kind, p.epochs, p.batch_size) for p in config.stages]

    @pytest.mark.parametrize(
        "stages, want",
        [
            ("fracture,grading,label", [
                ("LabelPretrain", "contrastive", 30, 32),
                ("RepresentationLearn", "grading", 30, 32),
                ("FractureTrain", "cross_entropy", 40, 32),
            ]),
            ("triplet,fracture", [
                ("RepresentationLearn", "triplet", 30, 32), ("FractureTrain", "cross_entropy", 40, 32),
            ]),
            ("contrastive", [("RepresentationLearn", "contrastive", 30, 32)]),
            ("label,label", [("LabelPretrain", "contrastive", 30, 32)]),
        ],
    )
    def test_tokens_give_plans_in_stage_order(self, stages, want):
        assert self.plans(stages) == want

    def test_epochs_and_batch_size_from_config_file(self):
        cfg = {"pipeline": {"stages": [
            {"stage": "RepresentationLearn", "loss_kind": "grading", "epochs": 7, "batch_size": 5},
        ]}}
        assert self.plans("triplet,fracture", cfg) == [
            ("RepresentationLearn", "triplet", 7, 5), ("FractureTrain", "cross_entropy", 40, 32),
        ]

    @pytest.mark.parametrize(
        "stages, message",
        [
            ("grading,triplet", "at most one representation loss may be listed"),
            ("label,finetune", "unknown stage tokens: ['finetune']"),
            (" , ", "--stages selected no stages"),
        ],
    )
    def test_bad_tokens_refused(self, stages, message):
        with pytest.raises(ValueError) as exc:
            self.plans(stages)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "epochs, message",
        [
            ("2,x,4", "--epochs token 'x' is not an integer"),
            ("2,4", "--epochs needs 3 comma-separated values"),
            ("1,-1,1", "--epochs token -1 must be at least 0"),
        ],
    )
    def test_bad_epochs_refused(self, epochs, message):
        args = build_parser().parse_args(["train", "--epochs", epochs, "--out", "o"])
        with pytest.raises(ValueError) as exc:
            _build_pipeline_config(args, {})
        assert str(exc.value) == message


# A fold count or test fraction that make_folds refuses, named by its flag.
BAD_SPLIT_FLAGS = [
    pytest.param("--folds", "0", "--folds must be at least 1, got 0", id="folds-0"),
    pytest.param("--folds", "-2", "--folds must be at least 1, got -2", id="folds-negative"),
    pytest.param("--test-fraction", "1.5", "--test-fraction must lie in (0, 1), got 1.5", id="fraction-1.5"),
    pytest.param("--test-fraction", "0", "--test-fraction must lie in (0, 1), got 0.0", id="fraction-0"),
    pytest.param("--test-fraction", "nan", "--test-fraction must lie in (0, 1), got nan", id="fraction-nan"),
]


class TestTrain:
    def test_naive_run_and_rerun_identical_metrics(self, dataset_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run_cli(
                "train", "--dataset", str(dataset_dir), "--stages", "fracture",
                "--epochs", "2", "--network", "tiny", "--folds", "2",
                "--test-fraction", "0.3", "--seed", "5", "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        for fold in ("fold_00", "fold_01"):
            m1 = (outs[0] / fold / "metrics.json").read_bytes()
            m2 = (outs[1] / fold / "metrics.json").read_bytes()
            assert m1 == m2
            assert (outs[0] / fold / "final.gmck").read_bytes() == (
                outs[1] / fold / "final.gmck"
            ).read_bytes()
        assert (outs[0] / "folds.json").read_bytes() == (outs[1] / "folds.json").read_bytes()

    def test_rerun_into_same_out_replaces_outputs_byte_identically(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        argv = (
            "train", "--dataset", str(dataset_dir), "--stages", "label,fracture",
            "--epochs", "1,1", "--network", "tiny", "--folds", "1",
            "--test-fraction", "0.3", "--seed", "5", "--out", str(out),
        )

        def outputs():
            # records.json holds wall-clock seconds; every other file is
            # byte-reproducible.
            return {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "records.json"
            }

        assert run_cli(*argv) == 0
        first = outputs()
        assert run_cli(*argv) == 0
        assert outputs() == first
        assert sorted(first) == [
            "fold_00/final.gmck", "fold_00/metrics.json",
            "fold_00/stage1_LabelPretrain.gmck", "fold_00/stage2_FractureTrain.gmck",
            "folds.json", "run.json",
        ]
        assert not [p for p in out.rglob(".*")]

    def test_three_stage_run(self, dataset_dir, tmp_path):
        out = tmp_path / "full"
        code = run_cli(
            "train", "--dataset", str(dataset_dir),
            "--stages", "label,grading,fracture", "--epochs", "1,1,1",
            "--network", "tiny", "--folds", "1", "--test-fraction", "0.3",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "fold_00" / "records.json").read_text())
        assert [r["stage"] for r in doc["stages"]] == [
            "LabelPretrain", "RepresentationLearn", "FractureTrain",
        ]
        for k, stage in enumerate(doc["stages"], start=1):
            assert (out / "fold_00" / stage["checkpoint"]).exists()
            assert stage["checkpoint"].startswith(f"stage{k}_")
        run = json.loads((out / "run.json").read_text())
        assert run["pipeline"]["seed"] == 2

    def test_parallel_jobs_match_serial(self, dataset_dir, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            code = run_cli(
                "train", "--dataset", str(dataset_dir), "--stages", "fracture",
                "--epochs", "1", "--network", "tiny", "--folds", "2",
                "--test-fraction", "0.3", "--seed", "5", "--jobs", jobs,
                "--out", str(out),
            )
            assert code == 0
        for fold in ("fold_00", "fold_01"):
            assert (serial / fold / "metrics.json").read_bytes() == (
                parallel / fold / "metrics.json"
            ).read_bytes()

    def test_deduplicating_stages_reproduce_across_jobs_and_reruns(self, dataset_dir, tmp_path):
        # Every stage forwards distinct rows; a rerun and a two-worker run
        # write the same checkpoints, metrics and row counts.
        def run(name, jobs):
            out = tmp_path / name
            assert run_cli(
                "train", "--dataset", str(dataset_dir), "--stages", "label,grading,fracture",
                "--epochs", "1,1,1", "--network", "tiny", "--folds", "2",
                "--test-fraction", "0.3", "--seed", "5", "--jobs", jobs, "--out", str(out),
            ) == 0
            files = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.suffix == ".gmck" or p.name == "metrics.json"
            }
            rows = [
                [stage["rows_forwarded"] for stage in json.loads(p.read_text())["stages"]]
                for p in sorted(out.rglob("records.json"))
            ]
            return files, rows

        first = run("serial", "1")
        assert len(first[0]) == 2 * 5 and len(first[1]) == 2
        assert all(n > 0 for fold in first[1] for n in fold)
        assert run("rerun", "1") == first
        assert run("parallel", "2") == first

    @pytest.mark.parametrize(
        "loss, digest",
        [
            ("grading", "efe4ac93046fb98228e996e3d4857fb1899426086fcc5774ef1188fbc2483537"),
            ("triplet", "964cae0eb65bca8cc7275e3639541a105e854226ea00d82f7acf392320d25b13"),
            ("contrastive", "0a6f9dc69973c625b6f1ae87265fb377e846726fd7f0dbb061cd6b0baf47d84e"),
        ],
        ids=["grading", "triplet", "contrastive"],
    )
    def test_trained_bits_pinned(self, dataset70, tmp_path, loss, digest):
        # One digest over what training produces: each fold's checkpoints and
        # metrics.json, folds.json, and every stage's epoch_losses and
        # rows_forwarded. records.json's config digest and seconds are left out.
        out = tmp_path / loss
        assert run_cli(
            "train", "--dataset", str(dataset70), "--stages", f"label,{loss},fracture",
            "--epochs", "2,2,2", "--network", "tiny", "--folds", "2", "--seed", "5", "--out", str(out),
        ) == 0
        lines = [
            f"{p.relative_to(out)} {hashlib.sha256(p.read_bytes()).hexdigest()}"
            for p in sorted(out.rglob("*"))
            if p.suffix == ".gmck" or p.name in ("metrics.json", "folds.json")
        ]
        lines += [
            json.dumps([[s["epoch_losses"], s["rows_forwarded"]] for s in json.loads(p.read_text())["stages"]])
            for p in sorted(out.rglob("records.json"))
        ]
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text

    @pytest.mark.parametrize("jobs, pools", [("64", [2]), ("1", [])], ids=["64", "1"])
    def test_jobs_start_at_most_one_worker_per_fold(self, dataset_dir, tmp_path, monkeypatch, jobs, pools):
        started = []

        class RecordingPool:
            """Runs the folds in this process and records the pool size asked for."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        assert run_cli(
            "train", "--dataset", str(dataset_dir), "--stages", "fracture", "--epochs", "1",
            "--network", "tiny", "--folds", "2", "--jobs", jobs, "--out", str(tmp_path / "o"),
        ) == 0
        assert started == pools

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, dataset_dir, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        assert run_cli(
            "train", "--dataset", str(dataset_dir), "--stages", "fracture", "--epochs", "1",
            "--network", "tiny", "--folds", "2", "--jobs", jobs, "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.strip() == f"error: --jobs must be at least 1, got {jobs}"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", BAD_SPLIT_FLAGS)
    def test_bad_split_flag_named(self, dataset_dir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        assert run_cli(
            "train", "--dataset", str(dataset_dir), "--stages", "fracture", "--epochs", "1",
            "--network", "tiny", flag, value, "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    def test_missing_dataset_errors(self, tmp_path, capsys):
        code = run_cli("train", "--dataset", str(tmp_path / "nope"),
                       "--stages", "fracture", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "gen" in err


@pytest.fixture(scope="module")
def trained(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "trained"
    code = run_cli(
        "train", "--dataset", str(dataset_dir), "--stages", "grading,fracture",
        "--epochs", "1,1", "--network", "tiny", "--folds", "2",
        "--test-fraction", "0.3", "--seed", "9", "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def embedding_ckpt(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "emb"
    code = run_cli(
        "train", "--dataset", str(dataset_dir), "--stages", "grading",
        "--epochs", "1", "--network", "tiny", "--folds", "1",
        "--test-fraction", "0.3", "--seed", "9", "--out", str(out),
    )
    assert code == 0
    return out / "fold_00" / "final.gmck"


class TestEvalAndProject:
    def test_classify_protocol(self, dataset_dir, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(trained), "--out", str(out))
        assert code == 0
        table = capsys.readouterr().out
        assert "SN" in table and "F1" in table
        doc = json.loads((out / "metrics.json").read_text())
        assert len(doc["folds"]) == 2

    def test_probe_protocol(self, dataset_dir, embedding_ckpt, tmp_path):
        out = tmp_path / "probe"
        code = run_cli(
            "eval", "--protocol", "probe", "--dataset", str(dataset_dir),
            "--checkpoint", str(embedding_ckpt), "--folds", "2",
            "--test-fraction", "0.3", "--probe-steps", "500",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["mean"]) == {"sensitivity", "specificity", "f1"}

    def test_probe_confusion_pinned(self, dataset_dir, embedding_ckpt, tmp_path):
        # Per-fold (tp, fp, tn, fn) that the probe solved by L-BFGS-B gave.
        out = tmp_path / "probe"
        assert run_cli("eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                       "--checkpoint", str(embedding_ckpt), "--folds", "5", "--out", str(out)) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert [(f["tp"], f["fp"], f["tn"], f["fn"]) for f in doc["folds"]] == [
            (1, 0, 3, 1), (1, 0, 3, 1), (1, 0, 3, 1), (0, 0, 3, 2), (1, 1, 2, 1)
        ]

    def test_probe_run_json_records_probe_options(self, dataset_dir, embedding_ckpt, tmp_path):
        out = tmp_path / "probe"
        code = run_cli(
            "eval", "--protocol", "probe", "--dataset", str(dataset_dir),
            "--checkpoint", str(embedding_ckpt), "--folds", "2", "--probe-steps", "300",
            "--out", str(out),
        )
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        assert (run["folds"], run["test_fraction"], run["probe_steps"], run["seed"]) == (2, 0.25, 300, 0)

    @pytest.mark.parametrize("steps", ["1", None], ids=["one-step", "default"])
    def test_probe_fit_reported_per_fold(self, dataset_dir, embedding_ckpt, tmp_path, steps):
        out = tmp_path / "probe"
        cap = [] if steps is None else ["--probe-steps", steps]
        assert run_cli("eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                       "--checkpoint", str(embedding_ckpt), "--folds", "2", *cap, "--out", str(out)) == 0
        doc = json.loads((out / "metrics.json").read_text())
        for fold in doc["folds"]:
            if steps is None:
                assert 1 <= fold["probe_iterations"] < PROBE_STEPS and fold["probe_gap"] <= PROBE_GAP_TOL
            else:
                assert fold["probe_iterations"] == 1 and fold["probe_gap"] > PROBE_GAP_TOL
        assert set(doc["mean"]) == set(doc["std"]) == {"sensitivity", "specificity", "f1"}

    def test_classify_folds_carry_no_probe_keys(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(trained), "--out", str(out)) == 0
        doc = json.loads((out / "metrics.json").read_text())
        keys = {"tp", "fp", "tn", "fn", "sensitivity", "specificity", "f1"}
        assert all(set(fold) == keys for fold in doc["folds"])

    def test_classify_run_json_has_no_probe_options(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(trained), "--out", str(out)) == 0
        run = json.loads((out / "run.json").read_text())
        assert (run["folds"], run["test_fraction"], run["probe_steps"], run["seed"]) == (2, None, None, None)

    @pytest.mark.parametrize("flag, value, message", BAD_SPLIT_FLAGS)
    def test_bad_split_flag_named(self, dataset_dir, embedding_ckpt, tmp_path, capsys, flag, value, message):
        out = tmp_path / "probe"
        code = run_cli("eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                       "--checkpoint", str(embedding_ckpt), flag, value, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "-4"])
    def test_probe_steps_below_one_refused(self, dataset_dir, embedding_ckpt, tmp_path, capsys, steps):
        out = tmp_path / "probe"
        code = run_cli("eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                       "--checkpoint", str(embedding_ckpt), "--probe-steps", steps, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: --probe-steps must be at least 1, got {steps}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--folds", "3"), ("--test-fraction", "0.3"), ("--probe-steps", "10"), ("--seed", "1")]
    )
    def test_classify_rejects_probe_options(self, dataset_dir, trained, tmp_path, capsys, flag, value):
        code = run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(trained), flag, value, "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: --protocol classify does not take {flag}: its folds come from --run"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json", "Expecting value"),
            ('{"folds":[{}]}', "not a folds document (KeyError: 'fold_id')"),
            ('{"seed":0,"folds":[]}', "no folds"),
            ('{"seed":0,"folds":[{"fold_id":0,"train_ids":[0,1],"test_ids":[22]}]}',
             "fold 0: sample id 22 is out of range for 22 samples"),
            ('{"seed":0,"folds":[{"fold_id":0,"train_ids":[0,1],"test_ids":[-1,-2,-3,-1]}]}',
             "fold 0: fold and sample ids must be nonnegative ints"),
            ('{"seed":0,"folds":[{"fold_id":0,"train_ids":[0,1.5],"test_ids":[2]}]}',
             "fold 0: fold and sample ids must be nonnegative ints"),
            ('{"seed":0,"folds":[{"fold_id":0,"train_ids":[0,1],"test_ids":[2,3,2]}]}',
             "fold 0: a sample id is repeated"),
            ('{"seed":0,"folds":[{"fold_id":0,"train_ids":[0,1,2],"test_ids":[2,3]}]}',
             "fold 0: a sample id is in both train and test"),
            ('{"seed":0,"folds":' + json.dumps([{"fold_id": 0, "train_ids": [0, 1], "test_ids": [2]}] * 3) + "}",
             "fold 0: the fold id is repeated"),
        ],
    )
    def test_classify_malformed_folds_named(self, dataset_dir, tmp_path, capsys, text, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "folds.json").write_text(text)
        code = run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(run_dir), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {run_dir / 'folds.json'}: ") and message in err

    def test_classify_other_dataset_refused(self, trained, tmp_path, capsys):
        other = tmp_path / "seed8"
        assert run_cli("gen", "--counts", "g0=12,g2=5,g3=5", "--seed", "8", "--out", str(other)) == 0
        capsys.readouterr()
        code = run_cli("eval", "--protocol", "classify", "--dataset", str(other),
                       "--run", str(trained), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        want = f"{other / 'manifest.json'} is not the dataset that {trained / 'run.json'} was trained on"
        assert err == f"error: {want}"
        assert not (tmp_path / "o").exists()

    def test_classify_regenerated_dataset_accepted(self, dataset_dir, trained, tmp_path):
        copy = tmp_path / "elsewhere" / "ds"
        assert run_cli("gen", "--counts", "g0=12,g2=5,g3=5", "--seed", "7", "--out", str(copy)) == 0
        out = tmp_path / "ev"
        assert run_cli("eval", "--protocol", "classify", "--dataset", str(copy),
                       "--run", str(trained), "--out", str(out)) == 0
        doc = json.loads((out / "metrics.json").read_text())
        for k, got in enumerate(doc["folds"]):
            assert got == json.loads((trained / f"fold_{k:02d}" / "metrics.json").read_text())

    @pytest.mark.parametrize(
        "run_json, message",
        [
            (None, "FileNotFoundError"),
            ("{not json", "JSONDecodeError"),
            ("[]", "TypeError"),
            ('{"command": "train"}', "KeyError('dataset_digest')"),
        ],
        ids=["missing", "not-json", "list", "no-digest"],
    )
    def test_classify_unreadable_run_json_named(self, dataset_dir, trained, tmp_path, capsys, run_json, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "folds.json").write_bytes((trained / "folds.json").read_bytes())
        if run_json is not None:
            (run_dir / "run.json").write_text(run_json)
        code = run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(run_dir), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        manifest = dataset_dir / "manifest.json"
        assert err.startswith(f"error: {run_dir / 'run.json'}: no dataset_digest to check {manifest} against (")
        assert message in err

    def test_probe_rerun_byte_identical(self, dataset_dir, embedding_ckpt, tmp_path):
        blobs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            run_cli(
                "eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                "--checkpoint", str(embedding_ckpt), "--folds", "2",
                "--test-fraction", "0.3", "--probe-steps", "500",
                "--seed", "1", "--out", str(out),
            )
            blobs.append((out / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_classify_reproduces_train_metrics(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(trained), "--out", str(out)) == 0
        doc = json.loads((out / "metrics.json").read_text())
        for k, got in enumerate(doc["folds"]):
            assert got == json.loads((trained / f"fold_{k:02d}" / "metrics.json").read_text())

    def test_probe_wrong_head_names_checkpoint(self, dataset_dir, trained, tmp_path, capsys):
        ckpt = trained / "fold_00" / "final.gmck"
        code = run_cli("eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                       "--checkpoint", str(ckpt), "--folds", "1", "--probe-steps", "10",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        want = "--protocol probe needs the embedding8 head, not classifier2"
        assert f"error: {ckpt}: {want}" in err

    def test_project_wrong_head_refused_before_any_file_is_read(
        self, dataset_dir, trained, tmp_path, capsys, monkeypatch
    ):
        ckpt = trained / "fold_00" / "final.gmck"
        opened = []
        read = formats.read_sample_tensor
        monkeypatch.setattr(formats, "read_sample_tensor", lambda path, out=None: opened.append(path) or read(path, out))
        code = run_cli("project", "--dataset", str(dataset_dir), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: {ckpt}: project needs the embedding8 head, not classifier2"
        assert opened == [] and not (tmp_path / "o").exists()

    def test_classify_wrong_head_names_checkpoint(
        self, dataset_dir, embedding_ckpt, tmp_path, capsys
    ):
        run_dir = embedding_ckpt.parent.parent
        code = run_cli("eval", "--protocol", "classify", "--dataset", str(dataset_dir),
                       "--run", str(run_dir), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        want = "--protocol classify needs the classifier2 head, not embedding8"
        assert f"error: {embedding_ckpt}: {want}" in err

    def test_eval_missing_checkpoint_errors(self, dataset_dir, tmp_path, capsys):
        code = run_cli("eval", "--protocol", "probe", "--dataset", str(dataset_dir),
                       "--checkpoint", str(tmp_path / "missing.gmck"),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_project(self, dataset_dir, embedding_ckpt, tmp_path):
        out = tmp_path / "proj"
        code = run_cli("project", "--dataset", str(dataset_dir),
                       "--checkpoint", str(embedding_ckpt), "--out", str(out))
        assert code == 0
        csv = (out / "projection.csv").read_text()
        assert csv.startswith("id,grade,x,y")
        assert len(csv.strip().split("\n")) == 23  # header + 22 samples
        svg = (out / "projection.svg").read_text()
        assert svg.startswith("<svg")

    def test_project_single_sample_errors(self, embedding_ckpt, tmp_path, capsys):
        one = tmp_path / "one"
        assert run_cli("gen", "--counts", "g0=1,g2=0,g3=0", "--seed", "1",
                       "--out", str(one)) == 0
        code = run_cli("project", "--dataset", str(one),
                       "--checkpoint", str(embedding_ckpt), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dataset70(tmp_path_factory):
    """The 70-sample set that CI pins: five 16-file read chunks, the last one partial."""
    out = tmp_path_factory.mktemp("data") / "ds70"
    assert run_cli("gen", "--counts", "g0=50,g2=12,g3=8", "--seed", "3", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def run70(dataset70, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run70"
    code = run_cli(
        "train", "--dataset", str(dataset70), "--stages", "label,grading,fracture",
        "--epochs", "1,1,1", "--network", "tiny", "--folds", "2",
        "--test-fraction", "0.3", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    return out


class TestReadStraightToInputSize:
    """``train``, ``eval`` and ``project`` read each sample file once, straight
    to the network's input size, and refuse a manifest that lists no samples."""

    @pytest.mark.parametrize("command", ["train", "eval-probe", "eval-classify", "project"])
    def test_each_file_read_once_without_a_112px_stack(self, dataset70, run70, tmp_path, monkeypatch, command):
        checkpoint = str(run70 / "fold_00" / "stage2_RepresentationLearn.gmck")
        argv = {
            "train": ["train", "--stages", "label,grading,fracture", "--epochs", "1,1,1", "--network", "tiny",
                      "--folds", "2", "--test-fraction", "0.3", "--seed", "5"],
            "eval-probe": ["eval", "--protocol", "probe", "--checkpoint", checkpoint, "--folds", "2"],
            "eval-classify": ["eval", "--protocol", "classify", "--run", str(run70)],
            "project": ["project", "--checkpoint", checkpoint],
        }[command]
        opened, stacked = [], []
        read, stack = formats.read_sample_tensor, data.stack_samples
        monkeypatch.setattr(formats, "read_sample_tensor", lambda path, out=None: opened.append(path) or read(path, out))
        monkeypatch.setattr(data, "stack_samples", lambda *args: stacked.append(args) or stack(*args))
        files = [e["file"] for e in json.loads((dataset70 / "manifest.json").read_text())["samples"]]
        stack_bytes = len(files) * 2 * 112 * 112 * 4  # one float32 (N, 2, 112, 112) stack: 7.0 MB
        tracemalloc.start()
        try:
            code = run_cli(*argv, "--dataset", str(dataset70), "--out", str(tmp_path / "o"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sorted(Path(p).name for p in opened) == sorted(files)
        assert stacked == []
        assert peak < stack_bytes

    @pytest.mark.parametrize("case", ["other-dataset", "wrong-head"])
    def test_eval_refuses_before_any_file_is_read(self, dataset70, trained, run70, tmp_path, capsys, monkeypatch, case):
        opened = []
        read = formats.read_sample_tensor
        monkeypatch.setattr(formats, "read_sample_tensor", lambda path, out=None: opened.append(path) or read(path, out))
        argv, message = {
            "other-dataset": (["--protocol", "classify", "--dataset", str(dataset70), "--run", str(trained)],
                              "is not the dataset that"),
            "wrong-head": (["--protocol", "probe", "--dataset", str(dataset70),
                            "--checkpoint", str(run70 / "fold_00" / "final.gmck")], "--protocol probe needs the"),
        }[case]
        assert run_cli("eval", *argv, "--out", str(tmp_path / "o")) == 1
        assert message in capsys.readouterr().err
        assert opened == []

    @pytest.mark.parametrize("command", ["train", "eval", "project"])
    def test_empty_manifest_named(self, embedding_ckpt, tmp_path, capsys, command):
        manifest = tmp_path / "empty" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text('{"samples": []}')
        argv = {
            "train": ["train", "--stages", "fracture", "--network", "tiny"],
            "eval": ["eval", "--protocol", "probe", "--checkpoint", str(embedding_ckpt)],
            "project": ["project", "--checkpoint", str(embedding_ckpt)],
        }[command]
        assert run_cli(*argv, "--dataset", str(manifest.parent), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.strip() == f"error: {manifest}: manifest lists no samples"


class TestParser:
    @pytest.mark.parametrize("cmd", ["gen", "reformat", "train", "eval", "project"])
    def test_help_available(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
