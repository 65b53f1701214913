"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup()``. ``run_op()``
runs one timed operation and then checks its output; a failed check raises
``CheckFailed``. A workload made with a ``reference`` (the result recorded
in ``reference.json`` for the smallest size and seed 0) must also reproduce
it; one made without one runs only the checks that need no recorded result.

Workloads call spinemetric through module attributes at call time, so the
wrappers ``spans.install`` puts in place see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spinemetric import cli, evaluation, mining, phantom, pipeline
from spinemetric.backbone import checkpoint, model as backbone_model
from spinemetric.mining import GRADES, REGIONS, GradeLabel, RegionLabel

# Paper-ratio class totals (1133/104/46) scaled to 600 samples.
PAPER_600 = 0.46766
# Per-epoch losses are float32 training results: later summation-order
# changes may move them by this much relative to the recorded trajectory.
LOSS_RTOL = 1e-3
LOSS_ATOL = 1e-6
# Embeddings re-derived from the same float32 weights through the same code.
EMBED_RTOL = 1e-5
EMBED_ATOL = 1e-7


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class OpResult:
    op_s: float  # wall time of the operation
    rows: int  # rows behind rows_per_s
    rows_s: float  # seconds those rows took
    span: tuple[float, float]  # perf_counter interval op_s was measured over
    rows_span: tuple[float, float] | None = None  # rows_s's interval, when timed here
    detail: dict = field(default_factory=dict)  # issue-named metric samples

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.rows_s


def _bits_equal(a, b) -> bool:
    a, b = np.ascontiguousarray(a, dtype="<f4"), np.ascontiguousarray(b, dtype="<f4")
    return a.shape == b.shape and np.array_equal(a.view("<u4"), b.view("<u4"))


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str, workdir: Path, tracer=None, reference=None):
        self.seed = seed
        self.size = size
        self.params = self.sizes[size]
        self.workdir = workdir
        self.tracer = tracer
        self.reference = reference  # recorded result to reproduce, or None
        self.recorded = None  # the last operation's recordable result
        self._dirs = 0
        self._new_dirs: list[Path] = []  # made since the last set-up or operation
        self._setup_dirs: list[Path] = []

    def new_dir(self, stem: str) -> Path:
        """A path not used before in this run. It is deleted, outside the
        timed part, once the operation that made it has been checked, or
        once the set-up that made it is replaced; a run never holds more
        than one set-up's and one operation's files."""
        self._dirs += 1
        path = self.workdir / f"{stem}-{self._dirs}"
        self._new_dirs.append(path)
        return path

    @staticmethod
    def _remove(paths) -> None:
        for path in paths:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)

    def cli(self, *argv) -> str:
        """Run one spinemetric command in-process; returns its stdout."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                code = cli.main(argv)
            else:
                _, code = self.tracer.call(f"cli.{argv[0]}", cli.main, (argv,), {})
        if code != 0:
            raise CheckFailed(f"`spinemetric {' '.join(argv)}` exited with {code}")
        return out.getvalue()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> tuple[OpResult, dict]:
        """Run the timed operation; returns its timings and the outputs to check."""
        raise NotImplementedError

    def check(self, outputs: dict) -> dict:
        """Raise CheckFailed unless the outputs are right; returns the
        recordable part of the result."""
        raise NotImplementedError

    def compare(self, got: dict) -> None:
        """Raise CheckFailed unless ``got`` matches the reference."""
        raise NotImplementedError

    def run_setup(self) -> float:
        """Set up afresh, after deleting an earlier set-up's files; returns
        the seconds ``setup()`` took."""
        self._remove(self._setup_dirs)
        t0 = time.perf_counter()
        self.setup()
        seconds = time.perf_counter() - t0
        self._setup_dirs, self._new_dirs = self._new_dirs, []
        return seconds

    def run_op(self) -> OpResult:
        try:
            result, outputs = self.op()
            self.recorded = self.check(outputs)
            if self.reference is not None:
                self.compare(self.recorded)
        finally:
            self._remove(self._new_dirs)
            self._new_dirs = []
        return result

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# --- tiny-pipeline -----------------------------------------------------------


class TinyPipeline(Workload):
    """``spinemetric train`` in-process: tiny preset, three stages."""

    name = "tiny-pipeline"
    sizes = {
        "default": {"scale": PAPER_600, "epochs": (2, 2, 2), "folds": 1},
        "smallest": {"scale": 0.1, "epochs": (1, 1, 1), "folds": 1},
    }
    # Network rows per training sample per epoch: contrastive pairs, grading
    # quadruplets, single-row cross-entropy.
    ROWS_PER_SAMPLE = {"LabelPretrain": 2, "RepresentationLearn": 4, "FractureTrain": 1}

    def setup(self):
        self.dataset = self.new_dir("dataset")
        self.cli("gen", "--scale", self.params["scale"], "--seed", self.seed, "--out", self.dataset)

    def op(self):
        out = self.new_dir("train")
        folds = self.params["folds"]
        t0 = time.perf_counter()
        self.cli(
            "train", "--dataset", self.dataset, "--network", "tiny",
            "--stages", "label,grading,fracture",
            "--epochs", ",".join(map(str, self.params["epochs"])),
            "--folds", folds, "--seed", self.seed, "--jobs", 1, "--out", out,
        )
        seconds = time.perf_counter() - t0

        fold_docs = json.loads((out / "folds.json").read_text())["folds"]
        rows, train_s = 0, 0.0
        outputs = {"folds": []}
        for fold in fold_docs:
            fold_dir = out / f"fold_{fold['fold_id']:02d}"
            records = json.loads((fold_dir / "records.json").read_text())
            metrics = json.loads((fold_dir / "metrics.json").read_text())
            for stage in records["stages"]:
                rows += self.ROWS_PER_SAMPLE[stage["stage"]] * len(fold["train_ids"]) * len(stage["epoch_losses"])
                train_s += stage["seconds"]
            outputs["folds"].append((fold, records, metrics))
        result = OpResult(seconds / folds, rows, train_s, (t0, t0 + seconds))
        result.detail = {"fold_s": seconds / folds, "train_rows_per_s": rows / train_s}
        return result, outputs

    def check(self, outputs):
        losses = []
        for fold, records, metrics in outputs["folds"]:
            curve = [v for stage in records["stages"] for v in stage["epoch_losses"]]
            if len(curve) != sum(self.params["epochs"]) or not np.all(np.isfinite(curve)):
                raise CheckFailed(f"fold {fold['fold_id']}: bad loss trajectory {curve}")
            counts = [metrics[k] for k in ("tp", "fp", "tn", "fn")]
            if sum(counts) != len(fold["test_ids"]):
                raise CheckFailed(f"fold {fold['fold_id']}: confusion {counts} does not sum to the test split")
            losses.append(curve)
        return {"epoch_losses": losses}

    def compare(self, got):
        want = self.reference["epoch_losses"]
        if len(want) != len(got["epoch_losses"]) or not all(
            len(w) == len(g) and np.allclose(g, w, rtol=LOSS_RTOL, atol=LOSS_ATOL)
            for w, g in zip(want, got["epoch_losses"])
        ):
            raise CheckFailed(f"loss trajectory {got['epoch_losses']} differs from recorded {want}")


# --- full-grading --------------------------------------------------------------


class FullGrading(Workload):
    """Library calls: the ``full`` preset, one grading stage at 112 px, then
    eval-mode embeddings of held-out patches."""

    name = "full-grading"
    # ``train`` samples give ``train`` quadruplets; at 8 quadruplets (32
    # rows) per step that is ``train / 8`` steps.
    sizes = {
        "default": {"train": 8, "held_out": 8},
        "smallest": {"train": 6, "held_out": 2},
    }
    QUADRUPLETS_PER_STEP = 8

    def _patches(self, grades, first_id, rng):
        config = phantom.PhantomConfig(seed=self.seed)
        return [
            phantom.generate_patch(config, g, RegionLabel(int(rng.integers(len(REGIONS)))), first_id + i)
            for i, g in enumerate(grades)
        ]

    def setup(self):
        rng = np.random.default_rng([self.seed, 7])
        # Grades cycle so every grade has the two members anchors need.
        cycle = (GradeLabel.G0, GradeLabel.G2, GradeLabel.G3)
        grades = [cycle[i % 3] for i in rng.permutation(self.params["train"])]
        self.train = self._patches(grades, 0, rng)
        held = [GRADES[int(rng.integers(len(GRADES)))] for _ in range(self.params["held_out"])]
        self.held_out = self._patches(held, len(self.train), rng)
        self.network = cli.NETWORK_PRESETS["full"]
        self.config = pipeline.PipelineConfig(network=self.network, seed=self.seed)
        # Warm-up: first-touch allocation of the full-size activations.
        warm = backbone_model.init_model(self.network, seed=self.seed)
        evaluation.embed_samples(warm, self.held_out[:2])

    def op(self):
        plan = pipeline.StagePlan(
            pipeline.STAGE_REPRESENTATION, "grading", epochs=1, batch_size=self.QUADRUPLETS_PER_STEP
        )
        t0 = time.perf_counter()
        net = backbone_model.init_model(self.network, seed=self.seed)
        record = pipeline.run_stage(net, plan, self.train, seed=self.seed, config=self.config)
        net.mode = "eval"
        t1 = time.perf_counter()
        emb = evaluation.embed_samples(net, self.held_out)
        t2 = time.perf_counter()
        rows = 4 * len(self.train)
        result = OpResult(t2 - t0, rows, record.seconds, (t0, t2))
        result.detail = {
            "train_rows_per_s": rows / record.seconds,
            "eval_rows_per_s": len(self.held_out) / (t2 - t1),
        }
        return result, {"record": record, "embeddings": emb}

    def check(self, outputs):
        loss = outputs["record"].epoch_losses[-1]
        emb = outputs["embeddings"]
        if not np.isfinite(loss):
            raise CheckFailed(f"grading loss {loss} is not finite")
        if emb.shape != (len(self.held_out), self.network.embedding_dim) or not np.all(np.isfinite(emb)):
            raise CheckFailed(f"embeddings of shape {emb.shape} are not all finite")
        return {"loss": float(loss)}

    def compare(self, got):
        want = self.reference["loss"]
        if not np.isclose(got["loss"], want, rtol=LOSS_RTOL, atol=LOSS_ATOL):
            raise CheckFailed(f"grading loss {got['loss']} differs from recorded {want}")


# --- probe-eval ------------------------------------------------------------------


class ProbeEval(Workload):
    """``spinemetric eval --protocol probe`` in-process on a ``reduced``
    checkpoint that set-up trains briefly."""

    name = "probe-eval"
    sizes = {
        "default": {"scale": PAPER_600, "folds": 1, "probe_steps": 100_000, "train": 96},
        "smallest": {"scale": 0.1, "folds": 1, "probe_steps": 20_000, "train": 12},
    }

    def setup(self):
        self.dataset = self.new_dir("dataset")
        config = phantom.PhantomConfig(seed=self.seed)
        counts = phantom.counts_at_ratio(phantom.PAPER_GRADE_TOTALS, scale=self.params["scale"])
        self.samples, manifest = phantom.generate_dataset(config, counts, seed=self.seed)
        phantom.save_dataset(self.samples, manifest, self.dataset)

        network = cli.NETWORK_PRESETS["reduced"]
        net = backbone_model.init_model(network, seed=self.seed)
        # An equal share of each grade, so every quadruplet slot can be mined.
        rng = np.random.default_rng([self.seed, 11])
        per_grade = self.params["train"] // len(GRADES)
        subset = sorted(
            i
            for g in GRADES
            for i in rng.permutation([j for j, s in enumerate(self.samples) if s.grade == g])[:per_grade]
        )
        plan = pipeline.StagePlan(pipeline.STAGE_REPRESENTATION, "grading", epochs=1)
        pipeline.run_stage(
            net, plan, [self.samples[i] for i in subset], seed=self.seed,
            config=pipeline.PipelineConfig(network=network, seed=self.seed),
        )
        net.mode = "eval"
        self.checkpoint = self.new_dir("checkpoint").with_suffix(".gmck")
        checkpoint.save_model(net, self.checkpoint)
        # What the checkpoint must reproduce once loaded.
        self.expected_embeddings = evaluation.embed_samples(net, self.samples)
        folds = mining.make_folds(
            [s.grade for s in self.samples], n_folds=self.params["folds"], test_fraction=0.25, seed=self.seed
        )
        self.test_sizes = [len(f.test_ids) for f in folds]

    def op(self):
        out = self.new_dir("eval")
        t0 = time.perf_counter()
        self.cli(
            "eval", "--protocol", "probe", "--dataset", self.dataset,
            "--checkpoint", self.checkpoint, "--folds", self.params["folds"],
            "--probe-steps", self.params["probe_steps"], "--seed", self.seed, "--out", out,
        )
        t1 = time.perf_counter()
        net = checkpoint.load_model(self.checkpoint)
        t2 = time.perf_counter()
        emb = evaluation.embed_samples(net, self.samples)
        t3 = time.perf_counter()
        result = OpResult(t1 - t0, len(self.samples), t3 - t2, (t0, t1), (t2, t3))
        result.detail = {"probe_eval_s": t1 - t0, "eval_rows_per_s": len(self.samples) / (t3 - t2)}
        summary = json.loads((out / "metrics.json").read_text())
        return result, {"summary": summary, "embeddings": emb}

    def check(self, outputs):
        emb = outputs["embeddings"]
        if emb.shape != self.expected_embeddings.shape or not np.allclose(
            emb, self.expected_embeddings, rtol=EMBED_RTOL, atol=EMBED_ATOL
        ):
            raise CheckFailed("embeddings of the loaded checkpoint differ from the trained model's")
        folds = outputs["summary"]["folds"]
        confusion = [[f[k] for k in ("tp", "fp", "tn", "fn")] for f in folds]
        if [sum(c) for c in confusion] != self.test_sizes:
            raise CheckFailed(f"confusion counts {confusion} do not sum to the test splits {self.test_sizes}")
        return {"confusion": confusion}

    def compare(self, got):
        if got["confusion"] != self.reference["confusion"]:
            raise CheckFailed(f"probe confusion {got['confusion']} differs from recorded {self.reference['confusion']}")


# --- gen-io ------------------------------------------------------------------------


class GenIO(Workload):
    """``spinemetric gen``, ``load_dataset`` and ``spinemetric reformat``."""

    name = "gen-io"
    sizes = {
        "default": {"scale": PAPER_600, "vertebrae": 17},
        "smallest": {"scale": 0.05, "vertebrae": 5},
    }

    def setup(self):
        # The reference the operation must reproduce, built through the
        # library: tensors, manifest digest, volume and reformation.
        ref_dir = self.new_dir("reference")
        config = phantom.PhantomConfig(seed=self.seed)
        counts = phantom.counts_at_ratio(phantom.PAPER_GRADE_TOTALS, scale=self.params["scale"])
        samples, manifest = phantom.generate_dataset(config, counts, seed=self.seed)
        manifest = phantom.save_dataset(samples, manifest, ref_dir)
        self.expected_tensors = [s.to_tensor() for s in samples]
        self.expected_digest = phantom.manifest_digest(manifest)

        rng = np.random.default_rng([self.seed, 13])
        self.grades = [GRADES[int(rng.integers(len(GRADES)))] for _ in range(self.params["vertebrae"])]
        volume = phantom.generate_spine_volume(
            config, n_vertebrae=len(self.grades), curvature=0.3, grades=self.grades, seed=self.seed
        )
        self.expected_voxels = volume.voxels
        self.expected_reformation = phantom.reformat_curved(volume).image

    def op(self):
        dataset = self.new_dir("gen")
        reformat_dir = self.new_dir("reformat")
        t0 = time.perf_counter()
        printed = self.cli("gen", "--scale", self.params["scale"], "--seed", self.seed, "--out", dataset)
        samples, manifest = phantom.load_dataset(dataset / "manifest.json")
        t1 = time.perf_counter()
        self.cli(
            "reformat", "--vertebrae", len(self.grades), "--curvature", 0.3,
            "--grades", ",".join(g.name for g in self.grades),
            "--seed", self.seed, "--out", reformat_dir,
        )
        t2 = time.perf_counter()
        result = OpResult(t2 - t0, len(samples), t1 - t0, (t0, t2), (t0, t1))
        result.detail = {"gen_samples_per_s": len(samples) / (t1 - t0)}
        return result, {
            "printed_digest": printed.strip(),
            "manifest": manifest,
            "samples": samples,
            "volume": phantom.read_volume(reformat_dir / "volume.vvol"),
            "reformation": phantom.read_sample_tensor(reformat_dir / "reformation.vpat"),
        }

    def check(self, outputs):
        digest = phantom.manifest_digest(outputs["manifest"])
        if outputs["printed_digest"] != self.expected_digest or digest != self.expected_digest:
            raise CheckFailed(
                f"manifest digest {outputs['printed_digest']} (reloaded {digest}) "
                f"differs from the recorded {self.expected_digest}"
            )
        samples = outputs["samples"]
        if len(samples) != len(self.expected_tensors):
            raise CheckFailed(f"{len(samples)} samples reloaded, {len(self.expected_tensors)} generated")
        for sample, expected in zip(samples, self.expected_tensors):
            if not _bits_equal(sample.to_tensor(), expected):
                raise CheckFailed(f"sample {sample.id} reloaded differs from the generated tensor")
        if not _bits_equal(outputs["volume"].voxels, self.expected_voxels):
            raise CheckFailed("written volume differs from the generated one")
        if not _bits_equal(outputs["reformation"][0], self.expected_reformation):
            raise CheckFailed("written reformation differs from the library's")
        return {"digest": digest}

    def compare(self, got):
        if got != self.reference:
            raise CheckFailed(f"manifest digest {got['digest']} differs from recorded {self.reference['digest']}")


WORKLOADS = {cls.name: cls for cls in (TinyPipeline, FullGrading, ProbeEval, GenIO)}
