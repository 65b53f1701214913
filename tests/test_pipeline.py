import functools
import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from spinemetric import pipeline
from spinemetric.backbone import (
    HEAD_CLASSIFIER,
    HEAD_EMBEDDING,
    NetworkConfig,
    adam_step,
    init_model,
    load_model,
    save_model,
)
from spinemetric.data import patch_set
from spinemetric.losses import LossValue
from spinemetric.mining import GradeLabel, RegionLabel, make_folds, mine_pairs, mine_quadruplets
from spinemetric.phantom import PhantomConfig, generate_dataset
from spinemetric.pipeline import (
    STAGE_FRACTURE,
    STAGE_LABEL,
    STAGE_LOSSES,
    STAGE_REPRESENTATION,
    PipelineConfig,
    RunRecord,
    StagePlan,
    run_pipeline,
    run_stage,
    _metric_batch_loss,
    validate_stage_plans,
)

from .oracles import (
    contrastive_loss_reference,
    cross_entropy_reference,
    grading_loss_reference,
    run_stage_reference,
    triplet_loss_reference,
)

G0, G2, G3 = GradeLabel.G0, GradeLabel.G2, GradeLabel.G3

TINY_NET = NetworkConfig(input_size=8, conv_channels=(4, 8), linear_dims=(16, 8))


def balanced_samples(per_grade=4, seed=1):
    counts = {(g, r): per_grade for g in (G0, G2, G3) for r in RegionLabel}
    samples, _ = generate_dataset(PhantomConfig(seed=seed), counts, seed=seed)
    return samples


def tiny_config(*plans, seed=3):
    return PipelineConfig(network=TINY_NET, stages=tuple(plans), seed=seed)


def param_bytes(model):
    tensors = dict(model.parameters())
    tensors.update(model.bn_stats())
    return {k: v.tobytes() for k, v in tensors.items()}


class TestStagePlans:
    def test_fracture_requires_cross_entropy(self):
        with pytest.raises(ValueError):
            StagePlan(STAGE_FRACTURE, "grading", epochs=1)

    def test_label_pretrain_rejects_grading(self):
        with pytest.raises(ValueError):
            StagePlan(STAGE_LABEL, "grading", epochs=1)

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            StagePlan("Finetune", "cross_entropy", epochs=1)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("epochs", True, "epochs must be an int, got True"),
            ("epochs", 2.0, "epochs must be an int, got 2.0"),
            ("epochs", -1, "epochs must be at least 0, got -1"),
            ("batch_size", 2.5, "batch_size must be an int, got 2.5"),
            ("batch_size", False, "batch_size must be an int, got False"),
            ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ],
    )
    def test_plan_field_refused_by_name(self, name, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StagePlan(STAGE_REPRESENTATION, "grading", **{"epochs": 1, name: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_config_seed_refused_by_name(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a nonnegative int, got {seed!r}")):
            PipelineConfig(seed=seed)

    def test_out_of_order_rejected(self):
        plans = [
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1),
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=1),
        ]
        with pytest.raises(ValueError):
            validate_stage_plans(plans)

    def test_duplicate_stage_rejected(self):
        plans = [
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=1),
            StagePlan(STAGE_REPRESENTATION, "triplet", epochs=1),
        ]
        with pytest.raises(ValueError):
            validate_stage_plans(plans)

    def test_default_config_digest_pinned(self):
        # records.json carries this digest: to_dict must not move its bytes.
        digest = hashlib.sha256(PipelineConfig().to_json().encode()).hexdigest()
        assert digest == "bcbbd25a40cb80c84a73ba42204d2f89d9299a6addf9fb47fb3371011656d207"

    def test_run_record_to_dict(self):
        record = RunRecord("FractureTrain", "cross_entropy", [0.5, 0.25], 1.5, "stage1.gmck", 96)
        assert record.to_dict() == {
            "stage": "FractureTrain",
            "loss_kind": "cross_entropy",
            "epoch_losses": [0.5, 0.25],
            "seconds": 1.5,
            "checkpoint": "stage1.gmck",
            "rows_forwarded": 96,
        }


class TestRunStage:
    def test_zero_epochs_is_noop(self):
        samples = balanced_samples()
        config = tiny_config(StagePlan(STAGE_REPRESENTATION, "grading", epochs=0))
        model = init_model(TINY_NET, seed=3)
        before = param_bytes(model)
        run_stage(model, config.stages[0], samples, seed=3, config=config)
        assert param_bytes(model) == before

    def test_grading_loss_decreases_over_training(self):
        # 60 samples (20 per grade), 200 epochs, reduced backbone
        samples = balanced_samples(per_grade=4)
        config = tiny_config(StagePlan(STAGE_REPRESENTATION, "grading", epochs=200))
        model = init_model(TINY_NET, seed=3)
        record = run_stage(model, config.stages[0], samples, seed=3, config=config)
        assert len(record.epoch_losses) == 200
        assert record.epoch_losses[-1] < record.epoch_losses[0]
        assert np.mean(record.epoch_losses[-10:]) < 0.5 * np.mean(record.epoch_losses[:10])

    def test_single_class_fracture_split_refused(self):
        counts = {(G0, r): 3 for r in RegionLabel}
        samples, _ = generate_dataset(PhantomConfig(seed=2), counts, seed=2)
        config = tiny_config(StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1))
        model = init_model(TINY_NET, seed=0)
        with pytest.raises(ValueError):
            run_stage(model, config.stages[0], samples, seed=0, config=config)

    def test_fracture_stage_swaps_head_automatically(self):
        samples = balanced_samples()
        config = tiny_config(StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1))
        model = init_model(TINY_NET, seed=0)
        assert model.head == HEAD_EMBEDDING
        run_stage(model, config.stages[0], samples, seed=0, config=config)
        assert model.head == HEAD_CLASSIFIER
        assert model._layers[-1].out_features == 2

    def test_metric_stage_requires_embedding_head(self):
        samples = balanced_samples()
        config = tiny_config(StagePlan(STAGE_REPRESENTATION, "triplet", epochs=1))
        model = init_model(TINY_NET, seed=0).swap_head(HEAD_CLASSIFIER, seed=0)
        with pytest.raises(ValueError):
            run_stage(model, config.stages[0], samples, seed=0, config=config)

    def test_empty_split_refused(self):
        config = tiny_config(StagePlan(STAGE_REPRESENTATION, "grading", epochs=1))
        with pytest.raises(ValueError):
            run_stage(init_model(TINY_NET, seed=0), config.stages[0], [], seed=0, config=config)

    def test_empty_patch_set_refused(self):
        config = tiny_config(StagePlan(STAGE_REPRESENTATION, "grading", epochs=1))
        empty = patch_set(balanced_samples(per_grade=1), TINY_NET.input_size).take([])
        with pytest.raises(ValueError, match="empty training split"):
            run_stage(init_model(TINY_NET, seed=0), config.stages[0], empty, seed=0, config=config)

    @pytest.mark.parametrize("stage, label", [(STAGE_LABEL, "region"), (STAGE_REPRESENTATION, "grade")])
    def test_metric_stage_mines_its_labels(self, monkeypatch, stage, label):
        samples = balanced_samples(per_grade=2)
        seen = []

        def recording(labels, *args, **kwargs):
            seen.append([int(v) for v in labels])
            return mine_pairs(labels, *args, **kwargs)

        monkeypatch.setattr(pipeline, "mine_pairs", recording)
        plan = StagePlan(stage, "contrastive", epochs=1)
        run_stage(init_model(TINY_NET, seed=0), plan, samples, seed=0, config=tiny_config(plan))
        assert seen == [[int(getattr(s, label)) for s in samples]]

    @pytest.mark.parametrize(
        "plan",
        [
            StagePlan(STAGE_LABEL, "contrastive", epochs=2),
            StagePlan(STAGE_REPRESENTATION, "triplet", epochs=2),
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=2),
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=2),
        ],
    )
    def test_patch_set_trains_like_sample_list(self, plan):
        samples = balanced_samples(per_grade=2)
        config = tiny_config(plan)
        runs = []
        for split in (samples, patch_set(samples, TINY_NET.input_size)):
            model = init_model(TINY_NET, seed=5)
            record = run_stage(model, plan, split, seed=5, config=config)
            runs.append((record.epoch_losses, param_bytes(model)))
        assert runs[0] == runs[1]

    def test_new_loss_table_entry_trains(self, monkeypatch):
        # A loss kind is one table entry: here a miner of one-row tuples in
        # row order and a loss pulling each embedding toward the origin.
        batches = []

        def centre_loss(members, per_tuple):
            (x,) = members
            batches.append(x.shape)
            return LossValue(total=float(np.sum(x * x)), gradients={"x": 2.0 * x})

        def rows_in_order(targets, count, seed):
            return np.arange(count)[:, None], None

        monkeypatch.setitem(pipeline.LOSS_TABLE, "centre", (rows_in_order, centre_loss))
        monkeypatch.setitem(STAGE_LOSSES, STAGE_REPRESENTATION, STAGE_LOSSES[STAGE_REPRESENTATION] + ("centre",))
        samples = balanced_samples(per_grade=2)
        plan = StagePlan(STAGE_REPRESENTATION, "centre", epochs=20, batch_size=8)
        model = init_model(TINY_NET, seed=0)
        record = run_stage(model, plan, samples, seed=0, config=tiny_config(plan))
        assert len(samples) == 30 and batches == 20 * [(8, 8), (8, 8), (8, 8), (6, 8)]
        assert record.loss_kind == "centre" and record.rows_forwarded == 20 * 30
        assert record.epoch_losses[-1] < 0.9 * record.epoch_losses[0]

    @pytest.mark.parametrize("loss_kind", STAGE_LOSSES[STAGE_LABEL])
    def test_label_pretrain_losses_run(self, loss_kind):
        samples = balanced_samples(per_grade=2)
        config = tiny_config(StagePlan(STAGE_LABEL, loss_kind, epochs=2))
        model = init_model(TINY_NET, seed=1)
        record = run_stage(model, config.stages[0], samples, seed=1, config=config)
        assert len(record.epoch_losses) == 2
        assert all(np.isfinite(v) for v in record.epoch_losses)


class TestEveryParameterTrains:
    @pytest.mark.parametrize(
        "plan",
        [
            StagePlan(STAGE_LABEL, "contrastive", epochs=1, batch_size=8),
            StagePlan(STAGE_REPRESENTATION, "triplet", epochs=1, batch_size=8),
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=1, batch_size=8),
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1, batch_size=8),
        ],
        ids=lambda p: p.loss_kind,
    )
    def test_first_step_gives_every_tensor_a_gradient(self, monkeypatch, plan):
        # A tensor whose true gradient is 0 whatever the data (a bias in front
        # of a batch norm, or one on the embedding head, which the metric
        # losses read only through differences) gets rounding noise of about
        # 1e-14 at most, which Adam would turn into steps of its own.
        steps = []

        def recording(model, opt):
            steps.append({name: float(np.max(np.abs(g))) for name, g in model.gradients().items()})
            adam_step(model, opt)

        monkeypatch.setattr(pipeline, "adam_step", recording)
        net = replace(TINY_NET, dtype="float64")
        config = PipelineConfig(network=net, stages=(plan,), seed=4)
        run_stage(init_model(net, seed=4), plan, balanced_samples(per_grade=2), seed=4, config=config)
        assert {name: g for name, g in steps[0].items() if not g > 1e-8} == {}


class TestDistinctRows:
    """A step forwards each distinct row once; the stage trains as if every
    tuple slot were its own row."""

    @pytest.mark.parametrize(
        "plan",
        [
            StagePlan(STAGE_LABEL, "contrastive", epochs=1, batch_size=8),
            StagePlan(STAGE_REPRESENTATION, "triplet", epochs=1, batch_size=8),
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=1, batch_size=8),
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1, batch_size=8),
        ],
        ids=lambda p: p.loss_kind,
    )
    def test_matches_duplicated_batch_oracle(self, monkeypatch, plan):
        # On some steps a bn2.beta channel's true gradient is 0: each of its
        # pooled features is positive in every row of the batch or in none,
        # so its shift moves fc1's output by the same amount in every row,
        # and fbn1 subtracts it. Its rounding noise of about 1e-15 becomes
        # an Adam step of about lr * noise / EPSILON, different on the two
        # sides: bn2.beta ends up to 4e-10 apart at the default lr of 1e-4,
        # and 4e-12 apart at 1e-6. Every other parameter moves by about lr
        # per step, so 1e-10 still resolves it.
        monkeypatch.setattr(pipeline, "LEARNING_RATE", 1e-6)
        net = replace(TINY_NET, dtype="float64")
        config = PipelineConfig(network=net, stages=(plan,), seed=4)
        samples = balanced_samples(per_grade=2)
        model, reference = init_model(net, seed=4), init_model(net, seed=4)
        record = run_stage(model, plan, samples, seed=4, config=config)
        want_losses = run_stage_reference(reference, plan, samples, seed=4)

        close = functools.partial(np.testing.assert_allclose, rtol=1e-10, atol=1e-10)
        close(record.epoch_losses, want_losses)
        for kind in ("parameters", "bn_stats"):
            want = getattr(reference, kind)()
            for name, got in getattr(model, kind)().items():
                close(got, want[name], err_msg=name)

    def _recorded_batches(self, monkeypatch, plan, samples):
        """Run ``plan`` on ``samples``; return its record and every step's
        tuple rows, as mined."""
        mined = []

        def recording(*args, **kwargs):
            mined.append(mine_quadruplets(*args, **kwargs))
            return mined[-1]

        monkeypatch.setattr(pipeline, "mine_quadruplets", recording)
        model = init_model(TINY_NET, seed=0)
        record = run_stage(model, plan, samples, seed=0, config=tiny_config(plan))
        batches = [
            epoch[lo : lo + plan.batch_size, :-1]
            for epoch in mined
            for lo in range(0, len(epoch), plan.batch_size)
        ]
        return record, batches

    def test_rows_forwarded_counts_distinct_rows(self, monkeypatch):
        # Two samples per grade: a quadruplet's four members always differ
        # (its anchor is the other sample of its grade), so a one-tuple step
        # forwards 4 rows, and a six-tuple step at most the 6 samples.
        samples = balanced_samples(per_grade=2)[:: len(RegionLabel)]
        assert sorted(s.grade for s in samples) == [G0, G0, G2, G2, G3, G3]
        one = StagePlan(STAGE_REPRESENTATION, "grading", epochs=2, batch_size=1)
        record, batches = self._recorded_batches(monkeypatch, one, samples)
        assert len(batches) == 12 and record.rows_forwarded == 12 * 4

        whole = StagePlan(STAGE_REPRESENTATION, "grading", epochs=2, batch_size=6)
        record, batches = self._recorded_batches(monkeypatch, whole, samples)
        assert len(batches) == 2
        by_hand = sum(len(set(batch.ravel().tolist())) for batch in batches)
        assert record.rows_forwarded == by_hand <= 2 * 6

    def test_fracture_stage_forwards_each_sample_once_per_epoch(self):
        samples = balanced_samples(per_grade=1)
        plan = StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=3, batch_size=4)
        record = run_stage(init_model(TINY_NET, seed=0), plan, samples, seed=0, config=tiny_config(plan))
        assert record.rows_forwarded == 3 * len(samples)


class TestMetricBatchLoss:
    """One batched loss call per step equals the mean of the per-tuple
    oracle losses, with each tuple's gradients divided by the batch size."""

    T = 12
    # Per loss kind: its tuple width, per-tuple argument and per-tuple oracle
    # (one tuple's members and argument -> LossValue), and the gradient keys.
    CASES = {
        "contrastive": (2, [True, False, False] * 4, lambda e, s: contrastive_loss_reference(*e, bool(s)), ("a", "b")),
        "triplet": (3, None, lambda e, _: triplet_loss_reference(*e), ("anchor", "positive", "negative")),
        "grading": (4, [0, 2, 3] * 4, lambda e, c: grading_loss_reference(*e, int(c)), ("g0", "g2", "g3", "anchor")),
        "cross_entropy": (1, [0, 1, 1] * 4, lambda e, y: cross_entropy_reference(e[0], int(y)), ("logits",)),
    }

    @pytest.mark.parametrize("loss_kind", list(pipeline.LOSS_TABLE))
    def test_equals_mean_of_oracle(self, loss_kind):
        # A table entry with no case here fails.
        width, per_tuple, oracle, keys = self.CASES[loss_kind]
        dim = 2 if loss_kind == "cross_entropy" else 8
        emb = np.random.default_rng(31).normal(size=(self.T, width, dim)) * 0.5
        per_tuple = None if per_tuple is None else np.array(per_tuple)
        mean, upstream = _metric_batch_loss(emb, per_tuple, loss_kind)
        per_row = [oracle(e, None if per_tuple is None else per_tuple[t]) for t, e in enumerate(emb)]
        assert mean == pytest.approx(np.mean([lv.total for lv in per_row]), rel=1e-12, abs=1e-12)
        want = np.stack([[lv.gradients[k] for k in keys] for lv in per_row]) / self.T
        assert upstream.dtype == np.float64 and upstream.shape == emb.shape
        np.testing.assert_allclose(upstream, want, rtol=1e-12, atol=1e-12)


class TestCheckpointContinuity:
    def test_stage_boundary_round_trip_is_bit_exact(self, tmp_path):
        samples = balanced_samples()
        stage1 = StagePlan(STAGE_REPRESENTATION, "grading", epochs=2)
        stage2 = StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=2)
        config = tiny_config(stage1, stage2)

        model_a = init_model(TINY_NET, seed=3)
        run_stage(model_a, stage1, samples, seed=3, config=config)
        save_model(model_a, tmp_path / "stage1.gmck")
        run_stage(model_a, stage2, samples, seed=3, config=config)

        model_b = load_model(tmp_path / "stage1.gmck")
        run_stage(model_b, stage2, samples, seed=3, config=config)

        assert param_bytes(model_a) == param_bytes(model_b)


class TestRunPipeline:
    def test_naive_classification_configuration(self):
        samples = balanced_samples()
        config = tiny_config(StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=2))
        folds = make_folds([s.grade for s in samples], 1, 0.3, seed=4)
        model, metrics, records = run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
        assert model.head == HEAD_CLASSIFIER
        assert len(records) == 1
        assert records[0].stage == STAGE_FRACTURE
        assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == len(folds[0].test_ids)

    def test_full_three_stage_pipeline(self):
        samples = balanced_samples()
        config = tiny_config(
            StagePlan(STAGE_LABEL, "contrastive", epochs=1),
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=1),
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1),
        )
        folds = make_folds([s.grade for s in samples], 1, 0.3, seed=4)
        model, metrics, records = run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
        assert [r.stage for r in records] == [STAGE_LABEL, STAGE_REPRESENTATION, STAGE_FRACTURE]
        assert model.head == HEAD_CLASSIFIER

    def test_probe_scoring_when_no_fracture_stage(self):
        samples = balanced_samples()
        config = tiny_config(StagePlan(STAGE_REPRESENTATION, "grading", epochs=1))
        folds = make_folds([s.grade for s in samples], 1, 0.3, seed=4)
        model, metrics, _ = run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
        assert model.head == HEAD_EMBEDDING
        assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == len(folds[0].test_ids)

    def test_disabled_stage_skipped(self):
        samples = balanced_samples()
        config = tiny_config(
            StagePlan(STAGE_REPRESENTATION, "grading", epochs=0),
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1),
        )
        folds = make_folds([s.grade for s in samples], 1, 0.3, seed=4)
        _, _, records = run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
        assert [r.stage for r in records] == [STAGE_FRACTURE]

    def test_determinism_of_metrics(self):
        samples = balanced_samples()
        config = tiny_config(
            StagePlan(STAGE_REPRESENTATION, "triplet", epochs=1),
            StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1),
        )
        folds = make_folds([s.grade for s in samples], 1, 0.3, seed=4)
        import json

        _, m1, _ = run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
        _, m2, _ = run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
        assert json.dumps(m1.to_dict(), sort_keys=True) == json.dumps(m2.to_dict(), sort_keys=True)

    def test_fold_must_cover_dataset(self):
        samples = balanced_samples()
        config = tiny_config(StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=1))
        folds = make_folds([s.grade for s in samples[:-2]], 1, 0.3, seed=4)
        with pytest.raises(ValueError):
            run_pipeline(config, patch_set(samples, TINY_NET.input_size), folds[0])
