"""Staged training: region pre-training, grade-aware representation
learning, and binary fracture fine-tuning.

Stages run strictly in the order label-pretrain -> representation-learn ->
fracture-train; a stage of 0 epochs is skipped. Metric stages mine one
tuple per training sample per epoch (re-mined each epoch from a shifted
seed) and minimize their plan's loss with Adam; the loss margins are the
constants of ``losses``. Entering the fracture stage swaps the embedding
head for the two-logit classifier head; batch-norm running statistics carry
across stages. ``PipelineConfig`` holds what a run varies: the network, the
stage plans, the learning rate and the seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .atomic import canonical_json
from .backbone.model import (
    HEAD_CLASSIFIER,
    HEAD_EMBEDDING,
    NetworkConfig,
    PatchEncoder,
    init_model,
)
from .backbone.optim import adam_init, adam_step
from .data import patch_set
from .evaluation import Metrics, binary_fracture_labels, evaluate_folds
from .losses import contrastive_loss, cross_entropy, grading_loss, triplet_loss
from .mining import FoldSplit, mine_pairs, mine_quadruplets, mine_triplets

STAGE_LABEL = "LabelPretrain"
STAGE_REPRESENTATION = "RepresentationLearn"
STAGE_FRACTURE = "FractureTrain"
STAGE_ORDER = (STAGE_LABEL, STAGE_REPRESENTATION, STAGE_FRACTURE)

STAGE_LOSSES = {
    STAGE_LABEL: ("contrastive", "triplet"),
    STAGE_REPRESENTATION: ("contrastive", "triplet", "grading"),
    STAGE_FRACTURE: ("cross_entropy",),
}

# Seed offsets keeping per-stage mining streams disjoint.
_STAGE_SEED_OFFSET = {STAGE_LABEL: 100_000, STAGE_REPRESENTATION: 200_000, STAGE_FRACTURE: 300_000}
_HEAD_SEED_OFFSET = 400_000


@dataclass(frozen=True)
class StagePlan:
    stage: str
    loss_kind: str
    epochs: int
    batch_size: int = 32

    def __post_init__(self):
        if self.stage not in STAGE_ORDER:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.loss_kind not in STAGE_LOSSES[self.stage]:
            raise ValueError(
                f"stage {self.stage} cannot use loss {self.loss_kind!r}; "
                f"allowed: {STAGE_LOSSES[self.stage]}"
            )
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


def validate_stage_plans(plans) -> None:
    """Reject out-of-order or duplicated stages."""
    order = [STAGE_ORDER.index(p.stage) for p in plans]
    if sorted(order) != order or len(set(order)) != len(order):
        raise ValueError(f"stages must appear once each, in the order {STAGE_ORDER}")


@dataclass
class RunRecord:
    stage: str
    loss_kind: str
    epoch_losses: list = field(default_factory=list)
    seconds: float = 0.0
    checkpoint: str | None = None
    rows_forwarded: int = 0  # distinct rows, summed over the training steps

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineConfig:
    network: NetworkConfig = NetworkConfig()
    stages: tuple = (
        StagePlan(STAGE_LABEL, "contrastive", epochs=30),
        StagePlan(STAGE_REPRESENTATION, "grading", epochs=30),
        StagePlan(STAGE_FRACTURE, "cross_entropy", epochs=40),
    )
    learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        validate_stage_plans(self.stages)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d) -> "PipelineConfig":
        d = dict(d)
        if "network" in d:
            d["network"] = NetworkConfig.from_dict(d["network"])
        if "stages" in d:
            d["stages"] = tuple(StagePlan(**p) for p in d["stages"])
        return cls(**d)


def _epoch_tuples(plan, targets, count, seed):
    """One epoch's tuples: (T, W) row indices into the stacked split, and
    the loss's per-tuple argument (anchor class, similar flag or label;
    None for triplets)."""
    if plan.stage == STAGE_FRACTURE:
        order = np.random.default_rng([seed]).permutation(count)
        return order[:, None], targets[order]
    if plan.loss_kind == "triplet":
        return mine_triplets(targets, count, seed), None
    if plan.loss_kind == "grading":
        mined = mine_quadruplets(targets, count, seed)
    else:
        mined = mine_pairs(targets, count, seed)
    return mined[:, :-1], mined[:, -1]


def _metric_batch_loss(emb, per_tuple, loss_kind):
    """Mean loss over a batch of T tuples and d(mean)/d(emb).

    ``emb`` is (T, W, D): the network outputs of each tuple's W members
    (one row of logits for cross-entropy); ``per_tuple`` is the loss's
    (T,) per-tuple argument, None for triplets.
    """
    members = [emb[:, j] for j in range(emb.shape[1])]
    if loss_kind == "grading":
        lv = grading_loss(*members, anchor_class=per_tuple)
    elif loss_kind == "triplet":
        lv = triplet_loss(*members)
    elif loss_kind == "contrastive":
        lv = contrastive_loss(*members, similar=per_tuple)
    else:
        lv = cross_entropy(*members, label=per_tuple)
    inv = 1.0 / len(emb)
    upstream = np.stack(list(lv.gradients.values()), axis=1) * inv
    return lv.total * inv, upstream.astype(emb.dtype, copy=False)


def _stage_targets(plan, data):
    """Per-row targets: region classes T1_T5=0 ... L5=4, grades, or fractured."""
    if plan.stage == STAGE_FRACTURE:
        return binary_fracture_labels(data.grades)
    return data.regions if plan.stage == STAGE_LABEL else data.grades


def run_stage(model: PatchEncoder, plan: StagePlan, samples, seed: int, config: PipelineConfig) -> RunRecord:
    """Train one stage in place over a training split given as a PatchSet
    or a PatchSample list.

    A list is stacked once; every epoch draws its tuples (mined for the
    metric stages, a shuffled order for fracture training) as row indices
    into the split's images and minimizes the stage's loss with Adam, one
    batch of tuples per step.

    A step forwards each distinct row of its batch once, with batch norm
    weighting it by its number of tuple slots, and sums the slots' upstream
    gradients onto it: the duplicated batch's result up to summation order.
    """
    if len(samples) == 0:
        raise ValueError("empty training split")
    data = patch_set(samples, model.config.input_size)
    started = time.perf_counter()
    record = RunRecord(stage=plan.stage, loss_kind=plan.loss_kind)

    if plan.stage == STAGE_FRACTURE:
        if model.head != HEAD_CLASSIFIER:
            model.swap_head(HEAD_CLASSIFIER, seed=seed + _HEAD_SEED_OFFSET)
    elif model.head != HEAD_EMBEDDING:
        raise ValueError(f"stage {plan.stage} requires the embedding head")
    targets = _stage_targets(plan, data)
    if plan.stage == STAGE_FRACTURE and len(np.unique(targets)) < 2:
        raise ValueError("fracture training split contains a single class")

    base_seed = seed + _STAGE_SEED_OFFSET[plan.stage]
    opt = adam_init(model, learning_rate=config.learning_rate)
    for epoch in range(plan.epochs):
        rows, per_tuple = _epoch_tuples(plan, targets, len(data), base_seed + epoch)
        losses = []
        for lo in range(0, len(rows), plan.batch_size):
            step = slice(lo, lo + plan.batch_size)
            batch = rows[step]
            distinct, slot_row, counts = np.unique(batch.ravel(), return_inverse=True, return_counts=True)
            model.set_row_counts(counts)
            out = model.forward(data.images[distinct], train=True)
            mean_loss, upstream = _metric_batch_loss(
                out[slot_row].reshape(batch.shape + (-1,)),
                None if per_tuple is None else per_tuple[step],
                plan.loss_kind,
            )
            if not np.isfinite(mean_loss):
                raise FloatingPointError(
                    f"{plan.stage} diverged at epoch {epoch} (loss={mean_loss})"
                )
            d_out = np.zeros_like(out)
            np.add.at(d_out, slot_row, upstream.reshape(len(slot_row), -1))
            model.zero_grad()
            grads = model.backward(d_out)
            adam_step(model, opt, grads)
            losses.append((mean_loss, len(batch)))
            record.rows_forwarded += len(distinct)
        record.epoch_losses.append(
            float(sum(l * n for l, n in losses) / sum(n for _, n in losses))
        )

    record.seconds = time.perf_counter() - started
    return record


def model_seed_for_fold(config: PipelineConfig, fold_id: int) -> int:
    return config.seed + 1009 * fold_id


def run_pipeline(config: PipelineConfig, samples, fold: FoldSplit, checkpoint_dir=None):
    """Run the stages on the fold's training split, skipping any of 0
    epochs, then score the test split. ``samples`` is a PatchSet or a
    PatchSample list, which is stacked once at the network's input size.

    Classifier-headed models are scored by argmax over the two logits;
    embedding-headed runs fall back to the linear-probe protocol on this
    fold. With ``checkpoint_dir`` set, a checkpoint is written after every
    stage (recorded on its RunRecord). Returns (model, Metrics, [RunRecord]).
    """
    from pathlib import Path

    from .backbone.checkpoint import save_model

    data = patch_set(samples, config.network.input_size)
    ids = set(fold.train_ids) | set(fold.test_ids)
    if ids != set(range(len(data))):
        raise ValueError("fold does not cover the dataset exactly")

    model = init_model(config.network, seed=model_seed_for_fold(config, fold.fold_id))
    train = data.take(fold.train_ids)
    records = []
    for k, plan in enumerate(config.stages, start=1):
        if plan.epochs == 0:
            continue
        record = run_stage(model, plan, train, seed=config.seed, config=config)
        if checkpoint_dir is not None:
            path = Path(checkpoint_dir) / f"stage{k}_{plan.stage}.gmck"
            save_model(model, path)
            record.checkpoint = path.name
        records.append(record)

    metrics = score_fold(model, data, fold)
    return model, metrics, records


def score_fold(model, samples, fold) -> Metrics:
    """Metrics of a trained model on the fold's test split of a PatchSet or
    a PatchSample list (see evaluate_folds)."""
    return evaluate_folds([model], samples, [fold]).folds[0]
