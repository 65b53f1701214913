"""Staged training: region pre-training, grade-aware representation
learning, and binary fracture fine-tuning.

Stages run strictly in the order label-pretrain -> representation-learn ->
fracture-train; a stage of 0 epochs is skipped. Each epoch draws one tuple
per training sample with its loss kind's miner in ``LOSS_TABLE`` (re-mined
from a shifted seed; a seeded shuffle for fracture training) and minimizes
the table's batched loss with Adam at ``LEARNING_RATE``; the loss margins
are the constants of ``losses``. Entering the fracture stage
swaps the embedding head for the two-logit classifier head; batch-norm
running statistics carry across stages. ``PipelineConfig`` holds what a run
varies: the network, the stage plans and the seed.
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
from .data import PatchSet, patch_set
from .evaluation import Metrics, binary_fracture_labels, evaluate_folds
from .losses import contrastive_loss, cross_entropy, grading_loss, triplet_loss
from .mining import FoldSplit, mine_pairs, mine_quadruplets, mine_triplets

STAGE_LABEL = "LabelPretrain"
STAGE_REPRESENTATION = "RepresentationLearn"
STAGE_FRACTURE = "FractureTrain"
STAGE_ORDER = (STAGE_LABEL, STAGE_REPRESENTATION, STAGE_FRACTURE)

STAGE_LOSSES = {
    STAGE_LABEL: ("contrastive",),
    STAGE_REPRESENTATION: ("contrastive", "triplet", "grading"),
    STAGE_FRACTURE: ("cross_entropy",),
}

# Seed offsets keeping per-stage mining streams disjoint.
_STAGE_SEED_OFFSET = {STAGE_LABEL: 100_000, STAGE_REPRESENTATION: 200_000, STAGE_FRACTURE: 300_000}
_HEAD_SEED_OFFSET = 400_000
LEARNING_RATE = 1e-4  # Adam's step size in every stage


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
        for name, least in (("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            # A bool trains as 1 but hashes as true; a float fails in range().
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


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
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        validate_stage_plans(self.stages)
        # A bool would hash as true; NumPy would refuse a float or negative seed only once a fold starts.
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative int, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "learning_rate": LEARNING_RATE}  # under its old field's key

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def _split(mined):
    """A miner's (T, W + 1) array as its (T, W) member rows and its last column."""
    return mined[:, :-1], mined[:, -1]


def _shuffled(targets, count, seed):
    """Every row once, as one-member tuples in a seeded order, and its target."""
    order = np.random.default_rng([seed]).permutation(count)
    return order[:, None], targets[order]


# Per loss kind, its miner, (targets, count, seed) -> ((T, W) rows into the
# stacked split, the loss's (T,) per-tuple argument or None), and its batched
# loss, (W member arrays, per-tuple argument) -> LossValue. Each entry looks
# its miner and loss up by name when called, so a rebound name reaches it.
LOSS_TABLE = {
    "contrastive": (lambda t, n, s: _split(mine_pairs(t, n, s)), lambda m, a: contrastive_loss(*m, a)),
    "triplet": (lambda t, n, s: (mine_triplets(t, n, s), None), lambda m, a: triplet_loss(*m)),
    "grading": (lambda t, n, s: _split(mine_quadruplets(t, n, s)), lambda m, a: grading_loss(*m, a)),
    "cross_entropy": (_shuffled, lambda m, a: cross_entropy(*m, a)),
}


def _metric_batch_loss(emb, per_tuple, loss_kind):
    """Mean loss over a batch of T tuples and d(mean)/d(emb).

    ``emb`` is (T, W, D): the network outputs of each tuple's W members
    (one row of logits for cross-entropy); ``per_tuple`` is the loss's
    (T,) per-tuple argument, None for triplets.
    """
    lv = LOSS_TABLE[loss_kind][1]([emb[:, j] for j in range(emb.shape[1])], per_tuple)
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

    No stage reads ``config``; it is kept for callers that pass it.
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
    opt = adam_init(model, learning_rate=LEARNING_RATE)
    for epoch in range(plan.epochs):
        rows, per_tuple = LOSS_TABLE[plan.loss_kind][0](targets, len(data), base_seed + epoch)
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
            model.backward(d_out)
            adam_step(model, opt)
            losses.append((mean_loss, len(batch)))
            record.rows_forwarded += len(distinct)
        record.epoch_losses.append(
            float(sum(l * n for l, n in losses) / sum(n for _, n in losses))
        )

    record.seconds = time.perf_counter() - started
    return record


def model_seed_for_fold(config: PipelineConfig, fold_id: int) -> int:
    return config.seed + 1009 * fold_id


def run_pipeline(config: PipelineConfig, data: PatchSet, fold: FoldSplit, checkpoint_dir=None):
    """Run the stages on the fold's training split of ``data``, skipping any
    of 0 epochs, then score the test split (see evaluate_folds). With
    ``checkpoint_dir`` set, a checkpoint is written after every stage
    (recorded on its RunRecord). Returns (model, Metrics, [RunRecord]).
    """
    from pathlib import Path

    from .backbone.checkpoint import save_model

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


def score_fold(model, data: PatchSet, fold) -> Metrics:
    """Metrics of a trained model on the fold's test split of ``data`` (see evaluate_folds)."""
    return evaluate_folds([model], data, [fold]).folds[0]
