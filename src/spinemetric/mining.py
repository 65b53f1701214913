"""Seeded construction of training tuples and stratified dataset splits.

Everything here is a pure function of (labels, parameters, seed): two calls
with the same arguments return identical results. Randomness comes from
``numpy.random.default_rng`` seeded with explicit integer sequences so that
folds and epochs can be reproduced independently of call order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .atomic import canonical_json


class GradeLabel(IntEnum):
    """Fracture severity class: healthy, moderate, severe."""

    G0 = 0
    G2 = 2
    G3 = 3


class RegionLabel(IntEnum):
    """Spine region groups ordered cranio-caudally."""

    T1_T5 = 0
    T6_T9 = 1
    T10_T12 = 2
    L1_L4 = 3
    L5 = 4


GRADES = (GradeLabel.G0, GradeLabel.G2, GradeLabel.G3)
REGIONS = tuple(RegionLabel)


@dataclass(frozen=True)
class FoldSplit:
    fold_id: int
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    seed: int


def _grade_indices(labels):
    labels = [GradeLabel(l) for l in labels]
    by_grade = {g: [] for g in GRADES}
    for i, l in enumerate(labels):
        by_grade[l].append(i)
    return by_grade


def make_folds(labels, n_folds: int, test_fraction: float, seed: int) -> list[FoldSplit]:
    """Draw ``n_folds`` independent stratified train/test splits.

    Each fold is reproducible from (seed, fold_id) alone. Per grade, the
    test set receives round(count * test_fraction) samples, which keeps
    every grade's test share within one sample of the global proportion.
    """
    if n_folds < 1:
        raise ValueError("n_folds must be >= 1")
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie in (0, 1)")
    by_grade = _grade_indices(labels)
    n_test = {g: int(np.floor(len(idxs) * test_fraction + 0.5)) for g, idxs in by_grade.items()}
    for g, idxs in by_grade.items():
        if not idxs:
            raise ValueError(f"grade {g.name} has no samples")
        if n_test[g] == 0 or n_test[g] == len(idxs):
            raise ValueError(
                f"test_fraction {test_fraction} leaves grade {g.name} empty "
                f"in test or train"
            )

    folds = []
    for fold_id in range(n_folds):
        rng = np.random.default_rng([seed, fold_id])
        train, test = [], []
        for g in GRADES:
            idxs = np.array(by_grade[g])
            perm = rng.permutation(len(idxs))
            test.extend(idxs[perm[: n_test[g]]].tolist())
            train.extend(idxs[perm[n_test[g] :]].tolist())
        folds.append(
            FoldSplit(
                fold_id=fold_id,
                train_ids=tuple(sorted(train)),
                test_ids=tuple(sorted(test)),
                seed=seed,
            )
        )
    return folds


def folds_to_json(folds) -> str:
    doc = {
        "seed": folds[0].seed if folds else None,
        "folds": [
            {
                "fold_id": f.fold_id,
                "train_ids": list(f.train_ids),
                "test_ids": list(f.test_ids),
            }
            for f in folds
        ],
    }
    return canonical_json(doc)


def folds_from_json(text: str, n_samples: int | None = None) -> list[FoldSplit]:
    """Parse a folds_to_json document. Raises ValueError if it is not one,
    if a fold id repeats, or if a fold's sample ids are not ints in
    [0, n_samples) (n_samples unbounded if not given), repeat, or appear in
    both train and test."""
    try:
        doc = json.loads(text)
        folds = [
            FoldSplit(
                fold_id=f["fold_id"],
                train_ids=tuple(f["train_ids"]),
                test_ids=tuple(f["test_ids"]),
                seed=doc["seed"],
            )
            for f in doc["folds"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a folds document ({type(exc).__name__}: {exc})") from None
    if not folds:
        raise ValueError("no folds")
    for f in folds:
        ids = f.train_ids + f.test_ids
        if not all(type(i) is int and i >= 0 for i in (f.fold_id,) + ids):
            raise ValueError(f"fold {f.fold_id!r}: fold and sample ids must be nonnegative ints")
        if sum(g.fold_id == f.fold_id for g in folds) > 1:
            raise ValueError(f"fold {f.fold_id}: the fold id is repeated")
        if n_samples is not None and ids and max(ids) >= n_samples:
            raise ValueError(f"fold {f.fold_id}: sample id {max(ids)} is out of range for {n_samples} samples")
        if len(set(f.train_ids)) < len(f.train_ids) or len(set(f.test_ids)) < len(f.test_ids):
            raise ValueError(f"fold {f.fold_id}: a sample id is repeated")
        if set(f.train_ids) & set(f.test_ids):
            raise ValueError(f"fold {f.fold_id}: a sample id is in both train and test")
    return folds


def mine_quadruplets(labels, count: int, seed: int) -> np.ndarray:
    """Sample ``count`` quadruplets: one static member per grade plus an anchor.

    Returns a (count, 5) intp array with columns (g0, g2, g3, anchor,
    anchor_class). Static slots are drawn uniformly within their grade. The
    anchor class is drawn uniformly from {0, 2, 3}, then the anchor
    uniformly from that grade excluding the static slot (no self-pairing).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    by_grade = _grade_indices(labels)
    for g, idxs in by_grade.items():
        if not idxs:
            raise ValueError(f"grade {g.name} has no samples")
    if max(len(v) for v in by_grade.values()) < 2:
        raise ValueError("need at least one grade with >= 2 samples for anchors")

    pools = {int(g): np.array(by_grade[g]) for g in GRADES}
    rng = np.random.default_rng([seed])
    out = np.empty((count, 5), dtype=np.intp)
    for t in range(count):
        statics = [int(pool[rng.integers(len(pool))]) for pool in pools.values()]
        n = int(rng.choice([0, 2, 3]))
        pool = pools[n]
        if len(pool) < 2:
            raise ValueError(
                f"anchor class {n} has a single sample occupying the static slot"
            )
        anchor = static = statics[GRADES.index(n)]
        while anchor == static:
            anchor = int(pool[rng.integers(len(pool))])
        out[t] = statics + [anchor, n]
    return out


def _class_pools(labels):
    """Per class label, its members' indices and every other index, both in
    index order; and the sorted classes that hold at least two members."""
    by_class: dict = {}
    for i, l in enumerate(labels):
        by_class.setdefault(l, []).append(i)
    everyone = np.arange(len(labels))
    pools = {c: (m, np.delete(everyone, m).tolist()) for c, m in by_class.items()}
    return pools, sorted(c for c, m in by_class.items() if len(m) >= 2)


def mine_triplets(labels, count: int, seed: int) -> np.ndarray:
    """Sample ``count`` index triplets from class labels, as a (count, 3)
    intp array with columns (anchor, positive, negative)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    labels = list(labels)
    pools, rich = _class_pools(labels)
    if not rich:
        raise ValueError("no class has >= 2 samples; no positive pair exists")
    if len(pools) < 2:
        raise ValueError("need at least two classes for negatives")

    rng = np.random.default_rng([seed])
    out = np.empty((count, 3), dtype=np.intp)
    for t in range(count):
        pool, neg_pool = pools[rich[int(rng.integers(len(rich)))]]
        a_pos = rng.choice(len(pool), size=2, replace=False)
        out[t] = pool[a_pos[0]], pool[a_pos[1]], neg_pool[rng.integers(len(neg_pool))]
    return out


def mine_pairs(labels, count: int, similar_fraction: float, seed: int) -> np.ndarray:
    """Sample ``count`` pairs with an exact similar share, as a (count, 3)
    intp array with columns (i, j, similar), ``similar`` being 1 or 0.

    Exactly round(count * similar_fraction) pairs share a class; the rest
    cross classes. Pair order is shuffled deterministically.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not (0.0 <= similar_fraction <= 1.0):
        raise ValueError("similar_fraction must lie in [0, 1]")
    labels = list(labels)
    pools, rich = _class_pools(labels)
    if not rich:
        raise ValueError("no class has >= 2 samples; no similar pair exists")
    if len(pools) < 2:
        raise ValueError("need at least two classes for dissimilar pairs")

    rng = np.random.default_rng([seed])
    n_similar = int(np.floor(count * similar_fraction + 0.5))
    pairs = np.zeros((count, 3), dtype=np.intp)
    pairs[:n_similar, 2] = 1
    for t in range(n_similar):
        pool = pools[rich[int(rng.integers(len(rich)))]][0]
        ij = rng.choice(len(pool), size=2, replace=False)
        pairs[t, :2] = pool[ij[0]], pool[ij[1]]
    for t in range(n_similar, count):
        i = int(rng.integers(len(labels)))
        other = pools[labels[i]][1]
        pairs[t, :2] = i, other[rng.integers(len(other))]
    return pairs[rng.permutation(count)]
