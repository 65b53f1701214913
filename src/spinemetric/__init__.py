"""spinemetric: grade-aware metric learning for vertebral fracture
detection, validated on procedural vertebra phantoms.

The package provides the ranked quadruplet "grading" loss and baseline
metric losses with exact gradients, seeded tuple mining and stratified
folds, a from-scratch convolutional backbone with head swapping, phantom
patch/volume generators with curved-planar reformation, the staged
pre-train -> fine-tune pipeline, and a linear-probe evaluation harness.
"""

from .losses import (
    LossValue,
    contrastive_loss,
    cross_entropy,
    grading_loss,
    sq_dist,
    triplet_loss,
)
from .mining import (
    FoldSplit,
    GradeLabel,
    RegionLabel,
    make_folds,
    mine_pairs,
    mine_quadruplets,
    mine_triplets,
)

__version__ = "0.1.0"

__all__ = [
    "FoldSplit",
    "GradeLabel",
    "LossValue",
    "RegionLabel",
    "contrastive_loss",
    "cross_entropy",
    "grading_loss",
    "make_folds",
    "mine_pairs",
    "mine_quadruplets",
    "mine_triplets",
    "sq_dist",
    "triplet_loss",
]
