"""Procedural vertebra phantoms: patches, spine volumes, reformation, IO."""

from .formats import (
    load_dataset,
    manifest_digest,
    read_sample_tensor,
    read_volume,
    save_dataset,
    stream_dataset,
    write_sample_tensor,
    write_volume,
)
from .patches import (
    PATCH_SIZE,
    PAPER_GRADE_TOTALS,
    PatchSample,
    PhantomConfig,
    counts_at_ratio,
    generate_dataset,
    generate_patch,
)
from .reformation import Reformation, extract_patch, reformat_curved
from .volume import MAX_CURVATURE, SPINE_NAMES, SpineVolume, generate_spine_volume, region_of_vertebra

__all__ = [
    "MAX_CURVATURE",
    "PATCH_SIZE",
    "PAPER_GRADE_TOTALS",
    "PatchSample",
    "PhantomConfig",
    "Reformation",
    "SPINE_NAMES",
    "SpineVolume",
    "counts_at_ratio",
    "extract_patch",
    "generate_dataset",
    "generate_patch",
    "generate_spine_volume",
    "load_dataset",
    "manifest_digest",
    "read_sample_tensor",
    "read_volume",
    "reformat_curved",
    "region_of_vertebra",
    "save_dataset",
    "stream_dataset",
    "write_sample_tensor",
    "write_volume",
]
