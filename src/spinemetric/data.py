"""The in-memory patch set shared by training and evaluation.

A run reads its ``PatchSample`` list from disk once, converts it once with
``patch_set`` to a ``PatchSet`` at the network's input size, and from then
on only indexes rows of that set: folds, stage splits, mined tuples and
scoring batches are all row indices into one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantom.patches import PATCH_SIZE

# Samples converted per step of stack_samples: bounds the full-resolution
# temporary to 64 patches whatever the split size.
_STACK_CHUNK = 64


def block_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """Downsample (N, C, H, W) by integer-factor area averaging."""
    n, c, h, w = x.shape
    if h % factor or w % factor:
        raise ValueError(f"spatial size ({h},{w}) not divisible by {factor}")
    return x.reshape(n, c, h // factor, factor, w // factor, factor).mean(axis=(3, 5))


def stack_samples(samples, input_size: int = PATCH_SIZE) -> np.ndarray:
    """Stack PatchSamples into one float32 (N, 2, s, s) array, downsampling
    if the model takes smaller inputs than the native patch size.

    The array is filled 64 samples at a time, so a full-resolution copy of
    the whole set never exists at once. Each row depends on its own sample
    only: stacking a subset gives the same bits as indexing the full stack.
    """
    if len(samples) == 0:
        raise ValueError("no samples to stack")
    native = samples[0].image.shape[-1]
    if native % input_size != 0:
        raise ValueError(
            f"cannot resize {native} px patches to {input_size} px (non-integer factor)"
        )
    out = np.empty((len(samples), 2, input_size, input_size), dtype=np.float32)
    for lo in range(0, len(samples), _STACK_CHUNK):
        chunk = np.stack([s.to_tensor() for s in samples[lo : lo + _STACK_CHUNK]])
        out[lo : lo + len(chunk)] = block_mean(chunk, native // input_size)
    return out


@dataclass(frozen=True, eq=False)
class PatchSet:
    """Network-ready patches: float32 (N, 2, s, s) images with their (N,)
    grade and region labels, row for row."""

    images: np.ndarray
    grades: np.ndarray
    regions: np.ndarray

    def __len__(self) -> int:
        return len(self.images)

    def take(self, rows) -> "PatchSet":
        """The subset at the given row indices, in their order."""
        rows = np.asarray(rows, dtype=np.intp)
        return PatchSet(self.images[rows], self.grades[rows], self.regions[rows])


def patch_set(samples, input_size: int) -> PatchSet:
    """A PatchSet at ``input_size`` px from a PatchSample list, stacked once;
    a PatchSet at that size is returned as it is."""
    if isinstance(samples, PatchSet):
        if samples.images.shape[-1] != input_size:
            raise ValueError(
                f"patch set holds {samples.images.shape[-1]} px images, not {input_size} px"
            )
        return samples
    return PatchSet(
        stack_samples(samples, input_size),
        np.array([int(s.grade) for s in samples]),
        np.array([int(s.region) for s in samples]),
    )
