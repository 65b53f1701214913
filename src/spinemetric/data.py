"""The in-memory patch set shared by training and evaluation.

A run reads its ``PatchSample`` list from disk once, converts it once with
``patch_set`` to a ``PatchSet`` at the network's input size, and from then
on only indexes rows of that set: folds, stage splits, mined tuples and
scoring batches are all row indices into one array.

The conversion downsamples 112 px patches by area averaging in one fixed
float32 summation order (see ``block_mean``). It gives numpy ``mean``'s
bits for factors below 8, which covers every network preset, and stays
within a few ulp of it above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantom.patches import PATCH_SIZE

# Samples converted per step of stack_samples: the reused full-resolution
# chunk buffer (16 patches, 1.6 MB) stays in a core's L2 cache while the
# block mean makes its strided passes over it.
_STACK_CHUNK = 16


def block_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """Downsample (N, C, H, W) by integer-factor area averaging.

    Each f×f window is summed in x's dtype in one fixed order: every window
    row left to right from +0.0, then the row sums top to bottom, and the
    sum is divided by f². Below f = 8 this is the order of numpy's
    ``reshape(...).mean(axis=(3, 5))``, whose bits it matches; from f = 8
    numpy sums each row pairwise, and the results differ by a few ulp.
    """
    n, c, h, w = x.shape
    if h % factor or w % factor:
        raise ValueError(f"spatial size ({h},{w}) not divisible by {factor}")
    v = x.reshape(n, c, h // factor, factor, w // factor, factor)
    rows = v[..., 0] + x.dtype.type(0)
    for j in range(1, factor):
        rows += v[..., j]
    out = rows[:, :, :, 0].copy()
    for i in range(1, factor):
        out += rows[:, :, :, i]
    out /= x.dtype.type(factor * factor)
    return out


def stack_samples(samples, input_size: int = PATCH_SIZE) -> np.ndarray:
    """Stack PatchSamples into one float32 (N, 2, s, s) array, downsampling
    if the model takes smaller inputs than the native patch size.

    The channels of 16 samples at a time are copied into one reused buffer
    and block-averaged from there, so a full-resolution copy of the whole
    set never exists at once. At factor 1 they are copied straight into the
    output, and +0.0 is added as in numpy's one-value mean (it turns -0.0
    into +0.0). Each row depends on its own sample only: stacking a subset
    gives the same bits as indexing the full stack.
    """
    if len(samples) == 0:
        raise ValueError("no samples to stack")
    native = samples[0].image.shape[-1]
    if native % input_size != 0:
        raise ValueError(
            f"cannot resize {native} px patches to {input_size} px (non-integer factor)"
        )
    factor = native // input_size
    out = np.empty((len(samples), 2, input_size, input_size), dtype=np.float32)
    buf = None
    if factor > 1:
        buf = np.empty((min(len(samples), _STACK_CHUNK), 2, native, native), dtype=np.float32)
    for lo in range(0, len(samples), _STACK_CHUNK):
        part = samples[lo : lo + _STACK_CHUNK]
        dst = out[lo : lo + len(part)] if buf is None else buf[: len(part)]
        channels = [c for s in part for c in (s.image, s.heatmap)]
        np.stack(channels, out=dst.reshape(-1, native, native))
        if buf is None:
            dst += 0.0
        else:
            out[lo : lo + len(part)] = block_mean(dst, factor)
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
