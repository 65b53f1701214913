"""The in-memory patch set shared by training and evaluation.

A command reads its dataset once with ``load_patch_set``, straight to a
``PatchSet`` at the network's input size: 16 sample files at a time go into
one reused 112 px buffer, downsampled from there (at 112 px, straight into
the output). ``patch_set`` converts a ``PatchSample`` list (from the
generator) the same way, with the same bits. From then on a run only
indexes rows of that set: folds, stage splits, mined tuples and scoring
batches are all row indices into one array.

Both downsample 112 px patches by area averaging in one fixed float32
summation order (see ``block_mean``). It gives numpy ``mean``'s
bits for factors below 8, which covers every network preset, and stays
within a few ulp of it above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantom import formats
from .phantom.patches import PATCH_SIZE

# Samples converted per step of _stack_chunks: the reused full-resolution
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


def _stack_chunks(n: int, native: int, input_size: int, fill) -> np.ndarray:
    """The float32 (n, 2, s, s) stack at s = ``input_size`` of the ``native``
    px rows that ``fill(lo, hi, dst)`` writes into ``dst``, 16 at a time:
    one reused buffer, block-averaged from there, or at factor 1 the output
    rows, to which +0.0 is added as numpy's one-value mean does (-0.0 → +0.0)."""
    if native % input_size != 0:
        raise ValueError(f"cannot resize {native} px patches to {input_size} px (non-integer factor)")
    factor = native // input_size
    out = np.empty((n, 2, input_size, input_size), dtype=np.float32)
    buf = np.empty((min(n, _STACK_CHUNK), 2, native, native), np.float32) if factor > 1 else None
    for lo in range(0, n, _STACK_CHUNK):
        hi = min(lo + _STACK_CHUNK, n)
        dst = out[lo:hi] if buf is None else buf[: hi - lo]
        fill(lo, hi, dst)
        if buf is None:
            dst += 0.0
        else:
            out[lo:hi] = block_mean(dst, factor)
    return out


def stack_samples(samples, input_size: int = PATCH_SIZE) -> np.ndarray:
    """Stack PatchSamples into one float32 (N, 2, s, s) array at s =
    ``input_size`` through ``_stack_chunks``. Each row depends on its own
    sample only: a subset stacks to the same bits as the full stack's rows."""
    if len(samples) == 0:
        raise ValueError("no samples to stack")
    native = samples[0].image.shape[-1]
    def fill(lo, hi, dst):
        np.stack([c for s in samples[lo:hi] for c in (s.image, s.heatmap)], out=dst.reshape(-1, native, native))
    return _stack_chunks(len(samples), native, input_size, fill)


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


def load_patch_set(entries, input_size: int) -> PatchSet:
    """The PatchSet at ``input_size`` px of ``read_manifest``'s entries, with
    ``stack_samples``'s bits: each sample file is read into its row of
    ``_stack_chunks``'s buffer, so no 112 px copy of the set is built."""
    def fill(lo, hi, dst):
        for (path, _), row in zip(entries[lo:hi], dst):
            formats.read_sample_tensor(path, out=row)
    labels = [np.array([int(f[key]) for _, f in entries]) for key in ("grade", "region")]
    return PatchSet(_stack_chunks(len(entries), PATCH_SIZE, input_size, fill), *labels)
