"""Adam optimizer with bias correction, over the model's flat arrays.

A ``PatchEncoder`` holds every trainable tensor end to end in one
``flat_params`` array, and each gradient in the same slot of ``flat_grads``;
``adam_init`` adds a first moment ``m`` and a second moment ``v`` of that
size. ``adam_step`` updates slices of at most ``BLOCK_ELEMENTS`` elements of
the four arrays in turn, through two reused block-sized buffers: a step
allocates no array the size of a tensor, and a slice stays in cache across
the update's passes.

The bits are those of the per-tensor expression
``lr * m_hat / (sqrt(v_hat) + EPSILON)``: every operation is elementwise and
correctly rounded, and each slice applies the expression's operations to the
same operands in the same order, so where a tensor's elements fall in the
slices changes no element's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# 64 Ki elements: 256 KiB per float32 buffer, so a slice's buffers and
# state stay in a core's L2 across the update's passes.
BLOCK_ELEMENTS = 64 * 2**10


@dataclass
class AdamState:
    learning_rate: float
    m: np.ndarray  # first moment, slot for slot with ``flat_params``
    v: np.ndarray  # second moment
    buffers: tuple  # the update and the scratch buffer, one block each
    step_count: int = 0


def adam_init(model, learning_rate: float = 1e-4) -> AdamState:
    p = model.flat_params
    buffers = tuple(np.empty(min(BLOCK_ELEMENTS, p.size), p.dtype) for _ in range(2))
    return AdamState(learning_rate, np.zeros_like(p), np.zeros_like(p), buffers)


def adam_step(model, opt: AdamState) -> None:
    """One bias-corrected Adam update of ``model.flat_params`` by
    ``model.flat_grads``, in place.

    update = lr * m_hat / (sqrt(v_hat) + EPSILON). A state made for a model
    of another size, or a non-finite gradient, aborts the whole step before
    any parameter or moment is touched; the error names the first
    non-finite tensor.
    """
    params, grads = model.flat_params, model.flat_grads
    if opt.m.size != params.size:
        raise ValueError("the model's parameters are not those the optimizer state was made for")
    # A finite sum proves every element finite without an array-sized mask;
    # a sum of finite gradients may overflow, which is not an error here.
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(np.add.reduce(grads, None)) and not np.isfinite(grads).all():
            name = next(k for k, g in model.gradients().items() if not np.isfinite(g).all())
            raise FloatingPointError(f"non-finite gradient for {name!r}; update refused")

    opt.step_count += 1
    bc1, bc2 = 1.0 - BETA1**opt.step_count, 1.0 - BETA2**opt.step_count
    update, scratch = opt.buffers
    for start in range(0, params.size, BLOCK_ELEMENTS):
        block = slice(start, start + BLOCK_ELEMENTS)
        g, m, v = grads[block], opt.m[block], opt.v[block]
        s, u = scratch[: g.size], update[: g.size]
        # Each rounding step keeps the operands and order of the expression
        # above, so the update is bit-identical to it.
        np.multiply(g, 1.0 - BETA1, out=s)
        m *= BETA1
        m += s
        np.square(g, out=s)
        s *= 1.0 - BETA2
        v *= BETA2
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPSILON
        np.divide(m, bc1, out=u)
        u *= opt.learning_rate
        u /= s
        params[block] -= u
