"""Adam optimizer with bias correction, over one flat state.

``adam_init`` lays every parameter's first and second moments end to end in
one flat ``m`` and one flat ``v`` array, in ``model.parameters()`` order;
``opt.m[name]`` and ``opt.v[name]`` are views into them. It also maps that
flat index space, once, into blocks of at most ``BLOCK_ELEMENTS`` elements.
A block may span several tensors: it lists the slice of each that it
covers.

``adam_step`` runs the update one block at a time. A block's gradient
slices are copied into one reused block buffer (a block inside one tensor
reads its gradient in place), the moments are updated on the flat state's
slice, and the block's update is subtracted from the matching parameter
slices. The block buffer and one scratch buffer are all a step writes
besides the state and the parameters, so no step allocates an array the
size of a tensor, and the blocks stay in cache between the expression's
passes.

The bits are those of the per-tensor expression
``lr * m_hat / (sqrt(v_hat) + EPSILON)``: every operation is elementwise
and correctly rounded, and each block applies the expression's operations
to the same operands in the same order, so where a tensor's elements fall
in the blocks changes no element's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# 64 Ki elements: 256 KiB per float32 buffer, so a block's buffer, scratch
# and state slices stay in a core's L2 across the update's passes.
BLOCK_ELEMENTS = 64 * 2**10


@dataclass
class AdamState:
    learning_rate: float = 1e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    flat_m: np.ndarray = None
    flat_v: np.ndarray = None
    # Per block: (start, stop, [(name, lo, hi, at), ...]) -- its flat index
    # range and, in order, the slice [lo, hi) of each flattened tensor it
    # covers, which starts at offset ``at`` in the block.
    blocks: list = field(default_factory=list)
    # The block buffer and the scratch buffer, one block each.
    buffers: tuple = ()


def adam_init(model, learning_rate: float = 1e-4) -> AdamState:
    params = model.parameters()
    dtypes = {p.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ValueError(f"parameters must share one dtype, not {sorted(map(str, dtypes))}")
    total = sum(p.size for p in params.values())
    state = AdamState(learning_rate=learning_rate)
    state.flat_m = np.zeros(total, dtype=dtypes.pop())
    state.flat_v = np.zeros_like(state.flat_m)
    spans, offset = [], 0
    for name, p in params.items():
        state.m[name] = state.flat_m[offset : offset + p.size].reshape(p.shape)
        state.v[name] = state.flat_v[offset : offset + p.size].reshape(p.shape)
        spans.append((name, offset, offset + p.size))
        offset += p.size
    for start in range(0, total, BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, total)
        segments = [
            (name, max(a, start) - a, min(b, stop) - a, max(a, start) - start)
            for name, a, b in spans
            if a < stop and start < b
        ]
        state.blocks.append((start, stop, segments))
    state.buffers = tuple(np.empty(min(BLOCK_ELEMENTS, total), dtype=state.flat_m.dtype) for _ in range(2))
    return state


def _check(params: dict, opt: AdamState, gradients: dict) -> None:
    """Refuse, naming the tensor, a step that ``adam_step`` must not apply."""
    for name in gradients:
        if name not in params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
    for name in params:
        if name not in gradients:
            raise KeyError(f"no gradient for parameter {name!r}")
    if params.keys() != opt.m.keys() or any(opt.m[k].shape != p.shape for k, p in params.items()):
        raise ValueError("the model's parameters are not those the optimizer state was made for")
    for name, p in params.items():
        g = gradients[name]
        if g.shape != p.shape or g.dtype != p.dtype:
            raise ValueError(
                f"gradient {g.dtype} {g.shape} does not match parameter "
                f"{name!r} {p.dtype} {p.shape}"
            )
        if not p.flags.c_contiguous:  # its flat view must not be a copy
            raise ValueError(f"parameter {name!r} is not C-contiguous")
        # A finite sum proves every element finite without an array-sized mask.
        if not math.isfinite(np.add.reduce(g, None)) and not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {name!r}; update refused")


def adam_step(model, opt: AdamState, gradients: dict) -> None:
    """One bias-corrected Adam update, in place.

    update = lr * m_hat / (sqrt(v_hat) + EPSILON). ``gradients`` must hold
    one gradient of the parameter's shape and dtype for every parameter and
    no other name. A gradient map that breaks this, or holds a non-finite
    value, aborts the whole step before any parameter or moment is touched.
    """
    params = model.parameters()
    # A sum of finite gradients may overflow; that is not an error here.
    with np.errstate(over="ignore", invalid="ignore"):
        _check(params, opt, gradients)

    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    flat_p = {name: p.reshape(-1) for name, p in params.items()}
    flat_g = {name: g.reshape(-1) for name, g in gradients.items()}
    block, scratch = opt.buffers
    for start, stop, segments in opt.blocks:
        n = stop - start
        m = opt.flat_m[start:stop]
        v = opt.flat_v[start:stop]
        s = scratch[:n]
        u = block[:n]
        if len(segments) == 1:
            name, lo, hi, _ = segments[0]
            g = flat_g[name][lo:hi]
        else:
            g = u
            for name, lo, hi, at in segments:
                g[at : at + hi - lo] = flat_g[name][lo:hi]
        # Each rounding step keeps the operands and order of the expression
        # above, so the update is bit-identical to it. The update reuses the
        # block buffer once the gradient is spent.
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
        for name, lo, hi, at in segments:
            flat_p[name][lo:hi] -= u[at : at + hi - lo]
