"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = 1e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(model, learning_rate: float = 1e-4) -> AdamState:
    state = AdamState(learning_rate=learning_rate)
    for name, p in model.parameters().items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(model, opt: AdamState, gradients: dict) -> None:
    """One bias-corrected Adam update, in place.

    update = lr * m_hat / (sqrt(v_hat) + EPSILON). Non-finite gradients abort
    the whole step before any parameter is touched.
    """
    params = model.parameters()
    for name, g in gradients.items():
        if name not in params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {params[name].shape}"
            )
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}; update refused")

    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, g in gradients.items():
        m = opt.m[name]
        v = opt.v[name]
        # In place through one scratch and one update array. Each rounding
        # step keeps the operands and order of the expression above, so the
        # update is bit-identical to it.
        scratch = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += scratch
        np.square(g, out=scratch)
        scratch *= 1.0 - BETA2
        v *= BETA2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPSILON
        update = np.divide(m, bc1)
        update *= opt.learning_rate
        update /= scratch
        params[name] -= update
