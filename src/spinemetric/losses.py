"""Metric and classification losses with analytic gradients.

Every loss takes either one tuple, as 1-D embedding vectors (or a logit
vector for cross-entropy), or a batch of T tuples, as (T, D) arrays whose
row t is tuple t. Per-tuple arguments (anchor class, similar flag, label)
are a scalar shared by the batch or a (T,) array. The returned
:class:`LossValue` carries the total and the named sub-terms, each summed
over the batch, and exact (sub)gradients with respect to every input, in
the input's shape, keyed by input name in argument order (the training loop
stacks them in that order). Distances are squared Euclidean throughout. At
hinge kinks the zero-side subgradient is chosen, so configurations with
zero loss are exact fixed points of gradient descent. The margins are
module constants: the grading loss's ALPHA > BETA > GAMMA, and MARGIN for
the triplet and contrastive hinges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ANCHOR_CLASSES = (0, 2, 3)

# Grading-loss margins: the healthy-vs-g2 separation is the widest (ALPHA),
# the clustering radius the tightest (GAMMA).
ALPHA, BETA, GAMMA = 1.5, 1.0, 0.5
# Margin of the triplet and contrastive hinges.
MARGIN = 1.0


@dataclass
class LossValue:
    """A loss evaluation: scalar total, named terms, per-input gradients."""

    total: float
    terms: dict[str, float] = field(default_factory=dict)
    gradients: dict[str, np.ndarray] = field(default_factory=dict)


def _check_inputs(**named):
    """The inputs as (T, D) float64 arrays of one shape, and whether they
    were all single 1-D tuples."""
    single = all(np.ndim(e) <= 1 for e in named.values())
    arrays = []
    for name, e in named.items():
        e = np.asarray(e, dtype=np.float64)
        e = e.reshape(1, -1) if e.ndim <= 1 else e
        if e.ndim != 2:
            raise ValueError(f"{name} must be a 1-D vector or a (T, D) batch, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError(f"{name} contains non-finite values")
        arrays.append(e)
    if len({e.shape for e in arrays}) != 1:
        detail = ", ".join(f"{n}:{e.shape}" for n, e in zip(named, arrays))
        raise ValueError(f"embedding dimension mismatch ({detail})")
    return arrays, single


def _per_tuple(name, value, count) -> np.ndarray:
    """A scalar or (T,) per-tuple argument as a (T,) array."""
    v = np.asarray(value)
    if v.ndim > 1 or (v.ndim == 1 and v.shape[0] != count):
        raise ValueError(f"{name} must be a scalar or hold {count} entries, got shape {v.shape}")
    return np.broadcast_to(v, (count,))


def _row_sq_dist(x, y) -> np.ndarray:
    d = x - y
    return np.einsum("ij,ij->i", d, d)


def _active(arg, grad) -> np.ndarray:
    """``grad`` on the rows whose hinge argument is positive, else zero."""
    return np.where((arg > 0.0)[:, None], grad, 0.0)


def _result(single, terms, grads) -> LossValue:
    terms = {k: float(v.sum()) for k, v in terms.items()}
    if single:
        grads = {k: g[0] for k, g in grads.items()}
    return LossValue(total=sum(terms.values()), terms=terms, gradients=grads)


def sq_dist(a, b):
    """Squared Euclidean distance ||a - b||^2 between two embeddings; for
    two (T, D) batches, the (T,) row-wise distances."""
    (a, b), single = _check_inputs(a=a, b=b)
    d = _row_sq_dist(a, b)
    return float(d[0]) if single else d


def grading_loss(e_g0, e_g2, e_g3, e_anchor, anchor_class) -> LossValue:
    """Ranked quadruplet loss over the three fracture grades.

    Two separating hinges order the grades in embedding space
    (g2 closer to g3 than to g0; g0 closer to g2 than to g3), and a third
    clustering term ties the floating anchor to the static-triplet member
    of its own class:

        L1 = max(0, d(g2, g3) - d(g2, g0) + ALPHA)
        L2 = max(0, d(g0, g2) - d(g0, g3) + BETA)
        L3 = max(0, d(match, anchor) - GAMMA)

    Returns a LossValue with terms L1/L2/L3 and gradients keyed by
    "g0", "g2", "g3", "anchor".
    """
    (g0, g2, g3, anc), single = _check_inputs(e_g0=e_g0, e_g2=e_g2, e_g3=e_g3, e_anchor=e_anchor)
    cls = _per_tuple("anchor_class", anchor_class, len(g0))
    if not np.all(np.isin(cls, ANCHOR_CLASSES)):
        raise ValueError(f"anchor_class must be one of {ANCHOR_CLASSES}, got {anchor_class}")

    # L1: rank g3 nearer to g2 than g0 is, by at least ALPHA.
    arg1 = _row_sq_dist(g2, g3) - _row_sq_dist(g2, g0) + ALPHA
    # L2: rank g2 nearer to g0 than g3 is, by at least BETA.
    arg2 = _row_sq_dist(g0, g2) - _row_sq_dist(g0, g3) + BETA
    grads = {
        "g0": _active(arg1, 2.0 * (g2 - g0)) + _active(arg2, 2.0 * (g0 - g2) - 2.0 * (g0 - g3)),
        "g2": _active(arg1, 2.0 * (g2 - g3) - 2.0 * (g2 - g0)) + _active(arg2, 2.0 * (g2 - g0)),
        "g3": _active(arg1, 2.0 * (g3 - g2)) + _active(arg2, 2.0 * (g0 - g3)),
    }

    # L3: tie the anchor to the static-triplet member of its own class.
    match = np.where((cls == 0)[:, None], g0, np.where((cls == 2)[:, None], g2, g3))
    arg3 = _row_sq_dist(match, anc) - GAMMA
    pull = _active(arg3, 2.0 * (match - anc))
    for key, c in zip(("g0", "g2", "g3"), ANCHOR_CLASSES):
        grads[key] = grads[key] + np.where((cls == c)[:, None], pull, 0.0)
    grads["anchor"] = -pull

    terms = {"L1": np.maximum(0.0, arg1), "L2": np.maximum(0.0, arg2), "L3": np.maximum(0.0, arg3)}
    return _result(single, terms, grads)


def triplet_loss(anchor, positive, negative) -> LossValue:
    """Hinge triplet loss max(0, d(a,p) - d(a,n) + MARGIN)."""
    (a, p, n), single = _check_inputs(anchor=anchor, positive=positive, negative=negative)

    arg = _row_sq_dist(a, p) - _row_sq_dist(a, n) + MARGIN
    grads = {
        "anchor": _active(arg, 2.0 * (a - p) - 2.0 * (a - n)),
        "positive": _active(arg, 2.0 * (p - a)),
        "negative": _active(arg, 2.0 * (a - n)),
    }
    return _result(single, {"hinge": np.maximum(0.0, arg)}, grads)


def contrastive_loss(a, b, similar) -> LossValue:
    """Pairwise contrastive loss on squared distance.

    Similar pairs pay d(a,b) (term "attract"); dissimilar pairs pay
    max(0, MARGIN - d(a,b)) (term "repel").
    """
    (ea, eb), single = _check_inputs(a=a, b=b)

    sim = _per_tuple("similar", similar, len(ea)).astype(bool)
    d = _row_sq_dist(ea, eb)
    arg = MARGIN - d
    grads = {
        "a": np.where(sim[:, None], 2.0 * (ea - eb), _active(arg, -2.0 * (ea - eb))),
        "b": np.where(sim[:, None], 2.0 * (eb - ea), _active(arg, -2.0 * (eb - ea))),
    }
    terms = {"attract": np.where(sim, d, 0.0), "repel": np.where(sim, 0.0, np.maximum(0.0, arg))}
    return _result(single, terms, grads)


def cross_entropy(logits, label) -> LossValue:
    """Softmax cross-entropy with log-sum-exp stabilization.

    Gradient w.r.t. the logits is softmax(logits) - one_hot(label).
    """
    (z,), single = _check_inputs(logits=logits)
    labels = _per_tuple("label", label, len(z))
    classes = z.shape[1]
    if not np.issubdtype(labels.dtype, np.integer) or np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"label {label} out of range for {classes} classes")

    rows = np.arange(len(z))
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.sum(np.exp(z - zmax), axis=1, keepdims=True))
    grad = np.exp(z - lse)
    grad[rows, labels] -= 1.0
    return _result(single, {"nll": lse[:, 0] - z[rows, labels]}, {"logits": grad})
