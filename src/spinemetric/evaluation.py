"""Frozen-embedding probing, classification metrics, and 2D projection.

The linear probe is the maximum-margin classifier that minimizes the
L2-regularized mean hinge loss, bias included in the regularized weights.
It is solved exactly through its box-constrained dual by a primal-dual
interior-point method with O(n D^2) low-rank Newton steps (Ferris and
Munson, SIAM J. Optim. 13, 2002), stopping on the duality gap, the
iteration cap or a stall, so probe results are deterministic.
Fractured is the positive class everywhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .backbone.model import HEAD_CLASSIFIER
from .data import PatchSet, patch_set
from .mining import GradeLabel

METRIC_NAMES = ("sensitivity", "specificity", "f1")
PROBE_GAP_TOL = 1e-8  # the probe solver stops at this duality gap
PROBE_REGULARIZATION = 1e-3  # the probe's lambda
PROBE_STEPS = 100_000  # the probe solver's default iteration cap
EVAL_BATCH = 64  # rows per eval-mode forward
SVG_SIZE, SVG_PAD = 480, 32  # the projection plot's side and margin, in px


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    probe_iterations: int | None = None  # set on probe-scored folds: the fit's solver iterations
    probe_gap: float | None = None  # and its duality gap at return

    @property
    def sensitivity(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def specificity(self) -> float:
        return self.tn / (self.tn + self.fp) if (self.tn + self.fp) else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    def to_dict(self) -> dict:
        counts = {k: v for k, v in asdict(self).items() if v is not None}
        return {**counts, **{name: getattr(self, name) for name in METRIC_NAMES}}


@dataclass
class FoldSummary:
    folds: list = field(default_factory=list)  # Metrics per fold

    @property
    def mean(self) -> dict:
        return {
            name: float(np.mean([getattr(m, name) for m in self.folds]))
            for name in METRIC_NAMES
        }

    @property
    def std(self) -> dict:
        out = {}
        for name in METRIC_NAMES:
            vals = [getattr(m, name) for m in self.folds]
            out[name] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        return out

    def to_dict(self) -> dict:
        return {
            "folds": [m.to_dict() for m in self.folds],
            "mean": self.mean,
            "std": self.std,
        }


def confusion_metrics(predictions, truths) -> Metrics:
    """Count the confusion matrix; 1 = fractured = positive."""
    predictions = np.asarray(predictions, dtype=int)
    truths = np.asarray(truths, dtype=int)
    if predictions.shape != truths.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} predictions vs {truths.shape} truths"
        )
    tp = int(np.sum((predictions == 1) & (truths == 1)))
    fp = int(np.sum((predictions == 1) & (truths == 0)))
    tn = int(np.sum((predictions == 0) & (truths == 0)))
    fn = int(np.sum((predictions == 0) & (truths == 1)))
    return Metrics(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class LinearProbe:
    weights: np.ndarray
    bias: float
    iterations: int = 0  # solver iterations spent on the fit
    gap: float = float("nan")  # duality gap at the returned weights; nan if not fit

    def decision(self, embeddings) -> np.ndarray:
        return np.asarray(embeddings) @ self.weights + self.bias


def _probe_dual(embeddings, labels, n_steps: int):
    """The probe's checked inputs and solved dual: (a, w = z^T a, iterations, gap)."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("embeddings must be (N, D) with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("embeddings contain non-finite values")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("probe labels must be 0 (healthy) or 1 (fractured)")
    if len(np.unique(y)) < 2:
        raise ValueError("probe training needs both classes present")
    if n_steps < 1:
        raise ValueError(f"probe iteration cap must be at least 1, got {n_steps}")

    regularization = PROBE_REGULARIZATION
    z = np.where(y == 1, 1.0, -1.0)[:, None] * np.concatenate([x, np.ones((len(x), 1))], axis=1)
    n, u = len(z), 1.0 / (regularization * len(z))
    # a mid-box, v = u - a kept apart so neither rounds to 0, and g = z z^T a - 1 = s - t.
    a, v = np.full(n, u / 2), np.full(n, u / 2)
    g = z @ (a @ z) - 1.0
    s, t, iterations, step = np.maximum(g, 0.0) + 1.0, np.maximum(-g, 0.0) + 1.0, 0, 1.0
    while True:
        w = a @ z
        g = z @ w - 1.0
        gap = regularization * (w @ w - a.sum()) + np.maximum(0.0, -g).mean()
        # While g = s - t the gap is at most lambda (a s + v t); above that, it is rounding.
        if gap <= PROBE_GAP_TOL or iterations >= n_steps or step == 0.0 or gap > regularization * (a @ s + v @ t):
            return a, w, iterations, float(gap)
        # (diag(d) + z z^T)^-1 = d^-1/2 (I - q q^T) d^-1/2, q the top rows of the Q of
        # [z / sqrt(d); I], whose R is the Cholesky factor of I + z^T diag(1/d) z.
        root = np.sqrt(s / a + t / v)
        q = np.linalg.qr(np.concatenate([z / root[:, None], np.eye(z.shape[1])]))[0][:n]
        rd, mu = g - s + t, (a @ s + v @ t) / (2 * n)

        def newton(rs, rt):
            c = (rs / a - rt / v - rd) / root
            da = (c - q @ (q.T @ c)) / root
            ds, dt = (rs - s * da) / a, (rt + t * da) / v
            now, dx = np.concatenate([a, v, s, t]), np.concatenate([da, -da, ds, dt])
            return da, ds, dt, min(1.0, np.min(-now[dx < 0] / dx[dx < 0], initial=np.inf))

        da, ds, dt, step = newton(-a * s, -v * t)  # Mehrotra's affine predictor
        sigma_mu = (((a + step * da) @ (s + step * ds) + (v - step * da) @ (t + step * dt)) / (2 * n * mu)) ** 3 * mu
        da, ds, dt, step = newton(sigma_mu - a * s - da * ds, sigma_mu - v * t + da * dt)
        step, iterations = 0.99 * step, iterations + 1
        a, v, s, t = np.minimum(a + step * da, u), v - step * da, s + step * ds, t + step * dt


def linear_probe_train(embeddings, labels, n_steps: int = PROBE_STEPS) -> LinearProbe:
    """Fit the maximum-margin linear probe on frozen embeddings: minimize
    lambda/2 |w|^2 + mean hinge over the rows [x, 1], lambda being
    ``PROBE_REGULARIZATION``, through the dual
    min 1/2 |z^T a|^2 - sum(a), 0 <= a <= 1/(lambda n), z = y [x, 1], w = z^T a.
    A primal-dual interior-point method stops at a duality gap of ``PROBE_GAP_TOL``,
    after ``n_steps`` iterations, or on a stall: a zero step, or a gap that is rounding."""
    _, w, iterations, gap = _probe_dual(embeddings, labels, n_steps)
    return LinearProbe(weights=w[:-1], bias=float(w[-1]), iterations=iterations, gap=gap)


def binary_fracture_labels(grades) -> np.ndarray:
    """Fractured = {G2, G3} is 1, healthy = {G0} is 0, per grade."""
    return (np.asarray(grades, dtype=int) != GradeLabel.G0).astype(int)


def _eval_outputs(model, samples) -> np.ndarray:
    """Eval-mode network outputs for a PatchSet or a PatchSample list, in
    order, ``EVAL_BATCH`` rows at a time."""
    images = patch_set(samples, model.config.input_size).images
    batches = range(0, len(images), EVAL_BATCH)
    return np.concatenate([model.forward(images[i : i + EVAL_BATCH], train=False) for i in batches])


def embed_samples(model, samples) -> np.ndarray:
    """Eval-mode embeddings for a PatchSet or a PatchSample list, in order."""
    return _eval_outputs(model, samples)


def embed_logits(model, samples) -> np.ndarray:
    """Eval-mode classifier logits for a PatchSet or a PatchSample list, in order."""
    if model.head != HEAD_CLASSIFIER:
        raise ValueError("classifier evaluation requires the classifier head")
    return _eval_outputs(model, samples)


def evaluate_folds(models, data: PatchSet, folds, n_steps: int = PROBE_STEPS) -> FoldSummary:
    """Per-fold metrics of one model per fold, scored on the fold's test split.

    Each test row gets one score, and it is called fractured when the score
    is above 0. A classifier-headed model scores a row by its logit margin
    z1 - z0, which for finite logits is the argmax with a tie going to
    healthy. An embedding-headed model is embedded over all rows, once for a
    run of consecutive folds that share it, and a linear probe fit on the
    fold's training rows scores its test rows by ``decision``; that fold's
    metrics carry the fit's iterations and duality gap.
    """
    if len(models) != len(folds):
        raise ValueError(f"need one model per fold ({len(models)} models, {len(folds)} folds)")
    summary, embedded, emb = FoldSummary(), None, None
    y = binary_fracture_labels(data.grades)
    for model, fold in zip(models, folds):
        te, fit = list(fold.test_ids), {}
        if model.head == HEAD_CLASSIFIER:
            logits = embed_logits(model, data.take(te))
            scores = logits[:, 1] - logits[:, 0]
        else:
            if model is not embedded:
                embedded, emb = model, embed_samples(model, data)
            tr = list(fold.train_ids)
            probe = linear_probe_train(emb[tr], y[tr], n_steps=n_steps)
            scores, fit = probe.decision(emb[te]), {"probe_iterations": probe.iterations, "probe_gap": probe.gap}
        summary.folds.append(replace(confusion_metrics(scores > 0, y[te]), **fit))
    return summary


def project_2d(embeddings) -> np.ndarray:
    """Deterministic PCA projection onto the top-2 principal directions.

    Sign convention: each direction's largest-magnitude component is made
    positive, so repeated runs and rotated inputs give reproducible plots.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("projection needs at least 2 embeddings")
    xc = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    dirs = vt[:2] if vt.shape[0] >= 2 else np.vstack([vt, np.zeros_like(vt[:1])])
    fixed = []
    for d in dirs:
        k = int(np.argmax(np.abs(d)))
        fixed.append(-d if d[k] < 0 else d)
    return xc @ np.vstack(fixed).T


GRADE_COLORS = {GradeLabel.G0: "#4878d0", GradeLabel.G2: "#ee854a", GradeLabel.G3: "#d65f5f"}


def projection_csv(ids, grades, coords) -> str:
    lines = ["id,grade,x,y"]
    for i, g, (px, py) in zip(ids, grades, coords):
        lines.append(f"{i},{int(g)},{px:.6f},{py:.6f}")
    return "\n".join(lines) + "\n"


def projection_svg(grades, coords) -> str:
    """Minimal deterministic scatter plot, colored by grade."""
    size, pad = SVG_SIZE, SVG_PAD
    coords = np.asarray(coords, dtype=np.float64)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scaled = (coords - lo) / span * (size - 2 * pad) + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for (px, py), g in zip(scaled, grades):
        color = GRADE_COLORS[GradeLabel(int(g))]
        parts.append(
            f'<circle cx="{px:.2f}" cy="{size - py:.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    for i, (g, color) in enumerate(GRADE_COLORS.items()):
        y = pad + 16 * i
        parts.append(f'<circle cx="{pad}" cy="{y}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{pad + 10}" y="{y + 4}" font-size="12" '
            f'font-family="sans-serif">{g.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
