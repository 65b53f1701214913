"""Independent measurement oracles shared across test modules.

These deliberately avoid the library's own code paths: distances are scalar
loops, gradients come from central differences, convolutions from direct
loops over every output and kernel tap, batch norm, rectifiers and max
pooling from their textbook formulas in float64, body silhouettes painted
one pixel column at a time from per-body ``np.linspace`` heights, a patch
rendered on its own into a full image, a spine-volume body painted one y
column at a time, silhouette heights from threshold crossings with subpixel
interpolation, arc lengths from quadrature over an
independently constructed spline, the metric and classification losses one
tuple of 1-D vectors at a time, quadruplet, triplet and pair mining as lists
of Python tuples, with the class pools rebuilt by a scan over all labels,
the linear probe by Pegasos subgradient descent and by scipy's L-BFGS-B
on its dual, with its objective summed one row at a time, the block-mean
downsample one window value at a time, the dataset loader one whole file
read at a time, a training stage by forwarding every tuple slot as its own
network row, and an Adam update through fresh expression temporaries.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import Bounds, minimize

from spinemetric import pipeline
from spinemetric.backbone.model import _init_tensors
from spinemetric.backbone.optim import adam_init, adam_step
from spinemetric.data import patch_set
from spinemetric.losses import ALPHA, ANCHOR_CLASSES, BETA, GAMMA, MARGIN, LossValue
from scipy.ndimage import gaussian_filter

from spinemetric.mining import SIMILAR_FRACTION, GradeLabel, RegionLabel
from spinemetric.phantom.patches import (
    NEIGHBOR_GAP,
    PATCH_CENTER,
    PATCH_SIZE,
    PatchSample,
    _column_heights,
    _draw_body_params,
    centroid_heatmap,
)


def sq_dist_loop(a, b) -> float:
    """Element-wise brute-force squared distance."""
    total = 0.0
    for x, y in zip(a, b):
        total += (float(x) - float(y)) ** 2
    return total


def numeric_gradient(f, x, h=1e-3):
    """Central-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(analytic, numeric, guard=1.0) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), guard)
    return float(np.max(np.abs(analytic - numeric) / denom))


def adam_step_reference(params, m, v, gradients, step, learning_rate):
    """One bias-corrected Adam update in place, each tensor through freshly
    allocated expression temporaries."""
    bc1 = 1.0 - 0.9**step
    bc2 = 1.0 - 0.999**step
    for name, g in gradients.items():
        m[name] *= 0.9
        m[name] += (1.0 - 0.9) * g
        v[name] *= 0.999
        v[name] += (1.0 - 0.999) * np.square(g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        params[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


# --- standalone layers -------------------------------------------------------


def with_tensors(layer, dtype, rng=None):
    """``layer`` with its trainable tensors allocated, bound and initialised
    as the only layer of a model would have them: not an oracle, but the
    model's own ``_init_tensors``, so the library keeps one allocation path.
    Weights are drawn from ``rng``; a layer without one needs none."""
    _init_tensors([("layer", layer)], np.dtype(dtype), rng)
    return layer


# --- direct convolution ------------------------------------------------------


def conv2d_direct(x, weight, bias, dy):
    """Stride-1 'same' convolution of x (N, C, H, W) with an OIHW kernel, by
    explicit loops in float64, and the gradients of sum(y * dy).

    Returns ``(y, d_weight, d_bias, dx)``.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    o, _, k, _ = weight.shape
    p = k // 2
    y = np.zeros((n, o, h, w))
    d_weight = np.zeros((o, c, k, k))
    d_bias = np.zeros(o)
    dx = np.zeros((n, c, h, w))
    for b in range(n):
        for oc in range(o):
            for i in range(h):
                for j in range(w):
                    g = float(dy[b, oc, i, j])
                    total = float(bias[oc])
                    d_bias[oc] += g
                    for ic in range(c):
                        for di in range(k):
                            for dj in range(k):
                                r, s = i + di - p, j + dj - p
                                if 0 <= r < h and 0 <= s < w:
                                    wv = float(weight[oc, ic, di, dj])
                                    xv = float(x[b, ic, r, s])
                                    total += wv * xv
                                    d_weight[oc, ic, di, dj] += g * xv
                                    dx[b, ic, r, s] += g * wv
                    y[b, oc, i, j] = total
    return y, d_weight, d_bias, dx


# --- pointwise layers ---------------------------------------------------------


def _bn_axes(x):
    return (0,) + tuple(range(2, x.ndim))


def _per_channel(v, ndim):
    return np.reshape(v, (1, -1) + (1,) * (ndim - 2))


def batchnorm_train(x, gamma, beta, running_mean, running_var, epsilon, momentum, dy):
    """Train-mode batch norm over every axis but 1, in float64, and the
    gradients of sum(y * dy).

    Returns ``(y, dx, d_gamma, d_beta, running_mean, running_var)`` with the
    running statistics after the update (unbiased variance for the running
    estimate, biased for the normalization).
    """
    x, dy = np.asarray(x, np.float64), np.asarray(dy, np.float64)
    gamma, beta = np.asarray(gamma, np.float64), np.asarray(beta, np.float64)
    axes, nd = _bn_axes(x), x.ndim
    n = x.size // x.shape[1]
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    new_mean = (1 - momentum) * np.asarray(running_mean, np.float64) + momentum * mu
    new_var = (1 - momentum) * np.asarray(running_var, np.float64) + momentum * var * (
        n / max(n - 1, 1)
    )
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = (x - _per_channel(mu, nd)) * _per_channel(inv_std, nd)
    y = _per_channel(gamma, nd) * xhat + _per_channel(beta, nd)
    d_gamma = (dy * xhat).sum(axis=axes)
    d_beta = dy.sum(axis=axes)
    dxhat = dy * _per_channel(gamma, nd)
    mean_dxhat = dxhat.mean(axis=axes)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes)
    dx = _per_channel(inv_std, nd) * (
        dxhat - _per_channel(mean_dxhat, nd) - xhat * _per_channel(mean_dxhat_xhat, nd)
    )
    return y, dx, d_gamma, d_beta, new_mean, new_var


def batchnorm_eval(x, gamma, beta, running_mean, running_var, epsilon):
    """Eval-mode batch norm with the running statistics, in float64."""
    x = np.asarray(x, np.float64)
    gamma, beta, mean, var = (
        _per_channel(np.asarray(v, np.float64), x.ndim)
        for v in (gamma, beta, running_mean, running_var)
    )
    return gamma * ((x - mean) * (1.0 / np.sqrt(var + epsilon))) + beta


def leaky_relu_reference(x, slope, dy):
    """Leaky rectifier and its input gradient; x == 0 takes the slope side."""
    x, dy = np.asarray(x, np.float64), np.asarray(dy, np.float64)
    pos = x > 0
    return np.where(pos, x, slope * x), np.where(pos, dy, slope * dy)


def maxpool_reference(x, dy):
    """2x2 stride-2 max pooling by window reshape and argmax, and its input
    gradient; argmax picks the first maximum in window order
    (0,0), (0,1), (1,0), (1,1)."""
    x = np.asarray(x, np.float64)
    n, c, h, w = x.shape
    windows = (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    idx = np.argmax(windows, axis=-1)
    y = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    dwin = np.zeros(windows.shape)
    np.put_along_axis(dwin, idx[..., None], np.asarray(dy, np.float64)[..., None], axis=-1)
    dx = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
    return y, dx


# --- silhouette rendering ---------------------------------------------------


def column_heights_reference(width_px: int, height: float, mode: str, loss: float) -> np.ndarray:
    """Per-column body height of one body from ``np.linspace``; column 0 is
    the anterior edge."""
    if width_px <= 1:
        return np.full(max(width_px, 1), height * (1.0 - loss))
    t = np.linspace(0.0, 1.0, width_px)
    if mode == "wedge":
        factor = 1.0 - loss * (1.0 - t)
    else:
        factor = 1.0 - loss * (1.0 - (2.0 * t - 1.0) ** 4)
    return height * factor


def render_body_reference(image, cy, cx, width, height, mode, loss, intensity):
    """Paint one vertebral body into ``image`` one pixel column at a time,
    skipping columns off the patch."""
    w_px = int(round(width))
    heights = column_heights_reference(w_px, height, mode, loss)
    col0 = int(round(cx - w_px / 2.0))
    rows = np.arange(image.shape[0], dtype=np.float64)
    bottom = cy + height / 2.0
    for i, h_col in enumerate(heights):
        c = col0 + i
        if c < 0 or c >= image.shape[1]:
            continue
        if mode == "wedge":
            top = bottom - h_col  # superior endplate collapses
            bot = bottom
        else:
            top = cy - h_col / 2.0
            bot = cy + h_col / 2.0
        cover = np.clip(np.minimum(bot, rows + 1.0) - np.maximum(top, rows), 0.0, 1.0)
        image[:, c] = np.maximum(image[:, c], intensity * cover)


def generate_patch_reference(config, grade, region, id) -> PatchSample:
    """Render one patch on its own: each body painted column by column into
    a full float64 image, a blur over the whole image, then noise from
    ``rng.normal``. The library's parameter draws and heatmap are taken as
    given."""
    grade = GradeLabel(grade)
    region = RegionLabel(region)
    rng = np.random.default_rng([config.seed, id])

    width, height, intensity, mode, loss = _draw_body_params(rng, config, region, grade)
    jr = jc = 0
    if config.jitter_px > 0:
        jr = int(rng.integers(-config.jitter_px, config.jitter_px + 1))
        jc = int(rng.integers(-config.jitter_px, config.jitter_px + 1))
    cy, cx = PATCH_CENTER + jr, PATCH_CENTER + jc

    image = np.zeros((PATCH_SIZE, PATCH_SIZE), dtype=np.float64)
    render_body_reference(image, cy, cx, width, height, mode, loss, intensity)

    # Healthy neighbors stacked outward until they leave the patch.
    for direction in (-1, +1):
        edge = height / 2.0
        while True:
            n_w, n_h, n_int, _, _ = _draw_body_params(rng, config, region, GradeLabel.G0)
            gap = rng.uniform(*NEIGHBOR_GAP)
            n_cy = cy + direction * (edge + gap + n_h / 2.0)
            if n_cy + n_h / 2.0 < 0 or n_cy - n_h / 2.0 > PATCH_SIZE:
                break
            render_body_reference(image, n_cy, cx, n_w, n_h, "wedge", 0.0, n_int)
            edge += gap + n_h

    if config.blur_sigma > 0:
        image = gaussian_filter(image, sigma=config.blur_sigma)
    if config.noise_amplitude > 0:
        image = image + rng.normal(0.0, config.noise_amplitude, size=image.shape)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)

    heatmap = centroid_heatmap(cy, cx)

    params = {
        "width": round(width, 6),
        "height": round(height, 6),
        "intensity": round(intensity, 6),
        "mode": mode,
        "height_loss": round(loss, 6),
        "jitter": [jr, jc],
    }
    return PatchSample(image=image, heatmap=heatmap, grade=grade, region=region, id=id, params=params)


def paint_body_reference(voxels, zc, yc, x_mid, width, depth, height, loss, intensity):
    """Paint one spine-volume body one y column at a time: each column's
    voxel rows clamped to the volume, and columns off the volume or under
    one voxel skipped."""
    z_dim, y_dim = voxels.shape[:2]
    heights = _column_heights(np.arange(depth), depth, float(height), loss, True)
    y_start = int(round(yc - depth / 2.0))
    z_bottom = zc + height / 2.0
    for j in range(depth):
        y = y_start + j
        if y < 0 or y >= y_dim:
            continue
        z_top = z_bottom - heights[j]
        lo = int(np.ceil(z_top))
        hi = int(np.floor(z_bottom))
        lo = max(lo, 0)
        hi = min(hi, z_dim - 1)
        if lo > hi:
            continue
        voxels[
            lo : hi + 1,
            y,
            x_mid - width // 2 : x_mid - width // 2 + width,
        ] = intensity


# --- silhouette measurement -------------------------------------------------


def column_height(profile, window_lo: int, window_hi: int, noise_floor=0.15) -> float:
    """Silhouette height of the body material in one column.

    Anchors at the peak intensity inside the window and measures the run
    above half of the column's own plateau, with subpixel edges from linear
    threshold crossings. Half-maximum crossings sit on the true edge of a
    blurred step regardless of the plateau level, so partially attenuated
    edge columns measure correctly.
    """
    window_lo = max(window_lo, 0)
    window_hi = min(window_hi, len(profile))
    window = profile[window_lo:window_hi]
    peak = float(window.max())
    if peak < noise_floor:
        return 0.0
    thresh = peak / 2.0
    r_peak = window_lo + int(np.argmax(window))
    above = profile > thresh
    r0 = r_peak
    while r0 - 1 >= 0 and above[r0 - 1]:
        r0 -= 1
    r1 = r_peak
    while r1 + 1 < len(profile) and above[r1 + 1]:
        r1 += 1
    top = float(r0)
    if r0 > 0 and profile[r0] != profile[r0 - 1]:
        top = (r0 - 1) + (thresh - profile[r0 - 1]) / (profile[r0] - profile[r0 - 1])
    bottom = float(r1)
    if r1 + 1 < len(profile) and profile[r1] != profile[r1 + 1]:
        bottom = r1 + (profile[r1] - thresh) / (profile[r1] - profile[r1 + 1])
    return bottom - top


def body_height_profile(sample) -> np.ndarray:
    """Per-column silhouette heights across the central body of a patch."""
    params = sample.params
    cy = 56 + params["jitter"][0]
    cx = 56 + params["jitter"][1]
    w = int(round(params["width"]))
    h = params["height"]
    col0 = int(round(cx - w / 2.0))
    lo = int(np.floor(cy - h / 2.0)) - 2
    hi = int(np.ceil(cy + h / 2.0)) + 3
    heights = []
    for c in range(col0, col0 + w):
        if 0 <= c < sample.image.shape[1]:
            heights.append(column_height(sample.image[:, c], lo, hi))
    return np.asarray(heights)


def min_height_ratio(sample) -> float:
    """Worst-column height over reference height (the tallest column)."""
    heights = body_height_profile(sample)
    heights = heights[heights > 0]
    if heights.size == 0:
        return 0.0
    return float(heights.min() / heights.max())


def mid_height_ratio(sample) -> float:
    """Mid-body column height over the reference (tallest) column."""
    heights = body_height_profile(sample)
    if heights.size == 0 or heights.max() <= 0:
        return 0.0
    return float(heights[heights.size // 2] / heights.max())


def anterior_height_ratio(sample) -> float:
    """Anterior-edge column height over the reference (tallest) column."""
    heights = body_height_profile(sample)
    if heights.size < 2 or heights.max() <= 0:
        return 0.0
    return float(heights[0] / heights.max())


# --- spline arc length ------------------------------------------------------


def arc_length_to_knot(points, k: int) -> float:
    """Arc length from the first centroid to centroid k along a natural cubic
    spline, by adaptive quadrature of the parametric speed."""
    pts = np.asarray(points, dtype=np.float64)
    chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(chord)])
    spline = CubicSpline(t, pts, axis=0, bc_type="natural")
    deriv = spline.derivative()

    def speed(u):
        return float(np.linalg.norm(deriv(u)))

    total = 0.0
    for j in range(k):
        seg, _ = quad(speed, t[j], t[j + 1], limit=200)
        total += seg
    return total


# --- per-vector losses -------------------------------------------------------
# The losses as they were written for one tuple of 1-D vectors, kept verbatim
# as the reference for the batched library losses.


def _check_embedding(name, e):
    e = np.asarray(e, dtype=np.float64)
    if e.ndim == 0:
        e = e.reshape(1)
    if e.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {e.shape}")
    if not np.all(np.isfinite(e)):
        raise ValueError(f"{name} contains non-finite values")
    return e


def _check_same_dim(*named):
    dims = {e.shape[0] for _, e in named}
    if len(dims) != 1:
        detail = ", ".join(f"{n}:{e.shape[0]}" for n, e in named)
        raise ValueError(f"embedding dimension mismatch ({detail})")


def _sq_dist(a, b) -> float:
    """Squared Euclidean distance ||a - b||^2 between two embeddings."""
    a = _check_embedding("a", a)
    b = _check_embedding("b", b)
    _check_same_dim(("a", a), ("b", b))
    diff = a - b
    return float(diff @ diff)


def grading_loss_reference(
    e_g0,
    e_g2,
    e_g3,
    e_anchor,
    anchor_class: int,
    alpha: float = ALPHA,
    beta: float = BETA,
    gamma: float = GAMMA,
) -> LossValue:
    """Ranked quadruplet loss over the three fracture grades.

    Two separating hinges order the grades in embedding space
    (g2 closer to g3 than to g0; g0 closer to g2 than to g3), and a third
    clustering term ties the floating anchor to the static-triplet member
    of its own class:

        L1 = max(0, d(g2, g3) - d(g2, g0) + alpha)
        L2 = max(0, d(g0, g2) - d(g0, g3) + beta)
        L3 = max(0, d(match, anchor) - gamma)

    Returns a LossValue with terms L1/L2/L3 and gradients keyed by
    "g0", "g2", "g3", "anchor".
    """
    g0 = _check_embedding("e_g0", e_g0)
    g2 = _check_embedding("e_g2", e_g2)
    g3 = _check_embedding("e_g3", e_g3)
    anc = _check_embedding("e_anchor", e_anchor)
    _check_same_dim(("e_g0", g0), ("e_g2", g2), ("e_g3", g3), ("e_anchor", anc))
    if anchor_class not in ANCHOR_CLASSES:
        raise ValueError(f"anchor_class must be one of {ANCHOR_CLASSES}, got {anchor_class}")

    grads = {k: np.zeros_like(g0) for k in ("g0", "g2", "g3", "anchor")}

    # L1: rank g3 nearer to g2 than g0 is, by at least alpha.
    arg1 = _sq_dist(g2, g3) - _sq_dist(g2, g0) + alpha
    l1 = max(0.0, arg1)
    if arg1 > 0.0:
        grads["g2"] += 2.0 * (g2 - g3) - 2.0 * (g2 - g0)
        grads["g3"] += 2.0 * (g3 - g2)
        grads["g0"] += 2.0 * (g2 - g0)

    # L2: rank g2 nearer to g0 than g3 is, by at least beta.
    arg2 = _sq_dist(g0, g2) - _sq_dist(g0, g3) + beta
    l2 = max(0.0, arg2)
    if arg2 > 0.0:
        grads["g0"] += 2.0 * (g0 - g2) - 2.0 * (g0 - g3)
        grads["g2"] += 2.0 * (g2 - g0)
        grads["g3"] += 2.0 * (g0 - g3)

    # L3: tie the anchor to the static-triplet member of its own class.
    match_key = {0: "g0", 2: "g2", 3: "g3"}[anchor_class]
    match = {"g0": g0, "g2": g2, "g3": g3}[match_key]
    arg3 = _sq_dist(match, anc) - gamma
    l3 = max(0.0, arg3)
    if arg3 > 0.0:
        grads[match_key] += 2.0 * (match - anc)
        grads["anchor"] += 2.0 * (anc - match)

    terms = {"L1": l1, "L2": l2, "L3": l3}
    return LossValue(total=l1 + l2 + l3, terms=terms, gradients=grads)


def triplet_loss_reference(anchor, positive, negative, margin: float = MARGIN) -> LossValue:
    """Hinge triplet loss max(0, d(a,p) - d(a,n) + margin)."""
    a = _check_embedding("anchor", anchor)
    p = _check_embedding("positive", positive)
    n = _check_embedding("negative", negative)
    _check_same_dim(("anchor", a), ("positive", p), ("negative", n))
    if margin < 0:
        raise ValueError("margin must be nonnegative")

    arg = _sq_dist(a, p) - _sq_dist(a, n) + margin
    loss = max(0.0, arg)
    grads = {k: np.zeros_like(a) for k in ("anchor", "positive", "negative")}
    if arg > 0.0:
        grads["anchor"] = 2.0 * (a - p) - 2.0 * (a - n)
        grads["positive"] = 2.0 * (p - a)
        grads["negative"] = 2.0 * (a - n)
    return LossValue(total=loss, terms={"hinge": loss}, gradients=grads)


def contrastive_loss_reference(a, b, similar: bool, margin: float = MARGIN) -> LossValue:
    """Pairwise contrastive loss on squared distance.

    Similar pairs pay d(a,b); dissimilar pairs pay max(0, margin - d(a,b)).
    """
    ea = _check_embedding("a", a)
    eb = _check_embedding("b", b)
    _check_same_dim(("a", ea), ("b", eb))
    if margin < 0:
        raise ValueError("margin must be nonnegative")

    d = _sq_dist(ea, eb)
    grads = {"a": np.zeros_like(ea), "b": np.zeros_like(eb)}
    if similar:
        loss = d
        grads["a"] = 2.0 * (ea - eb)
        grads["b"] = 2.0 * (eb - ea)
        term = {"attract": loss}
    else:
        arg = margin - d
        loss = max(0.0, arg)
        if arg > 0.0:
            grads["a"] = -2.0 * (ea - eb)
            grads["b"] = -2.0 * (eb - ea)
        term = {"repel": loss}
    return LossValue(total=loss, terms=term, gradients=grads)


def cross_entropy_reference(logits, label: int) -> LossValue:
    """Softmax cross-entropy with log-sum-exp stabilization.

    Gradient w.r.t. the logits is softmax(logits) - one_hot(label).
    """
    z = _check_embedding("logits", logits)
    if not (0 <= label < z.shape[0]):
        raise ValueError(f"label {label} out of range for {z.shape[0]} classes")

    zmax = float(np.max(z))
    shifted = z - zmax
    lse = zmax + float(np.log(np.sum(np.exp(shifted))))
    loss = lse - float(z[label])
    probs = np.exp(z - lse)
    grad = probs.copy()
    grad[label] -= 1.0
    return LossValue(total=loss, terms={"nll": loss}, gradients={"logits": grad})


def mine_quadruplets_reference(labels, count: int, seed: int) -> list[tuple[int, int, int, int, int]]:
    """``mine_quadruplets`` as a list of (g0, g2, g3, anchor, anchor_class)
    tuples, with each grade's pool found by a scan over all labels."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    labels = [GradeLabel(l) for l in labels]
    pools = {g: np.array([i for i, l in enumerate(labels) if l == g]) for g in ANCHOR_CLASSES}
    for g, pool in pools.items():
        if len(pool) == 0:
            raise ValueError(f"grade {GradeLabel(g).name} has no samples")
    if max(len(pool) for pool in pools.values()) < 2:
        raise ValueError("need at least one grade with >= 2 samples for anchors")

    rng = np.random.default_rng([seed])
    out = []
    for _ in range(count):
        i0 = int(pools[0][rng.integers(len(pools[0]))])
        i2 = int(pools[2][rng.integers(len(pools[2]))])
        i3 = int(pools[3][rng.integers(len(pools[3]))])
        n = int(rng.choice([0, 2, 3]))
        pool = pools[n]
        static = {0: i0, 2: i2, 3: i3}[n]
        if len(pool) < 2:
            raise ValueError(
                f"anchor class {n} has a single sample occupying the static slot"
            )
        anchor = static
        while anchor == static:
            anchor = int(pool[rng.integers(len(pool))])
        out.append((i0, i2, i3, anchor, n))
    return out


def mine_triplets_reference(labels, count: int, seed: int) -> list[tuple[int, int, int]]:
    """``mine_triplets`` as a per-tuple scan: the negative pool is rebuilt
    from all labels for every triplet."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    labels = list(labels)
    by_class: dict = {}
    for i, l in enumerate(labels):
        by_class.setdefault(l, []).append(i)
    rich = sorted(k for k, v in by_class.items() if len(v) >= 2)
    if not rich:
        raise ValueError("no class has >= 2 samples; no positive pair exists")
    if len(by_class) < 2:
        raise ValueError("need at least two classes for negatives")

    rng = np.random.default_rng([seed])
    out = []
    for _ in range(count):
        c = rich[int(rng.integers(len(rich)))]
        pool = by_class[c]
        a_pos = rng.choice(len(pool), size=2, replace=False)
        anchor, positive = int(pool[a_pos[0]]), int(pool[a_pos[1]])
        neg_pool = [i for i, l in enumerate(labels) if l != c]
        negative = int(neg_pool[rng.integers(len(neg_pool))])
        out.append((anchor, positive, negative))
    return out


def mine_pairs_reference(labels, count: int, seed: int):
    """``mine_pairs`` as a per-tuple scan: the other-class pool is rebuilt
    from all labels for every dissimilar pair."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    labels = list(labels)
    by_class: dict = {}
    for i, l in enumerate(labels):
        by_class.setdefault(l, []).append(i)
    rich = sorted(k for k, v in by_class.items() if len(v) >= 2)
    if not rich:
        raise ValueError("no class has >= 2 samples; no similar pair exists")
    if len(by_class) < 2:
        raise ValueError("need at least two classes for dissimilar pairs")

    rng = np.random.default_rng([seed])
    n_similar = int(np.floor(count * SIMILAR_FRACTION + 0.5))
    pairs = []
    for _ in range(n_similar):
        c = rich[int(rng.integers(len(rich)))]
        pool = by_class[c]
        ij = rng.choice(len(pool), size=2, replace=False)
        pairs.append((int(pool[ij[0]]), int(pool[ij[1]]), True))
    for _ in range(count - n_similar):
        i = int(rng.integers(len(labels)))
        other = [j for j, l in enumerate(labels) if l != labels[i]]
        j = int(other[rng.integers(len(other))])
        pairs.append((i, j, False))
    order = rng.permutation(len(pairs))
    return [pairs[k] for k in order]


def pegasos_probe_reference(embeddings, labels, regularization: float = 1e-3, n_steps: int = 100_000):
    """The linear probe by deterministic full-batch Pegasos subgradient
    descent (1/(lambda t) steps, projection onto the 1/sqrt(lambda) ball),
    in float64; returns (weights, bias)."""
    x = np.asarray(embeddings, dtype=np.float64)
    ypm = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    xa = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    lam, n = regularization, xa.shape[0]
    w = np.zeros(xa.shape[1])
    radius = 1.0 / np.sqrt(lam)
    for t in range(1, n_steps + 1):
        viol = ypm * (xa @ w) < 1.0
        grad = lam * w - (ypm[viol][:, None] * xa[viol]).sum(axis=0) / n
        w = w - grad / (lam * t)
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
    return w[:-1], float(w[-1])


def lbfgsb_probe_reference(embeddings, labels, regularization: float = 1e-3, n_steps: int = 100_000,
                           gap_tol: float = 1e-8):
    """The linear probe's box-constrained dual solved by scipy's L-BFGS-B,
    restarted from its last point until the duality gap is at most
    ``gap_tol``, until ``n_steps`` iterations are spent in total, or until a
    call no longer lowers the dual; returns (weights, bias, dual point a)."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    z = np.where(y == 1, 1.0, -1.0)[:, None] * np.concatenate([x, np.ones((len(x), 1))], axis=1)

    def dual(a, a0, w0):
        # The dual's change from the restart point a0 (w0 = z^T a0), so that
        # a restart resolves decreases far below the dual's own rounding.
        d = a - a0
        dw = d @ z
        return dw @ (w0 + 0.5 * dw) - d.sum(), z @ (w0 + dw) - 1.0

    a, used, bounds = np.zeros(len(z)), 0, Bounds(0.0, 1.0 / (regularization * len(z)))
    while True:
        res = minimize(dual, a, args=(a, a @ z), jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": n_steps - used, "ftol": 0.0, "gtol": 0.0, "maxcor": 20})
        w, used = res.x @ z, used + res.nit
        gap = regularization * (w @ w - res.x.sum()) + np.maximum(0.0, 1.0 - z @ w).mean()
        if gap <= gap_tol or used >= n_steps or res.fun >= 0.0:
            return w[:-1], float(w[-1]), res.x
        a = res.x


def probe_objective(embeddings, labels, regularization, weights, bias) -> float:
    """The probe's primal objective lambda/2 |(w, b)|^2 + mean hinge, one row
    at a time."""
    total = 0.0
    for row, label in zip(np.asarray(embeddings, dtype=np.float64), labels):
        margin = (1.0 if label == 1 else -1.0) * (float(row @ weights) + bias)
        total += max(0.0, 1.0 - margin)
    return regularization / 2 * (float(weights @ weights) + bias * bias) + total / len(labels)


# --- dataset ingest ----------------------------------------------------------


def block_mean_reference(x, factor: int) -> np.ndarray:
    """Area-average (N, C, H, W) by ``factor`` with float32 scalar adds: each
    window row left to right from +0.0, the row sums top to bottom from
    +0.0, then one float32 division by factor²."""
    x = np.asarray(x, dtype=np.float32)
    n, c, h, w = x.shape
    out = np.empty((n, c, h // factor, w // factor), dtype=np.float32)
    area = np.float32(factor * factor)
    for index in np.ndindex(out.shape):
        b, ch, i, j = index
        window = x[b, ch, i * factor : (i + 1) * factor, j * factor : (j + 1) * factor].tolist()
        total = np.float32(0.0)
        for row in window:
            row_sum = np.float32(0.0)
            for value in row:
                row_sum = np.float32(row_sum + np.float32(value))
            total = np.float32(total + row_sum)
        out[index] = total / area
    return out


def load_dataset_reference(manifest_path) -> list[np.ndarray]:
    """The (2, H, W) float32 tensor of every manifest entry, each file read
    whole and its payload copied out of the bytes."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
    tensors = []
    for entry in manifest["samples"]:
        data = (manifest_path.parent / entry["file"]).read_bytes()
        assert data[:4] == b"VPAT"
        c, h, w = struct.unpack("<III", data[4:16])
        assert len(data) == 16 + 4 * c * h * w
        tensors.append(np.frombuffer(data[16:], dtype="<f4").reshape(c, h, w).copy())
    return tensors


def run_stage_reference(model, plan, samples, seed: int) -> list[float]:
    """``pipeline.run_stage`` with every tuple slot forwarded as its own
    network row, repeats included, so that train-mode batch norm sees the
    duplicated batch. Trains ``model`` in place; returns the epoch losses."""
    data = patch_set(samples, model.config.input_size)
    if plan.stage == pipeline.STAGE_FRACTURE and model.head != pipeline.HEAD_CLASSIFIER:
        model.swap_head(pipeline.HEAD_CLASSIFIER, seed=seed + pipeline._HEAD_SEED_OFFSET)
    targets = pipeline._stage_targets(plan, data)
    base_seed = seed + pipeline._STAGE_SEED_OFFSET[plan.stage]
    opt = adam_init(model, learning_rate=pipeline.LEARNING_RATE)
    epoch_losses = []
    for epoch in range(plan.epochs):
        rows, per_tuple = pipeline.LOSS_TABLE[plan.loss_kind][0](targets, len(data), base_seed + epoch)
        total = 0.0
        for lo in range(0, len(rows), plan.batch_size):
            step = slice(lo, lo + plan.batch_size)
            batch = rows[step]
            out = model.forward(data.images[batch.ravel()], train=True)
            mean_loss, upstream = pipeline._metric_batch_loss(
                out.reshape(batch.shape + (-1,)),
                None if per_tuple is None else per_tuple[step],
                plan.loss_kind,
            )
            model.zero_grad()
            model.backward(upstream.reshape(out.shape))
            adam_step(model, opt)
            total += mean_loss * len(batch)
        epoch_losses.append(total / len(rows))
    return epoch_losses
