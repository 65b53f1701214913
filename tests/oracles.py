"""Independent measurement oracles shared across test modules.

These deliberately avoid the library's own code paths: distances are scalar
loops, gradients come from central differences, convolutions from direct
loops over every output and kernel tap, batch norm, rectifiers and max
pooling from their textbook formulas in float64, silhouette heights from
threshold crossings with subpixel interpolation, and arc lengths from
quadrature over an independently constructed spline.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline


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
