"""Network layers with explicit forward/backward passes.

Naming rule: each layer names its tensors once, in two tuples.
``PARAMS`` lists the trainable tensors, each an attribute of that name whose
gradient buffer is the attribute ``d_<name>``; ``STATE`` lists the
non-trainable ones (batch-norm running statistics). ``params()``,
``grads()`` and ``state()`` are built from those tuples, in their order.

Each layer owns its parameters and gradient buffers. A train-mode forward
caches whatever backward needs; eval-mode forwards cache nothing and are
side-effect free. Upstream gradients use the sum-reduction convention:
``backward(dy)`` expects d(scalar loss)/d(output) and returns the gradient
with respect to the input while accumulating parameter gradients in-place
(a ``Conv2d`` with ``input_grad = False`` returns ``None`` instead).

Memory rule: a pass allocates no input-sized array beyond the ones it
returns or caches, and works in place on those. A conv pass adds one buffer
of about ``COLS_BYTES``: forward's im2col columns, or backward's weight
gradient columns and then the input gradient's D and T. At the ``full``
preset an input-sized float32 array is above glibc's mmap ceiling, so each
one is page-faulted in fresh. No pass writes into its arguments (``x`` or
``dy``): callers may reuse them. A layer may overwrite its own cache,
which it drops after backward.

Row-count rule: batch norm weights train-mode row ``i`` by
``row_counts[i]``, set before the forward that uses them up; every other
layer is row-wise. Its mean, biased variance and running statistics are
then those of the batch with row ``i`` repeated ``row_counts[i]`` times, and
backward, given each row's summed upstream gradient D, returns that batch's
input gradient summed per row: gamma/sigma * (D - m*sum(D)/N -
m*xhat*sum(D*xhat)/N), with m the row counts and N = sum(m) (times H*W
for ``(N, C, H, W)`` maps).

Layout rule: every array inside a conv block (conv, batch norm, ReLU,
max-pool) keeps the ``(N, C, H, W)`` shape but is laid out batch-innermost:
it is the ``.transpose(3, 0, 1, 2)`` view of a C-contiguous ``(C, H, W, N)``
buffer. Outputs and input gradients of those layers are allocated that way,
so the im2col copies in ``Conv2d`` move runs of ``W*N`` floats. ``Flatten``
is a view both ways: forward hands the first linear layer a batch-innermost
``(N, F)`` batch, and ``Linear`` returns its input gradient batch-innermost,
so backward hands the last pool one too. The layers take any layout; a
C-contiguous input gives the same values, only slower.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _empty_batch_inner(shape, dtype):
    """An uninitialised ``(N, C, H, W)`` array laid out batch-innermost."""
    n, c, h, w = shape
    return np.empty((c, h, w, n), dtype=dtype).transpose(3, 0, 1, 2)


def kaiming_uniform(rng, shape, fan_in, dtype):
    """He-uniform draw: U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """Base layer: tensor maps built from ``PARAMS``/``STATE``, plus forward/backward."""

    PARAMS: tuple = ()
    STATE: tuple = ()
    _cache = None

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.PARAMS}

    def grads(self) -> dict:
        return {name: getattr(self, f"d_{name}") for name in self.PARAMS}

    def state(self) -> dict:
        """Non-trainable tensors (running statistics)."""
        return {name: getattr(self, name) for name in self.STATE}

    def forward(self, x, train: bool):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def _take_cache(self):
        """The last train-mode forward's cache, which one backward uses up."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a cached "
                f"train-mode forward pass"
            )
        return cache


# Bytes of a conv pass's one extra buffer; the input gradient runs over
# chunks of output rows whose D and T fill this much (at least one row).
COLS_BYTES = 16 * 2**20
# Forward and dW chunks stay in L2 from the im2col copy to the GEMM: 128-512
# KiB tied fastest of 64 KiB-16 MiB (Xeon, 2 MiB of L2 per core). A constant,
# not the host's cache size, keeps the dW bits the same on every machine.
CACHE_BYTES = 256 * 2**10
# Those chunks keep at least MIN_COLS columns (rows*W*N): a smaller GEMM call
# costs more than the cache saves (an N = 2 batch; full conv4's 3.3 MB dW per
# chunk). They span whole GEMM_COLS blocks (a power of 2) where the shape
# allows: OpenBLAS's sgemm computes a remainder of 16 columns with other bits
# (so forward keeps one GEMM's bits), and its dW sum over 32k + 16 columns has
# other bits at 1 thread than at 2 (over 32k columns, the same at 1-8). So a
# dW chunk that no row count aligns is padded with zero columns to whole
# blocks, which leaves its 1-thread bits as they were.
MIN_COLS, GEMM_COLS = 1024, 32


class Conv2d(Layer):
    """Stride-1 'same' convolution with square odd kernels, lowered to GEMMs.

    The input is padded once into a batch-innermost ``(C, H+2p, W+2p, N)``
    buffer, which is also the backward cache. Forward and the weight
    gradient run over cache-sized chunks of output rows: each is unrolled
    into a ``(C*k*k, rows*W*N)`` column matrix (im2col, Chellapilla et al.
    2006) by one strided copy that moves runs of ``W*N`` floats, and is one
    GEMM against the OIHW weight viewed as ``(O, C*k*k)``. Forward writes
    it straight into those rows of the ``(O, H, W, N)`` output; backward
    rebuilds the columns from the cache for the weight gradient.

    The input gradient is lowered by kernel columns instead (kn2col,
    Vasudevan et al. 2017), in chunks of rows whose D and T fit
    ``COLS_BYTES``. D stacks the k row shifts of ``dy``; one GEMM with the
    flipped weight viewed as ``(k*C, O*k)`` sums them over output channels
    and kernel rows into T; and T's k column shifts are added into ``dx``,
    each over the columns it keeps inside the image. That copies ``dy`` k
    times, where col2im wrote ``dx`` k*k times and added it back, for the
    same multiply-adds. Memory stays at O(input) plus one buffer of about
    ``COLS_BYTES``: the dW columns, then D and T.

    It has no bias: in the network a batch norm follows every conv, and its
    mean subtraction cancels any per-channel constant, so a bias would only
    gather rounding noise as its gradient.

    ``input_grad = False`` makes backward skip the input gradient and return
    ``None``; the network sets it on a first layer, whose input gradient
    nothing uses.
    """

    PARAMS = ("weight",)

    def __init__(self, in_channels, out_channels, kernel, rng, dtype=np.float32):
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same-size output")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = kernel // 2
        fan_in = in_channels * kernel * kernel
        self.weight = kaiming_uniform(
            rng, (out_channels, in_channels, kernel, kernel), fan_in, dtype
        )
        self.d_weight = np.zeros_like(self.weight)
        self.input_grad = True

    def _rows(self, xpad):
        """Rows per chunk by shape alone: cache-sized for forward and dW,
        ``COLS_BYTES``-sized for the input gradient's D and T, which hold
        ``(O + C)*k`` rows of ``rows*W*N`` floats."""
        c, hp, wp, n = xpad.shape
        k, p = self.kernel, self.pad
        h, wn = hp - 2 * p, (wp - 2 * p) * n
        row_bytes = c * k * k * wn * xpad.itemsize
        bounded = max(1, min(h, COLS_BYTES // row_bytes))
        fast = max(CACHE_BYTES // row_bytes, -(-MIN_COLS // wn))
        align = GEMM_COLS // min(GEMM_COLS, wn & -wn)  # rows per whole block
        dx_rows = COLS_BYTES // ((self.out_channels + c) * k * wn * xpad.itemsize)
        return min(-(-fast // align) * align, bounded), max(1, min(h, dx_rows))

    def _chunks(self, xpad, step, buf, block=1):
        """Yield ``(lo, hi, cols)`` per chunk of ``step`` output rows: ``cols``
        is the ``(C*k*k, (hi-lo)*W*N)`` column matrix of rows ``lo:hi`` of
        every image, copied from a window view of ``xpad`` to the front of
        ``buf``, which every chunk refills (so a caller may overwrite it).
        Row ``(c*k + di)*k + dj`` holds channel c shifted by kernel offset
        (di, dj), matching the OIHW weight order; its columns run over (row,
        column, image), like the ``(O, H, W, N)`` output, and are followed
        by zero columns up to a whole number of ``block`` columns."""
        k = self.kernel
        windows = sliding_window_view(xpad, (k, k), axis=(1, 2)).transpose(0, 4, 5, 1, 2, 3)
        c, _, _, h, w, n = windows.shape
        for lo in range(0, h, step):
            hi = min(lo + step, h)
            m = (hi - lo) * w * n
            cols = buf[: c * k * k * -(-m // block) * block].reshape(c * k * k, -1)
            np.copyto(cols[:, :m].reshape(c, k, k, hi - lo, w, n), windows[:, :, :, lo:hi])
            cols[:, m:] = 0
            yield lo, hi, cols

    def forward(self, x, train: bool):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        p, o = self.pad, self.out_channels
        xpad = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=x.dtype)
        xpad[:, p : p + h, p : p + w] = x.transpose(1, 2, 3, 0)
        wmat = self.weight.reshape(o, -1)
        y = np.empty((o, h, w, n), dtype=x.dtype)
        ymat = y.reshape(o, -1)
        step, _ = self._rows(xpad)
        buf = np.empty(wmat.shape[1] * step * w * n, dtype=x.dtype)
        for lo, hi, cols in self._chunks(xpad, step, buf):
            np.matmul(wmat, cols, out=ymat[:, lo * w * n : hi * w * n])
        self._cache = xpad if train else None
        return y.transpose(3, 0, 1, 2)

    def backward(self, dy):
        xpad = self._take_cache()
        n, o, h, w = dy.shape
        c, p, k = self.in_channels, self.pad, self.kernel
        wn = w * n
        dymat = np.ascontiguousarray(dy.transpose(1, 2, 3, 0)).reshape(o, -1)
        d_wmat = self.d_weight.reshape(o, -1)
        fast, rows = self._rows(xpad)
        size = c * k * k * -(-fast * wn // GEMM_COLS) * GEMM_COLS
        if self.input_grad:
            size = max(size, (o + c) * k * rows * wn)
        buf = np.empty(size, dtype=xpad.dtype)  # dW columns, then D and T
        for lo, hi, cols in self._chunks(xpad, fast, buf, GEMM_COLS):
            dyc = dymat[:, lo * wn : hi * wn]
            if cols.shape[1] > dyc.shape[1]:  # a chunk padded to whole blocks
                dyc = np.pad(dyc, ((0, 0), (0, cols.shape[1] - dyc.shape[1])))
            d_wmat += (cols @ dyc.T).T  # OpenBLAS runs this orientation faster
        if not self.input_grad:
            return None
        # dx[c, r, s] sums flip[o, c, ei, ej] * dy[o, r + ei - p, s + ej - p]
        # over (o, ei, ej), with flip the weight turned by 180 degrees. Per
        # chunk of rows, D holds the k row shifts (ei) of dy, T = W_flip D
        # sums over (o, ei), and T's k column shifts (ej) are added up, each
        # over the columns where it stays inside the image.
        wflip = np.ascontiguousarray(self.weight[:, :, ::-1, ::-1].transpose(3, 1, 0, 2)).reshape(k * c, o * k)
        dy4 = dymat.reshape(o, h, w, n)
        dx = np.empty((c, h, w, n), dtype=xpad.dtype)
        for lo in range(0, h, rows):
            hi = min(lo + rows, h)
            d = buf[: o * k * (hi - lo) * wn].reshape(o, k, hi - lo, w, n)
            t = buf[d.size : d.size + k * c * (hi - lo) * wn].reshape(k, c, hi - lo, w, n)
            for ei in range(k):
                src = lo + ei - p  # the dy row of D's first row
                a = min(max(-src, 0), hi - lo)
                b = max(min(h - src, hi - lo), a)
                d[:, ei, :a] = 0
                d[:, ei, a:b] = dy4[:, src + a : src + b]
                d[:, ei, b:] = 0
            np.matmul(wflip, d.reshape(o * k, -1), out=t.reshape(k * c, -1))
            out = dx[:, lo:hi]
            np.copyto(out, t[p])
            for shift in range(1, p + 1):
                out[:, :, :-shift] += t[p + shift, :, :, shift:]
                out[:, :, shift:] += t[p - shift, :, :, :-shift]
        return dx.transpose(3, 0, 1, 2)


class MaxPool2d(Layer):
    """2x2 max pooling, stride 2. Gradient goes to the first maximum.

    Window offset ``k = 2*i + j`` is the strided view ``x[:, :, i::2, j::2]``;
    forward takes the maximum of the four views and caches, per window, the
    first ``k`` that attains it as a ``uint8`` index. Forward's ufuncs
    allocate in the input's memory order; backward works and allocates
    ``dx`` batch-innermost.
    """

    OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train: bool):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"spatial size ({h},{w}) not divisible by 2")
        # Rows first: the pair maximum of whole rows reads x contiguously.
        rows = np.maximum(x[:, :, 0::2], x[:, :, 1::2])
        y = np.maximum(rows[..., 0::2], rows[..., 1::2])
        del rows
        self._cache = None
        if train:
            # First k whose view attains the maximum, as
            # (v0 != y) * (1 + (v1 != y) * (1 + (v2 != y))).
            views = [x[:, :, i::2, j::2] for i, j in self.OFFSETS]
            idx = np.not_equal(views[2], y).view(np.uint8)
            for k in (1, 0):
                idx += 1
                idx *= np.not_equal(views[k], y)
            self._cache = (idx, x.shape)
        return y

    def backward(self, dy):
        idx, shape = self._take_cache()
        dx = _empty_batch_inner(shape, dy.dtype)
        hit = np.empty_like(idx, dtype=bool)
        for k, (i, j) in enumerate(self.OFFSETS):
            np.equal(idx, k, out=hit)
            np.multiply(dy, hit, out=dx[:, :, i::2, j::2])
        return dx


class BatchNorm(Layer):
    """Batch normalization over every axis but the channel axis 1.

    ``(N, C)`` and ``(N, C, H, W)`` inputs share one path: both are viewed
    channel-first as ``(C, L)``, which is a view for a 2-D or batch-innermost
    input. Train mode centres the input into a new buffer, weights its
    per-row sums of squares by the row counts for the variance, and scales
    it in place into ``xhat``, which is the backward cache with the row
    weights tiled to ``(L,)``; backward builds the input gradient over it.
    """

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")
    row_counts = None

    def __init__(self, num_features, epsilon, momentum, dtype=np.float32):
        self.epsilon = epsilon
        self.momentum = momentum
        self.gamma = np.ones(num_features, dtype=dtype)
        self.beta = np.zeros(num_features, dtype=dtype)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self.d_gamma = np.zeros_like(self.gamma)
        self.d_beta = np.zeros_like(self.beta)

    @staticmethod
    def _channel_first(x):
        """``x`` as a ``(C, L)`` array over the batch-last axes ``(C, ..., N)``."""
        return x.transpose(*range(1, x.ndim), 0).reshape(x.shape[1], -1)

    @staticmethod
    def _batch_first(a, shape):
        """Inverse of ``_channel_first``: ``(C, L)`` back to ``shape``."""
        return a.reshape(*shape[1:], shape[0]).transpose(-1, *range(len(shape) - 1))

    def forward(self, x, train: bool):
        xc = self._channel_first(x)
        self._cache = None
        if not train:
            scale = self.gamma / np.sqrt(self.running_var + self.epsilon)
            shift = self.beta - self.running_mean * scale
            y = np.multiply(xc, scale[:, None], dtype=x.dtype)
            y += shift[:, None]
            return self._batch_first(y, x.shape)
        counts, self.row_counts = self.row_counts, None
        counts = np.ones(len(x), x.dtype) if counts is None else np.asarray(counts, x.dtype)
        if len(counts) != len(x):
            raise ValueError(f"{len(counts)} row counts for a batch of {len(x)} rows")
        weights = np.tile(counts, xc.shape[1] // len(x))
        m = xc.shape[1] // len(x) * int(counts.sum())
        mu = (xc @ weights) / m
        xhat = np.subtract(xc, mu[:, None], dtype=x.dtype)
        rows = xhat.reshape(len(xhat), -1, len(x))  # (C, L / N, N)
        var = np.einsum("chn,chn->cn", rows, rows) @ counts / m
        # Running stats follow the usual convention: unbiased variance
        # for the running estimate, biased for the normalization itself.
        unbiased = var * (m / max(m - 1, 1))
        mom = self.momentum
        self.running_mean[...] = (1 - mom) * self.running_mean + mom * mu
        self.running_var[...] = (1 - mom) * self.running_var + mom * unbiased
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xhat *= inv_std[:, None]
        y = np.multiply(xhat, self.gamma[:, None], dtype=x.dtype)
        y += self.beta[:, None]
        self._cache = (xhat, inv_std, weights, m)
        return self._batch_first(y, x.shape)

    def backward(self, dy):
        xhat, inv_std, weights, m = self._take_cache()
        dyc = self._channel_first(dy)
        sum_dy = dyc.sum(axis=1)
        sum_dy_xhat = np.einsum("cl,cl->c", dyc, xhat)
        self.d_beta += sum_dy
        self.d_gamma += sum_dy_xhat
        # dx = gamma * inv_std * (dy - w * (sum(dy) + xhat * sum(dy * xhat)) / m),
        # built in the spent xhat buffer.
        dx = xhat
        dx *= (sum_dy_xhat / m)[:, None]
        dx += (sum_dy / m)[:, None]
        dx *= weights
        np.subtract(dyc, dx, out=dx)
        dx *= (self.gamma * inv_std)[:, None]
        return self._batch_first(dx, dy.shape)


class LeakyReLU(Layer):
    """Leaky rectifier; slope 0 gives a plain ReLU. x == 0 takes the slope side.

    Backward multiplies by a cached mask: ``x > 0`` for a plain ReLU, else
    the per-element gain (1 or the slope).
    """

    def __init__(self, slope=0.01):
        self.slope = slope

    def forward(self, x, train: bool):
        self._cache = None
        if self.slope == 0:
            if train:
                self._cache = x > 0
            return np.maximum(x, 0, dtype=x.dtype)
        gain = np.where(x > 0, x.dtype.type(1), x.dtype.type(self.slope))
        self._cache = gain if train else None
        return x * gain

    def backward(self, dy):
        mask = self._take_cache()
        return np.multiply(dy, mask, dtype=dy.dtype)


class Flatten(Layer):
    def forward(self, x, train: bool):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        shape = self._take_cache()
        return dy.reshape(shape)


class Linear(Layer):
    """Fully connected layer; ``bias=True`` adds a bias that starts at zero,
    draws nothing from ``rng`` and is listed in the layer's own ``PARAMS``."""

    PARAMS = ("weight",)
    bias = None

    def __init__(self, in_features, out_features, rng, dtype=np.float32, bias=False):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = kaiming_uniform(
            rng, (out_features, in_features), in_features, dtype
        )
        self.d_weight = np.zeros_like(self.weight)
        if bias:
            self.PARAMS = ("weight", "bias")
            self.bias = np.zeros(out_features, dtype=dtype)
            self.d_bias = np.zeros_like(self.bias)

    def forward(self, x, train: bool):
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {x.shape[1]}")
        self._cache = x if train else None
        y = x @ self.weight.T
        return y if self.bias is None else y + self.bias

    def backward(self, dy):
        x = self._take_cache()
        self.d_weight += dy.T @ x
        if self.bias is not None:
            self.d_bias += dy.sum(axis=0)
        return (self.weight.T @ dy.T).T  # batch-innermost
