"""Finite-difference checks for every layer type in isolation, plus the
behavioral contracts (tie-breaking, eval purity, cache errors)."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinemetric.backbone import init_model, layers
from spinemetric.backbone.layers import (
    BatchNorm,
    Conv2d,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
)
from spinemetric.cli import NETWORK_PRESETS

from .oracles import (
    batchnorm_eval,
    batchnorm_train,
    conv2d_direct,
    leaky_relu_reference,
    maxpool_reference,
    rel_err,
    with_tensors,
)

RNG = np.random.default_rng(1234)


def fd_layer_check(layer, x, h=1e-5, tol=1e-3, stride=7, row_counts=None):
    """Compare analytic input/parameter gradients against central differences
    for a random linear functional of the output. ``row_counts``, when
    given, weights the rows of every train forward of a batch norm."""

    def forward():
        if row_counts is not None:
            layer.row_counts = row_counts
        return layer.forward(x, train=True)

    R = np.random.default_rng(99).normal(size=forward().shape)

    def loss():
        return float(np.sum(forward() * R))

    forward()
    for name in layer.PARAMS:
        getattr(layer, f"d_{name}").fill(0.0)
    dx = layer.backward(R)
    grads = {name: getattr(layer, f"d_{name}").copy() for name in layer.PARAMS}

    tensors = [("input", x, dx)] + [
        (name, getattr(layer, name), grads[name]) for name in layer.PARAMS
    ]
    for name, tensor, analytic in tensors:
        flat = tensor.ravel()
        aflat = analytic.ravel()
        for idx in range(0, flat.size, stride):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss()
            flat[idx] = orig - h
            lm = loss()
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert rel_err(aflat[idx], fd) < tol, (name, idx)


# Row counts of a distinct-row batch: every row once, one row standing for
# a batch of six identical rows (zero batch variance on (N, C) features),
# and a mix of repeats.
ROW_COUNTS = {"ones": [1, 1, 1, 1], "repeated": [6], "mixed": [3, 1, 2, 5]}


def bn_ranks(maps, features):
    """Per-row shapes of BatchNorm's two cases, (N, C, H, W) maps and
    (N, C) features, under the test ids of the per-rank classes it replaced."""
    return [pytest.param(maps, id="BatchNorm2d-shape0"), pytest.param(features, id="BatchNorm1d-shape1")]


class TestGradientChecks:
    def test_conv(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        fd_layer_check(with_tensors(Conv2d(3, 4, 5), np.float64, RNG), x)

    def test_conv_3x3(self):
        x = RNG.normal(size=(2, 2, 6, 6))
        fd_layer_check(with_tensors(Conv2d(2, 3, 3), np.float64, RNG), x)

    def test_batchnorm2d(self):
        x = RNG.normal(size=(4, 3, 6, 6))
        fd_layer_check(with_tensors(BatchNorm(3, np.float64), np.float64), x)

    def test_batchnorm1d(self):
        x = RNG.normal(size=(8, 5))
        fd_layer_check(with_tensors(BatchNorm(5, np.float64), np.float64), x)

    @pytest.mark.parametrize("pattern", ROW_COUNTS)
    @pytest.mark.parametrize("shape", bn_ranks((3, 6, 6), (5,)))
    def test_batchnorm_with_row_counts(self, shape, pattern):
        counts = ROW_COUNTS[pattern]
        x = RNG.normal(size=(len(counts),) + shape)
        fd_layer_check(with_tensors(BatchNorm(shape[0], np.float64), np.float64), x, stride=3, row_counts=counts)

    def test_leaky_relu(self):
        x = RNG.normal(size=(4, 3, 4, 4))
        x[np.abs(x) < 1e-3] = 0.1  # keep clear of the kink
        fd_layer_check(LeakyReLU(0.01), x)

    def test_relu_slope_zero(self):
        x = RNG.normal(size=(4, 8))
        x[np.abs(x) < 1e-3] = -0.1
        fd_layer_check(LeakyReLU(0.0), x)

    def test_maxpool(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        fd_layer_check(MaxPool2d(), x, stride=3)

    def test_linear(self):
        x = RNG.normal(size=(6, 10))
        fd_layer_check(with_tensors(Linear(10, 4, bias=True), np.float64, RNG), x, stride=3)


def _force_rows(monkeypatch, conv, x, cache_rows, dx_rows, block=1):
    """Set the chunk constants so that ``cache_rows`` rows of ``x``'s im2col
    columns fill the cache budget and ``dx_rows`` rows of the input
    gradient's D and T the buffer, with no column floor and ``block``-column
    blocks."""
    n, c, _, width = x.shape
    k = conv.kernel
    row_bytes = c * k * k * width * n * x.itemsize
    dx_bytes = (conv.out_channels + c) * k * dx_rows * width * n * x.itemsize
    monkeypatch.setattr(layers, "CACHE_BYTES", int(cache_rows * row_bytes))
    monkeypatch.setattr(layers, "COLS_BYTES", dx_bytes)
    monkeypatch.setattr(layers, "MIN_COLS", 1)
    monkeypatch.setattr(layers, "GEMM_COLS", block)


def _check_against_direct_loops(conv, x, dy, rows):
    """Forward, backward and the oracle at 1e-10, with ``rows`` the
    expected (forward and weight-gradient, input-gradient) rows per chunk."""
    y = conv.forward(x, train=True)
    assert conv._rows(conv._cache) == rows
    dx = conv.backward(dy)
    y_ref, dw_ref, _, dx_ref = conv2d_direct(x, conv.weight, np.zeros(conv.out_channels), dy)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(conv.d_weight, dw_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-10)


class TestConvOracle:
    # Rows per chunk (forward and weight gradient, input gradient): both
    # loops run several chunks and end on a shorter one, and the first and
    # last input-gradient chunks read zero rows past dy's edges.
    ROWS = {7: (2, 3), 6: (4, 5)}

    @pytest.mark.parametrize("kernel,size", [(3, 7), (5, 6)])
    def test_chunked_conv_matches_direct_loops(self, monkeypatch, kernel, size):
        n, c, o = 5, 2, 6
        rng = np.random.default_rng(kernel)
        conv = with_tensors(Conv2d(c, o, kernel), np.float64, rng)
        x = rng.normal(size=(n, c, size, size))
        dy = rng.normal(size=(n, o, size, size))
        _force_rows(monkeypatch, conv, x, *self.ROWS[size])
        _check_against_direct_loops(conv, x, dy, self.ROWS[size])

    @pytest.mark.parametrize(
        "n, cache_rows, rows, block",
        [
            # One image, in chunks of 3 rows (3, 3, 3) and 4 rows (4, 4, 1);
            # each 27-column dW chunk is padded to a 32-column block.
            pytest.param(1, 3, (3, 4), 32, id="one-image"),
            # One row's columns are twice the cache budget: one-row chunks.
            pytest.param(4, 0.5, (1, 4), 1, id="row-over-cache"),
            # One-row input-gradient chunks, fewer rows than the padding:
            # in the first two, D's first row shifts are all zero rows.
            pytest.param(2, 1, (1, 1), 1, id="one-row-chunks"),
        ],
    )
    def test_chunk_edge_cases_match_direct_loops(self, monkeypatch, n, cache_rows, rows, block):
        c, o, kernel, size = 3, 9, 5, 9
        rng = np.random.default_rng(n)
        conv = with_tensors(Conv2d(c, o, kernel), np.float64, rng)
        x = rng.normal(size=(n, c, size, size))
        dy = rng.normal(size=(n, o, size, size))
        _force_rows(monkeypatch, conv, x, cache_rows, rows[1], block)
        _check_against_direct_loops(conv, x, dy, rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_gradient_matches_dy_cols_product(self, monkeypatch, dtype):
        """The weight gradient, accumulated chunk by chunk as
        (cols dy^T)^T, against the dy cols^T product of the same chunks."""
        n, c, o, kernel, size = 7, 4, 8, 5, 12
        rng = np.random.default_rng(21)
        conv = with_tensors(Conv2d(c, o, kernel), dtype, rng)
        x = rng.normal(size=(n, c, size, size)).astype(dtype)
        _force_rows(monkeypatch, conv, x, 5, 12)
        dy = rng.normal(size=(n, o, size, size)).astype(dtype)

        conv.forward(x, train=True)
        dymat = np.ascontiguousarray(dy.transpose(1, 2, 3, 0)).reshape(o, -1)
        expected, chunks = np.zeros((o, c * kernel * kernel), dtype), 0
        fast, _ = conv._rows(conv._cache)
        buf = np.empty(c * kernel * kernel * fast * size * n, dtype)
        for lo, hi, cols in conv._chunks(conv._cache, fast, buf):  # one column buffer, refilled per chunk
            expected += dymat[:, lo * size * n : hi * size * n] @ cols.T
            chunks += 1
        conv.backward(dy)

        assert chunks == 3
        np.testing.assert_allclose(conv.d_weight.reshape(o, -1), expected, rtol=1e-6,
                                   atol=1e-6 * np.abs(expected).max())

    # Rows per chunk (forward and weight gradient, input gradient) of every
    # float32 conv of the presets, by (in channels, out channels, size) and
    # batch rows N.
    PRESET_ROWS = {
        "tiny.conv1": (2, 6, 16, {2: (16, 16), 32: (2, 16), 100: (1, 16)}),
        "tiny.conv2": (6, 12, 8, {2: (8, 8), 32: (4, 8), 100: (2, 8)}),
        "reduced.conv1": (2, 8, 28, {2: (24, 28), 32: (2, 28), 100: (2, 28)}),
        "reduced.conv2": (8, 16, 14, {2: (14, 14), 32: (3, 14), 100: (4, 14)}),
        "full.conv1": (2, 32, 112, {2: (5, 110), 32: (1, 6), 100: (1, 2)}),
        "full.conv2": (32, 64, 56, {2: (10, 56), 32: (1, 4), 100: (1, 1)}),
        "full.conv3": (64, 128, 28, {2: (20, 28), 32: (2, 4), 100: (1, 1)}),
        "full.conv4": (128, 256, 14, {2: (14, 14), 32: (2, 4), 100: (1, 1)}),
    }

    @pytest.mark.parametrize("layer", PRESET_ROWS)
    def test_chunk_rows_pinned(self, layer):
        """The partition is a function of the shape and the module constants."""
        c, o, size, rows = self.PRESET_ROWS[layer]
        conv = with_tensors(Conv2d(c, o, 5), np.float32, np.random.default_rng(0))
        for n, expected in rows.items():
            xpad = np.broadcast_to(np.float32(0), (c, size + 4, size + 4, n))
            assert conv._rows(xpad) == expected, n

    def test_forward_bits_do_not_depend_on_chunking(self, monkeypatch):
        """Cache-sized chunks in whole GEMM_COLS blocks give the forward bits
        of one GEMM over all the columns (reduced conv1 at N = 2: 24 of 28 rows)."""
        rng = np.random.default_rng(5)
        conv = with_tensors(Conv2d(2, 8, 5), np.float32, rng)
        x = _batch_inner(rng.normal(size=(2, 2, 28, 28)).astype(np.float32))
        y = conv.forward(x, train=False)
        monkeypatch.setattr(layers, "CACHE_BYTES", layers.COLS_BYTES)
        assert np.array_equal(y, conv.forward(x, train=False))

    def test_weight_gradient_bits_do_not_depend_on_blas_threads(self):
        """dW chunks of whole 32-column blocks, zero-padded where no row
        count aligns them, give the same bits at 1, 2 and 4 BLAS threads."""
        assert len(_outputs_at_blas_threads(DW_DIGESTS)) == 1

    def test_input_gradient_bits_do_not_depend_on_blas_threads(self):
        """The input gradient of tiny conv2 and reduced conv2 has the same
        bits at 1, 2 and 4 BLAS threads."""
        assert len(_outputs_at_blas_threads(DX_DIGESTS)) == 1


def _outputs_at_blas_threads(script):
    """The set of what ``script`` prints at 1, 2 and 4 OpenBLAS threads.
    OpenBLAS reads its count when numpy loads, so each count runs in its
    own interpreter."""
    root = Path(layers.__file__).parents[3]  # the checkout: src/ and tests/
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    outputs = set()
    for threads in ("1", "2", "4"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    return outputs


# Prints the SHA-256 of one backward's weight gradient of the tiny convs and
# of reduced conv1, at batch sizes where a 16-column block rule gave other
# bits at 2 BLAS threads than at 1, and of reduced conv2 (8 to 16 channels,
# 14 px), whose unpadded dW chunks did at N = 7, 50 and 100.
DW_DIGESTS = """
import hashlib
import numpy as np
from spinemetric.backbone.layers import Conv2d
from tests.oracles import with_tensors
for c, o, size, n in ((2, 6, 16, 7), (6, 16, 8, 50), (6, 16, 8, 131), (2, 8, 28, 50),
                      (8, 16, 14, 7), (8, 16, 14, 50), (8, 16, 14, 100)):
    rng = np.random.default_rng(n)
    conv = with_tensors(Conv2d(c, o, 5), np.float32, rng)
    conv.input_grad = False
    x = rng.normal(size=(c, size, size, n)).astype(np.float32).transpose(3, 0, 1, 2)
    conv.forward(x, train=True)
    conv.backward(rng.normal(size=(o, size, size, n)).astype(np.float32).transpose(3, 0, 1, 2))
    print(hashlib.sha256(conv.d_weight.tobytes()).hexdigest())
"""

# Prints the SHA-256 of one backward's input gradient of tiny conv2 (6 to 12
# channels, 8 px) and reduced conv2 (8 to 16 channels, 14 px) at N = 7, 50
# and 131.
DX_DIGESTS = """
import hashlib
import numpy as np
from spinemetric.backbone.layers import Conv2d
from tests.oracles import with_tensors
for c, o, size in ((6, 12, 8), (8, 16, 14)):
    for n in (7, 50, 131):
        rng = np.random.default_rng(n)
        conv = with_tensors(Conv2d(c, o, 5), np.float32, rng)
        x = rng.normal(size=(c, size, size, n)).astype(np.float32).transpose(3, 0, 1, 2)
        conv.forward(x, train=True)
        dx = conv.backward(rng.normal(size=(o, size, size, n)).astype(np.float32).transpose(3, 0, 1, 2))
        print(hashlib.sha256(np.ascontiguousarray(dx).tobytes()).hexdigest())
"""


def _batch_inner(a):
    """``a`` laid out batch-innermost: the (N, C, H, W) view of a
    C-contiguous (C, H, W, N) copy."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _is_batch_inner(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


CONV_BLOCK_LAYERS = {
    "conv": lambda: with_tensors(Conv2d(3, 4, 3), np.float64, np.random.default_rng(14)),
    "batchnorm": lambda: with_tensors(BatchNorm(3, np.float64), np.float64),
    "relu": lambda: LeakyReLU(0.0),
    "maxpool": lambda: MaxPool2d(),
}


class TestBatchInnerLayout:
    def _run(self, layer, x, layout):
        y = layer.forward(layout(x), train=True)
        dy = np.random.default_rng(16).normal(size=y.shape)
        dx = layer.backward(layout(dy))
        y_eval = layer.forward(layout(x), train=False)
        grads = {name: getattr(layer, f"d_{name}").copy() for name in layer.PARAMS}
        return y, dx, y_eval, grads

    @pytest.mark.parametrize("name", sorted(CONV_BLOCK_LAYERS))
    def test_batch_inner_in_batch_inner_out(self, name):
        x = np.random.default_rng(15).normal(size=(5, 3, 6, 6))
        y, dx, y_eval, _ = self._run(CONV_BLOCK_LAYERS[name](), x, _batch_inner)
        for a in (y, dx, y_eval):
            assert _is_batch_inner(a), name

    @pytest.mark.parametrize("name", sorted(CONV_BLOCK_LAYERS))
    def test_c_contiguous_input_gives_same_values(self, name):
        x = np.random.default_rng(15).normal(size=(5, 3, 6, 6))
        inner = self._run(CONV_BLOCK_LAYERS[name](), x, _batch_inner)
        plain = self._run(CONV_BLOCK_LAYERS[name](), x, np.ascontiguousarray)
        for a, b in zip(inner[:3], plain[:3]):
            assert_matches(b, a, 1e-12)
        for key in inner[3]:
            assert_matches(plain[3][key], inner[3][key], 1e-12)

    def test_last_pool_gets_batch_inner_gradient_in_train_step(self, monkeypatch):
        # Flatten's backward is a view of the first linear layer's input
        # gradient, so that gradient must come out batch-innermost.
        model = init_model(NETWORK_PRESETS["tiny"], seed=0)
        pool = dict(zip(model._names, model._layers))["pool2"]
        seen, backward = [], pool.backward
        monkeypatch.setattr(pool, "backward", lambda dy: seen.append(dy) or backward(dy))
        y = model.forward(np.random.default_rng(17).normal(size=(7, 2, 16, 16)), train=True)
        model.backward(np.random.default_rng(18).normal(size=y.shape))
        assert len(seen) == 1 and _is_batch_inner(seen[0])


# float64 layers match the float64 oracles to 1e-12; float32 ones to 1e-5
# relative, measured against the oracle run on the same float32 values.
DTYPE_TOLERANCES = [(np.float64, 1e-12), (np.float32, 1e-5)]


def assert_matches(actual, expected, tol):
    """Element-wise relative error at most tol, with an absolute floor of tol
    times the largest expected magnitude (for entries near zero)."""
    expected = np.asarray(expected, dtype=np.float64)
    floor = tol * max(float(np.max(np.abs(expected))), 1e-300)
    np.testing.assert_allclose(np.asarray(actual, np.float64), expected, rtol=tol, atol=floor)


def _seeded_batchnorm(c, dtype, rng):
    bn = with_tensors(BatchNorm(c, dtype), dtype)
    bn.gamma[...] = rng.uniform(0.5, 2.0, c)
    bn.beta[...] = rng.normal(size=c)
    bn.running_mean[...] = rng.normal(size=c)
    bn.running_var[...] = rng.uniform(0.5, 2.0, c)
    return bn


class TestPointwiseOracles:
    @pytest.mark.parametrize("dtype,tol", DTYPE_TOLERANCES)
    @pytest.mark.parametrize("shape", bn_ranks((4, 3, 5, 6), (16, 5)))
    def test_batchnorm_train(self, shape, dtype, tol):
        rng = np.random.default_rng(7)
        bn = _seeded_batchnorm(shape[1], dtype, rng)
        bn.d_gamma[...] = rng.normal(size=shape[1])  # backward accumulates
        bn.d_beta[...] = rng.normal(size=shape[1])
        start = {name: getattr(bn, name).copy() for name in (*bn.PARAMS, *bn.STATE)}
        d_gamma0, d_beta0 = bn.d_gamma.astype(np.float64), bn.d_beta.astype(np.float64)
        x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
        dy = rng.normal(size=shape).astype(dtype)

        y = bn.forward(x, train=True)
        dx = bn.backward(dy)

        y_ref, dx_ref, dg_ref, db_ref, mean_ref, var_ref = batchnorm_train(
            x, start["gamma"], start["beta"], start["running_mean"], start["running_var"],
            1e-5, 0.1, dy,
        )
        assert_matches(y, y_ref, tol)
        assert_matches(dx, dx_ref, tol)
        assert_matches(bn.d_gamma, d_gamma0 + dg_ref, tol)
        assert_matches(bn.d_beta, d_beta0 + db_ref, tol)
        assert_matches(bn.running_mean, mean_ref, tol)
        assert_matches(bn.running_var, var_ref, tol)

    @pytest.mark.parametrize("dtype,tol", DTYPE_TOLERANCES)
    @pytest.mark.parametrize("shape", bn_ranks((4, 3, 5, 6), (16, 5)))
    def test_batchnorm_eval(self, shape, dtype, tol):
        rng = np.random.default_rng(8)
        bn = _seeded_batchnorm(shape[1], dtype, rng)
        x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
        y = bn.forward(x, train=False)
        assert_matches(
            y, batchnorm_eval(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var, 1e-5), tol
        )

    @pytest.mark.parametrize("dtype,tol", DTYPE_TOLERANCES)
    @pytest.mark.parametrize("slope", [0.0, 0.01])
    def test_leaky_relu(self, slope, dtype, tol):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 5, 6)).astype(dtype)
        x[0, 0, 0, :3] = 0.0  # x == 0 takes the slope side
        dy = rng.normal(size=x.shape).astype(dtype)
        relu = LeakyReLU(slope)
        y_train = relu.forward(x, train=True)
        dx = relu.backward(dy)
        y_ref, dx_ref = leaky_relu_reference(x, slope, dy)
        for y in (y_train, relu.forward(x, train=False)):
            assert_matches(y, y_ref, tol)
        assert_matches(dx, dx_ref, tol)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("values", ["normal", "ties"])
    def test_maxpool_is_exact(self, values, dtype):
        rng = np.random.default_rng(10)
        shape = (3, 4, 6, 8)
        if values == "ties":
            # Values in {-1, 0, 1, 2}: most windows hold a tied maximum.
            x = rng.integers(-1, 3, size=shape).astype(dtype)
        else:
            x = rng.normal(size=shape).astype(dtype)
        dy = rng.normal(size=(3, 4, 3, 4)).astype(dtype)
        pool = MaxPool2d()
        y_train = pool.forward(x, train=True)
        dx = pool.backward(dy)
        y_ref, dx_ref = maxpool_reference(x, dy)
        for y in (y_train, pool.forward(x, train=False)):
            np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(dx, dx_ref)


class TestBatchNormRowCounts:
    """A distinct-row batch with row counts behaves as the duplicated batch."""

    @pytest.mark.parametrize("pattern", ROW_COUNTS)
    @pytest.mark.parametrize("shape", bn_ranks((3, 5, 6), (5,)))
    def test_matches_duplicated_batch(self, shape, pattern):
        rng = np.random.default_rng(12)
        counts = ROW_COUNTS[pattern]
        # Slot s of the duplicated batch holds distinct row slots[s].
        slots = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        x = rng.normal(size=(len(counts),) + shape) * 3.0 + 1.5
        dy = rng.normal(size=(len(slots),) + shape)
        d_rows = np.zeros_like(x)
        np.add.at(d_rows, slots, dy)

        distinct = _seeded_batchnorm(shape[0], np.float64, np.random.default_rng(3))
        duplicated = _seeded_batchnorm(shape[0], np.float64, np.random.default_rng(3))
        distinct.row_counts = counts
        y = distinct.forward(x, train=True)
        dx = distinct.backward(d_rows)
        y_dup = duplicated.forward(x[slots], train=True)
        dx_dup = np.zeros_like(x)
        np.add.at(dx_dup, slots, duplicated.backward(dy))

        # Absolute tolerance too: with one repeated row, the input gradient
        # on features is 0 in real arithmetic, so only rounding noise is left.
        close = functools.partial(np.testing.assert_allclose, rtol=1e-12, atol=1e-12)
        close(y[slots], y_dup)
        close(dx, dx_dup)
        for name in ("d_gamma", "d_beta", "running_mean", "running_var"):
            close(getattr(distinct, name), getattr(duplicated, name), err_msg=name)

    def test_counts_are_used_by_one_train_forward(self):
        bn = with_tensors(BatchNorm(2, np.float64), np.float64)
        x = RNG.normal(size=(3, 2))
        bn.row_counts = [1, 2, 3]
        bn.forward(x, train=False)
        assert bn.row_counts == [1, 2, 3]
        bn.forward(x, train=True)
        assert bn.row_counts is None

    def test_count_length_must_match_batch(self):
        bn = with_tensors(BatchNorm(2, np.float64), np.float64)
        bn.row_counts = [1, 2]
        with pytest.raises(ValueError, match="2 row counts for a batch of 3 rows"):
            bn.forward(RNG.normal(size=(3, 2, 2, 2)), train=True)


class TestMaxPoolTies:
    def test_gradient_goes_to_first_maximum(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[1.0, 1.0], [1.0, 1.0]]  # four-way tie
        pool = MaxPool2d()
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 1, 1, 1)))
        # window flattens as [(0,0), (0,1), (1,0), (1,1)]; first wins
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0
        assert np.array_equal(dx, expected)

    def test_tied_positive_pair_routes_to_first(self):
        # Channel p ties two window positions at 2.0 (the rest hold 1.0).
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        x = np.ones((1, len(pairs), 2, 2))
        for p, (a, b) in enumerate(pairs):
            x[0, p].flat[[a, b]] = 2.0
        pool = MaxPool2d()
        assert np.array_equal(pool.forward(x, train=True), np.full((1, len(pairs), 1, 1), 2.0))
        dx = pool.backward(np.full((1, len(pairs), 1, 1), 3.0))
        for p, (a, _) in enumerate(pairs):
            expected = np.zeros(4)
            expected[a] = 3.0
            assert np.array_equal(dx[0, p].ravel(), expected), (a, pairs[p])

    def test_odd_spatial_size_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2d().forward(np.zeros((1, 1, 3, 4)), train=True)


class TestBatchNormBehavior:
    def test_eval_uses_running_stats_and_is_pure(self):
        bn = with_tensors(BatchNorm(2, np.float64), np.float64)
        x = RNG.normal(size=(4, 2, 3, 3))
        bn.forward(x, train=True)
        mean_before = bn.running_mean.copy()
        y1 = bn.forward(x, train=False)
        y2 = bn.forward(x, train=False)
        assert np.array_equal(y1, y2)
        assert np.array_equal(bn.running_mean, mean_before)

    def test_train_updates_running_stats(self):
        bn = with_tensors(BatchNorm(3, np.float64), np.float64)
        x = RNG.normal(size=(16, 3)) + 5.0
        bn.forward(x, train=True)
        assert not np.allclose(bn.running_mean, 0.0)

    def test_normalization_output_statistics(self, monkeypatch):
        monkeypatch.setattr(layers, "BN_EPSILON", 1e-8)
        bn = with_tensors(BatchNorm(3, np.float64), np.float64)
        x = RNG.normal(size=(256, 3)) * 4 + 2
        y = bn.forward(x, train=True)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=0), 1.0, atol=1e-6)


def _every_layer(dtype):
    rng = np.random.default_rng(11)
    return [
        (with_tensors(Conv2d(2, 3, 3), dtype, rng), (2, 2, 4, 4)),
        (with_tensors(BatchNorm(2, dtype), dtype), (3, 2, 4, 4)),
        (with_tensors(BatchNorm(4, dtype), dtype), (5, 4)),
        (MaxPool2d(), (2, 2, 4, 4)),
        (LeakyReLU(0.0), (2, 2, 4, 4)),
        (LeakyReLU(0.01), (2, 2, 4, 4)),
        (Flatten(), (2, 2, 4, 4)),
        (with_tensors(Linear(4, 3), dtype, rng), (5, 4)),
    ]


class TestLayerContracts:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_are_never_modified(self, dtype):
        rng = np.random.default_rng(12)
        for layer, shape in _every_layer(dtype):
            x = rng.normal(size=shape).astype(dtype)
            x_copy = x.copy()
            y = layer.forward(x, train=True)
            dy = rng.normal(size=y.shape).astype(dtype)
            dy_copy = dy.copy()
            layer.backward(dy)
            layer.forward(x, train=False)
            name = type(layer).__name__
            assert np.array_equal(x, x_copy), name
            assert np.array_equal(dy, dy_copy), name

    def test_float32_in_float32_out(self):
        rng = np.random.default_rng(13)
        for layer, shape in _every_layer(np.float32):
            x = rng.normal(size=shape).astype(np.float32)
            assert layer.forward(x, train=False).dtype == np.float32, type(layer).__name__
            y = layer.forward(x, train=True)
            assert y.dtype == np.float32, type(layer).__name__
            dx = layer.backward(np.ones_like(y))
            assert dx.dtype == np.float32, type(layer).__name__


class TestCacheDiscipline:
    @pytest.mark.parametrize(
        "layer,shape",
        [
            (with_tensors(Conv2d(2, 3, 5), np.float64, RNG), (1, 2, 4, 4)),
            (with_tensors(BatchNorm(2, np.float64), np.float64), (2, 2, 4, 4)),
            (MaxPool2d(), (1, 2, 4, 4)),
            (LeakyReLU(0.01), (1, 2, 4, 4)),
            (Flatten(), (1, 2, 4, 4)),
            (with_tensors(Linear(4, 2), np.float64, RNG), (3, 4)),
        ],
    )
    def test_backward_without_forward_raises(self, layer, shape):
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros(shape))

    def test_eval_forward_does_not_enable_backward(self):
        lin = with_tensors(Linear(4, 2), np.float64, RNG)
        lin.forward(np.zeros((3, 4)), train=False)
        with pytest.raises(RuntimeError):
            lin.backward(np.zeros((3, 2)))
