"""Finite-difference checks for every layer type in isolation, plus the
behavioral contracts (tie-breaking, eval purity, cache errors)."""

import numpy as np
import pytest

from spinemetric.backbone import layers
from spinemetric.backbone.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
)

from .oracles import conv2d_direct, rel_err

RNG = np.random.default_rng(1234)


def fd_layer_check(layer, x, h=1e-5, tol=1e-3, stride=7):
    """Compare analytic input/parameter gradients against central differences
    for a random linear functional of the output."""
    y0 = layer.forward(x, train=True)
    R = np.random.default_rng(99).normal(size=y0.shape)

    def loss():
        return float(np.sum(layer.forward(x, train=True) * R))

    layer.forward(x, train=True)
    for g in layer.grads().values():
        g.fill(0.0)
    dx = layer.backward(R)
    grads = {k: v.copy() for k, v in layer.grads().items()}

    tensors = [("input", x, dx)] + [
        (name, layer.params()[name], grads[name]) for name in layer.params()
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


class TestGradientChecks:
    def test_conv(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        fd_layer_check(Conv2d(3, 4, 5, RNG, np.float64), x)

    def test_conv_3x3(self):
        x = RNG.normal(size=(2, 2, 6, 6))
        fd_layer_check(Conv2d(2, 3, 3, RNG, np.float64), x)

    def test_batchnorm2d(self):
        x = RNG.normal(size=(4, 3, 6, 6))
        fd_layer_check(BatchNorm2d(3, 1e-5, 0.1, np.float64), x)

    def test_batchnorm1d(self):
        x = RNG.normal(size=(8, 5))
        fd_layer_check(BatchNorm1d(5, 1e-5, 0.1, np.float64), x)

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
        fd_layer_check(Linear(10, 4, RNG, np.float64), x, stride=3)


class TestConvOracle:
    @pytest.mark.parametrize("kernel,size", [(3, 7), (5, 6)])
    def test_chunked_conv_matches_direct_loops(self, monkeypatch, kernel, size):
        n, c, o = 5, 2, 3
        rng = np.random.default_rng(kernel)
        conv = Conv2d(c, o, kernel, rng, np.float64)
        conv.bias[...] = rng.normal(size=o)
        x = rng.normal(size=(n, c, size, size))
        dy = rng.normal(size=(n, o, size, size))
        # Two images per column buffer: chunks of 2, 2 and 1.
        image_bytes = c * kernel * kernel * size * size * 8
        monkeypatch.setattr(layers, "COLS_BYTES", 2 * image_bytes + 1)

        y = conv.forward(x, train=True)
        assert [hi - lo for lo, hi, _ in conv._chunks(conv._cache)] == [2, 2, 1]
        dx = conv.backward(dy)

        y_ref, dw_ref, db_ref, dx_ref = conv2d_direct(x, conv.weight, conv.bias, dy)
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv.d_weight, dw_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv.d_bias, db_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-10)


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

    def test_odd_spatial_size_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2d().forward(np.zeros((1, 1, 3, 4)), train=True)


class TestBatchNormBehavior:
    def test_eval_uses_running_stats_and_is_pure(self):
        bn = BatchNorm2d(2, 1e-5, 0.1, np.float64)
        x = RNG.normal(size=(4, 2, 3, 3))
        bn.forward(x, train=True)
        mean_before = bn.running_mean.copy()
        y1 = bn.forward(x, train=False)
        y2 = bn.forward(x, train=False)
        assert np.array_equal(y1, y2)
        assert np.array_equal(bn.running_mean, mean_before)

    def test_train_updates_running_stats(self):
        bn = BatchNorm1d(3, 1e-5, 0.1, np.float64)
        x = RNG.normal(size=(16, 3)) + 5.0
        bn.forward(x, train=True)
        assert not np.allclose(bn.running_mean, 0.0)

    def test_normalization_output_statistics(self):
        bn = BatchNorm1d(3, 1e-8, 0.1, np.float64)
        x = RNG.normal(size=(256, 3)) * 4 + 2
        y = bn.forward(x, train=True)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=0), 1.0, atol=1e-6)


class TestCacheDiscipline:
    @pytest.mark.parametrize(
        "layer,shape",
        [
            (Conv2d(2, 3, 5, RNG, np.float64), (1, 2, 4, 4)),
            (BatchNorm2d(2, 1e-5, 0.1, np.float64), (2, 2, 4, 4)),
            (MaxPool2d(), (1, 2, 4, 4)),
            (LeakyReLU(0.01), (1, 2, 4, 4)),
            (Flatten(), (1, 2, 4, 4)),
            (Linear(4, 2, RNG, np.float64), (3, 4)),
        ],
    )
    def test_backward_without_forward_raises(self, layer, shape):
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros(shape))

    def test_eval_forward_does_not_enable_backward(self):
        lin = Linear(4, 2, RNG, np.float64)
        lin.forward(np.zeros((3, 4)), train=False)
        with pytest.raises(RuntimeError):
            lin.backward(np.zeros((3, 2)))
