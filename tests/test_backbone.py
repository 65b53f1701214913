import hashlib
import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinemetric.backbone import (
    HEAD_CLASSIFIER,
    HEAD_EMBEDDING,
    NetworkConfig,
    adam_init,
    adam_step,
    init_model,
    load_model,
    save_model,
)
from spinemetric.backbone import optim
from spinemetric.backbone.checkpoint import HEADER, VERSION
from spinemetric.backbone.model import _init_head
from spinemetric.cli import NETWORK_PRESETS
from spinemetric.mining import GradeLabel, RegionLabel
from spinemetric.phantom import PhantomConfig, generate_patch

from .oracles import adam_step_reference, rel_err, with_tensors

REDUCED = NetworkConfig(input_size=8, conv_channels=(3, 4), linear_dims=(6, 5), dtype="float64")

# Output of the seed-0 default model on the (seed 42, id 7) phantom patch,
# recorded once from this implementation; guards against regressions.
GOLDEN_EMBEDDING = np.array(
    [
        0.06273490935564041, 0.06432235240936279, -0.528374433517456,
        0.004875652492046356, -0.25781622529029846, -0.3229351043701172,
        -0.23952874541282654, -0.09868785738945007,
    ]
)


def default_param_count():
    # Independent arithmetic over the published layer listing.
    total = 0
    total += 32 * 2 * 25 + 2 * 32               # conv1 (no bias) + bn1
    total += 64 * 32 * 25 + 2 * 64              # conv2 + bn2
    total += 128 * 64 * 25 + 2 * 128            # conv3 + bn3
    total += 256 * 128 * 25 + 2 * 256           # conv4 + bn4
    total += 256 * (256 * 7 * 7) + 2 * 256      # fc1 (12544 -> 256, no bias) + bn
    total += 128 * 256 + 2 * 128                # fc2 + bn
    total += 64 * 128 + 2 * 64                  # fc3 + bn
    total += 8 * 64                             # embedding head (no bias)
    return total


class TestConfig:
    def test_spatial_sizes_halve_to_seven(self):
        cfg = NetworkConfig()
        assert cfg.final_spatial == 7
        assert cfg.flat_features == 256 * 7 * 7 == 12544

    def test_input_size_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_size=100)

    def test_reduced_configs_allowed(self):
        cfg = NetworkConfig(input_size=8, conv_channels=(3, 4), linear_dims=(6, 5))
        assert cfg.final_spatial == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("input_size", 0, "input_size must be at least 1"),
            ("conv_channels", (3, 0), "conv_channels must be at least 1"),
            ("linear_dims", (0, 5), "linear_dims must be at least 1"),
            ("dtype", "int32", "dtype must be a floating-point type"),
            ("input_size", 8.0, "input_size must be an int, got 8.0"),
            ("input_size", True, "input_size must be an int, got True"),
            ("conv_channels", (3, 4.5), re.escape("conv_channels must be ints, got (3, 4.5)")),
            ("conv_channels", (True, 4), re.escape("conv_channels must be ints, got (True, 4)")),
            ("linear_dims", (6, np.int64(5)), "linear_dims must be ints, got "),
        ],
        ids=["zero-input-size", "zero-conv-channels", "zero-linear-dim", "int-dtype", "float-input-size",
             "bool-input-size", "float-conv-channel", "bool-conv-channel", "numpy-linear-dim"],
    )
    def test_bad_value_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            replace(REDUCED, **{field: value})

    def test_round_trip_dict(self):
        cfg = NetworkConfig(input_size=16, conv_channels=(6, 12), linear_dims=(24, 8))
        assert NetworkConfig.from_dict(cfg.to_dict()) == cfg


class TestInit:
    def test_parameter_count_matches_independent_arithmetic(self):
        model = init_model(NetworkConfig(), seed=0)
        assert sum(p.size for p in model.parameters().values()) == default_param_count()

    def test_same_seed_identical(self):
        a = init_model(REDUCED, seed=3)
        b = init_model(REDUCED, seed=3)
        for name, p in a.parameters().items():
            assert np.array_equal(p, b.parameters()[name])

    def test_different_seed_differs(self):
        a = init_model(REDUCED, seed=3)
        b = init_model(REDUCED, seed=4)
        assert not np.array_equal(a.parameters()["conv1.weight"], b.parameters()["conv1.weight"])

    # SHA-256 of flat_params and then every batch-norm statistic, in map
    # order: after init_model(preset, seed=0), then after a swap to the
    # classifier head with seed 1.
    INITIAL_BITS = {
        "tiny": ("2ba081e613e223d611b580c2eaa62ea04b1d33de517853aec8a5b3ad4b4b86d0",
                 "d9fc300bc686049e4ed01cde52c977019cd5b033e977606997a143312a010854"),
        "reduced": ("1a2c40e71e5f5a98f637624ed0e5ddbd0959a2206b07bbe85b8d98a54e272ba0",
                    "a3ba10a14ddb2ae40aa19d0e2369647b255e3b05fa6a7ea733def4fa82e40462"),
        "full": ("53fc8ad3a5d52507a8dfdee967f80a3bcc7a44e851f056e33be17edf424650bf",
                 "27139a4c0789c36ce1928dab12769e8cebddd9083f38ef5880ee59043f7ee591"),
    }

    @pytest.mark.parametrize("preset", INITIAL_BITS)
    def test_initial_bits_pinned(self, preset):
        def bits(model):
            digest = hashlib.sha256(model.flat_params.tobytes())
            for stat in model.bn_stats().values():
                digest.update(stat.tobytes())
            return digest.hexdigest()

        model = init_model(NETWORK_PRESETS[preset], seed=0)
        initial = bits(model)
        model.swap_head(HEAD_CLASSIFIER, seed=1)
        assert (initial, bits(model)) == self.INITIAL_BITS[preset]

    def test_full_init_builds_each_tensor_once(self):
        # flat_params, flat_grads and the float64 draw of the largest weight
        # (full fc1, 24.5 MiB) before its cast into the slot: a second copy
        # of any tensor set, or a layer-owned gradient, passes the bound.
        tracemalloc.start()
        try:
            model = init_model(NETWORK_PRESETS["full"], seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(p.size for p in model.parameters().values())
        assert peak <= 2 * model.flat_params.nbytes + 8 * largest + 2**20

    def test_biases_zero_bn_identity(self):
        m = init_model(REDUCED, seed=0)
        assert np.all(m.parameters()["bn1.gamma"] == 1.0)
        assert np.all(m.parameters()["bn1.beta"] == 0.0)
        m.swap_head(HEAD_CLASSIFIER, seed=1)
        assert np.all(m.parameters()["head.bias"] == 0.0)


class TestForward:
    def test_zero_input_eval_finite_and_constant(self):
        m = init_model(REDUCED, seed=0)
        out = m.forward(np.zeros((4, 2, 8, 8)), train=False)
        assert out.shape == (4, 5)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, out[0])

    def test_duplicated_batch_identical_outputs_in_train_mode(self):
        m = init_model(REDUCED, seed=1)
        x = np.random.default_rng(0).normal(size=(1, 2, 8, 8))
        batch = np.repeat(x, 6, axis=0)
        out = m.forward(batch, train=True)
        assert np.allclose(out, out[0], atol=1e-6)

    def test_golden_value_regression(self):
        model = init_model(NetworkConfig(), seed=0)
        patch = generate_patch(PhantomConfig(seed=42), GradeLabel.G2, RegionLabel.L1_L4, id=7)
        out = model.forward(patch.to_tensor()[None], train=False)
        assert np.allclose(out[0], GOLDEN_EMBEDDING, atol=2e-5)

    def test_bad_shape_rejected(self):
        m = init_model(REDUCED, seed=0)
        with pytest.raises(ValueError):
            m.forward(np.zeros((1, 2, 10, 10)), train=False)

    def test_non_finite_rejected(self):
        m = init_model(REDUCED, seed=0)
        x = np.zeros((1, 2, 8, 8))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            m.forward(x, train=False)

    def test_eval_mode_is_pure(self):
        m = init_model(REDUCED, seed=0)
        x = np.random.default_rng(1).normal(size=(3, 2, 8, 8))
        stats_before = {k: v.copy() for k, v in m.bn_stats().items()}
        y1 = m.forward(x, train=False)
        y2 = m.forward(x, train=False)
        assert np.array_equal(y1, y2)
        for k, v in m.bn_stats().items():
            assert np.array_equal(v, stats_before[k])


class TestBackward:
    def test_full_model_finite_differences(self):
        # seed-pinned to keep all checked components away from pool/relu kinks
        m = init_model(REDUCED, seed=1)
        rng = np.random.default_rng(101)
        x = rng.normal(size=(3, 2, 8, 8))
        upstream = rng.normal(size=(3, 5))

        def loss():
            return float(np.sum(m.forward(x, train=True) * upstream))

        m.forward(x, train=True)
        m.zero_grad()
        grads = {k: v.copy() for k, v in m.backward(upstream).items()}
        h = 1e-3
        for name, p in m.parameters().items():
            flat = p.ravel()
            g = grads[name].ravel()
            for idx in range(0, flat.size, 3):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss()
                flat[idx] = orig - h
                lm = loss()
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert rel_err(g[idx], fd) < 1e-3, (name, idx)

    def test_zero_upstream_gives_zero_gradients(self):
        m = init_model(REDUCED, seed=2)
        x = np.random.default_rng(3).normal(size=(2, 2, 8, 8))
        m.forward(x, train=True)
        m.zero_grad()
        grads = m.backward(np.zeros((2, 5)))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_duplicated_rows_double_gradients(self):
        x = np.random.default_rng(4).normal(size=(2, 2, 8, 8))
        up = np.random.default_rng(5).normal(size=(2, 5))

        m1 = init_model(REDUCED, seed=6)
        m1.forward(x, train=True)
        m1.zero_grad()
        single = {k: v.copy() for k, v in m1.backward(up).items()}

        m2 = init_model(REDUCED, seed=6)
        m2.forward(np.concatenate([x, x]), train=True)
        m2.zero_grad()
        double = m2.backward(np.concatenate([up, up]))
        for name in single:
            assert np.allclose(double[name], 2.0 * single[name], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "counts", [[1, 1, 1, 1], [5], [3, 1, 2, 4]], ids=["ones", "repeated", "mixed"]
    )
    def test_distinct_rows_with_counts_match_duplicated_batch(self, counts):
        # Slot s of the duplicated batch holds distinct row slots[s].
        rng = np.random.default_rng(10)
        slots = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        x = rng.normal(size=(len(counts), 2, 8, 8))
        up = rng.normal(size=(len(slots), 5))
        d_rows = np.zeros((len(counts), 5))
        np.add.at(d_rows, slots, up)

        distinct, duplicated = init_model(REDUCED, seed=11), init_model(REDUCED, seed=11)
        # With one repeated row, each fbn layer outputs its beta plus rounding
        # noise; betas away from 0 keep the LeakyReLU after it off its kink.
        for name, p in distinct.parameters().items():
            if name.endswith(".beta"):
                p[...] = rng.uniform(0.2, 1.0, p.shape) * rng.choice([-1.0, 1.0], p.shape)
                duplicated.parameters()[name][...] = p
        distinct.set_row_counts(counts)
        out = distinct.forward(x, train=True)
        distinct.zero_grad()
        distinct.backward(d_rows)
        out_dup = duplicated.forward(x[slots], train=True)
        duplicated.zero_grad()
        duplicated.backward(up)

        # With one repeated row, every gradient below an fbn layer is 0 in real
        # arithmetic, so only rounding noise is left on both sides. So each
        # group is also compared with an absolute tolerance of 1e-12 times
        # its largest magnitude.
        groups = [({"out": out[slots]}, {"out": out_dup})] + [
            (getattr(distinct, kind)(), getattr(duplicated, kind)()) for kind in ("gradients", "bn_stats")
        ]
        for got, want in groups:
            scale = max(np.max(np.abs(v)) for v in want.values())
            for name, value in got.items():
                np.testing.assert_allclose(value, want[name], rtol=1e-12, atol=1e-12 * scale, err_msg=name)

    def test_first_conv_skips_input_gradient(self):
        x = np.random.default_rng(7).normal(size=(3, 2, 8, 8))
        up = np.random.default_rng(8).normal(size=(3, 5))
        grads, returned = [], []
        for input_grad in (False, True):
            m = init_model(REDUCED, seed=9)
            conv1 = m._layers[0]
            assert conv1.input_grad is False
            conv1.input_grad = input_grad

            def recording_backward(dy, backward=conv1.backward):
                returned.append(backward(dy))
                return returned[-1]

            conv1.backward = recording_backward
            m.forward(x, train=True)
            m.zero_grad()
            grads.append({k: v.copy() for k, v in m.backward(up).items()})
        assert returned[0] is None
        assert returned[1].shape == x.shape
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name]), name

    @pytest.mark.parametrize("history", ["no-forward", "swap-head", "second-backward"])
    def test_backward_without_forward_raises(self, history):
        m = init_model(REDUCED, seed=0)
        x = np.random.default_rng(1).normal(size=(2, 2, 8, 8))
        if history == "swap-head":
            m.forward(x, train=True)
            m.swap_head(HEAD_EMBEDDING, seed=1)
        elif history == "second-backward":
            m.backward(np.ones_like(m.forward(x, train=True)))
        before = {k: v.copy() for k, v in m.gradients().items()}
        with pytest.raises(RuntimeError):
            m.backward(np.ones((2, 5)))
        for name, g in m.gradients().items():
            assert np.array_equal(g, before[name]), name

    def test_backward_after_eval_forward_raises(self):
        m = init_model(REDUCED, seed=0)
        m.forward(np.zeros((1, 2, 8, 8)), train=False)
        with pytest.raises(RuntimeError):
            m.backward(np.zeros((1, 5)))


class _ScalarModel:
    """One parameter ``w`` in the flat layout that ``adam_step`` reads."""

    def __init__(self, value=0.0):
        self.flat_params = np.array([value])
        self.flat_grads = np.zeros(1)
        self.w = self.flat_params

    def gradients(self):
        return {"w": self.flat_grads}


def moments(model, flat):
    """A flat Adam moment cut into the model's tensors, by name."""
    out, offset = {}, 0
    for k, p in model.parameters().items():
        out[k] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return out


def set_gradients(model, grads):
    for k, g in model.gradients().items():
        g[...] = grads[k]


class TestAdam:
    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 at t=1, so the update is lr / (1 + eps)
        m = _ScalarModel(0.0)
        opt = adam_init(m, learning_rate=1e-4)
        m.flat_grads[0] = 1.0
        adam_step(m, opt)
        expected = -1e-4 / (1.0 + 1e-8)
        assert m.w[0] == pytest.approx(expected, rel=1e-12)
        assert opt.step_count == 1

    def test_zero_gradient_fixed_point(self):
        m = _ScalarModel(0.7)
        opt = adam_init(m)
        adam_step(m, opt)
        assert m.w[0] == 0.7
        assert opt.step_count == 1

    def test_determinism(self):
        runs = []
        for _ in range(2):
            model = init_model(REDUCED, seed=9)
            opt = adam_init(model, learning_rate=1e-3)
            x = np.random.default_rng(11).normal(size=(2, 2, 8, 8))
            for step in range(3):
                out = model.forward(x, train=True)
                model.zero_grad()
                model.backward(np.ones_like(out))
                adam_step(model, opt)
            runs.append({k: v.copy() for k, v in model.parameters().items()})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_expression_reference_bit_for_bit(self, dtype):
        model = init_model(replace(REDUCED, dtype=dtype), seed=3)
        opt = adam_init(model, learning_rate=1e-3)
        params = {k: p.copy() for k, p in model.parameters().items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        rng = np.random.default_rng(8)
        for step in range(1, 6):
            # Gradients spanning ten decades, and one all-zero step.
            grads = {
                k: (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 3) * (step != 3)).astype(dtype)
                for k, p in params.items()
            }
            set_gradients(model, grads)
            adam_step(model, opt)
            adam_step_reference(params, m, v, grads, step, 1e-3)
            opt_m, opt_v = moments(model, opt.m), moments(model, opt.v)
            for k, p in model.parameters().items():
                assert p.tobytes() == params[k].tobytes(), k
                assert opt_m[k].tobytes() == m[k].tobytes() and opt_v[k].tobytes() == v[k].tobytes(), k

    def test_non_finite_gradient_in_any_tensor_refused_before_any_write(self):
        model = init_model(REDUCED, seed=3)
        opt = adam_init(model)
        before = model.flat_params.copy()
        model.flat_grads.fill(1.0)
        last = list(model.gradients())[-1]
        model.gradients()[last].flat[-1] = np.inf
        with pytest.raises(FloatingPointError, match=re.escape(repr(last))):
            adam_step(model, opt)
        assert opt.step_count == 0
        assert np.array_equal(model.flat_params, before) and not opt.m.any() and not opt.v.any()

    def test_non_finite_gradient_refused(self):
        m = _ScalarModel(0.5)
        opt = adam_init(m)
        m.flat_grads[0] = np.nan
        with pytest.raises(FloatingPointError, match="'w'"):
            adam_step(m, opt)
        assert m.w[0] == 0.5
        assert opt.step_count == 0

    def test_parameters_stay_finite_over_many_steps(self):
        model = init_model(REDUCED, seed=12)
        opt = adam_init(model, learning_rate=1e-2)
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.normal(size=(4, 2, 8, 8))
            out = model.forward(x, train=True)
            model.zero_grad()
            model.backward(np.sign(out))
            adam_step(model, opt)
        assert np.all(np.isfinite(model.flat_params))

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_spanning_tensors_match_reference(self, monkeypatch, block):
        # Blocks far smaller than a tensor, and blocks that cut across
        # several tensors, give the per-tensor expression's bits.
        monkeypatch.setattr(optim, "BLOCK_ELEMENTS", block)
        model = init_model(replace(REDUCED, dtype="float32"), seed=3)
        opt = adam_init(model, learning_rate=1e-3)
        assert all(b.size == block for b in opt.buffers)
        params = {k: p.copy() for k, p in model.parameters().items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        rng = np.random.default_rng(8)
        for step in range(1, 4):
            grads = {k: (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 3)).astype("float32")
                     for k, p in params.items()}
            set_gradients(model, grads)
            adam_step(model, opt)
            adam_step_reference(params, m, v, grads, step, 1e-3)
        opt_m, opt_v = moments(model, opt.m), moments(model, opt.v)
        for k, p in model.parameters().items():
            assert p.tobytes() == params[k].tobytes(), k
            assert opt_m[k].tobytes() == m[k].tobytes() and opt_v[k].tobytes() == v[k].tobytes(), k

    def test_moments_are_views_of_one_flat_state(self):
        # One flat first and one flat second moment, slot for slot with
        # the model's flat parameters.
        model = init_model(REDUCED, seed=3)
        opt = adam_init(model)
        for moment in (opt.m, opt.v):
            assert moment.shape == model.flat_params.shape and moment.dtype == model.flat_params.dtype
        assert not np.shares_memory(opt.m, opt.v)

    def test_full_step_allocates_no_tensor_sized_array(self):
        # fc1.weight of the full preset is 12.3 MiB in float32: a step that
        # copied it, or any flat array, would pass the bound. The step's
        # block buffers belong to the state.
        model = init_model(NETWORK_PRESETS["full"], seed=0)
        opt = adam_init(model)
        model.flat_grads.fill(1e-3)
        tracemalloc.start()
        try:
            adam_step(model, opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_state_of_another_model_rejected(self):
        # The state's moments have the size of the model it was made for.
        model = init_model(REDUCED, seed=3)
        opt = adam_init(_ScalarModel())
        before = model.flat_params.copy()
        model.flat_grads.fill(1.0)
        with pytest.raises(ValueError, match="optimizer state"):
            adam_step(model, opt)
        assert opt.step_count == 0 and not opt.m.any()
        assert np.array_equal(model.flat_params, before)


class TestSwapHead:
    def test_swap_to_classifier(self):
        m = init_model(REDUCED, seed=0)
        conv1 = m.parameters()["conv1.weight"].copy()
        stats = {k: v.copy() for k, v in m.bn_stats().items()}
        m.swap_head(HEAD_CLASSIFIER, seed=77)
        assert m.head == HEAD_CLASSIFIER
        assert m._layers[-1].out_features == 2
        assert m.forward(np.zeros((1, 2, 8, 8)), train=False).shape == (1, 2)
        assert m.parameters()["conv1.weight"].tobytes() == conv1.tobytes()
        for k, v in m.bn_stats().items():
            assert np.array_equal(v, stats[k])

    def test_swap_same_head_reinitializes_only_head(self):
        m = init_model(REDUCED, seed=0)
        head_before = m.parameters()["head.weight"].copy()
        rest_before = {
            k: v.copy() for k, v in m.parameters().items() if not k.startswith("head.")
        }
        m.swap_head(HEAD_EMBEDDING, seed=123)
        assert not np.array_equal(m.parameters()["head.weight"], head_before)
        for k, v in rest_before.items():
            assert m.parameters()[k].tobytes() == v.tobytes()

    def test_swapped_head_matches_direct_layer_init(self):
        m = init_model(REDUCED, seed=0)
        m.swap_head(HEAD_CLASSIFIER, seed=55)
        direct = with_tensors(_init_head(REDUCED, HEAD_CLASSIFIER), REDUCED.np_dtype, np.random.default_rng([55]))
        assert np.array_equal(m.parameters()["head.weight"], direct.weight)

    def test_unknown_head_rejected(self):
        m = init_model(REDUCED, seed=0)
        with pytest.raises(ValueError):
            m.swap_head("classifier5", seed=0)

    @pytest.mark.parametrize("how", ["swap_head", "load_model"])
    def test_tensor_maps_follow_the_new_head(self, tmp_path, how):
        m = init_model(REDUCED, seed=0)
        m.parameters(), m.gradients(), m.bn_stats()  # builds the cached maps
        m.swap_head(HEAD_CLASSIFIER, seed=5)
        if how == "load_model":
            save_model(m, tmp_path / "m.gmck")
            m = load_model(tmp_path / "m.gmck")
        params, grads = m.parameters(), m.gradients()
        for name, layer in zip(m._names, m._layers):
            for key in layer.PARAMS:
                assert params[f"{name}.{key}"] is getattr(layer, key)
                assert grads[f"{name}.{key}"] is getattr(layer, f"d_{key}")
        head = m._layers[-1]
        assert params["head.weight"] is head.weight and grads["head.bias"] is head.d_bias
        # Each call hands out its own dict.
        params.pop("head.weight")
        assert m.parameters()["head.weight"] is head.weight

        opt = adam_init(m, learning_rate=1e-2)
        before = {k: p.copy() for k, p in m.parameters().items()}
        out = m.forward(np.random.default_rng(1).normal(size=(4, 2, 8, 8)), train=True)
        m.zero_grad()
        m.backward(np.sign(out))
        adam_step(m, opt)
        for k in ("head.weight", "head.bias"):
            assert not np.array_equal(m.parameters()[k], before[k]), k


    def test_tensors_are_views_of_the_flat_arrays_in_order(self, tmp_path):
        # After a train step, an Adam step, a head swap and a reload, the
        # parameters and gradients lie end to end in the flat arrays, in map
        # order; the swap keeps every other tensor's bytes and zeroes the
        # gradients.
        m = init_model(REDUCED, seed=0)
        opt = adam_init(m, learning_rate=1e-2)
        out = m.forward(np.random.default_rng(1).normal(size=(4, 2, 8, 8)), train=True)
        m.zero_grad()
        m.backward(np.sign(out))
        adam_step(m, opt)

        def body(model):
            tensors = {**model.parameters(), **model.bn_stats()}
            return {k: t.tobytes() for k, t in tensors.items() if not k.startswith("head.")}

        before = body(m)
        assert m.flat_grads.any()
        m.swap_head(HEAD_CLASSIFIER, seed=5)
        assert body(m) == before and not m.flat_grads.any()
        save_model(m, tmp_path / "m.gmck")
        for model in (m, load_model(tmp_path / "m.gmck")):
            for flat, tensors in ((model.flat_params, model.parameters()), (model.flat_grads, model.gradients())):
                offset = 0
                for k, t in tensors.items():
                    assert t.base is flat and t.ctypes.data == flat[offset:].ctypes.data, k
                    assert t.flags.c_contiguous, k
                    offset += t.size
                assert offset == flat.size
            assert list(model.parameters()) == list(model.gradients())
            assert list(model.parameters())[-2:] == ["head.weight", "head.bias"]

def write_checkpoint(path, blob, payload=b""):
    """A GMCK file of manifest bytes ``blob`` and ``payload``, with the digest
    that matches them, so that a load gets past the checksum."""
    body = blob + payload
    path.write_bytes(b"GMCK" + struct.pack("<II", VERSION, len(blob)) + hashlib.sha256(body).digest() + body)


def split_checkpoint(path):
    """The manifest document and the payload bytes of a checkpoint file."""
    data = path.read_bytes()
    (mlen,) = struct.unpack("<I", data[8:12])
    return json.loads(data[HEADER : HEADER + mlen]), data[HEADER + mlen :]


class TestCheckpoint:
    def test_tiny_checkpoint_bytes_pinned(self, tmp_path):
        # The manifest is canonical JSON: a change of encoding moves these bytes.
        save_model(init_model(NETWORK_PRESETS["tiny"], seed=0), tmp_path / "m.gmck")
        digest = hashlib.sha256((tmp_path / "m.gmck").read_bytes()).hexdigest()
        assert digest == "792df48d43e81eee360ac55eaf36dbffda146dedae66638a4251cb9a83679593"

    def test_byte_exact_round_trip(self, tmp_path):
        cfg = NetworkConfig(input_size=16, conv_channels=(4, 6), linear_dims=(12, 8))
        m = init_model(cfg, seed=7)
        p1 = tmp_path / "a.gmck"
        p2 = tmp_path / "b.gmck"
        save_model(m, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_behaves_identically(self, tmp_path):
        cfg = NetworkConfig(input_size=16, conv_channels=(4, 6), linear_dims=(12, 8))
        m = init_model(cfg, seed=8)
        x = np.random.default_rng(1).normal(size=(2, 2, 16, 16)).astype(np.float32)
        y = m.forward(x, train=False)
        save_model(m, tmp_path / "m.gmck")
        loaded = load_model(tmp_path / "m.gmck")
        assert loaded.head == m.head
        assert np.array_equal(loaded.forward(x, train=False), y)

    def test_head_survives_round_trip(self, tmp_path):
        m = init_model(REDUCED, seed=0).swap_head(HEAD_CLASSIFIER, seed=1)
        save_model(m, tmp_path / "c.gmck")
        assert load_model(tmp_path / "c.gmck").head == HEAD_CLASSIFIER

    @pytest.mark.parametrize("head", [HEAD_EMBEDDING, HEAD_CLASSIFIER])
    def test_load_draws_no_weights(self, tmp_path, monkeypatch, head):
        # The payload fills every slot, so a load seeds no generator.
        m = init_model(REDUCED, seed=3)
        if head != m.head:
            m.swap_head(head, seed=4)
        save_model(m, tmp_path / "m.gmck")

        def refused(*args, **kwargs):
            raise AssertionError("load_model seeded a generator")

        monkeypatch.setattr(np.random, "default_rng", refused)
        loaded = load_model(tmp_path / "m.gmck")
        monkeypatch.undo()
        assert loaded.head == head and not loaded.flat_grads.any()
        save_model(loaded, tmp_path / "again.gmck")
        assert (tmp_path / "again.gmck").read_bytes() == (tmp_path / "m.gmck").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gmck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_model(path)

    def test_manifest_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.gmck"
        save_model(init_model(REDUCED, seed=0), path)
        manifest, data = split_checkpoint(path)
        # Drop head.weight from the manifest and its bytes from the payload.
        offset, payload = 0, b""
        for entry in manifest["tensors"]:
            nbytes = 4 * int(np.prod(entry["shape"]))
            if entry["name"] != "head.weight":
                payload += data[offset : offset + nbytes]
            offset += nbytes
        manifest["tensors"] = [e for e in manifest["tensors"] if e["name"] != "head.weight"]
        write_checkpoint(path, json.dumps(manifest).encode(), payload)
        with pytest.raises(ValueError, match=r"m\.gmck.*missing \['head\.weight'\]"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.gmck"
        save_model(init_model(REDUCED, seed=0), path)
        good = path.read_bytes()
        path.write_bytes(good[:-6])
        with pytest.raises(ValueError, match=r"t\.gmck: checksum mismatch"):
            load_model(path)
        # With a digest that matches the short file, the payload check names it.
        manifest, payload = split_checkpoint(path)
        write_checkpoint(path, good[HEADER : len(good) - len(payload) - 6], payload)
        with pytest.raises(ValueError, match=r"t\.gmck: truncated payload"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.gmck"
        save_model(init_model(REDUCED, seed=0), path)
        good = path.read_bytes()
        _, payload = split_checkpoint(path)
        write_checkpoint(path, good[HEADER : len(good) - len(payload)], payload + b"\0" * 6)
        with pytest.raises(ValueError, match=r"x\.gmck: 6 trailing bytes$") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("value", [np.nan, 0.0], ids=["nan", "zero"])
    def test_damaged_payload_rejected(self, tmp_path, value):
        path = tmp_path / "p.gmck"
        save_model(init_model(REDUCED, seed=0), path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_header_cut_short_rejected(self, tmp_path):
        path = tmp_path / "h.gmck"
        path.write_bytes(b"GMCK\x01\x00")
        with pytest.raises(ValueError, match=r"h\.gmck: truncated header"):
            load_model(path)

    def test_manifest_cut_short_rejected(self, tmp_path):
        path = tmp_path / "m.gmck"
        save_model(init_model(REDUCED, seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[:8] + struct.pack("<I", len(data)) + data[12:])
        with pytest.raises(ValueError, match=r"m\.gmck: truncated manifest"):
            load_model(path)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json"])
    def test_manifest_not_utf8_json_rejected(self, tmp_path, blob):
        path = tmp_path / "j.gmck"
        write_checkpoint(path, blob)
        with pytest.raises(ValueError, match=r"j\.gmck: manifest is not UTF-8 JSON"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["tensors"][0].update(dtype="float16"), "dtype 'float16' is not 'float32'"),
            (lambda m: m["tensors"][0].update(shape=[1, 2, 3]),
             r"shape \(1, 2, 3\) does not match model shape \("),
            (lambda m: m["tensors"][0].update(name=7),
             r"malformed manifest \(TypeError\('tensor names must be strings'\)\)"),
            # Equal to the model's ints, but not ints: reshape would raise.
            (lambda m: m["tensors"][0].update(shape=[float(d) for d in m["tensors"][0]["shape"]]),
             r"malformed manifest \(ValueError\('tensor shapes must list nonnegative ints'\)\)"),
            (lambda m: m["tensors"][0].update(shape=[True, *m["tensors"][0]["shape"][1:]]),
             r"malformed manifest \(ValueError\('tensor shapes must list nonnegative ints'\)\)"),
        ],
        ids=["float16-tensor", "shape-disagrees", "name-not-string", "shape-float", "shape-bool"],
    )
    def test_manifest_bad_value_rejected(self, tmp_path, edit, message):
        path = tmp_path / "v.gmck"
        save_model(init_model(REDUCED, seed=0), path)
        manifest, payload = split_checkpoint(path)
        edit(manifest)
        write_checkpoint(path, json.dumps(manifest).encode(), payload)
        with pytest.raises(ValueError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_version_1_checkpoint_named(self, tmp_path):
        # Version 1 listed ten config fields; version 2 had linear biases
        # and no digest.
        path = tmp_path / "old.gmck"
        save_model(init_model(NETWORK_PRESETS["tiny"], seed=0), path)
        data = path.read_bytes()
        for version in (1, 2):
            path.write_bytes(data[:4] + struct.pack("<I", version) + data[8:])
            with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}$") as info:
                load_model(path)
            assert str(info.value).startswith(f"{path}: ")

    def test_manifest_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "w.gmck"
        write_checkpoint(path, b"[]")
        with pytest.raises(ValueError, match=r"w\.gmck: malformed manifest"):
            load_model(path)

    def test_non_head_bytes_unchanged_by_swap(self, tmp_path):
        m = init_model(REDUCED, seed=0)
        save_model(m, tmp_path / "before.gmck")
        m.swap_head(HEAD_CLASSIFIER, seed=5)
        save_model(m, tmp_path / "after.gmck")
        a = load_model(tmp_path / "before.gmck")
        b = load_model(tmp_path / "after.gmck")
        for name, tensor in a.parameters().items():
            if name.startswith("head."):
                continue
            hamming = np.count_nonzero(
                np.frombuffer(tensor.tobytes(), np.uint8)
                != np.frombuffer(b.parameters()[name].tobytes(), np.uint8)
            )
            assert hamming == 0, name
