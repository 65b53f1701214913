"""The patch-encoding convolutional network.

Architecture: a stack of (conv -> batchnorm -> relu -> maxpool) blocks
followed by (linear -> batchnorm -> leaky-relu) blocks and a bare final
linear layer. The final layer is the swappable head: an embedding head for
metric training or a two-logit classifier head for fracture detection.
Reduced configurations (smaller inputs, fewer channels) are first-class so
property tests and desk-scale benchmarks stay fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .layers import BatchNorm, Conv2d, Flatten, LeakyReLU, Linear, MaxPool2d

HEAD_EMBEDDING = "embedding8"
HEAD_CLASSIFIER = "classifier2"
HEADS = (HEAD_EMBEDDING, HEAD_CLASSIFIER)


# The paper's fixed encoder: image + heatmap input, 5x5 convs, a two-logit
# fracture head, leaky ReLU after each hidden linear layer, and batch norm.
INPUT_CHANNELS = 2
KERNEL = 5
CLASSIFIER_CLASSES = 2
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class NetworkConfig:
    input_size: int = 112
    conv_channels: tuple = (32, 64, 128, 256)
    linear_dims: tuple = (256, 128, 64, 8)
    dtype: str = "float32"

    def __post_init__(self):
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        object.__setattr__(self, "linear_dims", tuple(self.linear_dims))
        if not self.conv_channels or not self.linear_dims:
            raise ValueError("conv_channels and linear_dims must be non-empty")
        sizes = {"input_size": (self.input_size,), "conv_channels": self.conv_channels,
                 "linear_dims": self.linear_dims}
        for name, values in sizes.items():
            # A float or a bool (True is a 1) would reach the layer shapes.
            if any(type(v) is not int for v in values):
                what = "an int" if name == "input_size" else "ints"
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")
            if min(values) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        divisor = 2 ** len(self.conv_channels)
        if self.input_size % divisor != 0:
            raise ValueError(
                f"input_size {self.input_size} not divisible by {divisor} "
                f"(one 2x2 pool per conv block)"
            )
        if not np.issubdtype(self.np_dtype, np.floating):
            raise ValueError(f"dtype must be a floating-point type, got {self.dtype!r}")

    @property
    def final_spatial(self) -> int:
        return self.input_size // (2 ** len(self.conv_channels))

    @property
    def flat_features(self) -> int:
        return self.conv_channels[-1] * self.final_spatial**2

    @property
    def embedding_dim(self) -> int:
        return self.linear_dims[-1]

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "NetworkConfig":
        return cls(**d)


def _init_head(config: NetworkConfig, head: str) -> Linear:
    # Only the classifier head has a bias: a batch norm cancels a hidden
    # layer's, and the metric losses read only differences of embeddings.
    in_features = (
        config.linear_dims[-2] if len(config.linear_dims) > 1 else config.flat_features
    )
    out = config.embedding_dim if head == HEAD_EMBEDDING else CLASSIFIER_CLASSES
    return Linear(in_features, out, bias=head == HEAD_CLASSIFIER)


def _init_tensors(layers, dtype, rng, kept=()):
    """Lay the trainable tensors of ``layers``, ``(name, layer)`` pairs, end
    to end in new zeroed ``flat_params`` and ``flat_grads`` arrays, in layer
    and ``PARAMS`` order, and bind each ``<name>`` and ``d_<name>`` to a view
    of its slot. ``kept`` fills the first slots; then, in slot order, each
    ``weight`` is drawn He-uniform from ``rng`` (U(-b, b), b = sqrt(6 /
    fan_in), in float64 and cast to ``dtype``) and each ``gamma`` set to 1.
    With ``rng`` None the weights stay zero, for a caller that fills every
    slot. Returns both arrays and the params, grads and state name maps."""
    layers = list(layers)
    slots = [(layer, f"{n}.{k}", k, shape) for n, layer in layers for k, shape in layer.PARAMS.items()]
    size = sum(math.prod(shape) for *_, shape in slots)
    flat_params, flat_grads = np.zeros(size, dtype), np.zeros(size, dtype)  # not zeros_like: it writes every page
    flat_params[: len(kept)] = kept
    state = {f"{n}.{k}": getattr(layer, k) for n, layer in layers for k in layer.STATE}
    maps, offset = {"params": {}, "grads": {}, "state": state}, 0
    for layer, name, key, shape in slots:
        end = offset + math.prod(shape)
        for kind, flat, attr in (("params", flat_params, key), ("grads", flat_grads, f"d_{key}")):
            maps[kind][name] = flat[offset:end].reshape(shape)
            setattr(layer, attr, maps[kind][name])
        if offset >= len(kept) and key == "weight" and rng is not None:
            bound = np.sqrt(6.0 / math.prod(shape[1:]))
            maps["params"][name][...] = rng.uniform(-bound, bound, size=shape)
        elif offset >= len(kept) and key == "gamma":
            maps["params"][name].fill(1)
        offset = end
    return flat_params, flat_grads, maps


class PatchEncoder:
    """Convolutional encoder over 2-channel patches with a swappable head.
    A ``seed`` of None, here or in ``swap_head``, draws no weight (``load_model``)."""

    def __init__(self, config: NetworkConfig, seed: int | None):
        self.config = config
        self.head = HEAD_EMBEDDING
        dtype = config.np_dtype

        self._names: list[str] = []
        self._layers: list = []
        c_in = INPUT_CHANNELS
        for i, c_out in enumerate(config.conv_channels, start=1):
            self._add(f"conv{i}", Conv2d(c_in, c_out, KERNEL))
            self._add(f"bn{i}", BatchNorm(c_out, dtype))
            self._add(f"relu{i}", LeakyReLU(0.0))
            self._add(f"pool{i}", MaxPool2d())
            c_in = c_out
        # Nothing consumes the gradient with respect to the input batch.
        self._layers[0].input_grad = False
        self._add("flatten", Flatten())
        d_in = config.flat_features
        for j, d_out in enumerate(config.linear_dims[:-1], start=1):
            self._add(f"fc{j}", Linear(d_in, d_out))
            self._add(f"fbn{j}", BatchNorm(d_out, dtype))
            self._add(f"lrelu{j}", LeakyReLU(LEAKY_SLOPE))
            d_in = d_out
        self._add("head", _init_head(config, self.head))
        rng = None if seed is None else np.random.default_rng([seed])
        self.flat_params, self.flat_grads, self._maps = _init_tensors(zip(self._names, self._layers), dtype, rng)

    def _add(self, name, layer):
        self._names.append(name)
        self._layers.append(layer)

    # --- parameter access -------------------------------------------------

    def parameters(self) -> dict:
        """A new dict of views of ``flat_params``, in its order."""
        return dict(self._maps["params"])

    def gradients(self) -> dict:
        """A new dict of views of ``flat_grads``, in its order."""
        return dict(self._maps["grads"])

    def bn_stats(self) -> dict:
        return dict(self._maps["state"])

    def zero_grad(self):
        self.flat_grads.fill(0.0)

    # --- forward / backward -----------------------------------------------

    def forward(self, x, train: bool):
        """Run the network on a (N, C, H, W) batch.

        With ``train`` set, batch norm uses batch statistics and updates its
        running stats, and activations are cached for backward. Otherwise
        the running stats are used and the model is left untouched.
        """
        x = np.asarray(x, dtype=self.config.np_dtype)
        expected = (INPUT_CHANNELS, self.config.input_size, self.config.input_size)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(f"expected batch of shape (N,{expected[0]},{expected[1]},{expected[2]}), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("input batch contains non-finite values")
        for layer in self._layers:
            x = layer.forward(x, train)
        return x

    def set_row_counts(self, counts) -> None:
        """Weight row ``i`` of the next train forward by ``counts[i]`` in
        every batch norm (see the row-count rule in ``layers``)."""
        for layer in self._layers:
            if isinstance(layer, BatchNorm):
                layer.row_counts = counts

    def backward(self, d_out) -> dict:
        """Backpropagate d(loss)/d(output); returns the parameter gradient map.

        With no train forward since the last backward, eval forward or
        ``swap_head``, the head has no cache and raises ``RuntimeError``
        before any gradient changes."""
        dx = np.asarray(d_out, dtype=self.config.np_dtype)
        for layer in reversed(self._layers):
            dx = layer.backward(dx)
        return self.gradients()

    # --- head management ----------------------------------------------------

    def swap_head(self, new_head: str, seed: int | None) -> "PatchEncoder":
        """Replace the final linear layer with a freshly seeded one.

        Every other parameter keeps its bytes, copied as one prefix into new
        flat arrays, every gradient is zeroed, and all running statistics
        are left untouched.
        An ``AdamState`` made before a swap that resizes the head is refused
        by ``adam_step``.
        """
        if new_head not in HEADS:
            raise ValueError(f"unknown head {new_head!r}; expected one of {HEADS}")
        head_size = sum(math.prod(shape) for shape in self._layers[-1].PARAMS.values())
        self._layers[-1] = _init_head(self.config, new_head)
        rng = None if seed is None else np.random.default_rng([seed])
        self.flat_params, self.flat_grads, self._maps = _init_tensors(
            zip(self._names, self._layers), self.config.np_dtype, rng,
            kept=self.flat_params[:-head_size],
        )
        self.head = new_head
        return self


def init_model(config: NetworkConfig, seed: int) -> PatchEncoder:
    """Build a seeded network: He-uniform weights, unit BN scale, and zero
    BN shift and classifier bias, each set once in its flat slot (see
    ``_init_tensors``; only a classifier head has a bias)."""
    return PatchEncoder(config, seed)

