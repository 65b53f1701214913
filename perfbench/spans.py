"""Spans recorded from outside the program, and the per-layer metrics.

``install(tracer)`` wraps spinemetric's public functions and the
forward/backward methods of its network classes. Every call then records a
span: name, start, end, parent span, the benchmark operation it belongs to,
the train step within that operation, and the fold id where one is known.
A function is replaced under every name a spinemetric module binds it to,
so callers that imported it by name (``pipeline`` imports ``grading_loss``
and ``stack_samples``) call the wrapper too. Nothing under ``src/`` changes.

``layer_metrics(spans)`` turns the spans into the per-layer metrics. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (module the functions are defined under, function names) per layer.
FUNCTIONS = {
    "phantom": (
        "spinemetric.phantom",
        ("generate_patch", "save_dataset", "load_dataset", "generate_spine_volume", "reformat_curved"),
    ),
    "data": ("spinemetric.data", ("stack_samples",)),
    "mining": ("spinemetric.mining", ("mine_*",)),
    "losses": (
        "spinemetric.losses",
        ("grading_loss", "triplet_loss", "contrastive_loss", "cross_entropy"),
    ),
    "backbone": ("spinemetric.backbone", ("adam_step", "save_model", "load_model")),
    # run_pipeline is wrapped only to give the spans under it their fold id.
    "pipeline": ("spinemetric.pipeline", ("run_stage", "score_fold", "run_pipeline")),
    "evaluation": (
        "spinemetric.evaluation",
        ("linear_probe_train", "embed_samples", "embed_logits"),
    ),
}

LOSS_SPANS = tuple(f"losses.{n}" for n in FUNCTIONS["losses"][1])
# The metric-learning losses, one call per evaluated tuple.
TUPLE_LOSS_SPANS = tuple(f"losses.{n}" for n in ("grading_loss", "triplet_loss", "contrastive_loss"))
STAGE_METRICS = {"LabelPretrain": "label_s", "RepresentationLearn": "grading_s", "FractureTrain": "fracture_s"}

# Layer names as PatchEncoder assigns them ("flatten" is left out).
FULL_LAYERS = tuple(
    [f"{kind}{i}" for i in range(1, 5) for kind in ("conv", "bn", "relu", "pool")]
    + [f"{kind}{j}" for j in range(1, 4) for kind in ("fc", "fbn", "lrelu")]
    + ["head"]
)
TINY_LAYERS = tuple(
    [f"{kind}{i}" for i in range(1, 3) for kind in ("conv", "bn", "relu", "pool")]
    + ["fc1", "fbn1", "lrelu1", "head"]
)


@dataclass
class Span:
    index: int
    name: str
    start: float
    parent: int | None
    op: tuple | None
    step: int
    fold: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": list(self.op) if self.op else None,
            "step": self.step,
            "fold": self.fold,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.op: tuple | None = None  # (workload, operation index or "setup")
        self.step = 0

    def begin_op(self, workload: str, index) -> None:
        self.op = (workload, index)
        self.step = 0

    def open(self, name: str, fold=None) -> Span:
        parent = self._open[-1] if self._open else None
        if fold is None and parent is not None:
            fold = parent.fold
        span = Span(
            index=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=parent.index if parent else None,
            op=self.op,
            step=self.step,
            fold=fold,
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def call(self, name, fn, args, kwargs, fold=None):
        span = self.open(name, fold)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.attrs["error"] = True
            raise
        finally:
            self.close(span)
        return span, result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")


# --- installing the wrappers ------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` under every name any spinemetric
    module gives it."""
    for modname, module in list(sys.modules.items()):
        if modname != "spinemetric" and not modname.startswith("spinemetric."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _annotate(name, fn, span, args, kwargs, result) -> None:
    """Counts recorded at the boundary, after the span has closed."""
    a = span.attrs
    if name == "data.stack_samples":
        a["rows"] = int(result.shape[0])
    elif name.startswith("mining.mine_"):
        a["tuples"] = len(result)
    elif name in LOSS_SPANS:
        a["active"] = bool(result.total > 0)
    elif name == "phantom.save_dataset":
        out = Path(_bound(fn, args, kwargs)["out_dir"])
        a["bytes"] = _file_bytes([out / "manifest.json"] + [out / e["file"] for e in result["samples"]])
    elif name == "phantom.load_dataset":
        manifest_path = Path(_bound(fn, args, kwargs)["manifest_path"])
        files = [manifest_path] + [manifest_path.parent / e["file"] for e in result[1]["samples"]]
        a["bytes"] = _file_bytes(files)
    elif name == "pipeline.run_stage":
        a["stage"] = _bound(fn, args, kwargs)["plan"].stage
    elif name == "evaluation.linear_probe_train":
        a["steps"] = int(_bound(fn, args, kwargs)["n_steps"])


def _wrap_function(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fold = None
        if name in ("pipeline.run_pipeline", "pipeline.score_fold"):
            fold = _bound(fn, args, kwargs)["fold"].fold_id
        span, result = tracer.call(name, fn, args, kwargs, fold)
        _annotate(name, fn, span, args, kwargs, result)
        return result

    return wrapper


def _conv_flops(layer, shape) -> float:
    """Multiply-adds x2 of one stride-1 'same' conv pass, from shapes."""
    n, _, h, w = shape
    return 2.0 * n * layer.out_channels * layer.in_channels * layer.kernel**2 * h * w


def install(tracer: Tracer) -> None:
    """Wrap every traced function and network method of spinemetric."""
    import importlib

    from spinemetric.backbone import layers as layers_mod
    from spinemetric.backbone.model import PatchEncoder
    from spinemetric.cli import NETWORK_PRESETS

    for layer_name, (module_name, patterns) in FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for pattern in patterns:
            if pattern.endswith("*"):
                names = sorted(n for n in vars(module) if n.startswith(pattern[:-1]))
            else:
                names = [pattern]
            for fn_name in names:
                original = getattr(module, fn_name)
                _replace_everywhere(original, _wrap_function(tracer, f"{layer_name}.{fn_name}", original))

    layer_names: dict[int, str] = {}  # id(layer) -> "backbone.<preset>.<layer>"

    def preset_of(model) -> str:
        for preset, config in NETWORK_PRESETS.items():
            if model.config == config:
                return preset
        return "custom"

    encoder_forward, encoder_backward = PatchEncoder.forward, PatchEncoder.backward

    def forward(self, x, train=None):
        prefix = f"backbone.{preset_of(self)}"
        for name, layer in zip(self._names, self._layers):
            layer_names[id(layer)] = f"{prefix}.{name}"
        is_train = (self.mode == "train") if train is None else train
        if is_train:
            tracer.step += 1
        span, y = tracer.call(f"{prefix}.forward", encoder_forward, (self, x, train), {})
        span.attrs.update(train=bool(is_train), rows=int(np.shape(x)[0]))
        return y

    def backward(self, d_out):
        span, grads = tracer.call(
            f"backbone.{preset_of(self)}.backward", encoder_backward, (self, d_out), {}
        )
        span.attrs["train"] = True
        return grads

    PatchEncoder.forward = functools.wraps(encoder_forward)(forward)
    PatchEncoder.backward = functools.wraps(encoder_backward)(backward)

    def wrap_layer_class(cls):
        layer_forward, layer_backward = cls.forward, cls.backward
        is_conv = cls is layers_mod.Conv2d

        def fwd(self, x, train):
            span, y = tracer.call(f"{layer_names.get(id(self), 'backbone.unnamed')}.fwd", layer_forward, (self, x, train), {})
            span.attrs["train"] = bool(train)
            if is_conv:
                span.attrs["flops"] = _conv_flops(self, x.shape)
            return y

        def bwd(self, dy):
            span, dx = tracer.call(f"{layer_names.get(id(self), 'backbone.unnamed')}.bwd", layer_backward, (self, dy), {})
            span.attrs["train"] = True
            if is_conv:  # dW and dX: two passes of forward's cost
                span.attrs["flops"] = 2 * _conv_flops(self, dy.shape)
            return dx

        cls.forward = functools.wraps(layer_forward)(fwd)
        cls.backward = functools.wraps(layer_backward)(bwd)

    for obj in list(vars(layers_mod).values()):
        if (
            inspect.isclass(obj)
            and issubclass(obj, layers_mod.Layer)
            and obj is not layers_mod.Layer
            and not obj.__name__.startswith("_")
        ):
            wrap_layer_class(obj)


# --- per-layer metrics ----------------------------------------------------------


def sgemm_gflops(n: int = 2048, repeats: int = 5) -> float:
    """Median GFLOP/s of an n x n float32 matrix product: the BLAS ceiling
    the conv layers are read against."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = a @ b  # warm-up: thread pool and page faults
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        rates.append(2.0 * n**3 / (time.perf_counter() - t0) / 1e9)
    return float(np.median(rates))


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.child_seconds = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.child_seconds[s.parent] += s.seconds

    def select(self, names, **attrs):
        names = (names,) if isinstance(names, str) else names
        out = []
        for name in names:
            out.extend(
                s for s in self.by_name.get(name, ()) if all(s.attrs.get(k) == v for k, v in attrs.items())
            )
        return out

    def self_seconds(self, span) -> float:
        return span.seconds - self.child_seconds.get(span.index, 0.0)


def _mean(values):
    return float(np.mean(values)) if values else None


def _per_op(spans, value):
    """Mean over measured operations that hold such spans of the per-op sum."""
    sums = defaultdict(float)
    for s in spans:
        if s.op is not None and s.op[1] != "setup":
            sums[s.op] += value(s)
    return _mean(list(sums.values()))


def _ratio(num, den):
    return num / den if den else None


def _collect(spans, all_spans) -> dict:
    """Every per-layer metric the spans support, as name -> (value, unit)."""
    ix = _Index(spans)
    by_index = {s.index: s for s in all_spans}
    out = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (float(value), unit)

    def mean_ms(names, **attrs):
        return _mean([1e3 * s.seconds for s in ix.select(names, **attrs)])

    def inside(span, ancestor_name):
        p = span.parent
        while p is not None:
            if by_index[p].name == ancestor_name:
                return True
            p = by_index[p].parent
        return False

    # phantom
    put("phantom.generate_ms", mean_ms("phantom.generate_patch"), "ms")
    put("phantom.save_ms", mean_ms("phantom.save_dataset"), "ms")
    put("phantom.load_ms", mean_ms("phantom.load_dataset"), "ms")
    put("phantom.volume_ms", mean_ms("phantom.generate_spine_volume"), "ms")
    put("phantom.reformat_ms", mean_ms("phantom.reformat_curved"), "ms")
    put("phantom.bytes_written", _mean([s.attrs["bytes"] for s in ix.select("phantom.save_dataset") if "bytes" in s.attrs]), "bytes")
    put("phantom.bytes_read", _mean([s.attrs["bytes"] for s in ix.select("phantom.load_dataset") if "bytes" in s.attrs]), "bytes")
    put("phantom.load_calls", _per_op(ix.select("phantom.load_dataset"), lambda s: 1), "count")

    # data
    stacks = ix.select("data.stack_samples")
    stages = ix.select("pipeline.run_stage")
    put("data.stack_ms", mean_ms("data.stack_samples"), "ms")
    if stages:
        waiting = sum(s.seconds for s in stacks if inside(s, "pipeline.run_stage"))
        put("data.stack_share", _ratio(waiting, sum(s.seconds for s in stages)), "share")
    put("data.rows", _per_op(stacks, lambda s: s.attrs.get("rows", 0)), "count")

    # mining
    mines = [s for name, group in ix.by_name.items() if name.startswith("mining.mine_") for s in group]
    put("mining.mine_ms", _mean([1e3 * s.seconds for s in mines]), "ms")
    put("mining.tuples", _per_op(mines, lambda s: s.attrs.get("tuples", 0)), "count")

    # losses
    losses = ix.select(LOSS_SPANS)
    put("losses.ms", _per_op(losses, lambda s: 1e3 * s.seconds), "ms")
    put("losses.calls", _per_op(losses, lambda s: 1), "count")
    put("losses.active_fraction", _mean([float(s.attrs["active"]) for s in ix.select(TUPLE_LOSS_SPANS) if "active" in s.attrs]), "share")

    # backbone
    for preset, layer_names in (("full", FULL_LAYERS), ("tiny", TINY_LAYERS)):
        for layer in layer_names:
            base = f"backbone.{preset}.{layer}"
            put(f"{base}.fwd_ms", mean_ms(f"{base}.fwd", train=True), "ms")
            put(f"{base}.bwd_ms", mean_ms(f"{base}.bwd", train=True), "ms")
        put(f"backbone.{preset}.forward_ms", mean_ms(f"backbone.{preset}.forward", train=True), "ms")
        put(f"backbone.{preset}.backward_ms", mean_ms(f"backbone.{preset}.backward"), "ms")
    for i in range(1, 5):
        for pass_ in ("fwd", "bwd"):
            sel = ix.select(f"backbone.full.conv{i}.{pass_}", train=True)
            secs = sum(s.seconds for s in sel)
            put(f"backbone.full.conv{i}.{pass_}_gflops", _ratio(sum(s.attrs["flops"] for s in sel) / 1e9, secs), "GFLOP/s")
    for preset in ("full", "reduced"):
        sel = ix.select(f"backbone.{preset}.forward", train=False)
        rows = sum(s.attrs["rows"] for s in sel)
        put(f"backbone.{preset}.eval_forward_ms", _ratio(1e3 * sum(s.seconds for s in sel), rows), "ms")
    passes = ix.select("backbone.full.forward", train=True) + ix.select("backbone.full.backward")
    if passes:
        covered = sum(ix.child_seconds.get(s.index, 0.0) for s in passes)
        put("backbone.full.uncovered_share", 1.0 - covered / sum(s.seconds for s in passes), "share")
    put("backbone.adam_ms", mean_ms("backbone.adam_step"), "ms")
    put("backbone.save_ms", mean_ms("backbone.save_model"), "ms")
    put("backbone.load_ms", mean_ms("backbone.load_model"), "ms")

    # pipeline
    for stage, metric in STAGE_METRICS.items():
        put(f"pipeline.{metric}", _mean([s.seconds for s in stages if s.attrs.get("stage") == stage]), "s")
    put("pipeline.score_ms", mean_ms("pipeline.score_fold"), "ms")
    put("pipeline.self_ms", _mean([1e3 * ix.self_seconds(s) for s in stages]), "ms")

    # evaluation
    fits = ix.select("evaluation.linear_probe_train")
    put("evaluation.probe_fit_s", _mean([s.seconds for s in fits]), "s")
    put("evaluation.probe_steps", _mean([s.attrs["steps"] for s in fits if "steps" in s.attrs]), "count")
    put("evaluation.embed_ms", mean_ms(("evaluation.embed_samples", "evaluation.embed_logits")), "ms")

    # cli: command self time, the part spent outside every traced layer
    commands = [s for name, group in ix.by_name.items() if name.startswith("cli.") for s in group]
    put("cli.self_ms", _mean([1e3 * ix.self_seconds(s) for s in commands]), "ms")
    return out


def layer_metrics(spans, workload: str) -> tuple[dict, dict]:
    """Per-layer metrics, each from the first group of spans that exercises
    it: the timed operations of ``workload``, then its set-up, then the
    operations and set-up of each other workload label in the run.

    Returns ({name: (value, unit)}, {name: the group the value came from}).
    """
    groups = defaultdict(list)
    for s in spans:
        if s.op:
            groups[s.op[0] if s.op[1] != "setup" else f"{s.op[0]} set-up"].append(s)
    own = [workload, f"{workload} set-up"]
    metrics, source = {}, {}
    for group in own + sorted(g for g in groups if g not in own):
        for name, value in _collect(groups.get(group, []), spans).items():
            if name not in metrics:
                metrics[name] = value
                source[name] = group
    return metrics, source
