"""Convolutional backbone: layers, model, optimizer, checkpoints."""

from .checkpoint import load_model, save_model
from .model import (
    HEAD_CLASSIFIER,
    HEAD_EMBEDDING,
    NetworkConfig,
    PatchEncoder,
    init_model,
)
from .optim import AdamState, adam_init, adam_step

__all__ = [
    "AdamState",
    "HEAD_CLASSIFIER",
    "HEAD_EMBEDDING",
    "NetworkConfig",
    "PatchEncoder",
    "adam_init",
    "adam_step",
    "init_model",
    "load_model",
    "save_model",
]
