"""Minimal float64 neural-network engine: models, gradients, parameter math."""

from .arch import (
    ArchSpec,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    adult_arch,
    cifar10_arch,
    dense_arch,
    mnist_arch,
    purchase_arch,
)
from .engine import Batch, build_model, forward, loss_and_grad
from .params import (
    ConformanceError,
    ParamSet,
    array_chunks,
    atomic_write,
    dump_param_bytes,
    load_params,
    param_chunks,
    param_linear,
    parse_param_bytes,
    save_params,
)

__all__ = [
    "ArchSpec",
    "Batch",
    "ConformanceError",
    "Conv2d",
    "Dense",
    "Flatten",
    "MaxPool2d",
    "ParamSet",
    "adult_arch",
    "array_chunks",
    "atomic_write",
    "build_model",
    "cifar10_arch",
    "dense_arch",
    "dump_param_bytes",
    "forward",
    "load_params",
    "loss_and_grad",
    "mnist_arch",
    "param_chunks",
    "param_linear",
    "parse_param_bytes",
    "purchase_arch",
    "save_params",
]
