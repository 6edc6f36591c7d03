"""Model architecture descriptions and the built-in presets.

An :class:`ArchSpec` is a flat sequence of layers applied in order to an
input of a fixed shape. Construction validates that adjacent layer
dimensions are consistent, so a valid ArchSpec always defines a runnable
network. The terminal softmax is implicit in the loss and is not a layer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import ParamSet

ACTIVATIONS = ("none", "relu")


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int
    activation: str = "none"


@dataclass(frozen=True)
class Conv2d:
    """Convolution with stride 1 and no padding."""

    in_channels: int
    out_channels: int
    kernel_size: int
    activation: str = "none"


@dataclass(frozen=True)
class MaxPool2d:
    """Max pooling with stride equal to the window size."""

    window: int = 2


@dataclass(frozen=True)
class Flatten:
    pass


Layer = Dense | Conv2d | MaxPool2d | Flatten


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if not self.layers:
            raise ValueError("architecture needs at least one layer")
        if any(d <= 0 for d in self.input_shape):
            raise ValueError(f"non-positive input dimension in {self.input_shape}")
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            shape = _apply_shape(layer, shape, i)
        if len(shape) != 1:
            raise ValueError(
                f"network output must be a flat class vector, got shape {shape}"
            )
        object.__setattr__(self, "output_shape", shape)

    @property
    def num_classes(self) -> int:
        return self.output_shape[0]

    @cached_property
    def param_layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Deterministic (name, shape) layout of the trainable tensors,
        computed once per spec; compares equal to the ``shapes()`` of every
        conformant parameter set."""
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Dense):
                shapes.append((f"layer{i}.weight", (layer.in_features, layer.out_features)))
                shapes.append((f"layer{i}.bias", (layer.out_features,)))
            elif isinstance(layer, Conv2d):
                shapes.append(
                    (
                        f"layer{i}.weight",
                        (layer.out_channels, layer.in_channels, layer.kernel_size, layer.kernel_size),
                    )
                )
                shapes.append((f"layer{i}.bias", (layer.out_channels,)))
        return tuple(shapes)

    @cached_property
    def layer_table(self) -> tuple[tuple[Layer, int | None], ...]:
        """Each layer with the position of its weight in :attr:`param_layout`
        (its bias comes next), or None for a layer without parameters;
        computed once per spec, so the engine looks tensors up by position."""
        index = {name: j for j, (name, _) in enumerate(self.param_layout)}
        return tuple((layer, index.get(f"layer{i}.weight"))
                     for i, layer in enumerate(self.layers))

    @cached_property
    def classes(self) -> np.ndarray:
        """The class indices 0..num_classes-1, read-only, made once per spec;
        ``labels[:, None] == classes`` is the one-hot label mask."""
        classes = np.arange(self.num_classes)
        classes.flags.writeable = False
        return classes

    def num_params(self) -> int:
        return sum(math.prod(s) for _, s in self.param_layout)

    def describe(self) -> str:
        """Canonical one-line description; stable across processes."""
        parts = [f"input{self.input_shape}"]
        for layer in self.layers:
            if isinstance(layer, Dense):
                parts.append(f"dense({layer.in_features},{layer.out_features},{layer.activation})")
            elif isinstance(layer, Conv2d):
                parts.append(
                    f"conv2d({layer.in_channels},{layer.out_channels},{layer.kernel_size},{layer.activation})"
                )
            elif isinstance(layer, MaxPool2d):
                parts.append(f"maxpool2d({layer.window})")
            else:
                parts.append("flatten")
        return "->".join(parts)

    def arch_hash(self) -> str:
        return hashlib.sha256(self.describe().encode("utf-8")).hexdigest()

    def last_dense_index(self) -> int:
        for i in range(len(self.layers) - 1, -1, -1):
            if isinstance(self.layers[i], Dense):
                return i
        raise ValueError("architecture has no dense layer")

    def head_weight(self, params: ParamSet) -> np.ndarray:
        """A copy of the final dense layer's weight, the classification head;
        holding it keeps nothing else of `params` alive."""
        return params[f"layer{self.last_dense_index()}.weight"].copy()


def _apply_shape(layer: Layer, shape: tuple[int, ...], index: int) -> tuple[int, ...]:
    if isinstance(layer, Dense):
        if layer.in_features <= 0 or layer.out_features <= 0:
            raise ValueError(f"layer {index}: non-positive dense dimensions")
        if layer.activation not in ACTIVATIONS:
            raise ValueError(f"layer {index}: unknown activation {layer.activation!r}")
        if shape != (layer.in_features,):
            raise ValueError(
                f"layer {index}: dense expects flat input of {layer.in_features}, got {shape}"
            )
        return (layer.out_features,)
    if isinstance(layer, Conv2d):
        if layer.in_channels <= 0 or layer.out_channels <= 0 or layer.kernel_size <= 0:
            raise ValueError(f"layer {index}: non-positive convolution dimensions")
        if layer.activation not in ACTIVATIONS:
            raise ValueError(f"layer {index}: unknown activation {layer.activation!r}")
        if len(shape) != 3 or shape[0] != layer.in_channels:
            raise ValueError(
                f"layer {index}: convolution expects ({layer.in_channels},H,W) input, got {shape}"
            )
        _, h, w = shape
        k = layer.kernel_size
        if h < k or w < k:
            raise ValueError(f"layer {index}: kernel {k} larger than input {h}x{w}")
        return (layer.out_channels, h - k + 1, w - k + 1)
    if isinstance(layer, MaxPool2d):
        if layer.window <= 0:
            raise ValueError(f"layer {index}: non-positive pooling window")
        if len(shape) != 3:
            raise ValueError(f"layer {index}: pooling expects (C,H,W) input, got {shape}")
        c, h, w = shape
        if h % layer.window or w % layer.window:
            raise ValueError(
                f"layer {index}: input {h}x{w} not divisible by pooling window {layer.window}"
            )
        return (c, h // layer.window, w // layer.window)
    if isinstance(layer, Flatten):
        return (math.prod(shape),)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


# ---------------------------------------------------------------------------
# Presets. One per supported dataset family; tabular presets take the
# feature count because it depends on the preprocessing of the actual file.

def adult_arch(num_features: int, hidden: int = 32) -> ArchSpec:
    """Census-income classifier: two dense layers."""
    return ArchSpec(
        layers=(Dense(num_features, hidden, "relu"), Dense(hidden, 2)),
        input_shape=(num_features,),
    )


def purchase_arch(num_features: int = 600, hidden1: int = 128, hidden2: int = 64,
                  num_classes: int = 2) -> ArchSpec:
    """Shopping-basket classifier: three dense layers."""
    return ArchSpec(
        layers=(
            Dense(num_features, hidden1, "relu"),
            Dense(hidden1, hidden2, "relu"),
            Dense(hidden2, num_classes),
        ),
        input_shape=(num_features,),
    )


def mnist_arch() -> ArchSpec:
    """Digit classifier: two convolutions and two dense layers on 32x32 input."""
    return ArchSpec(
        layers=(
            Conv2d(1, 4, 5, "relu"),
            Conv2d(4, 8, 5, "relu"),
            Flatten(),
            Dense(8 * 24 * 24, 64, "relu"),
            Dense(64, 10),
        ),
        input_shape=(1, 32, 32),
    )


def cifar10_arch() -> ArchSpec:
    """Image classifier: two convolutions, two poolings, two dense layers."""
    return ArchSpec(
        layers=(
            Conv2d(3, 6, 5, "relu"),
            MaxPool2d(2),
            Conv2d(6, 16, 5, "relu"),
            MaxPool2d(2),
            Flatten(),
            Dense(16 * 5 * 5, 120, "relu"),
            Dense(120, 10),
        ),
        input_shape=(3, 32, 32),
    )


def dense_arch(num_features: int, num_classes: int, hidden: int = 64) -> ArchSpec:
    """Generic two-layer dense net, used for synthetic data."""
    return ArchSpec(
        layers=(Dense(num_features, hidden, "relu"), Dense(hidden, num_classes)),
        input_shape=(num_features,),
    )
