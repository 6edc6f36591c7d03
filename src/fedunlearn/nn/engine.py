"""Forward pass, cross-entropy gradients, and the SGD step.

Everything here is a pure function of its inputs: identical arguments give
bit-identical outputs. All math runs in float64. The backward pass is
analytic per layer; correctness is pinned by finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ArchSpec, Conv2d, Dense, Flatten, MaxPool2d
from .params import ParamSet, param_linear, require_conformant


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a 1-d class index array, got {labels.shape}")
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"batch size mismatch: {inputs.shape[0]} inputs vs {labels.shape[0]} labels"
            )
        if inputs.shape[0] == 0:
            raise ValueError("empty batch")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def build_model(arch: ArchSpec, seed: int) -> ParamSet:
    """Fan-in-scaled uniform weights, zero biases, reproducible per (arch, seed)."""
    rng = np.random.default_rng(seed)
    items: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            bound = np.sqrt(6.0 / (layer.in_features + layer.out_features))
            w = rng.uniform(-bound, bound, size=(layer.in_features, layer.out_features))
            items.append((f"layer{i}.weight", w))
            items.append((f"layer{i}.bias", np.zeros(layer.out_features)))
        elif isinstance(layer, Conv2d):
            k = layer.kernel_size
            fan_in = layer.in_channels * k * k
            fan_out = layer.out_channels * k * k
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(layer.out_channels, layer.in_channels, k, k))
            items.append((f"layer{i}.weight", w))
            items.append((f"layer{i}.bias", np.zeros(layer.out_channels)))
    return ParamSet(items)


def check_conformant_with_arch(arch: ArchSpec, params: ParamSet) -> None:
    expected = arch.param_layout
    if params.shapes() != expected:
        raise ValueError(
            f"parameters do not match architecture: {params.shapes()} vs {expected}"
        )


def forward(arch: ArchSpec, params: ParamSet, batch: Batch) -> np.ndarray:
    """Class probability matrix (batch x classes); rows sum to one."""
    logits, _ = _forward_cached(arch, params, batch.inputs)
    return _softmax(logits)


def loss_and_grad(arch: ArchSpec, params: ParamSet, batch: Batch) -> tuple[float, ParamSet]:
    """Mean cross-entropy over the batch and its gradient w.r.t. params."""
    check_conformant_with_arch(arch, params)
    labels = batch.labels
    c = arch.num_classes
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    logits, caches = _forward_cached(arch, params, batch.inputs)
    log_probs = _log_softmax(logits)
    n = len(batch)
    loss = -float(np.mean(log_probs[np.arange(n), labels]))

    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grad_map: dict[str, np.ndarray] = {}
    dx = dlogits
    for i in range(len(arch.layers) - 1, -1, -1):
        layer = arch.layers[i]
        cache = caches[i]
        if isinstance(layer, Dense):
            dx = _dense_backward(layer, params[f"layer{i}.weight"], cache, dx, grad_map, i)
        elif isinstance(layer, Conv2d):
            dx = _conv_backward(layer, params[f"layer{i}.weight"], cache, dx, grad_map, i)
        elif isinstance(layer, MaxPool2d):
            dx = _pool_backward(layer, cache, dx)
        elif isinstance(layer, Flatten):
            dx = dx.reshape(cache)
    flat = np.concatenate([grad_map[name].ravel() for name in params.names])
    return loss, ParamSet._adopt(params._layout, flat)


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """One plain gradient-descent step: params - lr * grads."""
    require_conformant(params, grads)
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    return param_linear(1.0, params, -float(lr), grads)


# ---------------------------------------------------------------------------
# Layer internals

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward_cached(arch: ArchSpec, params: ParamSet, inputs: np.ndarray):
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != arch.input_shape:
        raise ValueError(
            f"input shape {x.shape[1:]} does not match architecture input {arch.input_shape}"
        )
    caches: list = []
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            z = x @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
            caches.append((x, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, Conv2d):
            cols = _im2col(x, layer.kernel_size)
            w = params[f"layer{i}.weight"]
            w_mat = w.reshape(layer.out_channels, -1)
            b, ho, wo = x.shape[0], x.shape[2] - layer.kernel_size + 1, x.shape[3] - layer.kernel_size + 1
            z = (cols @ w_mat.T + params[f"layer{i}.bias"]).reshape(b, ho, wo, layer.out_channels)
            z = z.transpose(0, 3, 1, 2)
            caches.append((x.shape, cols, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, MaxPool2d):
            pooled, idx = _pool_forward(x, layer.window)
            caches.append((x.shape, idx))
            x = pooled
        elif isinstance(layer, Flatten):
            caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
    return x, caches


def _dense_backward(layer: Dense, w: np.ndarray, cache, dout: np.ndarray,
                    grad_map: dict[str, np.ndarray], index: int) -> np.ndarray:
    x, z = cache
    dz = dout * (z > 0.0) if layer.activation == "relu" else dout
    grad_map[f"layer{index}.weight"] = x.T @ dz
    grad_map[f"layer{index}.bias"] = dz.sum(axis=0)
    return dz @ w.T


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    # (B, C, H, W) -> (B, Ho*Wo, C*k*k) sliding windows, row-major over (Ho, Wo)
    b, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)


def _conv_backward(layer: Conv2d, w: np.ndarray, cache, dout: np.ndarray,
                   grad_map: dict[str, np.ndarray], index: int) -> np.ndarray:
    x_shape, cols, z = cache
    dz = dout * (z > 0.0) if layer.activation == "relu" else dout
    b, c_out, ho, wo = dz.shape
    dz_mat = dz.transpose(0, 2, 3, 1).reshape(b, ho * wo, c_out)
    grad_map[f"layer{index}.bias"] = dz_mat.sum(axis=(0, 1))
    w_mat = w.reshape(c_out, -1)
    dw_mat = np.einsum("bpo,bpk->ok", dz_mat, cols)
    grad_map[f"layer{index}.weight"] = dw_mat.reshape(w.shape)
    dcols = dz_mat @ w_mat
    return _col2im(dcols, x_shape, layer.kernel_size)


def _col2im(dcols: np.ndarray, x_shape: tuple[int, ...], k: int) -> np.ndarray:
    b, c, h, w = x_shape
    ho, wo = h - k + 1, w - k + 1
    d6 = dcols.reshape(b, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += d6[:, :, :, :, i, j]
    return dx


def _pool_forward(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    b, c, h, w = x.shape
    ho, wo = h // window, w // window
    tiles = (
        x.reshape(b, c, ho, window, wo, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, ho, wo, window * window)
    )
    idx = tiles.argmax(axis=-1)  # ties break to the first (row-major) position
    pooled = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]
    return pooled, idx


def _pool_backward(layer: MaxPool2d, cache, dout: np.ndarray) -> np.ndarray:
    x_shape, idx = cache
    b, c, h, w = x_shape
    window = layer.window
    ho, wo = h // window, w // window
    dtiles = np.zeros((b, c, ho, wo, window * window))
    np.put_along_axis(dtiles, idx[..., None], dout[..., None], axis=-1)
    return (
        dtiles.reshape(b, c, ho, wo, window, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(x_shape)
    )
