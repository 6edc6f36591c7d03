"""Forward pass and cross-entropy gradients.

Everything here is a pure function of its inputs: identical arguments give
bit-identical outputs. All math runs in float64. The backward pass is
analytic per layer; correctness is pinned by finite-difference tests.

Max pooling sends each window's gradient to one position: the first, in
row-major order within the window, that holds the window's maximum. Ties,
0.0 against -0.0 included, go to the earlier position, and the pooled value
is that position's value. A window holding a NaN pools to NaN and sends
its gradient to its first NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import ArchSpec, Conv2d, Dense, Flatten, MaxPool2d
from .params import ParamSet

# im2col entries a conv layer builds at once, forward or backward: 512 KiB of
# float64, so one chunk's columns and their GEMM operands stay in a 2 MiB L2.
# On the conv benchmark, chunks of 256 KiB, 512 KiB and 1 MiB cut retrain time
# by 25-31% against whole-batch columns, 512 KiB the most, and 4 MiB chunks
# were slower than none (BENCH_conv_chunks.json).
_COLS_BUDGET = (512 << 10) // 8


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

    def rows(self, start: int, stop: int) -> Batch:
        """Rows [start, stop) as views, not validated again: a non-empty
        slice of a valid batch is valid, and the caller keeps it non-empty."""
        part = object.__new__(Batch)
        object.__setattr__(part, "inputs", self.inputs[start:stop])
        object.__setattr__(part, "labels", self.labels[start:stop])
        return part


def build_model(arch: ArchSpec, seed: int) -> ParamSet:
    """Fan-in-scaled uniform weights, zero biases, reproducible per (arch, seed)."""
    rng = np.random.default_rng(seed)
    items: list[tuple[str, np.ndarray]] = []
    layout = arch.param_layout
    for (w_name, w_shape), (b_name, b_shape) in zip(layout[::2], layout[1::2]):
        # fan-in plus fan-out: in + out for dense, (in + out) * k * k for conv
        bound = np.sqrt(6.0 / ((w_shape[0] + w_shape[1]) * math.prod(w_shape[2:])))
        items += [(w_name, rng.uniform(-bound, bound, size=w_shape)), (b_name, np.zeros(b_shape))]
    return ParamSet(items)


def check_conformant_with_arch(arch: ArchSpec, params: ParamSet) -> None:
    expected = arch.param_layout
    if params.shapes() != expected:
        raise ValueError(
            f"parameters do not match architecture: {params.shapes()} vs {expected}"
        )


def forward(arch: ArchSpec, params: ParamSet, batch: Batch) -> np.ndarray:
    """Class probability matrix (batch x classes); rows sum to one."""
    check_conformant_with_arch(arch, params)
    return _softmax(_forward(arch, params.tensors, batch.inputs))


def loss_and_grad(arch: ArchSpec, params: ParamSet, batch: Batch) -> tuple[float, ParamSet]:
    """Mean cross-entropy over the batch and its gradient w.r.t. params."""
    check_conformant_with_arch(arch, params)
    # one-hot: each row is True at its label's column, so the mask gathers
    # each row's log-probability in row order; a label outside [0, c) marks
    # no column, and fewer values come out than rows
    mask = batch.labels[:, None] == arch.classes
    tensors = params.tensors
    caches: list = []
    logits = _forward(arch, tensors, batch.inputs, caches)
    n = len(mask)
    log_probs = _log_softmax(logits)
    picked = log_probs[mask]
    if picked.size != n:
        raise ValueError(f"label out of range [0, {arch.num_classes})")
    # np.add.reduce(x) / n is np.mean(x), bit for bit
    loss = -float(np.add.reduce(picked) / n)

    # x - 0.0 is x, so subtracting the mask takes 1.0 off the label columns only
    dx = np.exp(log_probs, out=log_probs)
    dx -= mask
    dx /= n

    # each layer writes its gradients straight into their segments of one vector
    layout = params._layout
    grad = np.empty(layout.size)
    segments = [grad[start:end].reshape(shape) for start, end, shape in layout.spans]
    table = arch.layer_table
    for i in range(len(table) - 1, -1, -1):
        layer, p = table[i]
        # each cache is dropped once its layer is done, so the backward pass
        # holds only the caches of the layers it has yet to reach
        cache, caches[i] = caches[i], None
        # the input gradient of layer 0 is the data's, which nothing uses
        need_dx = i > 0
        if isinstance(layer, Dense):
            x, out = cache
            if layer.activation == "relu":
                # in place: dx is always a fresh array, the softmax buffer or
                # the next dense layer's dx @ W.T
                dx *= out > 0.0
            np.matmul(x.T, dx, out=segments[p])
            np.add.reduce(dx, axis=0, out=segments[p + 1])
            dx = dx @ tensors[p].T if need_dx else None
        elif isinstance(layer, Conv2d):
            dx = _conv_backward(layer, tensors[p], cache, dx, segments[p], segments[p + 1],
                                need_dx)
        elif isinstance(layer, MaxPool2d):
            dx = _pool_backward(layer, cache, dx)
        elif isinstance(layer, Flatten):
            dx = dx.reshape(cache)
    return loss, ParamSet._adopt(layout, grad)


# ---------------------------------------------------------------------------
# Layer internals

def _softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    sums = np.add.reduce(np.exp(shifted), axis=1, keepdims=True)
    shifted -= np.log(sums, out=sums)
    return shifted


def _forward(arch: ArchSpec, tensors: tuple[np.ndarray, ...], inputs: np.ndarray,
             caches: list | None = None) -> np.ndarray:
    """The logits. With `caches`, each layer's backward cache is appended
    to it; without, each layer's input is dropped as soon as the layer is
    done, so a pass holds only one layer's arrays. Either way a convolution
    takes one window view of its input (`_windows`) and copies its im2col
    columns out of it a chunk of samples at a time (`_column_chunks`),
    dropping each chunk after its GEMM: a conv layer caches its input, and
    the backward pass builds the columns again."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != arch.input_shape:
        raise ValueError(
            f"input shape {x.shape[1:]} does not match architecture input {arch.input_shape}"
        )
    keep = caches is not None
    for layer, p in arch.layer_table:
        if isinstance(layer, Dense):
            z = x @ tensors[p]
            z += tensors[p + 1]
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            if keep:
                # the output, as a conv layer caches: relu(z) > 0 exactly where z > 0
                caches.append((x, z))
            x = z
        elif isinstance(layer, Conv2d):
            k = layer.kernel_size
            w_mat = tensors[p].reshape(layer.out_channels, -1)
            b, ho, wo = x.shape[0], x.shape[2] - k + 1, x.shape[3] - k + 1
            # matmul runs one GEMM per sample, so the chunks change no bit
            z = np.empty((b, layer.out_channels, ho * wo))
            windows = _windows(x, k)
            for rows in _column_chunks(x.shape, k):
                np.matmul(w_mat, _im2col(windows[rows]), out=z[rows])
            z += tensors[p + 1][:, None]
            conv_in, x = x, z.reshape(b, layer.out_channels, ho, wo)
            if layer.activation == "relu":
                np.maximum(x, 0.0, out=x)
            if keep:
                # the output, not the pre-activation z: relu(z) > 0 exactly
                # where z > 0, and a pooling layer next caches this same array
                caches.append((conv_in, x))
        elif isinstance(layer, MaxPool2d):
            pooled = _pool_forward(x, layer.window)
            if keep:
                caches.append((x, pooled))
            x = pooled
        elif isinstance(layer, Flatten):
            if keep:
                caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
    return x


def _column_chunks(x_shape: tuple[int, ...], k: int) -> list[slice]:
    # the sample ranges whose im2col columns fit in _COLS_BUDGET entries
    b, c, h, w = x_shape
    step = max(1, _COLS_BUDGET // (c * k * k * (h - k + 1) * (w - k + 1)))
    return [slice(first, first + step) for first in range(0, b, step)]


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    # (B, C, H, W) -> a read-only (B, C, k, k, Ho, Wo) view of the sliding
    # windows, whose window and output axes step by the same row and column
    # strides: taken once per conv layer and pass, sliced per chunk
    b, c, h, w = x.shape
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(x, (b, c, k, k, h - k + 1, w - k + 1),
                                           (sb, sc, sh, sw, sh, sw), writeable=False)


def _im2col(windows: np.ndarray) -> np.ndarray:
    # (B, C, k, k, Ho, Wo) windows -> (B, C*k*k, Ho*Wo) columns, channel-major
    # rows, copied by the reshape
    b, c, k, _, ho, wo = windows.shape
    return windows.reshape(b, c * k * k, ho * wo)


def _conv_backward(layer: Conv2d, w: np.ndarray, cache, dout: np.ndarray, dw: np.ndarray,
                   db: np.ndarray, need_dx: bool) -> np.ndarray | None:
    """Writes the weight and bias gradients into `dw` and `db`; returns the
    input gradient, or None without `need_dx`. The weight gradient's
    columns are built again from the cached input in the forward pass's
    chunks: each chunk's GEMMs are the per-sample GEMMs one whole-batch call
    would run, and the result is reduced over the batch axis once, so `dw`
    and `db` are the same bits as whole-batch columns. The input gradient
    comes from `_conv_input_grad`: the same dot products as the column
    gradient's, each element summed in the same (i, j) order, but through
    other GEMM calls, so it keeps the column formulation's bits only where
    the BLAS rounds both calls alike (the preset conv layers do)."""
    x, out = cache
    dz = dout * (out > 0.0) if layer.activation == "relu" else dout
    b, c_out, ho, wo = dz.shape
    dz_mat = dz.reshape(b, c_out, ho * wo)
    np.add.reduce(dz_mat, axis=(0, 2), out=db)
    k = layer.kernel_size
    windows = _windows(x, k)
    per_sample = np.empty((b, c_out, w[0].size))
    for rows in _column_chunks(x.shape, k):
        # one batched BLAS call; tensordot would copy cols to fold the batch axis
        np.matmul(dz_mat[rows], _im2col(windows[rows]).transpose(0, 2, 1), out=per_sample[rows])
    np.add.reduce(per_sample, axis=0, out=dw.reshape(c_out, -1))
    if not need_dx:
        return None
    dz_t = np.ascontiguousarray(dz_mat.transpose(2, 0, 1)).reshape(-1, c_out)
    # the output gradient is held once while the input gradient is built:
    # on mnist's conv-2 at 64 rows, keeping dz beside dz_t peaked 2.4 MB higher
    del dz, dz_mat, per_sample
    return _conv_input_grad(dz_t, w, x.shape)


def _conv_input_grad(dz_t: np.ndarray, w: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    # the (B, C, H, W) input gradient of an output gradient in spatial-major
    # rows, (Ho*Wo*B, C_out), as a view of a spatial-major (H, W, B, C)
    # array: one GEMM per kernel offset, dz_t @ w[:, :, i, j], lands that
    # offset's addend as a contiguous (Ho, Wo, B, C) block, added in (i, j)
    # order, so every element of the zeroed dx sums its terms from zero in
    # that order
    b, c, h, w_in = x_shape
    k = w.shape[2]
    ho, wo = h - k + 1, w_in - k + 1
    w_t = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    term = np.empty((dz_t.shape[0], c))
    dx = np.zeros((h, w_in, b, c))
    for i in range(k):
        for j in range(k):
            np.matmul(dz_t, w_t[i, j], out=term)
            dx[i : i + ho, j : j + wo] += term.reshape(ho, wo, b, c)
    return dx.transpose(2, 3, 0, 1)


def _pool_views(x: np.ndarray, window: int) -> list[np.ndarray]:
    # one strided view per window position, in row-major order
    return [x[:, :, i::window, j::window] for i in range(window) for j in range(window)]


def _pool_forward(x: np.ndarray, window: int) -> np.ndarray:
    views = _pool_views(x, window)
    pooled = views[0].copy()
    for view in views[1:]:
        # on a tie np.maximum returns its second operand: the earlier position
        np.maximum(view, pooled, out=pooled)
    return pooled


def _pool_backward(layer: MaxPool2d, cache, dout: np.ndarray) -> np.ndarray:
    x, pooled = cache
    dx = np.empty(x.shape)
    # dout's bits where a window's first maximum sits, zero bits (0.0)
    # elsewhere: an AND with an all-ones or all-zeros mask, as a masked copy
    # into a zeroed array gives the same bits at several times the cost
    dout_bits = dout.view(np.int64)
    mask = np.empty(pooled.shape, dtype=np.int64)
    nan = np.isnan(pooled)
    nan = nan if nan.any() else None
    free = None  # windows whose maximum no earlier position took
    for x_view, dx_view in zip(_pool_views(x, layer.window),
                               _pool_views(dx.view(np.int64), layer.window)):
        hit = x_view == pooled
        if nan is not None:
            # a window holding a NaN pools to NaN; its first NaN takes dout
            hit |= nan & np.isnan(x_view)
        if free is None:
            free = ~hit
        else:
            hit &= free
            free ^= hit
        np.negative(hit, out=mask, dtype=np.int64)  # -1 is all ones
        np.bitwise_and(dout_bits, mask, out=dx_view)
    return dx
