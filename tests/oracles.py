"""Independent reference implementations used to check the real ones.

Everything here is deliberately written the slow, obvious way — scalar loops
and repeated forward passes — so a bug in the package cannot hide in a bug
shared with its oracle.
"""

from dataclasses import replace

import numpy as np

from fedunlearn.data import Dataset, subsample
from fedunlearn.evaluation import (attack_metrics, batched_probs, build_membership_features,
                                   mean_probability_distance, train_attack)
from fedunlearn.federation import aggregate, local_train
from fedunlearn.nn import (
    ArchSpec,
    Batch,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ParamSet,
    build_model,
    loss_and_grad,
    param_linear,
)
from fedunlearn.nn import engine
from fedunlearn.nn.params import require_conformant
from fedunlearn.seeds import derive_seed


def perturb(params: ParamSet, name: str, flat_index: int, h: float) -> ParamSet:
    items = []
    for n, t in params.items():
        if n == name:
            t = t.copy()
            t.flat[flat_index] += h
        items.append((n, t))
    return ParamSet(items)


def finite_difference_grads(arch: ArchSpec, params: ParamSet, batch: Batch,
                            h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of the loss, one scalar parameter at a time."""
    grads = {}
    for name, tensor in params.items():
        g = np.zeros_like(tensor)
        for idx in range(tensor.size):
            loss_plus, _ = loss_and_grad(arch, perturb(params, name, idx, +h), batch)
            loss_minus, _ = loss_and_grad(arch, perturb(params, name, idx, -h), batch)
            g.flat[idx] = (loss_plus - loss_minus) / (2.0 * h)
        grads[name] = g
    return grads


def max_relative_grad_error(arch: ArchSpec, params: ParamSet, batch: Batch,
                            h: float = 1e-5, floor: float = 1e-8) -> float:
    """Worst relative disagreement between analytic and numeric gradients,
    over entries whose analytic magnitude exceeds the floor."""
    _, analytic = loss_and_grad(arch, params, batch)
    numeric = finite_difference_grads(arch, params, batch, h)
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        mask = np.abs(a) > floor
        if mask.any():
            rel = np.abs(a[mask] - n[mask]) / np.abs(a[mask])
            worst = max(worst, float(rel.max()))
    return worst


def random_gradient_instance(seed: int):
    """A random small (arch, params, batch) triple, ≤ 1000 parameters,
    cycling through dense, deep-dense, and conv/pool architectures."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    classes = int(rng.integers(2, 5))
    if kind == 0:
        features = int(rng.integers(2, 9))
        hidden = int(rng.integers(2, 10))
        arch = ArchSpec(
            layers=(Dense(features, hidden, "relu"), Dense(hidden, classes)),
            input_shape=(features,),
        )
    elif kind == 1:
        features = int(rng.integers(3, 7))
        h1, h2 = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        arch = ArchSpec(
            layers=(
                Dense(features, h1, "relu"),
                Dense(h1, h2, "relu"),
                Dense(h2, classes),
            ),
            input_shape=(features,),
        )
    else:
        side = 6
        channels = int(rng.integers(1, 3))
        arch = ArchSpec(
            layers=(
                Conv2d(1, channels, 3, "relu"),
                MaxPool2d(2),
                Flatten(),
                Dense(channels * 4, classes),
            ),
            input_shape=(1, side, side),
        )
    assert arch.num_params() <= 1000
    base = build_model(arch, seed)
    noise = ParamSet(
        (name, rng.normal(scale=0.3, size=t.shape)) for name, t in base.items()
    )
    params = param_linear(1.0, base, 1.0, noise)
    batch_size = int(rng.integers(2, 6))
    inputs = rng.normal(size=(batch_size, *arch.input_shape))
    labels = rng.integers(0, classes, size=batch_size)
    return arch, params, Batch(inputs, labels)


def stacked_conv_instance(seed: int):
    """A random small (arch, params, batch) triple whose second layer is a
    convolution too, on a non-square multi-channel input, so the backward
    pass has to carry a gradient through the first convolution's output."""
    rng = np.random.default_rng(seed)
    classes = int(rng.integers(2, 5))
    mid = int(rng.integers(2, 4))
    arch = ArchSpec(
        layers=(
            Conv2d(2, mid, 3, "relu"),
            Conv2d(mid, 2, 2),
            MaxPool2d(2),
            Flatten(),
            Dense(2 * 3 * 2, classes),
        ),
        input_shape=(2, 9, 7),
    )
    assert arch.num_params() <= 1000
    base = build_model(arch, seed)
    noise = ParamSet(
        (name, rng.normal(scale=0.3, size=t.shape)) for name, t in base.items()
    )
    params = param_linear(1.0, base, 1.0, noise)
    batch_size = int(rng.integers(2, 6))
    inputs = rng.normal(size=(batch_size, *arch.input_shape))
    labels = rng.integers(0, classes, size=batch_size)
    return arch, params, Batch(inputs, labels)


def reference_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1, unpadded convolution (cross-correlation) as scalar loops:
    (B, C, H, W) input, (O, C, k, k) weight -> (B, O, H-k+1, W-k+1)."""
    b, c, h, w = x.shape
    o, _, k, _ = weight.shape
    out = np.zeros((b, o, h - k + 1, w - k + 1))
    for n in range(b):
        for f in range(o):
            for i in range(h - k + 1):
                for j in range(w - k + 1):
                    total = bias[f]
                    for ch in range(c):
                        for di in range(k):
                            for dj in range(k):
                                total += x[n, ch, i + di, j + dj] * weight[f, ch, di, dj]
                    out[n, f, i, j] = total
    return out


def reference_forward(arch: ArchSpec, params: ParamSet, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities by scalar-loop convolution and pooling."""
    x = np.asarray(inputs, dtype=np.float64)
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            x = x @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
        elif isinstance(layer, Conv2d):
            x = reference_conv2d(x, params[f"layer{i}.weight"], params[f"layer{i}.bias"])
        elif isinstance(layer, MaxPool2d):
            s = layer.window
            b, c, h, w = x.shape
            pooled = np.empty((b, c, h // s, w // s))
            for n in range(b):
                for ch in range(c):
                    for r in range(h // s):
                        for q in range(w // s):
                            pooled[n, ch, r, q] = x[n, ch, r * s:(r + 1) * s,
                                                    q * s:(q + 1) * s].max()
            x = pooled
        elif isinstance(layer, Flatten):
            x = x.reshape(x.shape[0], -1)
        if getattr(layer, "activation", "none") == "relu":
            x = np.maximum(x, 0.0)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_pool_forward(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling through a (B, C, Ho, Wo, window**2) copy of the tiles:
    the pooled values and each window's argmax (ties to the first position
    in row-major order)."""
    b, c, h, w = x.shape
    ho, wo = h // window, w // window
    tiles = (x.reshape(b, c, ho, window, wo, window).transpose(0, 1, 2, 4, 3, 5)
             .reshape(b, c, ho, wo, window * window))
    idx = tiles.argmax(axis=-1)
    return np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0], idx


def reference_pool_backward(x_shape: tuple[int, ...], idx: np.ndarray, dout: np.ndarray,
                            window: int) -> np.ndarray:
    """The pooling input gradient: each dout entry put at its window's argmax
    `idx` from reference_pool_forward, zero elsewhere."""
    b, c, h, w = x_shape
    ho, wo = h // window, w // window
    dtiles = np.zeros((b, c, ho, wo, window * window))
    np.put_along_axis(dtiles, idx[..., None], dout[..., None], axis=-1)
    return (dtiles.reshape(b, c, ho, wo, window, window).transpose(0, 1, 2, 4, 3, 5)
            .reshape(x_shape))


def reference_im2col(x: np.ndarray, k: int) -> np.ndarray:
    """The (B, C*k*k, Ho*Wo) channel-major columns of a (B, C, H, W) input,
    through NumPy's validated sliding-window view, as the engine built them
    before it took the windows straight from the input's strides."""
    b, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, ho * wo)


def reference_col2im(dcols: np.ndarray, x_shape: tuple[int, ...], k: int) -> np.ndarray:
    """The convolution input gradient from the (B, C*k*k, Ho*Wo) column
    gradient, accumulated in a (B, C, H, W) array: k*k shifted adds in (i, j)
    order onto zeros."""
    b, c, h, w = x_shape
    ho, wo = h - k + 1, w - k + 1
    d6 = dcols.reshape(b, c, k, k, ho, wo)
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += d6[:, :, i, j]
    return dx


def reference_conv_input_grad(dz_t: np.ndarray, w: np.ndarray,
                              x_shape: tuple[int, ...]) -> np.ndarray:
    """The convolution input gradient from the engine's per-offset products,
    dz_t @ w[:, :, i, j] with dz_t the (Ho*Wo*B, C_out) output gradient,
    laid out as the (B, C*k*k, Ho*Wo) column gradient and folded back by
    reference_col2im. Returned as the engine returns it: a (B, C, H, W)
    view of a spatial-major array."""
    b, c = x_shape[:2]
    k = w.shape[2]
    p = dz_t.shape[0] // b
    dcols = np.empty((b, c, k, k, p))
    for i in range(k):
        for j in range(k):
            term = dz_t @ np.ascontiguousarray(w[:, :, i, j])
            dcols[:, :, i, j] = term.reshape(p, b, c).transpose(1, 2, 0)
    dx = reference_col2im(dcols.reshape(b, c * k * k, p), x_shape, k)
    return np.ascontiguousarray(dx.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)


def use_reference_kernels(monkeypatch) -> None:
    """Route the engine's pooling and conv input gradient through the
    reference kernels above; everything else in loss_and_grad stays the
    engine's own."""
    monkeypatch.setattr(engine, "_pool_forward",
                        lambda x, window: reference_pool_forward(x, window)[0])

    def pool_backward(layer, cache, dout):
        x, _ = cache
        _, idx = reference_pool_forward(x, layer.window)
        return reference_pool_backward(x.shape, idx, dout, layer.window)

    monkeypatch.setattr(engine, "_pool_backward", pool_backward)

    monkeypatch.setattr(engine, "_conv_input_grad", reference_conv_input_grad)


def whole_batch_forward(arch: ArchSpec, tensors: tuple[np.ndarray, ...], inputs: np.ndarray,
                        caches: list | None = None) -> np.ndarray:
    """The engine's layer loop as it stood before its conv columns were
    chunked: each conv layer unfolds the whole batch into one im2col block,
    one broadcast matmul runs the per-sample GEMMs, and the block is cached
    for the backward pass as (input shape, columns, output)."""
    caches = [] if caches is None else caches
    x = np.asarray(inputs, dtype=np.float64)
    for layer, p in arch.layer_table:
        if isinstance(layer, Dense):
            z = x @ tensors[p]
            z += tensors[p + 1]
            caches.append((x, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, Conv2d):
            k = layer.kernel_size
            b, ho, wo = x.shape[0], x.shape[2] - k + 1, x.shape[3] - k + 1
            cols = engine._im2col(engine._windows(x, k))
            z = tensors[p].reshape(layer.out_channels, -1) @ cols
            z += tensors[p + 1][:, None]
            x_shape, x = x.shape, z.reshape(b, layer.out_channels, ho, wo)
            if layer.activation == "relu":
                np.maximum(x, 0.0, out=x)
            caches.append((x_shape, cols, x))
        elif isinstance(layer, MaxPool2d):
            pooled = engine._pool_forward(x, layer.window)
            caches.append((x, pooled))
            x = pooled
        elif isinstance(layer, Flatten):
            caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
    return x


def whole_batch_conv_backward(layer: Conv2d, w: np.ndarray, cache, dout: np.ndarray,
                              dw: np.ndarray, db: np.ndarray, need_dx: bool):
    """The conv backward on whole_batch_forward's cache: one batched weight
    gradient GEMM over the kept columns, reduced over the batch axis, and
    the whole batch's column gradient folded back into one zeroed
    spatial-major (H, W, B, C) array by k*k shifted adds in (i, j) order."""
    x_shape, cols, out = cache
    dz = dout * (out > 0.0) if layer.activation == "relu" else dout
    b, c_out, ho, wo = dz.shape
    dz_mat = dz.reshape(b, c_out, ho * wo)
    np.add.reduce(dz_mat, axis=(0, 2), out=db)
    np.add.reduce(np.matmul(dz_mat, cols.transpose(0, 2, 1)), axis=0,
                  out=dw.reshape(c_out, -1))
    if not need_dx:
        return None
    dcols = w.reshape(c_out, -1).T @ dz_mat
    k, (_, c, h, w_in) = layer.kernel_size, x_shape
    d6 = dcols.reshape(b, c, k, k, ho, wo).transpose(2, 3, 4, 5, 0, 1)
    dx = np.zeros((h, w_in, b, c))
    for i in range(k):
        for j in range(k):
            dx[i : i + ho, j : j + wo] += d6[i, j]
    return dx.transpose(2, 3, 0, 1)


def use_whole_batch_columns(monkeypatch) -> None:
    """Route the engine's passes through whole_batch_forward and
    whole_batch_conv_backward: `forward` and `loss_and_grad` as they ran
    when each conv layer held its whole batch's columns."""
    monkeypatch.setattr(engine, "_forward", whole_batch_forward)
    monkeypatch.setattr(engine, "_conv_backward", whole_batch_conv_backward)


def reference_loss_and_grad(arch: ArchSpec, params: ParamSet, batch: Batch):
    """The engine as it stood before its channel-major conv kernels: row-major
    im2col, an einsum weight gradient, a col2im loop, and an input gradient
    for every layer, the first one included. Returns (loss, ParamSet)."""
    x = batch.inputs
    caches = []
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            z = x @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
            caches.append((x, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, Conv2d):
            k = layer.kernel_size
            b, c, h, w = x.shape
            ho, wo = h - k + 1, w - k + 1
            windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
            cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)
            w_mat = params[f"layer{i}.weight"].reshape(layer.out_channels, -1)
            z = (cols @ w_mat.T + params[f"layer{i}.bias"]).reshape(
                b, ho, wo, layer.out_channels).transpose(0, 3, 1, 2)
            caches.append((x.shape, cols, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, MaxPool2d):
            pooled, idx = reference_pool_forward(x, layer.window)
            caches.append((x.shape, idx))
            x = pooled
        elif isinstance(layer, Flatten):
            caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
    shifted = x - x.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = len(batch)
    loss = -float(np.mean(log_probs[np.arange(n), batch.labels]))
    dx = np.exp(log_probs)
    dx[np.arange(n), batch.labels] -= 1.0
    dx /= n

    grads = {}
    for i in range(len(arch.layers) - 1, -1, -1):
        layer, cache = arch.layers[i], caches[i]
        if isinstance(layer, Dense):
            inp, z = cache
            dz = dx * (z > 0.0) if layer.activation == "relu" else dx
            grads[f"layer{i}.weight"] = inp.T @ dz
            grads[f"layer{i}.bias"] = dz.sum(axis=0)
            dx = dz @ params[f"layer{i}.weight"].T
        elif isinstance(layer, Conv2d):
            x_shape, cols, z = cache
            w = params[f"layer{i}.weight"]
            dz = dx * (z > 0.0) if layer.activation == "relu" else dx
            b, c_out, ho, wo = dz.shape
            dz_mat = dz.transpose(0, 2, 3, 1).reshape(b, ho * wo, c_out)
            grads[f"layer{i}.bias"] = dz_mat.sum(axis=(0, 1))
            grads[f"layer{i}.weight"] = np.einsum("bpo,bpk->ok", dz_mat, cols).reshape(w.shape)
            dcols = dz_mat @ w.reshape(c_out, -1)
            k = layer.kernel_size
            c = x_shape[1]
            d6 = dcols.reshape(b, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
            dx = np.zeros(x_shape)
            for di in range(k):
                for dj in range(k):
                    dx[:, :, di : di + ho, dj : dj + wo] += d6[:, :, :, :, di, dj]
        elif isinstance(layer, MaxPool2d):
            x_shape, idx = cache
            dx = reference_pool_backward(x_shape, idx, dx, layer.window)
        elif isinstance(layer, Flatten):
            dx = dx.reshape(cache)
    return loss, ParamSet((name, grads[name]) for name in params.names)


def flat_weighted_mean(deltas: list[np.ndarray], counts: list[int]) -> np.ndarray:
    """Scalar-loop weighted mean over flattened vectors (aggregation oracle)."""
    total = float(sum(counts))
    out = np.zeros_like(deltas[0])
    for vec, count in zip(deltas, counts):
        for i in range(out.size):
            out[i] += vec[i] * (count / total)
    return out


def reference_aggregate(updates, mode: str = "standard") -> ParamSet:
    """Weighted sum as a chain of immutable sets, one param_linear per client
    in client-id order, then the literal-mode division."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.sample_count for u in ordered))
    combined = None
    for u in ordered:
        w = u.sample_count / total
        combined = (param_linear(w, u.delta, 0.0, u.delta) if combined is None
                    else param_linear(1.0, combined, w, u.delta))
    if mode == "literal":
        combined = param_linear(1.0 / len(ordered), combined, 0.0, combined)
    return combined


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """One plain gradient-descent step on immutable sets: params - lr * grads."""
    require_conformant(params, grads)
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    return param_linear(1.0, params, -float(lr), grads)


def reference_local_train(arch: ArchSpec, global_params: ParamSet, shard, config,
                          round_index: int, epochs: int | None = None,
                          grad_fn=loss_and_grad):
    """Local SGD over immutable sets: a new ParamSet per step from sgd_step,
    the same shuffles and batches as federation.local_train, each batch
    gathered on its own. `grad_fn` stands in for loss_and_grad. Returns
    (delta, mean train loss)."""
    n = shard.sample_count
    batch_size = min(config.batch_size, n)
    epochs = config.local_epochs if epochs is None else epochs
    inputs, labels = shard.dataset.inputs, shard.dataset.labels
    params = global_params
    losses = []
    for epoch in range(epochs):
        rng = np.random.default_rng(
            derive_seed(config.seed, "local", shard.client_id, round_index, epoch))
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = grad_fn(arch, params, Batch(inputs[idx], labels[idx]))
            params = sgd_step(params, grads, config.learning_rate)
            losses.append(loss)
    return param_linear(1.0, params, -1.0, global_params), float(np.mean(losses))


def reference_train_attack(member_features: np.ndarray, nonmember_features: np.ndarray,
                           seed: int, hidden: int = 16, epochs: int = 30,
                           learning_rate: float = 0.1, batch_size: int = 64) -> ParamSet:
    """The membership classifier's fit over immutable sets: the same
    standardization, initial model and shuffles as evaluation.train_attack,
    a Batch gathered per step, reference_loss_and_grad and sgd_step.
    Returns the fitted parameters."""
    features = np.vstack([member_features, nonmember_features])
    labels = np.concatenate([np.ones(len(member_features), dtype=np.int64),
                             np.zeros(len(nonmember_features), dtype=np.int64)])
    std = features.std(axis=0)
    standardized = (features - features.mean(axis=0)) / np.where(std > 0, std, 1.0)
    width = features.shape[1]
    arch = ArchSpec(layers=(Dense(width, hidden, activation="relu"), Dense(hidden, 2)),
                    input_shape=(width,))
    params = build_model(arch, derive_seed(seed, "attack-init"))
    n = len(features)
    bs = min(batch_size, n)
    for epoch in range(epochs):
        order = np.random.default_rng(derive_seed(seed, "attack-epoch", epoch)).permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            _, grads = reference_loss_and_grad(arch, params,
                                               Batch(standardized[idx], labels[idx]))
            params = sgd_step(params, grads, learning_rate)
    return params


def reference_member_fit(members, size: int, seed: int, num_classes: int) -> Dataset:
    """The membership attack's member fit sample drawn from the whole pool:
    every member's rows concatenated into one dataset, then subsampled."""
    pool = Dataset("members", np.concatenate([ds.inputs for ds in members]),
                   np.concatenate([ds.labels for ds in members]), num_classes)
    return subsample(pool, size, seed)


def reference_membership_attack(arch: ArchSpec, models, shards, test: Dataset,
                                config) -> dict[str, dict[str, float]]:
    """The membership attack with each half of the test set forwarded on its
    own: the fit half (subsampled) and the evaluation half are datasets of
    their own, and every model's features over them and over the target
    shard come from build_membership_features, at batches of 256."""
    members = [s.dataset for s in shards if s.client_id != config.target_client]
    order = np.random.default_rng(derive_seed(config.seed, "attack-split")).permutation(
        test.num_samples)
    half = test.num_samples // 2
    fit_holdout = test.subset(np.sort(order[:half]))
    eval_holdout = test.subset(np.sort(order[half:]))
    fit_size = min(sum(ds.num_samples for ds in members), half)
    fit_seed = derive_seed(config.seed, "attack-fit")
    original = models["original"]
    attack = train_attack(
        build_membership_features(arch, original, reference_member_fit(
            members, fit_size, fit_seed, test.num_classes)),
        build_membership_features(arch, original, subsample(fit_holdout, fit_size, fit_seed)),
        seed=config.seed, hidden=config.attack_hidden, epochs=config.attack_epochs,
        learning_rate=config.attack_learning_rate)
    target = next(s for s in shards if s.client_id == config.target_client).dataset
    return {name: attack_metrics(attack, build_membership_features(arch, model, target),
                                 build_membership_features(arch, model, eval_holdout),
                                 seed=config.seed)
            for name, model in models.items()}


def reference_calibrate(retained: ParamSet, fresh: ParamSet, norm_mode: str,
                        epsilon: float) -> ParamSet:
    """Calibration with every norm taken from the tensors themselves:
    np.linalg.norm per tensor, or the root of the summed squares of the
    whole update in "global" mode."""
    if norm_mode == "global":
        retained_norm = np.sqrt(sum(float((t * t).sum()) for _, t in retained.items()))
        fresh_norm = np.sqrt(sum(float((t * t).sum()) for _, t in fresh.items()))
        if fresh_norm <= epsilon:
            return retained
        return param_linear(retained_norm / fresh_norm, fresh, 0.0, fresh)
    items = []
    for (name, old), (_, new) in zip(retained.items(), fresh.items()):
        old_norm, new_norm = float(np.linalg.norm(old)), float(np.linalg.norm(new))
        items.append((name, old if new_norm <= epsilon else new * (old_norm / new_norm)))
    return ParamSet(items)


def reference_fed_eraser(arch: ArchSpec, initial: ParamSet, store, shards, config,
                         norm_mode: str = "layer", epsilon: float = 1e-12,
                         train=local_train) -> ParamSet:
    """Calibrated replay that reads every remaining client's whole stored
    update at every retained round and takes the retained norms from it.
    `train` stands in for local_train."""
    by_id = {s.client_id: s for s in shards}
    remaining = [c for c in range(1, config.num_clients + 1) if c != config.target_client]
    cali_config = replace(config, seed=derive_seed(config.seed, "cali"))
    model = initial
    for j, round_index in enumerate(store.retained_rounds):
        updates = store.load_round(round_index, client_ids=remaining)
        if j >= 1:
            updates = [
                replace(u, delta=reference_calibrate(
                    u.delta,
                    train(arch, model, by_id[u.client_id], cali_config, round_index,
                          epochs=config.calibration_epochs).delta,
                    norm_mode, epsilon))
                for u in updates
            ]
        model = param_linear(1.0, model, 1.0, aggregate(updates))
    return model


def prediction_difference(arch: ArchSpec, params_a: ParamSet, params_b: ParamSet, ds,
                          batch_size: int = 256) -> float:
    """The prediction difference of two models, each scored with its own
    forward passes over `ds`. The report shares one pass per model and must
    equal this bit for bit."""
    return mean_probability_distance(batched_probs(arch, params_a, ds, batch_size),
                                     batched_probs(arch, params_b, ds, batch_size))
