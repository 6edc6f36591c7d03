"""Independent reference implementations used to check the real ones.

Everything here is deliberately written the slow, obvious way — scalar loops
and repeated forward passes — so a bug in the package cannot hide in a bug
shared with its oracle.
"""

import numpy as np

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
    sgd_step,
)
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


def flat_weighted_mean(deltas: list[np.ndarray], counts: list[int]) -> np.ndarray:
    """Scalar-loop weighted mean over flattened vectors (aggregation oracle)."""
    total = float(sum(counts))
    out = np.zeros_like(deltas[0])
    for vec, count in zip(deltas, counts):
        for i in range(out.size):
            out[i] += vec[i] * (count / total)
    return out


def reference_local_train(arch: ArchSpec, global_params: ParamSet, shard, config,
                          round_index: int, epochs: int | None = None):
    """Local SGD over immutable sets: a new ParamSet per step from sgd_step,
    the same shuffles and batches as federation.local_train. Returns
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
            loss, grads = loss_and_grad(arch, params, Batch(inputs[idx], labels[idx]))
            params = sgd_step(params, grads, config.learning_rate)
            losses.append(loss)
    return param_linear(1.0, params, -1.0, global_params), float(np.mean(losses))
