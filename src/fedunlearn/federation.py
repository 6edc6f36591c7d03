"""Federated averaging: local SGD on client shards, weighted delta aggregation,
and the outer round loop with optional retention of per-client updates."""

from __future__ import annotations

import logging
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .data import ClientShard, FedConfig
from .nn import ArchSpec, Batch, ParamSet, build_model, loss_and_grad, param_linear
from .seeds import derive_seed

logger = logging.getLogger(__name__)

AGGREGATION_MODES = ("standard", "literal")


@dataclass(frozen=True)
class ClientUpdate:
    """One client's parameter delta from one round of local training."""

    client_id: int
    round_index: int
    delta: ParamSet
    sample_count: int
    train_loss: float | None = None

    def __post_init__(self):
        if self.client_id < 1:
            raise ValueError("client ids start at 1")
        if self.round_index < 1:
            raise ValueError("round indices start at 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    participants: tuple[int, ...]
    mean_client_loss: float
    duration_seconds: float


@dataclass
class RoundHistory:
    records: list[RoundRecord] = field(default_factory=list)
    snapshots: list[ParamSet] = field(default_factory=list)  # post-round globals, optional


class UpdateSink(Protocol):
    """Where run_fedavg hands per-client updates at retained rounds."""

    retained_rounds: list[int]

    def store_round(self, round_index: int, updates: list[ClientUpdate]) -> None: ...


def local_train(
    arch: ArchSpec,
    global_params: ParamSet,
    shard: ClientShard,
    config: FedConfig,
    round_index: int,
    epochs: int | None = None,
) -> ClientUpdate:
    """Epochs of mini-batch SGD from the current global model; the update is
    the parameter delta (final minus initial), never the raw weights."""
    if round_index < 1:
        raise ValueError("round indices start at 1")
    n = shard.sample_count
    batch_size = config.batch_size
    if batch_size > n:
        logger.warning(
            "client %d has %d samples < batch_size %d; clamping", shard.client_id, n, batch_size
        )
        batch_size = n
    epochs = config.local_epochs if epochs is None else epochs
    if epochs < 1:
        raise ValueError("epochs must be at least 1")

    inputs, labels = shard.dataset.inputs, shard.dataset.labels
    lr = float(config.learning_rate)
    where = f"round {round_index}, client {shard.client_id}"
    # One working vector stepped in place: `w -= lr * g` equals sgd_step's
    # 1.0*w + (-lr)*g bit for bit. The gradients are checked at every step,
    # the weights once at the end: under this update a non-finite entry of w
    # never becomes finite again.
    w, params = global_params.working_copy()
    losses = []
    for epoch in range(epochs):
        rng = np.random.default_rng(
            derive_seed(config.seed, "local", shard.client_id, round_index, epoch)
        )
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(inputs[idx], labels[idx])
            try:
                loss, grads = loss_and_grad(arch, params, batch)
            except ValueError as exc:
                raise ValueError(f"{where}, step {len(losses) + 1}: {exc}") from exc
            w -= lr * grads.vector
            losses.append(loss)
    bad = params.non_finite_tensor()
    if bad is not None:
        raise ValueError(f"{where}: tensor {bad!r} contains non-finite values")
    delta = param_linear(1.0, params, -1.0, global_params)
    return ClientUpdate(
        client_id=shard.client_id,
        round_index=round_index,
        delta=delta,
        sample_count=n,
        train_loss=float(np.mean(losses)),
    )


def aggregate(updates: Sequence[ClientUpdate], mode: str = "standard") -> ParamSet:
    """Combine client deltas into one global delta.

    "standard" weights each delta by its client's sample count (weights sum
    to one). "literal" further divides by the participant count, matching an
    update rule that averages the already-normalized sum across clients.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if not updates:
        raise ValueError("cannot aggregate zero updates")
    rounds = {u.round_index for u in updates}
    if len(rounds) != 1:
        raise ValueError(f"updates span rounds {sorted(rounds)}; expected one round")
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in aggregation")

    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.sample_count for u in ordered))
    combined = None
    for u in ordered:
        w = u.sample_count / total
        combined = (
            param_linear(w, u.delta, 0.0, u.delta)
            if combined is None
            else param_linear(1.0, combined, w, u.delta)
        )
    if mode == "literal":
        combined = param_linear(1.0 / len(ordered), combined, 0.0, combined)
    return combined


def run_fedavg(
    arch: ArchSpec,
    shards: Sequence[ClientShard],
    config: FedConfig,
    initial_model: ParamSet | None = None,
    retention_sink: UpdateSink | None = None,
    exclude: frozenset[int] | set[int] = frozenset(),
    aggregation_mode: str = "standard",
    keep_snapshots: bool = False,
) -> tuple[ParamSet, RoundHistory]:
    """The outer federated loop: each round every participating client trains
    locally, deltas are aggregated, and the weighted delta is added to the
    global model. When a retention sink is given, the full per-client update
    list is handed to it at each of its retained rounds — which is only
    meaningful (and only allowed) when no client is excluded."""
    by_id = {s.client_id: s for s in shards}
    if len(by_id) != len(shards):
        raise ValueError("duplicate client ids in shards")
    expected = set(range(1, config.num_clients + 1))
    if set(by_id) != expected:
        raise ValueError(f"shards cover clients {sorted(by_id)}; expected {sorted(expected)}")
    exclude = frozenset(exclude)
    if not exclude <= expected:
        raise ValueError(f"exclude {sorted(exclude)} lists unknown clients")
    if exclude == expected:
        raise ValueError("cannot exclude every client")
    retained: set[int] = set()
    if retention_sink is not None:
        if exclude:
            raise ValueError("retention requires updates from all clients; cannot exclude any")
        retained = set(retention_sink.retained_rounds)
        if not retained <= set(range(1, config.global_rounds + 1)):
            raise ValueError("retention schedule outside [1, global_rounds]")

    participants = [cid for cid in sorted(by_id) if cid not in exclude]
    model = initial_model if initial_model is not None else build_model(arch, config.seed)
    history = RoundHistory()
    for round_index in range(1, config.global_rounds + 1):
        round_start = time.perf_counter()
        updates = [
            local_train(arch, model, by_id[cid], config, round_index) for cid in participants
        ]
        if retention_sink is not None and round_index in retained:
            retention_sink.store_round(round_index, updates)
        model = param_linear(1.0, model, 1.0, aggregate(updates, aggregation_mode))
        mean_loss = float(np.mean([u.train_loss for u in updates]))
        duration = time.perf_counter() - round_start
        history.records.append(
            RoundRecord(round_index, tuple(participants), mean_loss, duration)
        )
        if keep_snapshots:
            history.snapshots.append(model)
        logger.info(
            "round %d/%d: %d clients, mean train loss %.4f, %.1f ms",
            round_index, config.global_rounds, len(participants), mean_loss,
            duration * 1e3,
        )
    return model, history
