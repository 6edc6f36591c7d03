"""Federated averaging: local SGD on client shards, weighted delta aggregation,
and the outer round loop with optional retention of per-client updates. All
local training goes through one round producer, :func:`client_updates`."""

from __future__ import annotations

import logging
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .data import AGGREGATION_MODES, ClientShard, FedConfig
from .nn import ArchSpec, Batch, ParamSet, build_model, loss_and_grad, param_linear
from .nn.params import _Layout, require_same_layout
from .seeds import derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClientUpdate:
    """One client's parameter delta from one round of local training."""

    client_id: int
    round_index: int
    delta: ParamSet
    sample_count: int
    train_loss: float | None = None
    # the local SGD that made the delta; 0 for an update read back from a store
    sgd_steps: int = 0
    sample_grads: int = 0

    def __post_init__(self):
        if self.client_id < 1:
            raise ValueError("client ids start at 1")
        if self.round_index < 1:
            raise ValueError("round indices start at 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


@dataclass(frozen=True)
class Trajectory:
    """One walk of a global model, step by step: a FedAvg run (train,
    retrain) steps once per round, a replay (eraser, accum) once per
    retained round."""

    model: ParamSet
    round_timings: tuple[float, ...]  # seconds per step
    total_seconds: float
    heads: tuple[np.ndarray, ...] = ()  # head weight after each step
    mean_losses: tuple[float, ...] = ()  # mean client train loss per round; none for replays
    store_bytes_read: int = 0  # retention blob bytes read
    eps_fallbacks: int = 0  # stored tensors the eraser kept uncalibrated
    sgd_steps: int = 0  # local SGD steps of every client, summed
    sample_grads: int = 0  # per-sample gradients those steps took


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

    seeds = (derive_seed(config.seed, "local", shard.client_id, round_index, epoch)
             for epoch in range(epochs))
    where = f"round {round_index}, client {shard.client_id}"
    w, params, losses = sgd_epochs(arch, global_params, shard.dataset.inputs,
                                   shard.dataset.labels, batch_size, config.learning_rate,
                                   seeds, where)
    # the delta in place: w - g equals param_linear(1.0, w, -1.0, g) bit for
    # bit; a non-finite weight leaves its tensor of the delta non-finite, so
    # one check of the delta covers the weights too
    w -= global_params.vector
    layout = params._layout
    bad = layout.non_finite_tensor(w)
    if bad is not None:
        raise ValueError(f"{where}: tensor {bad!r} contains non-finite values")
    w.flags.writeable = False
    delta = ParamSet._over(layout, w)
    return ClientUpdate(
        client_id=shard.client_id,
        round_index=round_index,
        delta=delta,
        sample_count=n,
        train_loss=float(np.mean(losses)),
        sgd_steps=len(losses),
        sample_grads=epochs * n,  # each epoch steps over every row once
    )


def sgd_epochs(arch: ArchSpec, start: ParamSet, inputs: np.ndarray, labels: np.ndarray,
               batch_size: int, learning_rate: float, epoch_seeds: Iterable[int],
               where: str) -> tuple[np.ndarray, ParamSet, list[float]]:
    """Mini-batch SGD from `start`, one epoch per seed, one `loss_and_grad`
    call per step. Each epoch's rows are gathered in the seed's permutation
    and validated once; each step's batch is a slice of them. One working
    vector is stepped in place through one step vector made per call:
    `w -= np.multiply(lr, g, out=step)` is `w -= lr * g`, which equals
    1.0*w + (-lr)*g bit for bit. Gradients are checked at every step, a
    failure naming `where` and the step; the weights are the caller's to
    check once, as under this update a non-finite entry never becomes finite
    again. Returns the weight vector, a read-only set that views it, and
    every step's loss."""
    lr = float(learning_rate)
    w, params = start.working_copy()
    step = np.empty(w.size)
    n = len(labels)
    losses: list[float] = []
    for seed in epoch_seeds:
        order = np.random.default_rng(seed).permutation(n)
        epoch = Batch(inputs[order], labels[order])
        for first in range(0, n, batch_size):
            batch = epoch.rows(first, first + batch_size)
            try:
                loss, grads = loss_and_grad(arch, params, batch)
            except ValueError as exc:
                raise ValueError(f"{where}, step {len(losses) + 1}: {exc}") from exc
            w -= np.multiply(lr, grads.vector, out=step)
            losses.append(loss)
    return w, params, losses


class RoundSum:
    """One round's aggregate: the one global delta of the round's client
    deltas, folded one delta at a time.

    "standard" weights each delta by its client's sample count over the
    round's total (weights sum to one). "literal" further divides the sum by
    the participant count, matching an update rule that averages the
    already-normalized sum across clients.

    It is built from the round's (client id, sample count) pairs; the deltas
    must then be added in ascending client id. The first is weighted
    straight into the sum, and each later one through one reused scratch
    vector, since `np.multiply(w, v, out=scratch); total += scratch` is
    `total += w * v` bit for bit. A delta may be added as pieces, such as
    each tensor's values where a stored blob holds them, and each piece is
    weighted where it lies, so the delta is never copied into one vector.
    Only :meth:`result` checks finiteness, of the sum: the weights are
    positive, so a sum with a non-finite delta in it is never finite.
    """

    def __init__(self, sample_counts: Iterable[tuple[int, int]], mode: str = "standard"):
        if mode not in AGGREGATION_MODES:
            raise ValueError(f"unknown aggregation mode {mode!r}")
        pairs = sorted(sample_counts)
        if not pairs:
            raise ValueError("cannot aggregate zero updates")
        self._ids = [client_id for client_id, _ in pairs]
        if len(set(self._ids)) != len(self._ids):
            raise ValueError("duplicate client ids in aggregation")
        total = float(sum(count for _, count in pairs))
        self._weights = [count / total for _, count in pairs]
        self._mode = mode
        self._added = 0
        self._layout = self._sum = self._scratch = None

    def add(self, client_id: int, layout: _Layout, *pieces: np.ndarray) -> None:
        """Add the next client's delta, laid out as `layout`: `pieces` are
        flat arrays that hold its values in order, the whole vector or each
        tensor's segment of it."""
        if self._layout is None:
            self._layout = layout
            self._sum, self._scratch = np.empty(layout.size), np.empty(layout.size)
        else:
            require_same_layout(self._layout, layout)
        j = self._added
        if j == len(self._ids) or self._ids[j] != client_id:
            raise ValueError(f"client {client_id} is not the next of {self._ids} to add")
        weight, out = self._weights[j], self._sum if j == 0 else self._scratch
        offset = 0
        for piece in pieces:
            np.multiply(weight, piece, out=out[offset : offset + piece.size])
            offset += piece.size
        if offset != layout.size:
            raise ValueError(f"client {client_id}'s delta holds {offset} values, not {layout.size}")
        if j:
            self._sum += out
        self._added += 1

    def result(self) -> ParamSet:
        """The aggregate, once every client's delta is added."""
        if self._added != len(self._ids):
            raise ValueError(f"only {self._added} of the deltas of clients {self._ids} added")
        if self._mode == "literal":
            self._sum *= 1.0 / len(self._ids)
        self._scratch = None  # not held while the caller makes the new model
        return ParamSet._adopt(self._layout, self._sum)


def aggregate(updates: Sequence[ClientUpdate], mode: str = "standard") -> ParamSet:
    """One round's updates combined by :class:`RoundSum` in `mode`, in
    client-id order. No stage calls it, since each folds its round into a
    RoundSum as the deltas arrive; it stays because perfbench/run.py's accum
    check imports it."""
    total = RoundSum(((u.client_id, u.sample_count) for u in updates), mode)
    rounds = {u.round_index for u in updates}
    if len(rounds) != 1:
        raise ValueError(f"updates span rounds {sorted(rounds)}; expected one round")
    for u in sorted(updates, key=lambda u: u.client_id):
        total.add(u.client_id, u.delta._layout, u.delta.vector)
    return total.result()


def client_updates(arch: ArchSpec, model: ParamSet, shards: Iterable[ClientShard],
                   config: FedConfig, round_index: int,
                   epochs: int | None = None) -> Iterator[ClientUpdate]:
    """Each shard's client trains from `model`, in the order given; each
    update is yielded before the next client trains."""
    for shard in shards:
        yield local_train(arch, model, shard, config, round_index, epochs)


def run_fedavg(
    arch: ArchSpec,
    shards: Sequence[ClientShard],
    config: FedConfig,
    initial_model: ParamSet | None = None,
    retention_sink: UpdateSink | None = None,
) -> Trajectory:
    """The outer federated loop over exactly the given clients' shards: each
    round their :func:`client_updates`, in ascending id, are folded into a
    :class:`RoundSum` in `config.aggregation` mode as they arrive, so the
    round holds one update at a time, and the sum is added to the global
    model. When a retention sink is given, the shards must be every
    client's, and each of its retained rounds lists its updates and hands
    the sink that list before folding it."""
    start = time.perf_counter()
    by_id = {s.client_id: s for s in shards}
    if len(by_id) != len(shards):
        raise ValueError("duplicate client ids in shards")
    clients = set(range(1, config.num_clients + 1))
    if not by_id or not set(by_id) <= clients:
        raise ValueError(f"shards cover clients {sorted(by_id)}; expected some of "
                         f"{sorted(clients)}")
    retained: set[int] = set()
    if retention_sink is not None:
        if set(by_id) != clients:
            raise ValueError(f"retention needs every client's updates; shards cover "
                             f"clients {sorted(by_id)}")
        retained = set(retention_sink.retained_rounds)
        if not retained <= set(range(1, config.global_rounds + 1)):
            raise ValueError("retention schedule outside [1, global_rounds]")

    participants = [by_id[cid] for cid in sorted(by_id)]
    model = initial_model if initial_model is not None else build_model(arch, config.seed)
    timings: list[float] = []
    heads: list[np.ndarray] = []
    losses: list[float] = []
    sgd_steps = sample_grads = 0
    for round_index in range(1, config.global_rounds + 1):
        round_start = time.perf_counter()
        updates = client_updates(arch, model, participants, config, round_index)
        if round_index in retained:
            updates = list(updates)
            retention_sink.store_round(round_index, updates)
        total = RoundSum(((s.client_id, s.sample_count) for s in participants),
                         config.aggregation)
        client_losses = []
        for update in updates:
            total.add(update.client_id, update.delta._layout, update.delta.vector)
            client_losses.append(update.train_loss)
            sgd_steps += update.sgd_steps
            sample_grads += update.sample_grads
            del update  # before the next client trains
        model = param_linear(1.0, model, 1.0, total.result())
        # freed below the new model, a retained round's pages stay with the
        # process; freed above it, they can go back and fault in again
        del total, updates
        losses.append(float(np.mean(client_losses)))
        timings.append(time.perf_counter() - round_start)
        heads.append(arch.head_weight(model))
        logger.info(
            "round %d/%d: %d clients, mean train loss %.4f, %.1f ms",
            round_index, config.global_rounds, len(participants), losses[-1],
            timings[-1] * 1e3,
        )
    return Trajectory(model, tuple(timings), time.perf_counter() - start, tuple(heads),
                      tuple(losses), sgd_steps=sgd_steps, sample_grads=sample_grads)
