"""Reconstructing a global model without one client's influence.

Three routes, cheapest first:

* update calibration — replay the retained non-target updates, but at each
  retained round run a short burst of local training ("calibration") from the
  reconstructed model and bend each stored update to the fresh direction
  while keeping its stored magnitude;
* update accumulation — replay the retained non-target updates as-is;
* retraining — train from scratch with the target client excluded (the
  reference result the cheap routes are judged against).

None of these may read the target client's data or stored updates.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import replace
from collections.abc import Callable, Sequence

import numpy as np

from .data import NORM_MODES, ClientShard, FedConfig
from .federation import RoundSum, Trajectory, local_train, run_fedavg
from .nn import ArchSpec, ParamSet, build_model, param_linear
from .nn.params import require_conformant
from .retention import RetentionStore, StoredNorms, StoreFingerprint, schedule
from .seeds import derive_seed

logger = logging.getLogger(__name__)

_ZERO_NORM_EPS = 1e-12


def _norms(sq_norms: np.ndarray, norm_mode: str) -> np.ndarray:
    """Per-tensor norms in "layer" mode; in "global" mode the one norm of
    the whole flattened update."""
    return np.sqrt(sq_norms if norm_mode == "layer" else sq_norms.sum(keepdims=True))


def calibrate_update(
    retained: ParamSet | StoredNorms,
    fresh: ParamSet,
    norm_mode: str = "layer",
    epsilon: float = _ZERO_NORM_EPS,
    on_fallback: Callable[[], None] | None = None,
) -> ParamSet:
    """Redirect the retained update along the fresh one at retained magnitude.

    Per tensor (or over the whole flattened update in "global" mode) the
    result is |retained| * fresh / |fresh|. A fresh tensor whose norm is at
    most epsilon contributes no direction, so the retained tensor is kept
    as-is — it comes from a remaining client, so reusing it leaks nothing
    about the unlearned one, while zeroing it would discard real signal.

    The retained update may be given as its stored norms alone: its tensors
    are then read only if some fresh norm is at most epsilon. `on_fallback`
    is called once for each tensor (each update, in "global" mode) kept
    as retained.
    """
    if norm_mode not in NORM_MODES:
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if isinstance(retained, ParamSet):
        if not retained.conforms_to(fresh):
            raise ValueError("retained and fresh updates have different structure")
        retained_sq, load = retained.sq_norms(), lambda: retained
    else:
        if retained.sq_norms.shape != (len(fresh),):
            raise ValueError("retained and fresh updates have different structure")
        retained_sq, load = retained.sq_norms, retained.load

    layout = fresh._layout
    spans = layout.spans if norm_mode == "layer" else ((0, layout.size, None),)
    stored = None
    out = np.empty(layout.size)
    for (start, end, _), old_norm, new_norm in zip(
            spans, _norms(retained_sq, norm_mode), _norms(fresh.sq_norms(), norm_mode)):
        if new_norm <= epsilon:
            if stored is None:
                stored = load()
                require_conformant(stored, fresh)
            out[start:end] = stored.vector[start:end]
            if on_fallback is not None:
                on_fallback()
        else:
            np.multiply(fresh.vector[start:end], old_norm / new_norm, out=out[start:end])
    return ParamSet._adopt(layout, out)


def _remaining_ids(config: FedConfig) -> list[int]:
    return [c for c in range(1, config.num_clients + 1) if c != config.target_client]


def _remaining_shards(shards: Sequence[ClientShard], config: FedConfig) -> list[ClientShard]:
    """The remaining clients' shards, in ascending id; the target's is not needed."""
    by_id = {s.client_id: s for s in shards}
    missing = [c for c in _remaining_ids(config) if c not in by_id]
    if missing:
        raise ValueError(f"shards missing for clients {missing}")
    return [by_id[c] for c in _remaining_ids(config)]


def _replay(
    arch: ArchSpec,
    initial_model: ParamSet,
    store: RetentionStore,
    config: FedConfig,
    shards: Sequence[ClientShard] | None = None,
) -> Trajectory:
    """Walk the retention schedule from the initial model, applying the
    aggregate of the remaining clients' stored updates at each retained
    round and keeping the head weight after each.

    Given the remaining clients' shards, every round after the first is
    calibrated: its stored norms are read, each remaining client trains
    from the current model, its stored update is redirected along the fresh
    one, and the result is added to the round's :class:`RoundSum` as soon
    as it is made; each round is logged. Without shards the replay is plain
    and silent, and every round is folded from the stored blobs."""
    remaining = _remaining_ids(config)
    if shards is not None:
        shards = _remaining_shards(shards, config)
        cali_config = replace(config, seed=derive_seed(config.seed, "cali"))
    expected = StoreFingerprint.of(arch, config)
    if store.fingerprint != expected:
        raise ValueError(
            f"store fingerprint {store.fingerprint} does not match run {expected}"
        )
    model = initial_model
    heads: list[np.ndarray] = []
    timings: list[float] = []
    fallbacks = itertools.count()  # ticked once per tensor kept uncalibrated
    bytes_before = store.bytes_read
    start = time.perf_counter()
    for j, round_index in enumerate(store.retained_rounds):
        step_start = time.perf_counter()
        if shards is None or j == 0:
            delta = store.load_round(round_index, client_ids=remaining,
                                     aggregation=config.aggregation)
        else:
            stored = [store.load_norms(round_index, cid) for cid in remaining]
            total = RoundSum(((s.client_id, s.sample_count) for s in stored),
                             config.aggregation)
            for s, shard in zip(stored, shards):
                fresh = local_train(arch, model, shard, cali_config,
                                    round_index, epochs=config.calibration_epochs)
                calibrated = calibrate_update(s, fresh.delta, norm_mode=config.norm_mode,
                                              on_fallback=fallbacks.__next__)
                total.add(s.client_id, calibrated._layout, calibrated.vector)
            delta = total.result()
        model = param_linear(1.0, model, 1.0, delta)
        heads.append(arch.head_weight(model))
        timings.append(time.perf_counter() - step_start)
        if shards is not None:
            logger.info(
                "calibrated reconstruction %d/%d (round %d) in %.3fs",
                j + 1, len(store.retained_rounds), round_index, timings[-1],
            )
    return Trajectory(
        model=model,
        round_timings=tuple(timings),
        total_seconds=time.perf_counter() - start,
        heads=tuple(heads),
        store_bytes_read=store.bytes_read - bytes_before,
        eps_fallbacks=next(fallbacks),
    )


def fed_eraser(
    arch: ArchSpec,
    initial_model: ParamSet,
    store: RetentionStore,
    shards: Sequence[ClientShard],
    config: FedConfig,
) -> Trajectory:
    """Calibrated reconstruction from the retained updates, rescaled in
    `config.norm_mode`.

    Walks the retention schedule from the shared initial model. The first
    retained round is applied directly — the initial model was never trained
    by the unlearned client, so its round-one updates need no calibration;
    every later round trains each remaining client for the configured
    calibration epochs from the current reconstructed model, redirects that
    client's stored update along the fresh one, and applies the aggregate.
    Those later rounds read only the stored norms, and a blob only where a
    fresh tensor falls back to its stored value.
    The target client's shard and stored updates are never touched.
    """
    return _replay(arch, initial_model, store, config, shards)


def fed_accum(
    arch: ArchSpec,
    initial_model: ParamSet,
    store: RetentionStore,
    config: FedConfig,
) -> Trajectory:
    """Plain replay of the retained non-target updates — no new training."""
    return _replay(arch, initial_model, store, config)


def fed_retrain(
    arch: ArchSpec,
    shards: Sequence[ClientShard],
    config: FedConfig,
) -> Trajectory:
    """FedAvg over the remaining clients alone, from the run seed's
    initialization: the same starting point as the original training run,
    and hence comparable parameter trajectories."""
    return run_fedavg(arch, _remaining_shards(shards, config), config,
                      initial_model=build_model(arch, config.seed))


def expected_speedup(calibration_ratio: float, retain_interval: int) -> float:
    """The paper's cost ratio of retraining to calibrated reconstruction:
    interval / ratio. It ignores the rounding of calibration epochs and the
    first retained round, which is replayed without training; see
    schedule_speedup for the exact figure.

    Retraining runs every round at full local epochs; reconstruction runs one
    calibration burst of ratio-scaled epochs per retained round.
    """
    if not 0.0 < calibration_ratio <= 1.0:
        raise ValueError("calibration_ratio must be in (0, 1]")
    if retain_interval < 1:
        raise ValueError("retain_interval must be at least 1")
    return retain_interval / calibration_ratio


def schedule_speedup(config: FedConfig) -> float | None:
    """Exact cost ratio, in local epochs, of retraining to calibrated
    reconstruction for the schedule that runs: every remaining client trains
    global_rounds x local_epochs epochs when retraining, and
    calibration_epochs at each retained round after the first when
    reconstructing. None when fewer than two rounds are retained, since the
    reconstruction then trains nothing.
    """
    calibrated = len(schedule(config.global_rounds, config.retain_interval)) - 1
    if calibrated < 1:
        return None
    return (config.global_rounds * config.local_epochs) / (
        calibrated * config.calibration_epochs)
