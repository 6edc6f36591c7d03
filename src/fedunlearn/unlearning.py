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

import logging
import time
from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

from .data import ClientShard, FedConfig
from .federation import ClientUpdate, RoundHistory, aggregate, local_train, run_fedavg
from .nn import ArchSpec, ParamSet, build_model, param_linear
from .retention import RetentionStore, StoreFingerprint
from .seeds import derive_seed

logger = logging.getLogger(__name__)

NORM_MODES = ("layer", "global")
_ZERO_NORM_EPS = 1e-12


@dataclass(frozen=True)
class UnlearnResult:
    method: str
    model: ParamSet
    round_timings: tuple[float, ...]  # seconds per reconstruction step
    total_seconds: float
    calibration_rounds: int  # reconstruction steps walked (retained rounds,
    # or full training rounds for the retraining route)
    states: tuple[ParamSet, ...] | None = None  # model after each step, if kept
    history: RoundHistory | None = None  # only the retraining route has one


def calibrate_update(
    retained: ParamSet,
    fresh: ParamSet,
    norm_mode: str = "layer",
    epsilon: float = _ZERO_NORM_EPS,
) -> ParamSet:
    """Redirect the retained update along the fresh one at retained magnitude.

    Per tensor (or over the whole flattened update in "global" mode) the
    result is |retained| * fresh / |fresh|. A fresh tensor whose norm is at
    most epsilon contributes no direction, so the retained tensor is kept
    as-is — it comes from a remaining client, so reusing it leaks nothing
    about the unlearned one, while zeroing it would discard real signal.
    """
    if norm_mode not in NORM_MODES:
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if not retained.conforms_to(fresh):
        raise ValueError("retained and fresh updates have different structure")

    if norm_mode == "global":
        retained_norm = float(np.sqrt(sum(float((t * t).sum()) for _, t in retained.items())))
        fresh_norm = float(np.sqrt(sum(float((t * t).sum()) for _, t in fresh.items())))
        if fresh_norm <= epsilon:
            return retained
        scale = retained_norm / fresh_norm
        return param_linear(scale, fresh, 0.0, fresh)

    calibrated = []
    for (name, old), (_, new) in zip(retained.items(), fresh.items()):
        old_norm, new_norm = float(np.linalg.norm(old)), float(np.linalg.norm(new))
        calibrated.append(
            (name, old if new_norm <= epsilon else new * (old_norm / new_norm))
        )
    return ParamSet(calibrated)


def _check_store(store: RetentionStore, arch: ArchSpec, config: FedConfig) -> None:
    expected = StoreFingerprint(
        arch_hash=arch.arch_hash(),
        num_clients=config.num_clients,
        global_rounds=config.global_rounds,
        retain_interval=config.retain_interval,
        seed=config.seed,
    )
    if store.fingerprint != expected:
        raise ValueError(
            f"store fingerprint {store.fingerprint} does not match run {expected}"
        )


def _remaining_ids(config: FedConfig) -> list[int]:
    return [c for c in range(1, config.num_clients + 1) if c != config.target_client]


def fed_eraser(
    arch: ArchSpec,
    initial_model: ParamSet,
    store: RetentionStore,
    shards: Sequence[ClientShard],
    config: FedConfig,
    norm_mode: str = "layer",
    epsilon: float = _ZERO_NORM_EPS,
    aggregation_mode: str = "standard",
    keep_states: bool = False,
) -> UnlearnResult:
    """Calibrated reconstruction from the retained updates.

    Walks the retention schedule from the shared initial model. The first
    retained round is applied directly — the initial model was never trained
    by the unlearned client, so its round-one updates need no calibration;
    every later round trains each remaining client for the configured
    calibration epochs from the current reconstructed model, redirects that
    client's stored update along the fresh one, and applies the aggregate.
    The target client's shard and stored updates are never touched.
    """
    _check_store(store, arch, config)
    by_id = {s.client_id: s for s in shards}
    remaining = _remaining_ids(config)
    missing = [c for c in remaining if c not in by_id]
    if missing:
        raise ValueError(f"shards missing for clients {missing}")
    cali_seed = derive_seed(config.seed, "cali")
    cali_config = replace(config, seed=cali_seed)

    model = initial_model
    states: list[ParamSet] = []
    timings: list[float] = []
    start = time.perf_counter()
    for j, round_index in enumerate(store.retained_rounds):
        step_start = time.perf_counter()
        stored = store.load_round(round_index, client_ids=remaining)
        if j == 0:
            applied = stored
        else:
            applied = []
            for upd in stored:
                fresh = local_train(
                    arch,
                    model,
                    by_id[upd.client_id],
                    cali_config,
                    round_index,
                    epochs=config.calibration_epochs,
                )
                applied.append(
                    replace(upd, delta=calibrate_update(
                        upd.delta, fresh.delta, norm_mode, epsilon))
                )
        model = param_linear(1.0, model, 1.0, aggregate(applied, aggregation_mode))
        if keep_states:
            states.append(model)
        timings.append(time.perf_counter() - step_start)
        logger.info(
            "calibrated reconstruction %d/%d (round %d) in %.3fs",
            j + 1, len(store.retained_rounds), round_index, timings[-1],
        )
    return UnlearnResult(
        method="eraser",
        model=model,
        round_timings=tuple(timings),
        total_seconds=time.perf_counter() - start,
        calibration_rounds=len(store.retained_rounds),
        states=tuple(states) if keep_states else None,
    )


def fed_accum(
    arch: ArchSpec,
    initial_model: ParamSet,
    store: RetentionStore,
    config: FedConfig,
    aggregation_mode: str = "standard",
    keep_states: bool = False,
) -> UnlearnResult:
    """Plain replay of the retained non-target updates — no new training."""
    _check_store(store, arch, config)
    remaining = _remaining_ids(config)
    model = initial_model
    states: list[ParamSet] = []
    timings: list[float] = []
    start = time.perf_counter()
    for round_index in store.retained_rounds:
        step_start = time.perf_counter()
        stored = store.load_round(round_index, client_ids=remaining)
        model = param_linear(1.0, model, 1.0, aggregate(stored, aggregation_mode))
        if keep_states:
            states.append(model)
        timings.append(time.perf_counter() - step_start)
    return UnlearnResult(
        method="accum",
        model=model,
        round_timings=tuple(timings),
        total_seconds=time.perf_counter() - start,
        calibration_rounds=len(store.retained_rounds),
        states=tuple(states) if keep_states else None,
    )


def fed_retrain(
    arch: ArchSpec,
    shards: Sequence[ClientShard],
    config: FedConfig,
    seed: int | None = None,
    aggregation_mode: str = "standard",
    keep_snapshots: bool = False,
) -> UnlearnResult:
    """Train from a fresh seeded initialization with the target excluded.

    The initialization seed defaults to the run seed, giving the same
    starting point as the original training run (and hence comparable
    parameter trajectories); pass a different seed for an independent start.
    """
    start = time.perf_counter()
    initial = build_model(arch, config.seed if seed is None else seed)
    model, history = run_fedavg(
        arch,
        shards,
        config,
        initial_model=initial,
        exclude={config.target_client},
        aggregation_mode=aggregation_mode,
        keep_snapshots=keep_snapshots,
    )
    total = time.perf_counter() - start
    return UnlearnResult(
        method="retrain",
        model=model,
        round_timings=(),
        total_seconds=total,
        calibration_rounds=config.global_rounds,
        states=tuple(history.snapshots) if keep_snapshots else None,
        history=history,
    )


def expected_speedup(calibration_ratio: float, retain_interval: int) -> float:
    """Cost ratio of retraining to calibrated reconstruction: interval / ratio.

    Retraining runs every round at full local epochs; reconstruction runs one
    calibration burst of ratio-scaled epochs per retained round.
    """
    if not 0.0 < calibration_ratio <= 1.0:
        raise ValueError("calibration_ratio must be in (0, 1]")
    if retain_interval < 1:
        raise ValueError("retain_interval must be at least 1")
    return retain_interval / calibration_ratio
