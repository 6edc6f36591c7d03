"""Calibrated reconstruction, plain replay, retraining, and the calibration
geometry identities."""

import inspect
import json
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fedunlearn.unlearning as unlearning
from fedunlearn.data import ClientShard, Dataset, FedConfig, partition_iid
from fedunlearn.federation import ClientUpdate, Trajectory, aggregate, local_train, run_fedavg
from fedunlearn.nn import (
    ArchSpec,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ParamSet,
    build_model,
    param_linear,
)
from fedunlearn.retention import (
    IntegrityError,
    RetentionStore,
    StoredNorms,
    StoreFingerprint,
)
from fedunlearn.unlearning import (
    calibrate_update,
    expected_speedup,
    fed_accum,
    fed_eraser,
    fed_retrain,
    schedule_speedup,
)

from conftest import small_config
from oracles import reference_fed_eraser


def pset(**tensors) -> ParamSet:
    return ParamSet([(k, np.asarray(v, dtype=np.float64)) for k, v in tensors.items()])


def random_pair(seed, shapes=(("w", (3, 4)), ("b", (5,)))):
    rng = np.random.default_rng(seed)
    retained = ParamSet([(n, rng.normal(size=s)) for n, s in shapes])
    fresh = ParamSet([(n, rng.normal(size=s)) for n, s in shapes])
    return retained, fresh


def tensor_cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a.ravel() @ b.ravel() / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestCalibrateUpdate:
    def test_hand_case_direction_from_fresh_magnitude_from_retained(self):
        out = calibrate_update(pset(w=[3.0, 4.0]), pset(w=[0.0, 2.0]))
        np.testing.assert_allclose(out["w"], [0.0, 5.0], atol=1e-12)

    def test_self_calibration_is_identity(self):
        retained, _ = random_pair(0)
        assert calibrate_update(retained, retained) == retained

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mode", ["layer", "global"])
    def test_norm_preserved_direction_followed(self, seed, mode):
        retained, fresh = random_pair(seed)
        out = calibrate_update(retained, fresh, norm_mode=mode)
        if mode == "layer":
            for name, t in out.items():
                assert np.linalg.norm(t) == pytest.approx(
                    np.linalg.norm(retained[name]), rel=1e-10)
                assert tensor_cosine(t, fresh[name]) == pytest.approx(1.0, abs=1e-10)
        else:
            assert np.linalg.norm(out.vector) == pytest.approx(
                np.linalg.norm(retained.vector), rel=1e-10)
            flat_out = np.hstack([t.ravel() for _, t in out.items()])
            flat_fresh = np.hstack([t.ravel() for _, t in fresh.items()])
            assert tensor_cosine(flat_out, flat_fresh) == pytest.approx(1.0, abs=1e-10)

    def test_positive_scaling_of_retained_scales_result(self):
        retained, fresh = random_pair(3)
        scaled = param_linear(2.5, retained, 0.0, retained)
        a = calibrate_update(scaled, fresh)
        b = calibrate_update(retained, fresh)
        for name, t in a.items():
            np.testing.assert_allclose(t, 2.5 * b[name], rtol=1e-12)

    def test_global_mode_ignores_per_layer_norms(self):
        # All magnitude in w for retained, all fresh direction in b: layer mode
        # keeps w's size in w; global mode moves it into b.
        retained = pset(w=[10.0, 0.0], b=[0.0])
        fresh = pset(w=[0.0, 0.0], b=[4.0])
        out = calibrate_update(retained, fresh, norm_mode="global")
        np.testing.assert_allclose(out["b"], [10.0], atol=1e-12)
        np.testing.assert_allclose(out["w"], [0.0, 0.0], atol=1e-12)

    def test_zero_fresh_tensor_keeps_retained_layer(self):
        retained = pset(w=[3.0, 4.0], b=[2.0])
        fresh = pset(w=[0.0, 0.0], b=[5.0])
        out = calibrate_update(retained, fresh)
        np.testing.assert_array_equal(out["w"], retained["w"])  # fallback
        np.testing.assert_allclose(out["b"], [2.0], atol=1e-12)  # calibrated

    def test_zero_fresh_everything_keeps_retained_globally(self):
        retained = pset(w=[3.0, 4.0])
        fresh = pset(w=[0.0, 0.0])
        assert calibrate_update(retained, fresh, norm_mode="global") == retained

    def test_epsilon_widens_the_fallback(self):
        retained = pset(w=[3.0, 4.0])
        tiny = pset(w=[1e-8, 0.0])
        # below epsilon -> fallback to retained
        out = calibrate_update(retained, tiny, epsilon=1e-6)
        np.testing.assert_array_equal(out["w"], retained["w"])
        # above epsilon -> rescaled to magnitude 5 along +x
        out = calibrate_update(retained, tiny, epsilon=1e-12)
        np.testing.assert_allclose(out["w"], [5.0, 0.0], atol=1e-9)

    def test_rejects_structure_mismatch(self):
        with pytest.raises(ValueError, match="different structure"):
            calibrate_update(pset(w=[1.0, 2.0]), pset(w=[[1.0], [2.0]]))
        with pytest.raises(ValueError, match="different structure"):
            calibrate_update(pset(w=[1.0]), pset(v=[1.0]))

    @pytest.mark.parametrize("mode", ["layer", "global"])
    def test_stored_norms_give_the_same_result(self, mode):
        retained, fresh = random_pair(5)
        stored = StoredNorms(3, 2, 10, retained.sq_norms(), load=lambda: pytest.fail("read"))
        assert calibrate_update(stored, fresh, norm_mode=mode) == \
            calibrate_update(retained, fresh, norm_mode=mode)

    def test_stored_norms_load_the_tensors_only_on_fallback(self):
        retained = pset(w=[3.0, 4.0], b=[2.0])
        fresh = pset(w=[0.0, 0.0], b=[5.0])
        loads, fallbacks = [], []
        stored = StoredNorms(3, 2, 10, retained.sq_norms(),
                             load=lambda: loads.append(1) or retained)
        out = calibrate_update(stored, fresh, on_fallback=lambda: fallbacks.append(1))
        assert out == calibrate_update(retained, fresh)
        assert loads == [1] and fallbacks == [1]

    def test_rejects_stored_norms_of_another_structure(self):
        stored = StoredNorms(3, 2, 10, np.array([1.0, 2.0]), load=lambda: None)
        with pytest.raises(ValueError, match="different structure"):
            calibrate_update(stored, pset(w=[1.0]))

    def test_rejects_unknown_mode_and_negative_epsilon(self):
        with pytest.raises(ValueError, match="norm_mode"):
            calibrate_update(pset(w=[1.0]), pset(w=[1.0]), norm_mode="spectral")
        with pytest.raises(ValueError, match="epsilon"):
            calibrate_update(pset(w=[1.0]), pset(w=[1.0]), epsilon=-1e-9)


class LoggingStore:
    """Delegating wrapper that records every (round, client) read."""

    def __init__(self, inner):
        self._inner = inner
        self.requested: list[tuple[int, int]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def load_round(self, round_index, client_ids=None, **kwargs):
        ids = (client_ids if client_ids is not None
               else list(range(1, self._inner.fingerprint.num_clients + 1)))
        self.requested.extend((round_index, c) for c in ids)
        return self._inner.load_round(round_index, client_ids, **kwargs)

    def load_client(self, round_index, client_id, **kwargs):
        self.requested.append((round_index, client_id))
        return self._inner.load_client(round_index, client_id, **kwargs)

    def load_norms(self, round_index, client_id):
        self.requested.append((round_index, client_id))
        return self._inner.load_norms(round_index, client_id)


class TestFedAccum:
    def test_matches_flat_replay_oracle(self, trained_run):
        arch, config, _, _, initial, _, store, _ = trained_run
        result = fed_accum(arch, initial, store, config)

        # Independent route: flatten everything and accumulate by hand.
        flat = np.hstack([t.ravel() for _, t in initial.items()])
        remaining = [c for c in range(1, config.num_clients + 1)
                     if c != config.target_client]
        for round_index in store.retained_rounds:
            updates = [store.load_client(round_index, c) for c in remaining]
            total = sum(u.sample_count for u in updates)
            round_sum = np.zeros_like(flat)
            for u in updates:
                vec = np.hstack([t.ravel() for _, t in u.delta.items()])
                round_sum += (u.sample_count / total) * vec
            flat = flat + round_sum

        got = np.hstack([t.ravel() for _, t in result.model.items()])
        np.testing.assert_allclose(got, flat, atol=1e-10)

    def test_never_reads_target_updates(self, trained_run):
        arch, config, _, _, initial, _, store, _ = trained_run
        log = LoggingStore(store)
        result = fed_accum(arch, initial, log, config)
        assert isinstance(result, Trajectory)
        assert result.mean_losses == ()  # a replay trains nothing
        assert log.requested  # something was read
        assert all(c != config.target_client for _, c in log.requested)

    def test_step_bookkeeping(self, trained_run):
        arch, config, _, _, initial, _, store, _ = trained_run
        result = fed_accum(arch, initial, store, config)
        assert len(result.round_timings) == len(store.retained_rounds)
        assert len(result.heads) == len(store.retained_rounds)
        np.testing.assert_array_equal(result.heads[-1], arch.head_weight(result.model))

    def test_aggregation_mode_comes_from_the_config(self, trained_run):
        arch, config, _, _, initial, _, store, _ = trained_run
        literal = fed_accum(arch, initial, store, replace(config, aggregation="literal"))
        assert literal.model != fed_accum(arch, initial, store, config).model
        expected = initial
        for round_index in store.retained_rounds:
            updates = store.load_round(round_index, client_ids=[2, 3])
            expected = param_linear(1.0, expected, 1.0, aggregate(updates, "literal"))
        assert literal.model == expected

    def test_rejects_wrong_store(self, trained_run, tmp_path):
        arch, config, _, _, initial, _, _, _ = trained_run
        other = RetentionStore.create(
            tmp_path / "other", StoreFingerprint.of(arch, small_config(seed=99)))
        with pytest.raises(ValueError, match="store fingerprint"):
            fed_accum(arch, initial, other, config)


class TestFedEraser:
    def test_deterministic(self, trained_run):
        arch, config, shards, _, initial, _, store, _ = trained_run
        a = fed_eraser(arch, initial, store, shards, config)
        b = fed_eraser(arch, initial, store, shards, config)
        assert a.model == b.model

    def test_first_step_matches_plain_replay(self, trained_run):
        arch, config, shards, _, initial, _, store, _ = trained_run
        eraser = fed_eraser(arch, initial, store, shards, config)
        accum = fed_accum(arch, initial, store, config)
        # round one is uncalibrated
        np.testing.assert_array_equal(eraser.heads[0], accum.heads[0])
        assert eraser.model != accum.model  # later rounds are not

    def test_calibration_training_burst_count(self, trained_run, monkeypatch):
        arch, config, shards, _, initial, _, store, _ = trained_run
        calls: list[tuple[int, int]] = []

        def counting_local_train(arch_, model_, shard_, cfg_, round_index, epochs=None):
            calls.append((shard_.client_id, round_index))
            assert epochs == config.calibration_epochs
            assert cfg_.seed != config.seed  # calibration uses a derived seed
            return local_train(arch_, model_, shard_, cfg_, round_index, epochs)

        monkeypatch.setattr(unlearning, "local_train", counting_local_train)
        result = fed_eraser(arch, initial, store, shards, config)
        retained = store.retained_rounds
        remaining = config.num_clients - 1
        assert len(calls) == (len(retained) - 1) * remaining
        assert {r for _, r in calls} == set(retained[1:])
        assert all(c != config.target_client for c, _ in calls)
        assert len(result.heads) == len(retained)

    def test_runs_without_target_shard_and_reads_no_target_update(self, trained_run):
        arch, config, shards, _, initial, _, store, _ = trained_run
        log = LoggingStore(store)
        no_target = [s for s in shards if s.client_id != config.target_client]
        result = fed_eraser(arch, initial, log, no_target, config)
        assert log.requested
        assert all(c != config.target_client for _, c in log.requested)
        with_target = fed_eraser(arch, initial, store, shards, config)
        assert result.model == with_target.model  # target shard is never touched

    def test_rejects_missing_remaining_shard(self, trained_run):
        arch, config, shards, _, initial, _, store, _ = trained_run
        only_target = [s for s in shards if s.client_id == config.target_client]
        with pytest.raises(ValueError, match="shards missing for clients"):
            fed_eraser(arch, initial, store, only_target, config)

    def test_rejects_wrong_store(self, trained_run, tmp_path):
        arch, config, shards, _, initial, _, _, _ = trained_run
        other = RetentionStore.create(
            tmp_path / "other", StoreFingerprint.of(arch, small_config(seed=123)))
        with pytest.raises(ValueError, match="store fingerprint"):
            fed_eraser(arch, initial, other, shards, config)

    def test_norm_mode_changes_result(self, trained_run):
        arch, config, shards, _, initial, _, store, _ = trained_run
        layer = fed_eraser(arch, initial, store, shards, config)
        global_ = fed_eraser(arch, initial, store, shards,
                             replace(config, norm_mode="global"))
        assert layer.model != global_.model


def _run_with_store(tmp_path, arch, inputs, labels, classes):
    """Train a 3-client, 6-round run (rounds 1, 3 and 5 retained) on the
    given data; (arch, config, shards, initial model, store)."""
    config = small_config(global_rounds=6)
    shards = partition_iid(Dataset("data", inputs, labels, classes),
                           config.num_clients, config.seed)
    store = RetentionStore.create(tmp_path / "store", StoreFingerprint.of(arch, config))
    initial = build_model(arch, config.seed)
    run_fedavg(arch, shards, config, initial_model=initial, retention_sink=store)
    return arch, config, shards, initial, store


@pytest.fixture(params=["dense", "conv"])
def stored_run(request, tmp_path):
    rng = np.random.default_rng(4)
    if request.param == "dense":
        arch = ArchSpec(layers=(Dense(6, 8, "relu"), Dense(8, 3)), input_shape=(6,))
        inputs = rng.normal(size=(150, 6))
    else:
        arch = ArchSpec(
            layers=(Conv2d(1, 2, 3, "relu"), Conv2d(2, 2, 2, "relu"), MaxPool2d(2),
                    Flatten(), Dense(8, 3)),
            input_shape=(1, 7, 7))
        inputs = rng.normal(size=(150, 1, 7, 7))
    labels = rng.integers(0, 3, size=150)
    return _run_with_store(tmp_path, arch, inputs, labels, 3)


def record_blob_reads(monkeypatch) -> list[tuple[int, int]]:
    """From now on, every (round, client) whose blob any store reads."""
    reads = []
    real = RetentionStore.load_client

    def recording(self, round_index, client_id, **kwargs):
        reads.append((round_index, client_id))
        return real(self, round_index, client_id, **kwargs)

    monkeypatch.setattr(RetentionStore, "load_client", recording)
    return reads


def _rewrite_manifest(store, edit) -> RetentionStore:
    path = store.root / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return RetentionStore.open(store.root)


class TestEraserReadsStoredNorms:
    """After the first retained round the eraser takes the retained norms
    from the manifest; the oracle reads every whole blob every round."""

    def test_layer_mode_is_bit_equal_to_full_blob_replay(self, stored_run):
        arch, config, shards, initial, store = stored_run
        result = fed_eraser(arch, initial, store, shards, config)
        assert result.model == reference_fed_eraser(arch, initial, store, shards, config)
        assert result.eps_fallbacks == 0

    def test_global_mode_matches_full_blob_replay(self, stored_run):
        arch, config, shards, initial, store = stored_run
        result = fed_eraser(arch, initial, store, shards,
                            replace(config, norm_mode="global"))
        expected = reference_fed_eraser(arch, initial, store, shards, config,
                                        norm_mode="global")
        np.testing.assert_allclose(result.model.vector, expected.vector,
                                   rtol=1e-12, atol=0)

    def test_blobs_read_only_in_the_first_round(self, stored_run, monkeypatch):
        arch, config, shards, initial, store = stored_run
        reads = record_blob_reads(monkeypatch)
        result = fed_eraser(arch, initial, store, shards, config)
        assert reads == [(1, 2), (1, 3)]
        assert result.store_bytes_read == sum(
            (store.root / f"round_1/client_{c}.fesp").stat().st_size for c in (2, 3))

    def test_epsilon_fallback_reads_only_that_blob(self, stored_run, monkeypatch):
        arch, config, shards, initial, store = stored_run
        last = build_model(arch, 0).names[-1]

        def zeroing_train(arch_, model_, shard_, cfg_, round_index, epochs=None):
            # client 2's last fresh tensor at round 3 is all zeros, so it
            # falls back to the stored tensor
            upd = local_train(arch_, model_, shard_, cfg_, round_index, epochs)
            if (shard_.client_id, round_index) != (2, 3):
                return upd
            delta = ParamSet((n, np.zeros_like(t) if n == last else t)
                             for n, t in upd.delta.items())
            return replace(upd, delta=delta)

        monkeypatch.setattr(unlearning, "local_train", zeroing_train)
        expected = reference_fed_eraser(arch, initial, store, shards, config,
                                        train=zeroing_train)
        reads = record_blob_reads(monkeypatch)
        result = fed_eraser(arch, initial, store, shards, config)
        assert result.model == expected
        assert result.eps_fallbacks == 1
        assert reads == [(1, 2), (1, 3), (3, 2)]

    def test_tampered_norms_are_detected(self, trained_run, tmp_path):
        arch, config, shards, _, initial, _, store, _ = trained_run
        shutil.copytree(store.root, tmp_path / "copy")

        def tamper(doc):
            doc["rounds"]["3"]["2"]["sq_norms"][0] *= 1.5

        copy = _rewrite_manifest(RetentionStore.open(tmp_path / "copy"), tamper)
        with pytest.raises(IntegrityError, match="norms checksum mismatch for round 3 client 2"):
            fed_eraser(arch, initial, copy, shards, config)

    def test_manifest_without_norms_asks_for_a_new_train(self, trained_run, tmp_path):
        arch, config, shards, _, initial, _, store, _ = trained_run
        shutil.copytree(store.root, tmp_path / "copy")

        def strip(doc):
            for clients in doc["rounds"].values():
                for entry in clients.values():
                    del entry["sq_norms"], entry["sq_norms_crc"]

        copy = _rewrite_manifest(RetentionStore.open(tmp_path / "copy"), strip)
        assert not copy.is_complete()
        with pytest.raises(IntegrityError, match=r"round 3 client 2: .*re-run `fedunlearn train`"):
            fed_eraser(arch, initial, copy, shards, config)
        # plain replay reads only blobs and still works
        assert fed_accum(arch, initial, copy, config).model == \
            fed_accum(arch, initial, store, config).model

    def test_accum_reads_every_remaining_blob(self, trained_run):
        arch, config, _, _, initial, _, store, _ = trained_run
        result = fed_accum(arch, initial, store, config)
        assert result.store_bytes_read == sum(
            (store.root / f"round_{r}/client_{c}.fesp").stat().st_size
            for r in store.retained_rounds for c in (2, 3))
        assert result.eps_fallbacks == 0


def record_bound_calls(monkeypatch, name: str) -> list[dict]:
    """From now on, the arguments of every call to `unlearning.<name>`,
    bound as perfbench's tracer binds them: `inspect.signature(fn).bind`,
    then `apply_defaults`."""
    calls = []
    real = getattr(unlearning, name)
    signature = inspect.signature(real)

    def recording(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs)
        arguments.apply_defaults()
        calls.append(arguments.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(unlearning, name, recording)
    return calls


class TestTracerContract:
    """perfbench's tracer replaces `calibrate_update` and `local_train` in
    this module's globals and reads their arguments by name."""

    def test_eraser_binds_the_traced_arguments(self, stored_run, monkeypatch):
        arch, config, shards, initial, store = stored_run
        bound = {name: record_bound_calls(monkeypatch, name)
                 for name in ("calibrate_update", "local_train")}
        result = fed_eraser(arch, initial, store, shards, config)

        retained, remaining = store.retained_rounds, config.num_clients - 1
        assert len(bound["local_train"]) == (len(retained) - 1) * remaining
        assert len(bound["calibrate_update"]) == (len(retained) - 1) * remaining
        assert [a["round_index"] for a in bound["local_train"]] == \
            [r for r in retained[1:] for _ in range(remaining)]
        for a in bound["calibrate_update"]:
            assert isinstance(a["fresh"], ParamSet)
            assert a["norm_mode"] == config.norm_mode
            assert a["epsilon"] >= 0
        # the tracer's epsilon-fallback count, taken from the bound arguments
        traced_fallbacks = sum(int(np.linalg.norm(t) <= a["epsilon"])
                               for a in bound["calibrate_update"] for t in a["fresh"].tensors)
        assert traced_fallbacks == result.eps_fallbacks


class TestFoldedReplay:
    """Replayed rounds add each blob to one round sum from the store's read
    buffer; the result must be the plain load-then-aggregate replay's."""

    @pytest.mark.parametrize("mode", ["standard", "literal"])
    def test_bit_equal_to_aggregating_loaded_updates(self, stored_run, mode):
        arch, config, _, initial, store = stored_run
        config = replace(config, aggregation=mode)
        remaining = [2, 3]
        expected = initial
        for round_index in store.retained_rounds:
            updates = store.load_round(round_index, client_ids=remaining)
            aggregated = aggregate(updates, mode)
            assert store.load_round(round_index, client_ids=remaining,
                                    aggregation=mode) == aggregated
            expected = param_linear(1.0, expected, 1.0, aggregated)
        assert fed_accum(arch, initial, store, config).model == expected

    def test_allocation_peak_is_a_few_blobs(self, tmp_path):
        # 16 clients, 15 remaining, and blobs of 0.1 MB: loading a round's
        # updates before aggregating them would hold 15 blobs at once
        arch = ArchSpec(layers=(Dense(100, 128, "relu"), Dense(128, 2)), input_shape=(100,))
        config = small_config(num_clients=16, global_rounds=2, retain_interval=1)
        rng = np.random.default_rng(0)
        store = RetentionStore.create(tmp_path / "store", StoreFingerprint.of(arch, config))
        initial = build_model(arch, 0)
        for round_index in store.retained_rounds:
            store.store_round(round_index, [
                ClientUpdate(c, round_index, ParamSet(
                    (name, rng.normal(size=t.shape)) for name, t in initial.items()),
                    int(rng.integers(5, 50)))
                for c in range(1, config.num_clients + 1)])
        blob = (store.root / "round_1" / "client_1.fesp").stat().st_size
        assert blob >= 100_000
        store = RetentionStore.open(store.root)
        tracemalloc.start()
        try:
            fed_accum(arch, initial, store, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * blob, f"peak {peak / blob:.1f} blob sizes"


class TestFedRetrain:
    def test_excludes_target_and_reports_full_rounds(self, trained_run):
        arch, config, shards, _, _, original, _, _ = trained_run
        result = fed_retrain(arch, shards, config)
        assert isinstance(result, Trajectory)
        assert len(result.mean_losses) == config.global_rounds
        assert result.store_bytes_read == 0
        assert len(result.heads) == config.global_rounds
        np.testing.assert_array_equal(result.heads[-1], arch.head_weight(result.model))
        assert len(result.round_timings) == config.global_rounds
        assert result.model != original
        # other data of the same shape in the target's shard changes nothing
        swapped = [
            s if s.client_id != config.target_client else ClientShard(
                s.client_id, Dataset(s.dataset.name, -s.dataset.inputs,
                                     s.dataset.labels[::-1], s.dataset.num_classes))
            for s in shards
        ]
        assert fed_retrain(arch, swapped, config).model == result.model

    def test_deterministic(self, trained_run):
        arch, config, shards, _, _, _, _, _ = trained_run
        assert fed_retrain(arch, shards, config).model == \
            fed_retrain(arch, shards, config).model

    def test_default_init_matches_run_seed(self, trained_run):
        arch, config, shards, _, initial, _, _, _ = trained_run
        remaining = [s for s in shards if s.client_id != config.target_client]
        result = fed_retrain(arch, shards, config)
        assert result.model == run_fedavg(arch, remaining, config, initial_model=initial).model
        fresh = run_fedavg(arch, remaining, config,
                           initial_model=build_model(arch, config.seed + 1))
        assert result.model != fresh.model

    def test_remaining_shards_alone_suffice(self, trained_run):
        arch, config, shards, _, _, _, _, _ = trained_run
        remaining = [s for s in shards if s.client_id != config.target_client]
        assert fed_retrain(arch, remaining, config).model == \
            fed_retrain(arch, shards, config).model

    def test_rejects_missing_remaining_shard(self, trained_run):
        arch, config, shards, _, _, _, _, _ = trained_run
        only_target = [s for s in shards if s.client_id == config.target_client]
        with pytest.raises(ValueError, match=r"shards missing for clients \[2, 3\]"):
            fed_retrain(arch, only_target, config)

    def test_aggregation_mode_comes_from_the_config(self, trained_run):
        arch, config, shards, _, _, _, _, _ = trained_run
        literal = replace(config, aggregation="literal")
        result = fed_retrain(arch, shards, literal)
        assert result.model != fed_retrain(arch, shards, config).model
        remaining = [s for s in shards if s.client_id != config.target_client]
        assert result.model == run_fedavg(arch, remaining, literal).model


class TestExpectedSpeedup:
    @pytest.mark.parametrize("ratio,interval,expected", [
        (0.5, 2, 4.0),
        (1.0, 1, 1.0),
        (0.1, 1, 10.0),
        (0.5, 5, 10.0),
        (1.0, 2, 2.0),
    ])
    def test_values(self, ratio, interval, expected):
        assert expected_speedup(ratio, interval) == pytest.approx(expected)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError, match="calibration_ratio"):
            expected_speedup(0.0, 2)
        with pytest.raises(ValueError, match="calibration_ratio"):
            expected_speedup(1.5, 2)
        with pytest.raises(ValueError, match="retain_interval"):
            expected_speedup(0.5, 0)


class TestScheduleSpeedup:
    # the desk schedule: 20 rounds x 4 local epochs when retraining; 10
    # retained rounds, of which 9 are calibrated, when reconstructing
    DESK = FedConfig(global_rounds=20, local_epochs=4, retain_interval=2)

    @pytest.mark.parametrize("ratio,expected", [
        (0.1, 80 / 9),    # ceil(0.4) = 1 epoch per calibrated round
        (0.25, 80 / 9),   # ceil(1.0) = 1: the same work as ratio 0.1
        (0.5, 80 / 18),   # 2 epochs per calibrated round
        (1.0, 80 / 36),
    ])
    def test_desk_schedule(self, ratio, expected):
        config = replace(self.DESK, calibration_ratio=ratio)
        assert schedule_speedup(config) == expected

    def test_counts_only_the_retained_rounds(self):
        # 7 rounds at interval 3 retain rounds 1 and 4, so one is calibrated
        config = FedConfig(global_rounds=7, local_epochs=2, retain_interval=3,
                           calibration_ratio=0.5)
        assert schedule_speedup(config) == 14.0

    @pytest.mark.parametrize("rounds,interval", [(4, 4), (5, 3), (1, 1)])
    def test_none_when_nothing_is_calibrated(self, rounds, interval):
        config = FedConfig(global_rounds=rounds, retain_interval=interval)
        assert schedule_speedup(config) is None
