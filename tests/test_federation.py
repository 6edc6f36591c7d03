"""Local training, weighted aggregation, and the federated round loop."""

import logging

import numpy as np
import pytest

from fedunlearn.data import ClientShard, Dataset
from fedunlearn.federation import (
    ClientUpdate,
    aggregate,
    local_train,
    run_fedavg,
)
from fedunlearn.nn import (
    ArchSpec,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ParamSet,
    build_model,
    loss_and_grad,
    param_linear,
)
from fedunlearn.nn.engine import Batch, check_conformant_with_arch

from conftest import small_config
from oracles import flat_weighted_mean, reference_local_train


def constant_update(client_id, value, *, sample_count=1, round_index=1, shape=(2, 2)):
    delta = ParamSet([("w", np.full(shape, float(value)))])
    return ClientUpdate(client_id=client_id, round_index=round_index,
                        delta=delta, sample_count=sample_count)


class TestClientUpdate:
    def test_validation(self):
        delta = ParamSet([("w", np.zeros(2))])
        with pytest.raises(ValueError, match="client ids start at 1"):
            ClientUpdate(0, 1, delta, 5)
        with pytest.raises(ValueError, match="round indices start at 1"):
            ClientUpdate(1, 0, delta, 5)
        with pytest.raises(ValueError, match="sample_count"):
            ClientUpdate(1, 1, delta, 0)


class TestLocalTrain:
    def test_deterministic(self, arch, config, shards):
        model = build_model(arch, 0)
        a = local_train(arch, model, shards[0], config, round_index=1)
        b = local_train(arch, model, shards[0], config, round_index=1)
        assert a.delta == b.delta
        assert a.train_loss == b.train_loss
        assert a.client_id == shards[0].client_id
        assert a.round_index == 1
        assert a.sample_count == shards[0].sample_count

    def test_full_batch_single_epoch_is_one_gradient_step(self, arch, config, shards):
        shard = shards[0]
        cfg = small_config(batch_size=shard.sample_count, local_epochs=1)
        model = build_model(arch, 3)
        update = local_train(arch, model, shard, cfg, round_index=2)
        loss, grads = loss_and_grad(
            arch, model, Batch(shard.dataset.inputs, shard.dataset.labels)
        )
        assert update.train_loss == pytest.approx(loss, abs=1e-12)
        for name, g in grads.items():
            np.testing.assert_allclose(
                update.delta[name], -cfg.learning_rate * g, atol=1e-12
            )

    def test_clamps_oversized_batch_with_warning(self, arch, caplog):
        tiny = ClientShard(1, Dataset("t", np.random.default_rng(0).normal(size=(5, 6)),
                                      [0, 1, 2, 0, 1], 3))
        cfg = small_config(batch_size=64)
        with caplog.at_level(logging.WARNING):
            update = local_train(arch, build_model(arch, 0), tiny, cfg, round_index=1)
        assert "clamping" in caplog.text
        assert update.sample_count == 5

    def test_epochs_override(self, arch, config, shards):
        model = build_model(arch, 1)
        one = local_train(arch, model, shards[0], config, 1, epochs=1)
        two = local_train(arch, model, shards[0], config, 1, epochs=2)
        assert one.delta != two.delta
        with pytest.raises(ValueError, match="epochs"):
            local_train(arch, model, shards[0], config, 1, epochs=0)

    def test_round_and_client_change_the_shuffle(self, arch, config, shards):
        # Multiple batches per epoch, so batch composition matters.
        model = build_model(arch, 1)
        shard = shards[0]
        relabeled = ClientShard(9, shard.dataset)
        r1 = local_train(arch, model, shard, config, round_index=1)
        r2 = local_train(arch, model, shard, config, round_index=2)
        other = local_train(arch, model, relabeled, config, round_index=1)
        assert r1.delta != r2.delta
        assert r1.delta != other.delta

    def test_rejects_bad_round_index(self, arch, config, shards):
        with pytest.raises(ValueError, match="round indices"):
            local_train(arch, build_model(arch, 0), shards[0], config, round_index=0)


class TestInPlaceLocalTrain:
    """The in-place loop against the immutable-set oracle, bit for bit."""

    ARCHS = {
        "dense": ArchSpec(layers=(Dense(6, 8, "relu"), Dense(8, 3)), input_shape=(6,)),
        "conv": ArchSpec(
            layers=(Conv2d(1, 2, 3, "relu"), MaxPool2d(2), Flatten(), Dense(8, 3)),
            input_shape=(1, 6, 6),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    def test_bit_equal_to_oracle(self, kind):
        arch = self.ARCHS[kind]
        rng = np.random.default_rng(5)
        # 23 samples at batch 8: two full batches and a ragged one of 7
        shard = ClientShard(2, Dataset("s", rng.normal(size=(23, *arch.input_shape)),
                                       rng.integers(0, 3, size=23), 3))
        cfg = small_config(local_epochs=2, batch_size=8, learning_rate=0.3)
        model = build_model(arch, 4)
        update = local_train(arch, model, shard, cfg, round_index=3)
        delta, train_loss = reference_local_train(arch, model, shard, cfg, round_index=3)
        assert update.delta == delta
        assert update.train_loss == train_loss
        assert update.delta.vector.tobytes() == delta.vector.tobytes()

    def test_global_model_is_not_modified(self, arch, config, shards):
        model = build_model(arch, 2)
        before = model.vector.tobytes()
        local_train(arch, model, shards[0], config, round_index=1)
        assert model.vector.tobytes() == before


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestDivergence:
    def test_diverging_step_names_round_and_client(self, arch, shards):
        cfg = small_config(learning_rate=1e200)
        with pytest.raises(ValueError, match="non-finite") as info:
            run_fedavg(arch, shards, cfg)
        assert str(info.value).startswith("round 1, client 1, step ")

    def test_weights_overflowing_on_last_step_name_round_and_client(self, arch):
        # One full-batch step on large inputs: finite gradients, but
        # lr * gradient overflows, so only the final weights are non-finite.
        rng = np.random.default_rng(3)
        shard = ClientShard(2, Dataset("big", 1e3 * rng.normal(size=(8, 6)),
                                       rng.integers(0, 3, size=8), 3))
        cfg = small_config(learning_rate=1e308, local_epochs=1, batch_size=8)
        with pytest.raises(ValueError) as info:
            local_train(arch, build_model(arch, 0), shard, cfg, round_index=4)
        assert str(info.value) == (
            "round 4, client 2: tensor 'layer0.weight' contains non-finite values"
        )


class TestAggregate:
    def test_hand_weighted_mean(self):
        updates = [
            constant_update(1, 6.0, sample_count=1),
            constant_update(2, 3.0, sample_count=2),
            constant_update(3, 2.0, sample_count=3),
        ]
        # (1*6 + 2*3 + 3*2) / 6 = 3
        combined = aggregate(updates)
        np.testing.assert_allclose(combined["w"], 3.0, atol=1e-12)

    def test_literal_mode_divides_by_count(self):
        updates = [
            constant_update(1, 6.0, sample_count=1),
            constant_update(2, 3.0, sample_count=2),
            constant_update(3, 2.0, sample_count=3),
        ]
        np.testing.assert_allclose(aggregate(updates, "literal")["w"], 1.0, atol=1e-12)

    def test_single_update_passes_through(self):
        u = constant_update(1, 2.5)
        np.testing.assert_array_equal(aggregate([u])["w"], u.delta["w"])

    def test_equal_weights_cancel_opposites(self):
        combined = aggregate([constant_update(1, 4.0), constant_update(2, -4.0)])
        np.testing.assert_allclose(combined["w"], 0.0, atol=1e-15)

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(7)
        counts = [3, 11, 5, 2, 8]
        updates = []
        for i, n in enumerate(counts, start=1):
            delta = ParamSet([("a", rng.normal(size=(3, 2))), ("b", rng.normal(size=4))])
            updates.append(ClientUpdate(i, 1, delta, n))
        combined = aggregate(updates)
        flat = np.concatenate([
            np.hstack([u.delta["a"].ravel(), u.delta["b"].ravel()]) for u in updates
        ]).reshape(len(updates), -1)
        expected = flat_weighted_mean(list(flat), counts)
        got = np.hstack([combined["a"].ravel(), combined["b"].ravel()])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(8)
        updates = [
            ClientUpdate(i, 1, ParamSet([("w", rng.normal(size=(2, 3)))]), int(n))
            for i, n in zip(range(1, 5), [4, 1, 9, 2])
        ]
        assert aggregate(updates) == aggregate(list(reversed(updates)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="zero updates"):
            aggregate([])

    def test_rejects_mixed_rounds(self):
        with pytest.raises(ValueError, match="span rounds"):
            aggregate([constant_update(1, 1.0, round_index=1),
                       constant_update(2, 1.0, round_index=2)])

    def test_rejects_duplicate_clients(self):
        with pytest.raises(ValueError, match="duplicate client"):
            aggregate([constant_update(1, 1.0), constant_update(1, 2.0)])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown aggregation mode"):
            aggregate([constant_update(1, 1.0)], mode="mean")


class RecordingSink:
    def __init__(self, retained_rounds):
        self.retained_rounds = retained_rounds
        self.calls: list[tuple[int, list]] = []

    def store_round(self, round_index, updates):
        self.calls.append((round_index, updates))


class TestRunFedavg:
    def test_round_loop_and_history(self, arch, config, shards):
        model, history = run_fedavg(arch, shards, config, keep_snapshots=True)
        check_conformant_with_arch(arch, model)
        assert [r.round_index for r in history.records] == [1, 2, 3, 4]
        assert all(r.participants == (1, 2, 3) for r in history.records)
        assert all(r.duration_seconds >= 0 for r in history.records)
        assert len(history.snapshots) == config.global_rounds
        assert history.snapshots[-1] == model

    def test_deterministic(self, arch, config, shards):
        a, _ = run_fedavg(arch, shards, config)
        b, _ = run_fedavg(arch, shards, config)
        assert a == b

    def test_default_initial_model_is_seeded_build(self, arch, config, shards):
        implicit, _ = run_fedavg(arch, shards, config)
        explicit, _ = run_fedavg(
            arch, shards, config, initial_model=build_model(arch, config.seed)
        )
        assert implicit == explicit

    def test_training_reduces_loss(self, arch, config, shards):
        _, history = run_fedavg(arch, shards, config)
        assert history.records[-1].mean_client_loss < history.records[0].mean_client_loss

    def test_exclusion_drops_participant_and_changes_model(self, arch, config, shards):
        full, _ = run_fedavg(arch, shards, config)
        partial, history = run_fedavg(arch, shards, config, exclude={2})
        assert all(r.participants == (1, 3) for r in history.records)
        assert partial != full

    def test_sink_called_exactly_at_retained_rounds(self, arch, config, shards):
        sink = RecordingSink([1, 3])
        initial = build_model(arch, config.seed)
        _, history = run_fedavg(arch, shards, config, initial_model=initial,
                                retention_sink=sink, keep_snapshots=True)
        assert [r for r, _ in sink.calls] == [1, 3]
        for round_index, updates in sink.calls:
            assert sorted(u.client_id for u in updates) == [1, 2, 3]
            assert all(u.round_index == round_index for u in updates)
        # the stored round-1 updates are exactly what produced snapshot 1
        first_round = sink.calls[0][1]
        reconstructed = param_linear(1.0, initial, 1.0, aggregate(first_round))
        assert reconstructed == history.snapshots[0]

    def test_sink_with_exclusion_is_rejected(self, arch, config, shards):
        with pytest.raises(ValueError, match="cannot exclude"):
            run_fedavg(arch, shards, config, retention_sink=RecordingSink([1]),
                       exclude={1})

    def test_sink_schedule_must_fit_run(self, arch, config, shards):
        with pytest.raises(ValueError, match="retention schedule"):
            run_fedavg(arch, shards, config, retention_sink=RecordingSink([99]))

    def test_shards_must_cover_every_client(self, arch, config, shards):
        with pytest.raises(ValueError, match="shards cover clients"):
            run_fedavg(arch, shards[:2], config)

    def test_rejects_duplicate_shards(self, arch, config, shards):
        with pytest.raises(ValueError, match="duplicate client ids"):
            run_fedavg(arch, [shards[0]] * 3, config)

    def test_rejects_unknown_exclusion(self, arch, config, shards):
        with pytest.raises(ValueError, match="unknown clients"):
            run_fedavg(arch, shards, config, exclude={7})

    def test_rejects_excluding_everyone(self, arch, config, shards):
        with pytest.raises(ValueError, match="every client"):
            run_fedavg(arch, shards, config, exclude={1, 2, 3})
