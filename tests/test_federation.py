"""Local training, weighted aggregation, and the federated round loop."""

import inspect
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from fedunlearn import federation
from fedunlearn.data import ClientShard, Dataset
from fedunlearn.federation import (
    ClientUpdate,
    RoundSum,
    Trajectory,
    aggregate,
    local_train,
    run_fedavg,
)
from fedunlearn.nn import (
    ArchSpec,
    ConformanceError,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ParamSet,
    build_model,
    engine,
    loss_and_grad,
    param_linear,
)
from fedunlearn.nn.engine import Batch, check_conformant_with_arch

from conftest import small_config
from oracles import (
    flat_weighted_mean,
    reference_aggregate,
    reference_local_train,
    reference_loss_and_grad,
)


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
    """The in-place loop (one gathered batch per epoch, a slice per step, the
    gradients in one flat vector) against the immutable-set oracle, which
    gathers each step's batch on its own, bit for bit."""

    ARCHS = {
        "dense": ArchSpec(layers=(Dense(6, 8, "relu"), Dense(8, 3)), input_shape=(6,)),
        "conv": ArchSpec(
            layers=(Conv2d(1, 2, 3, "relu"), MaxPool2d(2), Flatten(), Dense(8, 3)),
            input_shape=(1, 6, 6),
        ),
    }

    @classmethod
    def check(cls, kind, grad_fn=loss_and_grad):
        arch = cls.ARCHS[kind]
        rng = np.random.default_rng(5)
        # 23 samples at batch 8: two full batches and a ragged one of 7
        shard = ClientShard(2, Dataset("s", rng.normal(size=(23, *arch.input_shape)),
                                       rng.integers(0, 3, size=23), 3))
        cfg = small_config(local_epochs=2, batch_size=8, learning_rate=0.3)
        model = build_model(arch, 4)
        update = local_train(arch, model, shard, cfg, round_index=3)
        delta, train_loss = reference_local_train(arch, model, shard, cfg, round_index=3,
                                                  grad_fn=grad_fn)
        assert update.delta == delta
        assert update.train_loss == train_loss
        assert update.delta.vector.tobytes() == delta.vector.tobytes()

    @pytest.mark.parametrize("kind", sorted(ARCHS))
    def test_bit_equal_to_oracle(self, kind):
        self.check(kind)

    def test_dense_bit_equal_to_reference_engine(self):
        # the oracle steps with reference_loss_and_grad, which shares none of
        # the engine's code; on conv it is only close, so dense only
        self.check("dense", grad_fn=reference_loss_and_grad)

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

    CONV = TestInPlaceLocalTrain.ARCHS["conv"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_conv_pool_input_names_first_tensor(self, bad):
        x = np.random.default_rng(0).normal(size=(4, 1, 6, 6))
        x[1, 0, 2, 3] = bad
        with pytest.raises(ValueError) as info:
            loss_and_grad(self.CONV, build_model(self.CONV, 0), Batch(x, [0, 1, 2, 0]))
        assert str(info.value) == "tensor 'layer0.weight' contains non-finite values"

    def test_conv_divergence_through_pooling_names_round_client_and_step(self, monkeypatch):
        # Inputs of 1e3 and a rate of 1e307 make step 2's convolution
        # overflow, so NaNs reach the max pooling; each NaN window must pass
        # its gradient to its first NaN, or the first non-finite gradient
        # tensor is the dense one instead.
        pool_inputs = []
        real_pool = engine._pool_forward

        def recording_pool(x, window):
            pool_inputs.append(x.copy())
            return real_pool(x, window)

        monkeypatch.setattr(engine, "_pool_forward", recording_pool)
        rng = np.random.default_rng(0)
        shard = ClientShard(2, Dataset("big", 1e3 * rng.normal(size=(16, 1, 6, 6)),
                                       rng.integers(0, 3, size=16), 3))
        cfg = small_config(learning_rate=1e307, local_epochs=2, batch_size=4)
        with pytest.raises(ValueError) as info:
            local_train(self.CONV, build_model(self.CONV, 0), shard, cfg, round_index=3)
        assert str(info.value) == (
            "round 3, client 2, step 2: tensor 'layer0.weight' contains non-finite values"
        )
        assert len(pool_inputs) == 2
        assert np.isfinite(pool_inputs[0]).all()
        assert np.isnan(pool_inputs[1]).any()


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

    @pytest.mark.parametrize("mode", ["standard", "literal"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_oracle(self, mode, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 50, size=int(rng.integers(1, 7)))
        updates = []
        for i, n in enumerate(counts, start=1):
            a, b = rng.normal(size=(3, 2)), rng.normal(size=5) * 1e-310  # subnormals
            a[0, 1] = 0.0
            if i == 1:
                a[0, 0] = a[0, 1] = -0.0
            updates.append(ClientUpdate(i, 1, ParamSet([("a", a), ("b", b)]), int(n)))
        # ParamSet equality compares the vectors' bytes, so signed zeros count
        assert aggregate(updates, mode) == reference_aggregate(updates, mode)

    def test_rejects_non_conformant_updates(self):
        with pytest.raises(ConformanceError):
            aggregate([constant_update(1, 1.0), constant_update(2, 1.0, shape=(4,))])

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


class TestRoundSum:
    """The fold `aggregate` runs on, used as the replay uses it: each delta
    written into the scratch vector and added from there."""

    @staticmethod
    def updates(seed=3, counts=(5, 1, 7, 2)):
        rng = np.random.default_rng(seed)
        return [ClientUpdate(i, 1, ParamSet([("a", rng.normal(size=(2, 3))),
                                             ("b", rng.normal(size=4))]), n)
                for i, n in enumerate(counts, start=1)]

    @pytest.mark.parametrize("mode", ["standard", "literal"])
    def test_in_place_weighting_is_bit_equal_to_aggregate(self, mode):
        updates = self.updates()
        total = RoundSum(((u.client_id, u.sample_count) for u in reversed(updates)), mode)
        for u in updates:
            layout = u.delta._layout
            scratch = total.scratch(layout)
            scratch[:] = u.delta.vector
            total.add(u.client_id, layout, scratch)
        assert total.result() == aggregate(updates, mode)

    def test_clients_come_in_ascending_id(self):
        updates = self.updates()
        total = RoundSum((u.client_id, u.sample_count) for u in updates)
        with pytest.raises(ValueError, match="client 2 is not the next of"):
            total.add(2, updates[1].delta._layout, updates[1].delta.vector)

    def test_result_needs_every_client(self):
        updates = self.updates()
        total = RoundSum((u.client_id, u.sample_count) for u in updates)
        total.add(1, updates[0].delta._layout, updates[0].delta.vector)
        with pytest.raises(ValueError, match="only 1 of the deltas"):
            total.result()

    def test_rejects_another_layout(self):
        total = RoundSum([(1, 1), (2, 1)])
        first, other = constant_update(1, 1.0), constant_update(2, 1.0, shape=(4,))
        total.add(1, first.delta._layout, first.delta.vector)
        with pytest.raises(ConformanceError):
            total.add(2, other.delta._layout, other.delta.vector)


class RecordingSink:
    def __init__(self, retained_rounds):
        self.retained_rounds = retained_rounds
        self.calls: list[tuple[int, list]] = []

    def store_round(self, round_index, updates):
        self.calls.append((round_index, updates))


class TestStepCounterContract:
    """What the benchmark's tracer counts as one SGD step: one call of
    `federation.loss_and_grad`, the engine's own function, made inside
    `local_train`, with an argument named `batch` whose len() is the step's
    row count. A change to the loop that breaks this fails here first."""

    def test_one_call_per_step_inside_local_train(self, arch, shards, monkeypatch):
        assert federation.loss_and_grad is engine.loss_and_grad
        # 48 rows per client at batch 10: four full steps and a ragged one of 8
        config = small_config(batch_size=10)
        real_train, real_grad = federation.local_train, federation.loss_and_grad
        signature = inspect.signature(real_grad)
        depth = calls = rows = 0

        def counting_train(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                return real_train(*args, **kwargs)
            finally:
                depth -= 1

        def counting_grad(*args, **kwargs):
            nonlocal calls, rows
            if depth:
                calls += 1
                rows += len(signature.bind(*args, **kwargs).arguments["batch"])
            return real_grad(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", counting_train)
        monkeypatch.setattr(federation, "loss_and_grad", counting_grad)
        run_fedavg(arch, shards, config)
        sizes = [s.sample_count for s in shards]
        assert any(n % config.batch_size for n in sizes)
        assert calls == config.global_rounds * sum(
            config.local_epochs * math.ceil(n / config.batch_size) for n in sizes)
        assert rows == config.global_rounds * config.local_epochs * sum(sizes)


class TestRunFedavg:
    def test_round_loop_and_history(self, arch, config, shards):
        trained = run_fedavg(arch, shards, config)
        assert isinstance(trained, Trajectory)
        check_conformant_with_arch(arch, trained.model)
        assert len(trained.round_timings) == config.global_rounds
        assert all(t >= 0 for t in trained.round_timings)
        assert trained.total_seconds >= sum(trained.round_timings)
        assert len(trained.mean_losses) == config.global_rounds
        assert len(trained.heads) == config.global_rounds
        np.testing.assert_array_equal(trained.heads[-1], arch.head_weight(trained.model))
        assert (trained.store_bytes_read, trained.eps_fallbacks) == (0, 0)

    def test_one_log_record_per_round(self, arch, config, shards, caplog):
        with caplog.at_level(logging.INFO, logger="fedunlearn.federation"):
            run_fedavg(arch, shards, config)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == \
            [f"round {r}/{config.global_rounds}" for r in range(1, config.global_rounds + 1)]

    def test_deterministic(self, arch, config, shards):
        assert run_fedavg(arch, shards, config).model == run_fedavg(arch, shards, config).model

    def test_default_initial_model_is_seeded_build(self, arch, config, shards):
        implicit = run_fedavg(arch, shards, config)
        explicit = run_fedavg(
            arch, shards, config, initial_model=build_model(arch, config.seed)
        )
        assert implicit.model == explicit.model

    def test_training_reduces_loss(self, arch, config, shards):
        losses = run_fedavg(arch, shards, config).mean_losses
        assert losses[-1] < losses[0]

    def test_exclusion_drops_participant_and_changes_model(self, arch, config, shards,
                                                           monkeypatch):
        # run_fedavg trains exactly the shards it is given: leave client 2's out
        full = run_fedavg(arch, shards, config)
        calls = []
        real = federation.local_train

        def recording(arch_, model_, shard_, config_, round_index, epochs=None):
            calls.append((round_index, shard_.client_id))
            return real(arch_, model_, shard_, config_, round_index, epochs)

        monkeypatch.setattr(federation, "local_train", recording)
        partial = run_fedavg(arch, [shards[2], shards[0]], config)
        assert calls == [(r, c) for r in range(1, config.global_rounds + 1) for c in (1, 3)]
        assert partial.model != full.model

    def test_sink_called_exactly_at_retained_rounds(self, arch, config, shards):
        sink = RecordingSink([1, 3])
        initial = build_model(arch, config.seed)
        trained = run_fedavg(arch, shards, config, initial_model=initial,
                             retention_sink=sink)
        assert [r for r, _ in sink.calls] == [1, 3]
        for round_index, updates in sink.calls:
            assert sorted(u.client_id for u in updates) == [1, 2, 3]
            assert all(u.round_index == round_index for u in updates)
        # the stored round-1 updates are exactly what produced the round-1
        # model: the whole of it, and the head the trajectory kept
        first_round = sink.calls[0][1]
        reconstructed = param_linear(1.0, initial, 1.0, aggregate(first_round))
        one_round = run_fedavg(arch, shards,
                               replace(config, global_rounds=1, retain_interval=1),
                               initial_model=initial)
        assert reconstructed == one_round.model
        np.testing.assert_array_equal(trained.heads[0], arch.head_weight(reconstructed))

    def test_aggregation_mode_comes_from_the_config(self, arch, config, shards):
        literal = replace(config, aggregation="literal")
        assert run_fedavg(arch, shards, literal).model != run_fedavg(arch, shards, config).model
        sink = RecordingSink([1])
        initial = build_model(arch, config.seed)
        trained = run_fedavg(arch, shards,
                             replace(literal, global_rounds=1, retain_interval=1),
                             initial_model=initial, retention_sink=sink)
        assert trained.model == param_linear(1.0, initial, 1.0,
                                     aggregate(sink.calls[0][1], "literal"))

    def test_sink_with_exclusion_is_rejected(self, arch, config, shards):
        with pytest.raises(ValueError, match="retention needs every client's updates"):
            run_fedavg(arch, shards[1:], config, retention_sink=RecordingSink([1]))

    def test_sink_schedule_must_fit_run(self, arch, config, shards):
        with pytest.raises(ValueError, match="retention schedule"):
            run_fedavg(arch, shards, config, retention_sink=RecordingSink([99]))

    def test_rejects_duplicate_shards(self, arch, config, shards):
        with pytest.raises(ValueError, match="duplicate client ids"):
            run_fedavg(arch, [shards[0]] * 3, config)

    def test_rejects_unknown_client_ids(self, arch, config, shards):
        stranger = ClientShard(7, shards[0].dataset)
        with pytest.raises(ValueError, match=r"shards cover clients \[1, 7\]"):
            run_fedavg(arch, [shards[0], stranger], config)

    def test_rejects_excluding_everyone(self, arch, config):
        with pytest.raises(ValueError, match=r"shards cover clients \[\]"):
            run_fedavg(arch, [], config)
