"""Accuracy/loss, model-divergence measures, and the membership attack."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from fedunlearn.data import Dataset, make_synthetic, partition_iid
from fedunlearn.evaluation import (
    METRIC_COLUMNS,
    AttackModel,
    MethodMetrics,
    angle_deviation,
    attack_metrics,
    build_membership_features,
    evaluate,
    last_layer_angles,
    member_fit_sample,
    membership_attack,
    train_attack,
    write_metrics_csv,
    write_report_json,
)
from fedunlearn.nn import ArchSpec, Dense, ParamSet, build_model, forward

from conftest import small_arch, small_config, tear_writes
from oracles import prediction_difference, reference_member_fit, reference_train_attack


def zero_params(arch: ArchSpec) -> ParamSet:
    return ParamSet((name, np.zeros(shape)) for name, shape in arch.param_layout)


def saturated_binary_model(flip=False) -> tuple[ArchSpec, ParamSet]:
    """Dense(1,2) that predicts class 0 for positive inputs with certainty
    (class 1 when flipped)."""
    arch = ArchSpec(layers=(Dense(1, 2),), input_shape=(1,))
    sign = -1.0 if flip else 1.0
    params = ParamSet([
        ("layer0.weight", np.array([[40.0 * sign, -40.0 * sign]])),
        ("layer0.bias", np.zeros(2)),
    ])
    return arch, params


class TestEvaluate:
    def test_uniform_model(self):
        arch = small_arch()
        ds = make_synthetic(90, 6, 3, seed=4)
        acc, loss = evaluate(arch, zero_params(arch), ds)
        # uniform rows argmax to class 0, so accuracy is the class-0 rate
        assert acc == pytest.approx(float((ds.labels == 0).mean()), abs=1e-12)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_perfect_predictor(self):
        arch, params = saturated_binary_model()
        ds = Dataset("toy", [[1.0], [2.0], [-1.0], [-3.0]], [0, 0, 1, 1], 2)
        acc, loss = evaluate(arch, params, ds)
        assert acc == 1.0
        assert loss < 1e-10

    def test_batching_does_not_change_result(self):
        arch = small_arch()
        params = build_model(arch, 2)
        ds = make_synthetic(100, 6, 3, seed=5)
        full = evaluate(arch, params, ds, batch_size=256)
        chunked = evaluate(arch, params, ds, batch_size=7)
        assert chunked[0] == full[0]
        assert chunked[1] == pytest.approx(full[1], rel=1e-12)

    def test_rejects_class_mismatch(self):
        arch = small_arch()  # 3 classes
        ds = make_synthetic(10, 6, 2, seed=0)
        with pytest.raises(ValueError, match="classes"):
            evaluate(arch, zero_params(arch), ds)


class TestPredictionDifference:
    def test_zero_for_identical_models(self):
        arch = small_arch()
        params = build_model(arch, 1)
        ds = make_synthetic(40, 6, 3, seed=1)
        assert prediction_difference(arch, params, params, ds) == 0.0

    def test_maximal_binary_disagreement_is_sqrt_two(self):
        arch, a = saturated_binary_model()
        _, b = saturated_binary_model(flip=True)
        ds = Dataset("toy", [[1.0], [5.0], [-2.0]], [0, 0, 1], 2)
        assert prediction_difference(arch, a, b, ds) == pytest.approx(np.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_sample_loop(self, seed):
        arch = small_arch()
        a, b = build_model(arch, seed), build_model(arch, seed + 100)
        ds = make_synthetic(33, 6, 3, seed=seed)
        expected = 0.0
        for i in range(ds.num_samples):
            one = ds.subset(np.array([i]))
            from fedunlearn.nn import Batch
            pa = forward(arch, a, Batch(one.inputs, one.labels))[0]
            pb = forward(arch, b, Batch(one.inputs, one.labels))[0]
            expected += float(np.linalg.norm(pa - pb))
        expected /= ds.num_samples
        got = prediction_difference(arch, a, b, ds)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_bounded(self):
        arch = small_arch()
        a, b = build_model(arch, 8), build_model(arch, 9)
        ds = make_synthetic(50, 6, 3, seed=8)
        ab = prediction_difference(arch, a, b, ds)
        ba = prediction_difference(arch, b, a, ds)
        assert ab == ba
        assert 0.0 <= ab <= np.sqrt(2) + 1e-12


class TestAngleDeviation:
    def test_cardinal_angles(self):
        assert angle_deviation([1.0, 0.0], [2.0, 0.0]) == pytest.approx(0.0, abs=1e-5)
        assert angle_deviation([1.0, 0.0], [0.0, 3.0]) == pytest.approx(90.0)
        assert angle_deviation([1.0, 0.0], [-5.0, 0.0]) == pytest.approx(180.0)
        assert angle_deviation([1.0, 0.0], [1.0, 1.0]) == pytest.approx(45.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=7)
        assert angle_deviation(3.0 * v, 0.4 * v) == pytest.approx(0.0, abs=1e-5)

    def test_matrices_are_flattened(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert angle_deviation(a, 2.0 * a) == pytest.approx(0.0, abs=1e-5)

    def test_identical_vector_never_nans(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=5) * rng.choice([1e-8, 1.0, 1e8])
            assert angle_deviation(v, v) == 0.0

    def test_rejects_zero_vector_and_length_mismatch(self):
        with pytest.raises(ValueError, match="zero vector"):
            angle_deviation([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="different lengths"):
            angle_deviation([1.0, 0.0], [1.0, 0.0, 0.0])


class TestLastLayerAngles:
    def test_pairs_states_with_matching_snapshots(self):
        eye = np.eye(2)
        rot90 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # orthogonal to eye
        heads = [eye, rot90]
        retrain_heads = [eye, rot90, eye]  # rounds 1-3; round 2 is never compared
        angles = last_layer_angles(heads, retrain_heads, retained_rounds=[1, 3])
        assert angles[0] == 0.0  # bit-identical heads
        assert angles[1] == pytest.approx(90.0)

    def test_per_neuron_averages_columns(self):
        method = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        ref = [np.array([[1.0, 1.0], [0.0, 0.0]])]
        # columns: (1,0) vs (1,0) -> 0 deg; (0,1) vs (1,0) -> 90 deg
        per_neuron = last_layer_angles(method, ref, [1], per_neuron=True)
        assert per_neuron[0] == pytest.approx(45.0)
        # flattened: cos = 1/2 -> 60 deg
        flat = last_layer_angles(method, ref, [1])
        assert flat[0] == pytest.approx(60.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one head per retained round"):
            last_layer_angles([np.eye(2)], [np.eye(2)], [1, 3])

    def test_rejects_missing_snapshot(self):
        with pytest.raises(ValueError, match="no retraining head for round 5"):
            last_layer_angles([np.eye(2)], [np.eye(2)] * 2, [5])


class TestHeadWeight:
    def test_is_a_copy_of_the_last_dense_weight(self):
        arch = small_arch(features=2, classes=3, hidden=4)
        params = build_model(arch, 0)
        head = arch.head_weight(params)
        np.testing.assert_array_equal(head, params["layer1.weight"])
        assert head.base is None  # owns its data: the model can be freed


class TestMembershipFeatures:
    def test_layout_and_values(self):
        arch = ArchSpec(layers=(Dense(2, 2),), input_shape=(2,))
        params = ParamSet([("layer0.weight", np.eye(2)), ("layer0.bias", np.zeros(2))])
        ds = Dataset("toy", [[3.0, -1.0]], [1], 2)
        feats = build_membership_features(arch, params, ds)
        assert feats.shape == (1, 2 * 2 + 1)
        p = 1.0 / (1.0 + np.exp(-4.0))  # 0.98201...
        np.testing.assert_allclose(feats[0, :2], [p, 1 - p], atol=1e-12)  # sorted desc
        np.testing.assert_array_equal(feats[0, 2:4], [0.0, 1.0])  # one-hot label 1
        assert feats[0, 4] == pytest.approx(-np.log(1 - p), abs=1e-12)  # loss

    def test_uniform_model_features(self):
        arch = small_arch()
        ds = make_synthetic(12, 6, 3, seed=2)
        feats = build_membership_features(arch, zero_params(arch), ds)
        assert feats.shape == (12, 7)
        np.testing.assert_allclose(feats[:, :3], 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(feats[:, 6], np.log(3.0), atol=1e-12)

    def test_posterior_columns_sorted_descending(self):
        arch = small_arch()
        params = build_model(arch, 5)
        ds = make_synthetic(30, 6, 3, seed=5)
        feats = build_membership_features(arch, params, ds)
        posts = feats[:, :3]
        assert np.all(np.diff(posts, axis=1) <= 0)
        np.testing.assert_allclose(posts.sum(axis=1), 1.0, atol=1e-9)


def gaussian_features(seed, n, width, shift):
    rng = np.random.default_rng(seed)
    return rng.normal(loc=shift, size=(n, width))


class TestTrainAttack:
    def test_learns_separable_membership(self):
        members = gaussian_features(0, 200, 5, +2.0)
        nonmembers = gaussian_features(1, 200, 5, -2.0)
        attack = train_attack(members, nonmembers, seed=3)
        assert attack.predict_member(members).mean() > 0.95
        assert attack.predict_member(nonmembers).mean() < 0.05

    def test_chance_level_when_distributions_match(self):
        members = gaussian_features(2, 300, 5, 0.0)
        nonmembers = gaussian_features(3, 300, 5, 0.0)
        attack = train_attack(members, nonmembers, seed=4)
        fresh = gaussian_features(4, 400, 5, 0.0)
        rate = attack.predict_member(fresh).mean()
        assert 0.3 < rate < 0.7

    def test_deterministic(self):
        members = gaussian_features(5, 50, 4, 1.0)
        nonmembers = gaussian_features(6, 50, 4, -1.0)
        a = train_attack(members, nonmembers, seed=7)
        b = train_attack(members, nonmembers, seed=7)
        c = train_attack(members, nonmembers, seed=8)
        assert a.params == b.params
        assert a.params != c.params

    def test_constant_feature_column_is_safe(self):
        members = np.hstack([gaussian_features(8, 40, 3, 1.0), np.ones((40, 1))])
        nonmembers = np.hstack([gaussian_features(9, 40, 3, -1.0), np.ones((40, 1))])
        attack = train_attack(members, nonmembers, seed=9)
        probs = attack.membership_probability(members)
        assert np.isfinite(probs).all()

    @pytest.mark.parametrize("batch_size", [16, 500])
    def test_bit_equal_to_reference_fit(self, batch_size):
        # 115 rows: a ragged last step at batch 16, one clamped batch at 500
        members = gaussian_features(10, 70, 4, 1.0)
        nonmembers = gaussian_features(11, 45, 4, -1.0)
        kwargs = dict(seed=12, hidden=6, epochs=3, batch_size=batch_size)
        attack = train_attack(members, nonmembers, **kwargs)
        reference = reference_train_attack(members, nonmembers, **kwargs)
        assert attack.params.vector.tobytes() == reference.vector.tobytes()

    def test_rejects_empty_or_mismatched(self):
        feats = gaussian_features(0, 10, 4, 0.0)
        with pytest.raises(ValueError, match="required"):
            train_attack(feats, feats[:0], seed=0)
        with pytest.raises(ValueError, match="different widths"):
            train_attack(feats, gaussian_features(1, 10, 5, 0.0), seed=0)


def fixed_attack(width, bias_toward=None) -> AttackModel:
    """An attack with hand-set weights: all zeros says 'member' for everyone
    (probability exactly 0.5 meets the threshold); a negative class-1 bias
    says 'non-member' for everyone."""
    arch = ArchSpec(layers=(Dense(width, 4, "relu"), Dense(4, 2)), input_shape=(width,))
    items = []
    for name, shape in arch.param_layout:
        items.append((name, np.zeros(shape)))
    params = ParamSet(items)
    if bias_toward == "nonmember":
        tensors = dict(params.items())
        tensors["layer1.bias"] = np.array([10.0, -10.0])
        params = ParamSet(list(tensors.items()))
    return AttackModel(arch=arch, params=params,
                       feature_mean=np.zeros(width), feature_std=np.ones(width))


class TestAttackMetrics:
    def setup_method(self):
        self.arch = small_arch()
        self.victim = build_model(self.arch, 0)
        self.target = make_synthetic(30, 6, 3, seed=10)
        self.holdout = make_synthetic(100, 6, 3, seed=11)

    def test_all_member_attack(self):
        metrics = attack_metrics(fixed_attack(7), self.arch, self.victim,
                                 self.target, self.holdout)
        assert metrics["recall"] == 1.0
        assert metrics["precision"] == 0.5
        assert metrics["f1"] == pytest.approx(2 / 3)
        assert metrics["accuracy"] == 0.5

    def test_all_nonmember_attack(self):
        metrics = attack_metrics(fixed_attack(7, bias_toward="nonmember"),
                                 self.arch, self.victim, self.target, self.holdout)
        assert metrics["recall"] == 0.0
        assert metrics["precision"] == 0.0  # no positives predicted
        assert metrics["f1"] == 0.0
        assert metrics["accuracy"] == 0.5

    def test_balanced_subsampling_and_determinism(self):
        a = attack_metrics(fixed_attack(7), self.arch, self.victim,
                           self.target, self.holdout, seed=1)
        b = attack_metrics(fixed_attack(7), self.arch, self.victim,
                           self.target, self.holdout, seed=1)
        assert a == b
        assert set(a) == {"precision", "recall", "f1", "accuracy"}
        assert all(0.0 <= v <= 1.0 for v in a.values())


def ragged_members(num_clients: int, target: int) -> list[Dataset]:
    """The datasets of every client but `target`, of 93 rows split over
    `num_clients` clients (24, 23, 23, 23 over four)."""
    shards = partition_iid(make_synthetic(93, 6, 3, seed=2), num_clients, seed=3)
    return [s.dataset for s in shards if s.client_id != target]


class TestMemberFitSample:
    # pools of 69 or 70 rows: the larger sizes keep every row
    @pytest.mark.parametrize("target", [1, 2, 4])
    @pytest.mark.parametrize("size", [1, 10, 40, 69, 70, 80])
    def test_bit_equal_to_subsampling_the_pool(self, target, size):
        members = ragged_members(4, target)
        fit = member_fit_sample(members, size, seed=7, num_classes=3)
        ref = reference_member_fit(members, size, seed=7, num_classes=3)
        assert fit.name == ref.name == "members"
        assert fit.num_classes == ref.num_classes
        assert fit.inputs.shape == ref.inputs.shape
        assert fit.inputs.tobytes() == ref.inputs.tobytes()
        assert fit.labels.tobytes() == ref.labels.tobytes()

    @pytest.mark.parametrize("size", [5, 46, 50])
    def test_one_remaining_client(self, size):
        members = ragged_members(2, 1)
        fit = member_fit_sample(members, size, seed=0, num_classes=3)
        ref = reference_member_fit(members, size, seed=0, num_classes=3)
        assert fit.inputs.tobytes() == ref.inputs.tobytes()
        assert fit.labels.tobytes() == ref.labels.tobytes()

    def test_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="max_samples must be at least 1"):
            member_fit_sample(ragged_members(4, 1), 0, seed=0, num_classes=3)


class TestMembershipAttackMemory:
    def test_peak_stays_below_the_member_pool(self):
        # 9 remaining clients hold 3,600 rows of 32 features, and the fit
        # sample is 100 rows (half the test set). Concatenating the pool
        # alone would allocate its bytes; drawing the sample from the
        # shards peaks at about 0.16 of them.
        config = small_config(num_clients=10, target_client=2, attack_epochs=3)
        arch = small_arch(features=32, classes=3, hidden=8)
        shards = partition_iid(make_synthetic(4000, 32, 3, seed=4), 10, config.seed)
        test = make_synthetic(200, 32, 3, seed=5)
        pool = sum(s.dataset.inputs.nbytes + s.dataset.labels.nbytes
                   for s in shards if s.client_id != config.target_client)
        tracemalloc.start()
        try:
            membership_attack(arch, {"original": build_model(arch, 1)}, shards, test, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool / 2


class TestReports:
    def test_as_row_formats_and_blanks(self):
        m = MethodMetrics(method="eraser", test_accuracy=0.8123456789123,
                          test_loss=0.5, attack_f1=None)
        row = m.as_row()
        assert row["method"] == "eraser"
        assert row["test_accuracy"] == "0.8123456789"
        assert row["target_accuracy"] == ""
        assert row["attack_f1"] == ""

    def test_metrics_csv_round_trip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [
            MethodMetrics(method="original", test_accuracy=0.9, test_loss=0.3),
            MethodMetrics(method="eraser", test_accuracy=0.85, test_loss=0.4,
                          prediction_difference=0.12),
        ])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["original", "eraser"]
        assert rows[1]["prediction_difference"] == "0.12"
        assert list(rows[0]) == list(METRIC_COLUMNS)

    def test_report_json_sorted_and_terminated(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(path, {"b": 1, "a": {"z": 2, "y": 3}})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}

    def test_failed_metrics_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [MethodMetrics(method="original", test_accuracy=0.9,
                                               test_loss=0.3)])
        before = path.read_bytes()
        tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_metrics_csv(path, [MethodMetrics(method="eraser", test_accuracy=0.5,
                                                   test_loss=0.7)])
        assert path.read_bytes() == before

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        write_report_json(path, {"a": 1})
        before = path.read_bytes()
        tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_report_json(path, {"a": 2, "b": [1, 2, 3]})
        assert path.read_bytes() == before

