"""Forward/backward engine: initialization, probabilities, loss, gradients, and
the reference SGD step of tests/oracles.py.

The gradient checks compare the analytic backward pass against central finite
differences computed by tests/oracles.py — two independent routes to the same
numbers.
"""

import tracemalloc

import numpy as np
import pytest

from fedunlearn.nn import (
    ArchSpec,
    Batch,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ParamSet,
    adult_arch,
    build_model,
    cifar10_arch,
    dense_arch,
    forward,
    loss_and_grad,
    mnist_arch,
    purchase_arch,
)
from fedunlearn.nn import engine
from fedunlearn.nn.engine import (
    _COLS_BUDGET,
    _col2im_add,
    _conv_backward,
    _forward,
    _im2col,
    _pool_backward,
    _pool_forward,
    _softmax,
    check_conformant_with_arch,
)

from oracles import (
    max_relative_grad_error,
    random_gradient_instance,
    reference_col2im,
    reference_conv2d,
    reference_forward,
    reference_im2col,
    reference_loss_and_grad,
    reference_pool_backward,
    reference_pool_forward,
    sgd_step,
    stacked_conv_instance,
    use_reference_kernels,
    use_whole_batch_columns,
    whole_batch_conv_backward,
    whole_batch_forward,
)


def zero_params(arch: ArchSpec) -> ParamSet:
    return ParamSet((name, np.zeros(shape)) for name, shape in arch.param_layout)


class TestBatch:
    def test_coerces_dtypes(self):
        b = Batch([[1, 2]], [0])
        assert b.inputs.dtype == np.float64
        assert b.labels.dtype == np.int64
        assert len(b) == 1

    def test_rejects_matrix_labels(self):
        with pytest.raises(ValueError, match="1-d"):
            Batch(np.zeros((2, 3)), np.zeros((2, 1)))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Batch(np.zeros((3, 2)), np.array([0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Batch(np.zeros((0, 2)), np.array([], dtype=np.int64))


class TestArchSpecValidation:
    """Each check that keeps an invalid ArchSpec from being built, and the
    head lookup of a spec without a dense layer."""

    @pytest.mark.parametrize("build,error,message", [
        pytest.param(lambda: ArchSpec((), (4,)), ValueError,
                     "needs at least one layer", id="no-layers"),
        pytest.param(lambda: ArchSpec((Dense(4, 2),), (4, 0)), ValueError,
                     r"non-positive input dimension in \(4, 0\)", id="input-dim"),
        pytest.param(lambda: ArchSpec((Conv2d(1, 2, 3),), (1, 5, 5)), ValueError,
                     r"flat class vector, got shape \(2, 3, 3\)", id="output-not-flat"),
        pytest.param(lambda: ArchSpec((Dense(4, 0),), (4,)), ValueError,
                     "layer 0: non-positive dense dimensions", id="dense-dims"),
        pytest.param(lambda: ArchSpec((Dense(4, 2, "tanh"),), (4,)), ValueError,
                     "layer 0: unknown activation 'tanh'", id="dense-activation"),
        pytest.param(lambda: ArchSpec((Dense(4, 3), Dense(2, 2)), (4,)), ValueError,
                     r"layer 1: dense expects flat input of 2, got \(3,\)", id="dense-input"),
        pytest.param(lambda: ArchSpec((Conv2d(1, 0, 3), Flatten()), (1, 5, 5)), ValueError,
                     "layer 0: non-positive convolution dimensions", id="conv-dims"),
        pytest.param(lambda: ArchSpec((Conv2d(1, 2, 3, "sigmoid"), Flatten()), (1, 5, 5)),
                     ValueError, "layer 0: unknown activation 'sigmoid'", id="conv-activation"),
        pytest.param(lambda: ArchSpec((Conv2d(2, 2, 3), Flatten()), (1, 5, 5)), ValueError,
                     r"layer 0: convolution expects \(2,H,W\) input, got \(1, 5, 5\)",
                     id="conv-input"),
        pytest.param(lambda: ArchSpec((Conv2d(1, 2, 6), Flatten()), (1, 5, 5)), ValueError,
                     "layer 0: kernel 6 larger than input 5x5", id="conv-kernel"),
        pytest.param(lambda: ArchSpec((MaxPool2d(0), Flatten()), (1, 4, 4)), ValueError,
                     "layer 0: non-positive pooling window", id="pool-window"),
        pytest.param(lambda: ArchSpec((Flatten(), MaxPool2d(2)), (1, 4, 4)), ValueError,
                     r"layer 1: pooling expects \(C,H,W\) input, got \(16,\)", id="pool-input"),
        pytest.param(lambda: ArchSpec((MaxPool2d(2), Flatten()), (1, 5, 5)), ValueError,
                     "layer 0: input 5x5 not divisible by pooling window 2", id="pool-divisor"),
        pytest.param(lambda: ArchSpec((Flatten(),), (4,)).last_dense_index(), ValueError,
                     "architecture has no dense layer", id="no-dense-head"),
        pytest.param(lambda: ArchSpec(("dense",), (4,)), TypeError,
                     "unknown layer type str", id="unknown-layer"),
    ])
    def test_rejects(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestBuildModel:
    def test_deterministic_per_seed(self, arch):
        assert build_model(arch, 5) == build_model(arch, 5)
        assert build_model(arch, 5) != build_model(arch, 6)

    def test_matches_arch_shapes(self, arch):
        params = build_model(arch, 0)
        check_conformant_with_arch(arch, params)
        assert params.shapes() == arch.param_layout

    def test_biases_zero_weights_bounded(self):
        arch = ArchSpec(layers=(Dense(10, 4, "relu"), Dense(4, 3)), input_shape=(10,))
        params = build_model(arch, 42)
        assert np.all(params["layer0.bias"] == 0.0)
        assert np.all(params["layer1.bias"] == 0.0)
        assert np.all(np.abs(params["layer0.weight"]) <= np.sqrt(6.0 / 14))
        assert np.all(np.abs(params["layer1.weight"]) <= np.sqrt(6.0 / 7))

    def test_conformance_error_names_shapes(self, arch):
        bad = ParamSet([("layer0.weight", np.zeros((2, 2)))])
        with pytest.raises(ValueError, match="architecture"):
            check_conformant_with_arch(arch, bad)


class TestForward:
    def test_rows_sum_to_one(self, arch):
        params = build_model(arch, 3)
        rng = np.random.default_rng(0)
        probs = forward(arch, params, Batch(rng.normal(size=(17, 6)), np.zeros(17, dtype=int)))
        assert probs.shape == (17, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)

    def test_zero_weights_give_uniform_rows(self, arch):
        params = zero_params(arch)
        probs = forward(arch, params, Batch(np.ones((4, 6)), np.zeros(4, dtype=int)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_identity_logits_hand_value(self):
        # Dense(2,2) with identity weight passes logits (3, -1) through:
        # softmax gives 1/(1+e^-4) = 0.98201379...
        arch = ArchSpec(layers=(Dense(2, 2),), input_shape=(2,))
        params = ParamSet([("layer0.weight", np.eye(2)), ("layer0.bias", np.zeros(2))])
        probs = forward(arch, params, Batch([[3.0, -1.0]], [0]))
        np.testing.assert_allclose(probs[0], [0.9820137900, 0.0179862100], atol=1e-9)

    def test_rejects_wrong_input_shape(self, arch):
        params = build_model(arch, 0)
        with pytest.raises(ValueError, match="input shape"):
            forward(arch, params, Batch(np.zeros((2, 5)), [0, 1]))


class TestLoss:
    def test_uniform_model_loss_is_log_c(self, arch):
        params = zero_params(arch)
        batch = Batch(np.random.default_rng(1).normal(size=(10, 6)),
                      np.arange(10) % 3)
        loss, _ = loss_and_grad(arch, params, batch)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_binary_uniform_loss_is_log_two(self):
        arch = ArchSpec(layers=(Dense(3, 2),), input_shape=(3,))
        loss, _ = loss_and_grad(arch, zero_params(arch),
                                Batch(np.ones((5, 3)), [0, 1, 0, 1, 1]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct_prediction(self):
        # Logit margin of 60 in favor of the true class: loss and gradient
        # both collapse to ~e^-60.
        arch = ArchSpec(layers=(Dense(1, 2),), input_shape=(1,))
        params = ParamSet([
            ("layer0.weight", np.array([[30.0, -30.0]])),
            ("layer0.bias", np.zeros(2)),
        ])
        loss, grads = loss_and_grad(arch, params, Batch([[1.0]], [0]))
        assert loss < 1e-3
        assert max(float(np.abs(g).max()) for _, g in grads.items()) < 1e-2

    def test_rejects_out_of_range_label(self, arch):
        params = build_model(arch, 0)
        with pytest.raises(ValueError, match="label out of range"):
            loss_and_grad(arch, params, Batch(np.zeros((1, 6)), [3]))
        with pytest.raises(ValueError, match="label out of range"):
            loss_and_grad(arch, params, Batch(np.zeros((1, 6)), [-1]))

    @pytest.mark.parametrize("bad", [3, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max],
                             ids=["c", "minus-one", "int64-min", "int64-max"])
    @pytest.mark.parametrize("others", [[], [0, 2, 1]], ids=["alone", "among-good-rows"])
    def test_label_mask_marks_no_column_for_a_bad_label(self, arch, bad, others):
        # the one-hot mask gathers one value per row; a bad label gathers none
        labels = others[:2] + [bad] + others[2:]
        batch = Batch(np.zeros((len(labels), 6)), labels)
        with pytest.raises(ValueError, match=r"^label out of range \[0, 3\)$"):
            loss_and_grad(arch, build_model(arch, 0), batch)

    def test_last_class_is_accepted(self, arch):
        params, batch = build_model(arch, 0), Batch(np.ones((3, 6)), [2, 2, 0])
        assert (loss_and_grad(arch, params, batch)
                == reference_loss_and_grad(arch, params, batch))

    def test_ten_classes_bit_equal_to_fancy_index(self):
        # cifar10's dense head on a batch of 7
        arch = ArchSpec(layers=(Dense(16 * 5 * 5, 120, "relu"), Dense(120, 10)),
                        input_shape=(16 * 5 * 5,))
        params, batch = noisy_model(arch, 4), random_batch(arch, 7, 4)
        assert len(set(batch.labels.tolist())) > 3
        assert (loss_and_grad(arch, params, batch)
                == reference_loss_and_grad(arch, params, batch))


class TestGradients:
    def test_hand_computed_logistic_gradient(self):
        # Dense(1,2), x=1, w=(0.3, -0.2), label 0.  With p = sigmoid(0.5),
        # dL/dw = (p - onehot) * x and dL/db matches it.
        arch = ArchSpec(layers=(Dense(1, 2),), input_shape=(1,))
        params = ParamSet([
            ("layer0.weight", np.array([[0.3, -0.2]])),
            ("layer0.bias", np.zeros(2)),
        ])
        loss, grads = loss_and_grad(arch, params, Batch([[1.0]], [0]))
        p = 1.0 / (1.0 + np.exp(-0.5))
        assert loss == pytest.approx(-np.log(p), abs=1e-12)
        np.testing.assert_allclose(grads["layer0.weight"], [[p - 1.0, 1.0 - p]], atol=1e-12)
        np.testing.assert_allclose(grads["layer0.bias"], [p - 1.0, 1.0 - p], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 6, 7])
    def test_matches_finite_differences_dense(self, seed):
        # seeds 0,1 mod 3 -> single and double hidden-layer dense networks
        arch, params, batch = random_gradient_instance(seed)
        assert max_relative_grad_error(arch, params, batch) < 1e-4

    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_matches_finite_differences_conv_pool(self, seed):
        arch, params, batch = random_gradient_instance(seed)  # seed % 3 == 2
        assert max_relative_grad_error(arch, params, batch) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences_stacked_conv(self, seed):
        # the second convolution's backward pass runs col2im into the
        # first convolution's output, on a non-square multi-channel input
        arch, params, batch = stacked_conv_instance(seed)
        assert max_relative_grad_error(arch, params, batch) < 1e-4

    def test_gradient_of_mean_scales_with_duplication(self, arch):
        # Duplicating every sample leaves the mean-loss gradient unchanged.
        params = build_model(arch, 9)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 6))
        y = np.array([0, 1, 2, 1])
        _, g1 = loss_and_grad(arch, params, Batch(x, y))
        _, g2 = loss_and_grad(arch, params, Batch(np.vstack([x, x]), np.hstack([y, y])))
        for name, t in g1.items():
            np.testing.assert_allclose(g2[name], t, atol=1e-12)


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self, arch):
        params = build_model(arch, 2)
        _, grads = loss_and_grad(
            arch, params,
            Batch(np.random.default_rng(2).normal(size=(6, 6)), np.arange(6) % 3),
        )
        stepped = sgd_step(params, grads, 0.0)
        for name, t in params.items():
            assert np.array_equal(stepped[name], t)

    def test_unit_rate_from_zero_negates_gradient(self, arch):
        zeros = zero_params(arch)
        _, grads = loss_and_grad(
            arch, zeros,
            Batch(np.random.default_rng(3).normal(size=(6, 6)), np.arange(6) % 3),
        )
        stepped = sgd_step(zeros, grads, 1.0)
        for name, t in grads.items():
            assert np.array_equal(stepped[name], -t)

    def test_descends_convex_objective(self):
        # No hidden layer -> cross-entropy is convex in the parameters, so
        # small steps must strictly reduce the loss.
        arch = ArchSpec(layers=(Dense(2, 2),), input_shape=(2,))
        params = build_model(arch, 4)
        batch = Batch([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 0])
        losses = []
        for _ in range(3):
            loss, grads = loss_and_grad(arch, params, batch)
            losses.append(loss)
            params = sgd_step(params, grads, 0.1)
        losses.append(loss_and_grad(arch, params, batch)[0])
        assert losses[0] > losses[1] > losses[2] > losses[3]

    def test_rejects_negative_rate(self, arch):
        params = build_model(arch, 0)
        with pytest.raises(ValueError, match="non-negative"):
            sgd_step(params, params, -0.1)


class TestConvForward:
    def test_reference_conv2d_hand_value(self):
        # 1x1 output: the bias plus the dot product of the window and kernel
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        weight = np.array([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]])
        out = reference_conv2d(x, weight, np.array([0.5]))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 0.5 + 0.0 + 2.0 * 7.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_conv_matches_scalar_loops(self, seed):
        arch, params, batch = stacked_conv_instance(seed)
        np.testing.assert_allclose(forward(arch, params, batch),
                                   reference_forward(arch, params, batch.inputs),
                                   rtol=0.0, atol=1e-12)


def random_batch(arch: ArchSpec, size: int, seed: int) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(rng.normal(size=(size, *arch.input_shape)),
                 rng.integers(0, arch.num_classes, size=size))


def noisy_model(arch: ArchSpec, seed: int) -> ParamSet:
    # initial biases are zero; noise on every tensor exercises them all
    rng = np.random.default_rng(seed)
    return ParamSet((name, t + rng.normal(scale=0.05, size=t.shape))
                    for name, t in build_model(arch, seed).items())


class TestEquivalenceToReferenceEngine:
    """The engine against tests/oracles.py::reference_loss_and_grad, the
    row-major conv path that also computed the first layer's input gradient.
    Dense arithmetic must be unchanged bit for bit (the bundled configs are
    dense); conv gradients may differ only in summation order."""

    @staticmethod
    def assert_bit_equal(arch, params, batch):
        loss, grads = loss_and_grad(arch, params, batch)
        ref_loss, ref_grads = reference_loss_and_grad(arch, params, batch)
        assert loss == ref_loss
        assert grads == ref_grads

    @staticmethod
    def assert_close(arch, params, batch):
        loss, grads = loss_and_grad(arch, params, batch)
        ref_loss, ref_grads = reference_loss_and_grad(arch, params, batch)
        assert loss == pytest.approx(ref_loss, rel=1e-10, abs=0.0)
        ref = ref_grads.vector
        # entries that cancel to ~0 carry only rounding noise of the largest
        np.testing.assert_allclose(grads.vector, ref, rtol=1e-10,
                                   atol=1e-13 * float(np.abs(ref).max()))

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 6, 7])
    def test_dense_bit_equal(self, seed):
        self.assert_bit_equal(*random_gradient_instance(seed))

    @pytest.mark.parametrize("arch", [adult_arch(12, hidden=8),
                                      purchase_arch(30, 16, 8, num_classes=4)],
                             ids=["adult", "purchase"])
    @pytest.mark.parametrize("size", [32, 7])
    def test_dense_presets_bit_equal(self, arch, size):
        self.assert_bit_equal(arch, noisy_model(arch, 3), random_batch(arch, size, 3))

    @pytest.mark.parametrize("preset", [cifar10_arch, mnist_arch],
                             ids=["cifar10", "mnist"])
    @pytest.mark.parametrize("size", [12, 7])
    def test_conv_presets_close(self, preset, size):
        arch = preset()
        self.assert_close(arch, noisy_model(arch, 0), random_batch(arch, size, 0))

    @pytest.mark.parametrize("instance,seed", [
        (random_gradient_instance, 2), (random_gradient_instance, 5),
        (random_gradient_instance, 8), (stacked_conv_instance, 0),
        (stacked_conv_instance, 1), (stacked_conv_instance, 2),
    ])
    def test_random_conv_close(self, instance, seed):
        self.assert_close(*instance(seed))


def per_sample_columns(arch: ArchSpec) -> list[int]:
    """im2col entries one sample unfolds to in each conv layer."""
    sizes, shape = [], arch.input_shape
    for layer in arch.layers:
        if isinstance(layer, Conv2d):
            k = layer.kernel_size
            ho, wo = shape[1] - k + 1, shape[2] - k + 1
            sizes.append(shape[0] * k * k * ho * wo)
            shape = (layer.out_channels, ho, wo)
        elif isinstance(layer, MaxPool2d):
            shape = (shape[0], shape[1] // layer.window, shape[2] // layer.window)
    return sizes


def chunk_rows(arch: ArchSpec, budget: int) -> list[int]:
    """Samples per column chunk of each conv layer under a column budget."""
    return [max(1, budget // size) for size in per_sample_columns(arch)]


def ragged_budget(arch: ArchSpec) -> int:
    """A budget of at least 3 samples per chunk in every conv layer."""
    return 3 * max(per_sample_columns(arch))


def peak_bytes(fn) -> int:
    """tracemalloc's peak over one call of `fn`, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForwardKeepsNoCaches:
    """`forward` runs the pass `loss_and_grad` runs but keeps no layer's
    backward cache: the same probabilities, bit for bit, in less memory."""

    @pytest.mark.parametrize("arch", [adult_arch(12, hidden=8), cifar10_arch(), mnist_arch()],
                             ids=["adult", "cifar10", "mnist"])
    def test_probabilities_bit_equal_to_the_caching_pass(self, arch):
        params, batch = noisy_model(arch, 1), random_batch(arch, 9, 1)
        caches: list = []
        logits = _forward(arch, params.tensors, batch.inputs, caches)
        assert len(caches) == len(arch.layers)
        assert bits(forward(arch, params, batch)) == bits(_softmax(logits))

    def test_conv_columns_are_dropped_layer_by_layer(self):
        arch = cifar10_arch()
        params, batch = noisy_model(arch, 0), random_batch(arch, 16, 0)
        # the im2col columns of the two conv layers: (rows, C*k*k, Ho*Wo)
        columns = 16 * 8 * sum(per_sample_columns(arch))
        assert peak_bytes(lambda: forward(arch, params, batch)) < columns
        # the caching pass builds the columns in the same chunks and keeps
        # none; the whole-batch pass it replaced held them all
        assert peak_bytes(lambda: _forward(arch, params.tensors, batch.inputs, [])) < columns / 4
        assert peak_bytes(
            lambda: whole_batch_forward(arch, params.tensors, batch.inputs, [])) > columns

    @pytest.mark.parametrize("arch", [cifar10_arch(), mnist_arch()], ids=["cifar10", "mnist"])
    def test_chunked_columns_bit_equal_to_the_caching_pass(self, monkeypatch, arch):
        rows = 37
        params, batch = noisy_model(arch, 2), random_batch(arch, rows, 2)
        whole = whole_batch_forward(arch, params.tensors, batch.inputs, [])
        ragged = ragged_budget(arch)
        for budget in (_COLS_BUDGET, ragged):
            chunks = chunk_rows(arch, budget)
            assert len(chunks) == 2
            assert all(step < rows for step in chunks), chunks
            if budget == ragged:
                # every conv layer runs a full chunk and then a ragged one
                assert all(step > 1 and rows % step for step in chunks), chunks
            with monkeypatch.context() as m:
                m.setattr(engine, "_COLS_BUDGET", budget)
                logits = _forward(arch, params.tensors, batch.inputs, [])
                assert bits(logits) == bits(whole)
                assert bits(_forward(arch, params.tensors, batch.inputs)) == bits(logits)
                assert bits(forward(arch, params, batch)) == bits(_softmax(logits))

    def test_peak_is_one_column_chunk_and_the_layer_outputs(self):
        arch = cifar10_arch()
        rows = 64
        params, batch = noisy_model(arch, 0), random_batch(arch, rows, 0)
        peak = peak_bytes(lambda: forward(arch, params, batch))
        # conv, pool, conv, pool, dense, dense, softmax outputs
        outputs = rows * 8 * (6 * 28 * 28 + 6 * 14 * 14 + 16 * 10 * 10 + 16 * 5 * 5
                              + 120 + 10 + 10)
        # all 64 rows of conv-1 columns at once would be 30 MB
        assert peak < 8 * _COLS_BUDGET + outputs, f"{peak / 1e6:.1f} MB"


class TestForwardRowsIndependent:
    """The membership attack takes the features of both halves of the test
    set as rows of one forward over the whole set. They equal per-half
    forwards, which is what the attack computed before, wherever a row's
    probabilities do not depend on the rows forwarded with it, and under
    OpenBLAS (Haswell kernels) that holds only in part:
    - a GEMM's last (rows mod 4) rows go through an edge kernel that rounds
      otherwise when the layer has few outputs, so in a batch of 7 rows,
      rows 4-6 can get other low bits than inside a block of four;
    - the kernel can change with the batch's row count, so on the store,
      purchase and cifar10 shapes batches of 8 rows and of 160 or 48 rows
      disagree.
    Both halves and the whole set forwarded at one batch size, every batch a
    multiple of four rows, agree bit for bit. So it is on the test sets of
    the benchmark workloads and of synthetic_desk.ini (1,000, 160 and 48
    rows) at the default evaluation batch of 256."""

    @pytest.mark.parametrize("arch,rows", [
        (dense_arch(40, 2, hidden=32), 1000), (dense_arch(600, 2, hidden=128), 160),
        (purchase_arch(), 160), (cifar10_arch(), 48), (mnist_arch(), 48)],
        ids=["desk", "store", "purchase", "cifar10", "mnist"])
    @pytest.mark.parametrize("batch_size", [8, 256])
    def test_a_half_is_bit_equal_to_its_rows_of_the_whole_set(self, arch, rows, batch_size):
        params, batch = noisy_model(arch, 4), random_batch(arch, rows, 4)

        def batched(picked):
            return np.concatenate([
                forward(arch, params, Batch(batch.inputs[picked[i : i + batch_size]],
                                            batch.labels[picked[i : i + batch_size]]))
                for i in range(0, len(picked), batch_size)])

        whole = batched(np.arange(rows))
        order = np.random.default_rng(4).permutation(rows)
        for half in (np.sort(order[: rows // 2]), np.sort(order[rows // 2 :])):
            assert bits(batched(half)) == bits(whole[half])


def budget_of(name: str, arch: ArchSpec) -> int:
    return {"engine": _COLS_BUDGET, "one_sample": 1, "ragged": ragged_budget(arch)}[name]


class TestChunkedColumnsBitEqualToWholeBatch:
    """`loss_and_grad` builds each conv layer's columns a chunk of samples
    at a time, forward and backward, against the whole-batch columns of
    tests/oracles.py: the same bits for every chunking, ragged last chunks
    and one-sample chunks included."""

    @pytest.mark.parametrize("budget", ["engine", "one_sample", "ragged"])
    @pytest.mark.parametrize("preset", [cifar10_arch, mnist_arch], ids=["cifar10", "mnist"])
    @pytest.mark.parametrize("rows", [37, 1])
    def test_loss_and_grad(self, monkeypatch, budget, preset, rows):
        arch = preset()
        params, batch = noisy_model(arch, 5), random_batch(arch, rows, 5)
        if budget == "ragged" and rows > 1:
            assert all(step > 1 and rows % step for step in chunk_rows(arch, ragged_budget(arch)))
        with monkeypatch.context() as m:
            use_whole_batch_columns(m)
            ref_loss, ref_grads = loss_and_grad(arch, params, batch)
        monkeypatch.setattr(engine, "_COLS_BUDGET", budget_of(budget, arch))
        loss, grads = loss_and_grad(arch, params, batch)
        assert loss == ref_loss
        assert grads.vector.tobytes() == ref_grads.vector.tobytes()

    @pytest.mark.parametrize("budget", ["engine", "one_sample", "ragged"])
    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("activation", ["relu", "none"])
    def test_conv_backward(self, monkeypatch, budget, need_dx, activation):
        # cifar10's second conv layer, on 7 rows: a ragged last chunk at
        # the engine's budget (4 rows a chunk) and at the ragged one (3)
        arch = ArchSpec(layers=(Conv2d(6, 16, 5, activation), Flatten(),
                                Dense(16 * 10 * 10, 4)), input_shape=(6, 14, 14))
        layer = arch.layers[0]
        params, batch = noisy_model(arch, 6), random_batch(arch, 7, 6)
        w = params.tensors[0]
        monkeypatch.setattr(engine, "_COLS_BUDGET", budget_of(budget, arch))
        ours, ref = [], []
        _forward(arch, params.tensors, batch.inputs, ours)
        whole_batch_forward(arch, params.tensors, batch.inputs, ref)
        assert bits(ours[0][1]) == bits(ref[0][2])
        rng = np.random.default_rng(6)
        dout = rng.normal(size=ours[0][1].shape)
        dout[rng.random(size=dout.shape) < 0.05] = -0.0
        grads = []
        for backward, cache in ((_conv_backward, ours[0]), (whole_batch_conv_backward, ref[0])):
            dw, db = np.empty(w.shape), np.empty(layer.out_channels)
            dx = backward(layer, w, cache, dout, dw, db, need_dx)
            grads.append((bits(dw), bits(db), None if dx is None else (dx.shape, bits(dx))))
        assert grads[0] == grads[1]
        assert (grads[0][2] is None) == (not need_dx)

    def test_loss_and_grad_peak_is_one_column_chunk_and_the_layer_caches(self):
        arch = cifar10_arch()
        rows = 64
        params, batch = noisy_model(arch, 0), random_batch(arch, rows, 0)
        peak = peak_bytes(lambda: loss_and_grad(arch, params, batch))
        # what the caching pass keeps: conv, pool, conv, pool outputs, and
        # the dense layers' pre-activations and outputs
        caches = rows * 8 * (6 * 28 * 28 + 6 * 14 * 14 + 16 * 10 * 10 + 16 * 5 * 5
                             + 2 * 120 + 10)
        # the gradient a layer receives and its pre-activation gradient, at
        # the largest layer, conv-1
        gradients = 2 * rows * 8 * 6 * 28 * 28
        # all 64 rows of conv-1 columns at once would be 30 MB
        assert peak < 8 * _COLS_BUDGET + caches + gradients, f"{peak / 1e6:.1f} MB"


def pool_gradient(x: np.ndarray, window: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Pooled values, and the input gradient of a dout of 0.5 everywhere."""
    pooled = _pool_forward(x, window)
    return pooled, _pool_backward(MaxPool2d(window), (x, pooled), np.full(pooled.shape, 0.5))


class TestMaxPoolTieBreak:
    def test_tie_selects_first_position(self):
        # A window of equal values sends the whole gradient to flat index 0
        # (row-major first).
        pooled, dx = pool_gradient(np.ones((1, 1, 2, 2)))
        assert pooled[0, 0, 0, 0] == 1.0
        assert dx.ravel().tolist() == [0.5, 0.0, 0.0, 0.0]

    def test_max_position_is_row_major(self):
        pooled, dx = pool_gradient(np.array([[[[3.0, 7.0], [9.0, 9.0]]]]))
        assert pooled[0, 0, 0, 0] == 9.0
        # first 9 in row-major order: flat index 2
        assert dx.ravel().tolist() == [0.0, 0.0, 0.5, 0.0]


def pool_input(kind: str, batch: int, window: int, seed: int = 0) -> np.ndarray:
    """A (batch, 3, 2*window, 3*window) pooling input of the given kind."""
    rng = np.random.default_rng(seed)
    shape = (batch, 3, 2 * window, 3 * window)
    if kind == "random":
        return rng.normal(size=shape)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "repeated":  # many windows whose maximum sits at two or more positions
        return rng.integers(-2, 2, size=shape).astype(np.float64)
    if kind == "signed_zeros":
        # what a convolution without a ReLU passes on: negative values, and
        # maxima tied between 0.0 and -0.0 in either order
        x = rng.choice([-0.0, 0.0, -1.5], size=shape)
        x[0, 0, :2, :2] = [[0.0, -0.0], [-1.5, -1.5]]
        x[0, 1, :2, :2] = [[-0.0, 0.0], [-1.5, -1.5]]
        return x
    if kind == "nan":  # a diverging step: NaN windows take their first NaN
        x = rng.normal(size=shape)
        x[rng.random(size=shape) < 0.1] = np.nan
        x[0, 0, 0, 0] = np.inf
        return x
    raise ValueError(kind)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestKernelsBitEqualToReference:
    """Pooling and col2im against the copy-and-argmax and batch-major
    kernels of tests/oracles.py: the same bits on every input."""

    @pytest.mark.parametrize("kind", ["random", "zeros", "repeated", "signed_zeros", "nan"])
    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_pooling(self, kind, window, batch):
        x = pool_input(kind, batch, window)
        ref_pooled, idx = reference_pool_forward(x, window)
        pooled = _pool_forward(x, window)
        if kind == "nan":
            # which NaN a NaN window yields is not pinned, only that it is NaN
            assert np.array_equal(pooled, ref_pooled, equal_nan=True)
        else:
            assert bits(pooled) == bits(ref_pooled)
        dout = np.random.default_rng(1).normal(size=pooled.shape)
        dout[0, 0, 0, 0] = -0.0
        # a conv's input gradient reaches pooling as a transposed view
        dout_view = np.ascontiguousarray(dout.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        ref_dx = reference_pool_backward(x.shape, idx, dout, window)
        for d in (dout, dout_view):
            dx = _pool_backward(MaxPool2d(window), (x, pooled), d)
            assert bits(dx) == bits(ref_dx)

    @pytest.mark.parametrize("x_shape,k", [
        ((12, 6, 14, 14), 5), ((12, 4, 28, 28), 5), ((1, 2, 9, 7), 3), ((3, 1, 4, 5), 2),
        ((2, 3, 5, 5), 5),
    ])
    def test_col2im(self, x_shape, k):
        b, c, h, w = x_shape
        rng = np.random.default_rng(2)
        dcols = rng.normal(size=(b, c * k * k, (h - k + 1) * (w - k + 1)))
        dcols[rng.random(size=dcols.shape) < 0.05] = -0.0
        # added a chunk of samples at a time, as the backward pass adds them
        dx = np.zeros((h, w, b, c))
        for first in range(0, b, 2):
            _col2im_add(dx[:, :, first:first + 2], dcols[first:first + 2], k)
        assert bits(dx.transpose(2, 3, 0, 1)) == bits(reference_col2im(dcols, x_shape, k))

    @pytest.mark.parametrize("view", ["contiguous", "every-other-sample", "nhwc-memory",
                                      "reversed-rows", "one-sample-chunk"])
    @pytest.mark.parametrize("x_shape,k", [((6, 3, 9, 7), 3), ((4, 6, 14, 14), 5),
                                           ((2, 2, 5, 5), 5), ((4, 2, 4, 6), 1)])
    def test_im2col(self, view, x_shape, k):
        # the columns trust the input's strides, so each view below steps
        # through memory differently from a C-contiguous array
        base = np.random.default_rng(3).normal(size=(2 * x_shape[0], *x_shape[1:]))
        x = {
            "contiguous": base[: x_shape[0]],
            "every-other-sample": base[::2],
            "nhwc-memory": np.ascontiguousarray(base.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
            "reversed-rows": base[:, :, ::-1],
            "one-sample-chunk": base[3:4],
        }[view]
        assert view in ("contiguous", "one-sample-chunk") or not x.flags.c_contiguous
        cols = _im2col(x, k)
        assert cols.shape == reference_im2col(x, k).shape
        assert bits(cols) == bits(reference_im2col(x, k))

    @staticmethod
    def assert_loss_and_grad_bit_equal(monkeypatch, arch, params, batch):
        loss, grads = loss_and_grad(arch, params, batch)
        with monkeypatch.context() as m:
            use_reference_kernels(m)
            ref_loss, ref_grads = loss_and_grad(arch, params, batch)
        assert loss == ref_loss
        assert grads.vector.tobytes() == ref_grads.vector.tobytes()

    @pytest.mark.parametrize("preset", [cifar10_arch, mnist_arch], ids=["cifar10", "mnist"])
    @pytest.mark.parametrize("size", [12, 32])
    def test_presets_loss_and_grad(self, monkeypatch, preset, size):
        arch = preset()
        self.assert_loss_and_grad_bit_equal(monkeypatch, arch, noisy_model(arch, 0),
                                            random_batch(arch, size, 0))

    @pytest.mark.parametrize("window", [2, 3])
    def test_conv_without_relu_then_pool(self, monkeypatch, window):
        # the pool sees negative values, and one all-zero output channel
        # (zero weights and bias) gives windows tied at 0.0 throughout
        side = 2 + 2 * window
        arch = ArchSpec(layers=(Conv2d(1, 2, 3), MaxPool2d(window), Flatten(),
                                Dense(2 * 2 * 2, 3)), input_shape=(1, side, side))
        tensors = {name: t.copy() for name, t in noisy_model(arch, 4).items()}
        tensors["layer0.weight"][1] = 0.0
        tensors["layer0.bias"][1] = 0.0
        self.assert_loss_and_grad_bit_equal(monkeypatch, arch, ParamSet(tensors.items()),
                                            random_batch(arch, 6, 4))

    @pytest.mark.parametrize("instance,seed", [
        (random_gradient_instance, 2), (random_gradient_instance, 5),
        (stacked_conv_instance, 0), (stacked_conv_instance, 1),
    ])
    def test_random_conv_loss_and_grad(self, monkeypatch, instance, seed):
        self.assert_loss_and_grad_bit_equal(monkeypatch, *instance(seed))
