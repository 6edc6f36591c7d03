import numpy as np
import pytest

from fedunlearn.nn import (
    ConformanceError,
    ParamSet,
    dump_param_bytes,
    global_norm,
    layer_norms,
    load_params,
    param_linear,
    parse_param_bytes,
    save_params,
    zeros_like,
)


def make_set(seed=0, shapes=(("w", (3, 2)), ("b", (2,)))):
    rng = np.random.default_rng(seed)
    return ParamSet((name, rng.normal(size=shape)) for name, shape in shapes)


class TestParamSet:
    def test_tensors_are_float64_contiguous_readonly(self):
        ps = ParamSet([("w", np.arange(6, dtype=np.int32).reshape(2, 3))])
        t = ps["w"]
        assert t.dtype == np.float64
        assert t.flags.c_contiguous
        with pytest.raises(ValueError):
            t[0, 0] = 99.0

    def test_source_mutation_does_not_leak_in(self):
        src = np.ones((2, 2))
        ps = ParamSet([("w", src)])
        src[0, 0] = 7.0
        assert ps["w"][0, 0] == 1.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSet([("w", np.zeros(2)), ("w", np.zeros(2))])

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ParamSet([("w", np.array([1.0, bad]))])

    def test_lookup_and_iteration(self):
        ps = make_set()
        assert ps.names == ("w", "b")
        assert "w" in ps and "missing" not in ps
        assert len(ps) == 2
        assert [name for name, _ in ps] == ["w", "b"]
        assert ps.num_params == 8
        assert ps.shapes() == (("w", (3, 2)), ("b", (2,)))

    def test_equality_is_bit_exact(self):
        a = make_set(seed=1)
        b = ParamSet(a.items())
        assert a == b
        # Even the smallest representable change must break equality.
        nudged = ParamSet(
            (n, np.nextafter(t, np.inf) if n == "b" else t) for n, t in a.items()
        )
        assert a != nudged

    def test_tensors_are_readonly_views_of_one_vector(self):
        ps = make_set(seed=3, shapes=(("w", (3, 2)), ("b", (2,)), ("s", ())))
        vector = ps.vector
        assert vector.ndim == 1 and vector.size == ps.num_params == 9
        assert vector.flags.c_contiguous and not vector.flags.writeable
        offset = 0
        for t in ps.tensors:
            assert t.base is vector
            assert not t.flags.writeable
            np.testing.assert_array_equal(t.ravel(), vector[offset : offset + t.size])
            offset += t.size
        with pytest.raises(ValueError):
            vector[0] = 1.0

    def test_derived_sets_share_the_layout(self):
        x, y = make_set(seed=1), make_set(seed=2)
        z = param_linear(1.0, x, 2.0, y)
        assert z.shapes() is x.shapes()
        assert z.shapes() == y.shapes()

    def test_working_copy_sees_writes_and_leaves_the_source(self):
        ps = make_set(seed=4)
        before = ps.vector.copy()
        w, live = ps.working_copy()
        w -= 1.0
        np.testing.assert_array_equal(live.vector, before - 1.0)
        np.testing.assert_array_equal(ps.vector, before)
        assert not live["w"].flags.writeable
        assert live.non_finite_tensor() is None
        w[-1] = np.nan
        assert live.non_finite_tensor() == "b"

    def test_conformance(self):
        a = make_set(seed=1)
        b = make_set(seed=2)
        assert a.conforms_to(b)
        other = ParamSet([("w", np.zeros((3, 2)))])
        assert not a.conforms_to(other)


class TestParamLinear:
    def test_hand_computed_combination(self):
        x = ParamSet([("w", np.array([1.0, 2.0]))])
        y = ParamSet([("w", np.array([10.0, -4.0]))])
        out = param_linear(2.0, x, 0.5, y)
        np.testing.assert_array_equal(out["w"], [7.0, 2.0])

    def test_identity_and_cancellation(self):
        x = make_set(seed=3)
        y = make_set(seed=4)
        assert param_linear(1.0, x, 0.0, y) == x
        cancelled = param_linear(1.0, x, -1.0, x)
        assert all(np.all(t == 0.0) for _, t in cancelled.items())

    def test_model_plus_delta_restores_model(self):
        # m + (m' - m) recovers m' to within one rounding step per entry
        # (floating-point addition is not exactly invertible).
        m = make_set(seed=5)
        m_prime = make_set(seed=6)
        delta = param_linear(1.0, m_prime, -1.0, m)
        restored = param_linear(1.0, m, 1.0, delta)
        for name, t in m_prime.items():
            np.testing.assert_allclose(restored[name], t, rtol=0, atol=1e-15)
        # The reconstruction itself is deterministic bit-for-bit.
        assert param_linear(1.0, m, 1.0, delta) == restored

    @pytest.mark.parametrize("seed", range(5))
    def test_commutative_and_associative_to_1e12(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (make_set(seed=s) for s in rng.integers(0, 2**31, size=3))
        ab = param_linear(1.0, x, 1.0, y)
        ba = param_linear(1.0, y, 1.0, x)
        for (_, t1), (_, t2) in zip(ab.items(), ba.items()):
            np.testing.assert_allclose(t1, t2, rtol=0, atol=1e-12)
        left = param_linear(1.0, ab, 1.0, z)
        right = param_linear(1.0, x, 1.0, param_linear(1.0, y, 1.0, z))
        for (_, t1), (_, t2) in zip(left.items(), right.items()):
            np.testing.assert_allclose(t1, t2, rtol=0, atol=1e-12)

    def test_non_conformant_rejected(self):
        x = make_set()
        y = ParamSet([("w", np.zeros((3, 2)))])
        with pytest.raises(ConformanceError):
            param_linear(1.0, x, 1.0, y)

    @pytest.mark.parametrize("shapes", [
        (("w", (2, 3)), ("b", (2,))),  # same size, other shape
        (("v", (3, 2)), ("b", (2,))),  # other name
        (("b", (2,)), ("w", (3, 2))),  # other order
        (("w", (3, 2)), ("b", (2,)), ("c", (1,))),  # extra tensor
    ])
    def test_non_conformant_variants_rejected(self, shapes):
        x = make_set()
        y = make_set(shapes=shapes)
        with pytest.raises(ConformanceError):
            param_linear(1.0, x, 1.0, y)
        with pytest.raises(ConformanceError):
            param_linear(1.0, y, 1.0, x)


class TestNorms:
    def test_three_four_five(self):
        ps = ParamSet([("w", np.array([3.0, 4.0]))])
        assert layer_norms(ps) == [("w", 5.0)]

    def test_zero_set(self):
        ps = zeros_like(make_set())
        assert all(n == 0.0 for _, n in layer_norms(ps))
        assert global_norm(ps) == 0.0

    @pytest.mark.parametrize("c", [-3.0, 0.5, 2.0])
    def test_scaling_homogeneity(self, c):
        ps = make_set(seed=9)
        scaled = param_linear(c, ps, 0.0, ps)
        for (_, n_scaled), (_, n) in zip(layer_norms(scaled), layer_norms(ps)):
            assert n_scaled == pytest.approx(abs(c) * n, rel=1e-12)

    def test_global_norm_combines_layers(self):
        ps = ParamSet([("a", np.array([3.0])), ("b", np.array([4.0]))])
        assert global_norm(ps) == pytest.approx(5.0, rel=1e-15)


class TestBinaryFormat:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(42)
        ps = ParamSet(
            [
                ("layer0.weight", rng.normal(size=(4, 3))),
                ("layer0.bias", rng.normal(size=3)),
                ("conv.weight", rng.normal(size=(2, 1, 3, 3))),
                ("scalar", np.float64(rng.normal())),
            ]
        )
        assert parse_param_bytes(dump_param_bytes(ps)) == ps

    def test_unicode_names_survive(self):
        ps = ParamSet([("poids_couche", np.ones(2))])
        assert parse_param_bytes(dump_param_bytes(ps)).names == ("poids_couche",)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            parse_param_bytes(b"NOPE" + b"\x00" * 20)

    def test_bad_version(self):
        buf = bytearray(dump_param_bytes(make_set()))
        buf[4] = 99
        with pytest.raises(ValueError, match="version"):
            parse_param_bytes(bytes(buf))

    def test_trailing_bytes_rejected(self):
        buf = dump_param_bytes(make_set()) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            parse_param_bytes(buf)

    def test_truncation_rejected(self):
        buf = dump_param_bytes(make_set())
        with pytest.raises(ValueError):
            parse_param_bytes(buf[: len(buf) // 2])

    def test_file_round_trip(self, tmp_path):
        ps = make_set(seed=13)
        save_params(ps, tmp_path / "model.fesp")
        assert load_params(tmp_path / "model.fesp") == ps
