import struct
import warnings

import numpy as np
import pytest

from fedunlearn.nn import (
    ConformanceError,
    ParamSet,
    array_chunks,
    atomic_write,
    dump_param_bytes,
    load_params,
    param_chunks,
    param_linear,
    parse_param_bytes,
    save_params,
)
from fedunlearn.federation import RoundSum
from fedunlearn.nn.params import ParamReader

from conftest import tear_writes


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


class TestFiniteness:
    """Each check is one BLAS sum of squares: any NaN or infinity makes it
    non-finite, and finite values only by overflowing it, which a scan of
    the values settles. None of it warns."""

    @staticmethod
    def items(**bad) -> list[tuple[str, np.ndarray]]:
        # "a" squares past the float64 range, so a check must look past it
        tensors = {"a": np.full(2, 1e200), "b": np.ones((2, 3)), "c": np.zeros(1)}
        for name, value in bad.items():
            tensors[name] = tensors[name].copy()
            tensors[name].flat[-1] = value
        return list(tensors.items())

    def test_values_overflowing_the_sum_of_squares_are_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = ParamSet(self.items())
            assert x.non_finite_tensor() is None
            assert param_linear(1.0, x, 0.5, x).vector[0] == 1.5e200
            assert parse_param_bytes(dump_param_bytes(x)) == x
            total = RoundSum([(1, 5)])
            total.add(1, x._layout, x.vector)
            assert total.result() == x

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_each_non_finite_value_is_named_by_its_tensor(self, value, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^tensor '{name}' contains non-finite values$"):
                ParamSet(self.items(**{name: value}))
            w, live = ParamSet(self.items()).working_copy()
            w[-1] = value
            assert live.non_finite_tensor() == "c"


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
    @pytest.mark.parametrize("c", [-3.0, 0.5, 2.0])
    def test_scaling_homogeneity(self, c):
        ps = make_set(seed=9)
        scaled = param_linear(c, ps, 0.0, ps)
        for (_, t_scaled), (_, t) in zip(scaled.items(), ps.items()):
            assert np.linalg.norm(t_scaled) == pytest.approx(abs(c) * np.linalg.norm(t),
                                                             rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_sq_norms_root_is_linalg_norm_bit_for_bit(self, seed):
        ps = make_set(seed=seed, shapes=(("w", (7, 5)), ("k", (2, 3, 3, 3)), ("b", (1,))))
        sq = ps.sq_norms()
        assert sq.shape == (3,)
        for root, (_, t) in zip(np.sqrt(sq), ps.items()):
            assert root == np.linalg.norm(t)


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

    def test_hand_encoded_bytes(self):
        ps = ParamSet([("w", [[1.0, -2.0]]), ("bias", [0.5])])
        assert dump_param_bytes(ps) == b"".join([
            b"FESP", struct.pack("<II", 1, 2),
            struct.pack("<I", 1), b"w", struct.pack("<III", 2, 1, 2),
            struct.pack("<2d", 1.0, -2.0),
            struct.pack("<I", 4), b"bias", struct.pack("<II", 1, 1), struct.pack("<d", 0.5),
        ])
        assert dump_param_bytes(ParamSet([])) == b"FESP" + struct.pack("<II", 1, 0)

    def test_chunks_are_views_of_the_vector(self):
        ps = make_set(5, shapes=(("w", (3, 2)), ("s", ()), ("b", (2,))))
        chunks = param_chunks(ps)
        assert b"".join(chunks) == dump_param_bytes(ps)
        data = chunks[2::2]
        assert [c.nbytes for c in data] == [48, 8, 16]
        for chunk, tensor in zip(data, ps.tensors):
            assert chunk.readonly
            assert np.shares_memory(np.asarray(chunk), ps.vector)
            assert bytes(chunk) == tensor.tobytes()

    def test_array_chunks_give_a_sets_bytes_without_copying_float64(self):
        inputs = np.random.default_rng(6).normal(size=(4, 3, 2))
        labels = np.array([1, 0, 2, 1])
        items = [("x", inputs), ("y", labels), ("n", [3])]
        chunks = array_chunks(items)
        assert b"".join(chunks) == dump_param_bytes(ParamSet(items))
        assert np.shares_memory(np.asarray(chunks[2]), inputs)
        assert not np.shares_memory(np.asarray(chunks[4]), labels)  # int64, converted

    def test_reader_shares_one_layout_across_blobs(self):
        rng = np.random.default_rng(4)
        a, b = (ParamSet([("w", rng.normal(size=(3, 2))), ("b", rng.normal(size=2))])
                for _ in range(2))
        reader = ParamReader()
        parsed_a = reader.parse(dump_param_bytes(a))
        parsed_b = reader.parse(dump_param_bytes(b))
        assert (parsed_a, parsed_b) == (a, b)
        assert parsed_a._layout is parsed_b._layout

    def test_reader_parses_a_same_size_blob_with_another_header_afresh(self):
        # equal blob sizes, so only the header bytes tell them apart
        first = dump_param_bytes(ParamSet([("wa", np.ones((2, 3)))]))
        reader = ParamReader()
        for other in (ParamSet([("wb", np.ones((2, 3)))]), ParamSet([("wa", np.ones((3, 2)))])):
            blob = dump_param_bytes(other)
            assert len(blob) == len(first)
            reader.parse(first)
            assert reader.parse(blob) == other
        reader.parse(first)
        with pytest.raises(ValueError, match="magic"):
            reader.parse(b"NOPE" + first[4:])

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

    def test_last_tensor_cut_short_rejected(self):
        buf = dump_param_bytes(make_set())
        with pytest.raises(ValueError, match="tensor data runs past the end"):
            parse_param_bytes(buf[:-8])

    def test_file_round_trip(self, tmp_path):
        ps = make_set(seed=13)
        save_params(ps, tmp_path / "model.fesp")
        assert load_params(tmp_path / "model.fesp") == ps

    @pytest.mark.parametrize("end,message", [(0, "bad magic"), (-8, "runs past the end")])
    def test_a_cut_file_is_refused_and_released(self, tmp_path, end, message):
        # the file is mapped; a refused one must still be unmapped and closed
        path = tmp_path / "model.fesp"
        path.write_bytes(dump_param_bytes(make_set())[:end])
        with pytest.raises(ValueError, match=message):
            load_params(path)
        save_params(make_set(), path)
        assert load_params(path) == make_set()


class TestAtomicWrite:
    def test_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"old contents")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        atomic_write(path, b"previous")
        tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, b"replacement that never lands")
        assert path.read_bytes() == b"previous"

    @pytest.mark.parametrize("previous", [True, False], ids=["replace", "create"])
    def test_failing_chunk_mid_file_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                                        previous):
        path = tmp_path / "model.fesp"
        if previous:
            save_params(make_set(0), path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        # chunks: file header, then header and data per tensor; the write
        # fails halfway through the second tensor's data
        tear_writes(monkeypatch, chunk=4)
        with pytest.raises(OSError, match="disk full"):
            save_params(make_set(1), path)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_failed_save_keeps_the_previous_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.fesp"
        save_params(make_set(0), path)
        before = path.read_bytes()
        tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_params(make_set(1), path)
        assert path.read_bytes() == before
