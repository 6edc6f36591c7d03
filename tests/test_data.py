"""Dataset containers, loaders, preprocessing, and partitioning.

Loader tests write tiny handcrafted files in the real on-disk formats and
check the parsed values against by-hand expectations.
"""

import gzip
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from fedunlearn.data import (
    ClientShard,
    Dataset,
    FedConfig,
    IngestionError,
    assign_purchase_labels,
    load_adult,
    load_cifar10,
    load_dataset,
    load_mnist,
    load_purchase,
    make_synthetic,
    partition_iid,
    prepare_data,
    read_adult_records,
    subsample,
    train_test_split,
)
from fedunlearn.cli import build_arch
from fedunlearn.nn import Batch, build_model, cifar10_arch, forward, mnist_arch, purchase_arch


def identity_dataset(n: int, num_classes: int = 2) -> Dataset:
    """Rows identifiable by their first feature, for split bookkeeping."""
    inputs = np.arange(n, dtype=np.float64)[:, None]
    return Dataset("ids", inputs, np.arange(n) % num_classes, num_classes)


def row_ids(ds: Dataset) -> list[int]:
    return [int(v) for v in ds.inputs[:, 0]]


class TestDataset:
    def test_coerces_and_freezes(self):
        ds = Dataset("d", [[1, 2], [3, 4]], [0, 1], 2)
        assert ds.inputs.dtype == np.float64
        assert ds.labels.dtype == np.int64
        assert not ds.inputs.flags.writeable
        assert not ds.labels.flags.writeable
        assert ds.num_samples == 2
        assert ds.feature_shape == (2,)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            Dataset("d", np.zeros((3, 2)), [0, 1], 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Dataset("d", np.zeros((0, 2)), [], 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset("d", [[np.nan]], [0], 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
            Dataset("d", np.zeros((2, 1)), [0, 2], 2)
        with pytest.raises(ValueError, match="labels outside"):
            Dataset("d", np.zeros((2, 1)), [-1, 0], 2)

    def test_rejects_labels_that_are_not_whole_numbers(self):
        # float labels, as data.fesp stores them, were once cut to [0 1 1]
        with pytest.raises(ValueError) as caught:
            Dataset("x", np.zeros((3, 2)), np.array([0.0, 1.5, 1.9999]), 2)
        assert str(caught.value) == "labels must be whole class indices; row 1 holds 1.5"
        with pytest.raises(ValueError, match="row 2 holds nan"):
            Dataset("x", np.zeros((3, 2)), np.array([0.0, 1.0, np.nan]), 2)

    def test_whole_float_labels_are_class_indices(self):
        ds = Dataset("x", np.zeros((3, 2)), np.array([0.0, 1.0, -0.0]), 2)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1, 0]
        for label in (np.inf, -np.inf, 2.0):
            with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
                Dataset("x", np.zeros((2, 2)), np.array([0.0, label]), 2)

    def test_rejects_labels_of_another_shape(self):
        with pytest.raises(ValueError, match=r"one class index per row, not of shape \(2, 1\)"):
            Dataset("x", np.zeros((2, 2)), np.zeros((2, 1)), 2)

    def test_subset_picks_rows(self):
        ds = identity_dataset(10)
        sub = ds.subset(np.array([2, 5, 7]), name="picked")
        assert row_ids(sub) == [2, 5, 7]
        assert sub.name == "picked"
        assert sub.num_classes == 2


class TestClientShard:
    def test_ids_start_at_one(self):
        shard = ClientShard(1, identity_dataset(4))
        assert shard.sample_count == 4
        with pytest.raises(ValueError, match="start at 1"):
            ClientShard(0, identity_dataset(4))


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = make_synthetic(50, 5, 3, seed=9)
        b = make_synthetic(50, 5, 3, seed=9)
        c = make_synthetic(50, 5, 3, seed=10)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_shapes_and_labels(self):
        ds = make_synthetic(120, 7, 4, seed=0)
        assert ds.inputs.shape == (120, 7)
        assert ds.num_classes == 4
        assert set(np.unique(ds.labels)) <= set(range(4))

    def test_separation_moves_class_means_apart(self):
        near = make_synthetic(4000, 6, 2, seed=1, separation=0.5)
        far = make_synthetic(4000, 6, 2, seed=1, separation=4.0)

        def mean_gap(ds):
            m0 = ds.inputs[ds.labels == 0].mean(axis=0)
            m1 = ds.inputs[ds.labels == 1].mean(axis=0)
            return np.linalg.norm(m0 - m1)

        assert mean_gap(far) > mean_gap(near) + 1.0

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ValueError):
            make_synthetic(0, 5, 2, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(10, 5, 1, seed=0)


class TestSubsample:
    def test_keeps_row_order_and_size(self):
        ds = identity_dataset(100)
        small = subsample(ds, 30, seed=3)
        ids = row_ids(small)
        assert len(ids) == 30
        assert ids == sorted(ids)
        assert set(ids) <= set(range(100))

    def test_noop_when_small_enough(self):
        ds = identity_dataset(10)
        assert subsample(ds, 10, seed=0) is ds

    def test_deterministic(self):
        ds = identity_dataset(100)
        assert row_ids(subsample(ds, 20, seed=5)) == row_ids(subsample(ds, 20, seed=5))

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            subsample(identity_dataset(5), 0, seed=0)


class TestPartition:
    def test_even_split(self):
        shards = partition_iid(identity_dataset(100), 20, seed=0)
        assert [s.client_id for s in shards] == list(range(1, 21))
        assert all(s.sample_count == 5 for s in shards)

    def test_remainder_goes_to_early_clients(self):
        shards = partition_iid(identity_dataset(101), 20, seed=0)
        sizes = [s.sample_count for s in shards]
        assert sorted(sizes, reverse=True) == sizes  # larger shards first
        assert sizes.count(6) == 1 and sizes.count(5) == 19

    def test_disjoint_and_exhaustive(self):
        n = 53
        shards = partition_iid(identity_dataset(n), 7, seed=11)
        seen: list[int] = []
        for s in shards:
            ids = row_ids(s.dataset)
            assert ids == sorted(ids)  # within-shard order follows the source
            seen.extend(ids)
        assert len(seen) == n
        assert set(seen) == set(range(n))

    def test_deterministic_but_seed_sensitive(self):
        ds = identity_dataset(40)
        a = partition_iid(ds, 4, seed=1)
        b = partition_iid(ds, 4, seed=1)
        c = partition_iid(ds, 4, seed=2)
        assert [row_ids(s.dataset) for s in a] == [row_ids(s.dataset) for s in b]
        assert [row_ids(s.dataset) for s in a] != [row_ids(s.dataset) for s in c]

    def test_rejects_more_clients_than_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            partition_iid(identity_dataset(3), 4, seed=0)


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(identity_dataset(1000), 0.2, seed=0)
        assert train.num_samples == 800
        assert test.num_samples == 200

    def test_disjoint_and_exhaustive(self):
        ds = identity_dataset(97)
        train, test = train_test_split(ds, 0.3, seed=4)
        train_ids, test_ids = set(row_ids(train)), set(row_ids(test))
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(range(97))

    def test_tiny_fraction_still_leaves_one_test_sample(self):
        train, test = train_test_split(identity_dataset(10), 0.001, seed=0)
        assert test.num_samples == 1
        assert train.num_samples == 9

    def test_deterministic(self):
        ds = identity_dataset(50)
        a = train_test_split(ds, 0.2, seed=7)
        b = train_test_split(ds, 0.2, seed=7)
        assert row_ids(a[0]) == row_ids(b[0])
        assert row_ids(a[1]) == row_ids(b[1])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range_fraction(self, bad):
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(identity_dataset(10), bad, seed=0)


# ---------------------------------------------------------------------------
# Census-income loader


def adult_row(age="39", workclass="Private", fnlwgt="100000", education="Bachelors",
              edu_num="13", marital="Never-married", occupation="Sales",
              relationship="Not-in-family", race="White", sex="Male",
              gain="0", loss="0", hours="40", country="United-States",
              income="<=50K") -> str:
    return ", ".join([age, workclass, fnlwgt, education, edu_num, marital,
                      occupation, relationship, race, sex, gain, loss, hours,
                      country, income])


def write_adult_dir(tmp_path, data_rows, test_rows=()):
    d = tmp_path / "adult"
    d.mkdir()
    (d / "adult.data").write_text("\n".join(data_rows) + "\n")
    if test_rows:
        banner = "|1x3 Cross validator\n"
        (d / "adult.test").write_text(banner + "\n".join(test_rows) + "\n")
    return d


class TestAdultLoader:
    def test_reads_pair_skips_banner_strips_dots(self, tmp_path):
        d = write_adult_dir(
            tmp_path,
            [adult_row(), adult_row(age="50", income=">50K")],
            [adult_row(age="25", income="<=50K."), adult_row(age="60", income=">50K.")],
        )
        records = read_adult_records(d)
        assert len(records) == 4
        assert [r[14] for r in records] == ["<=50K", ">50K", "<=50K", ">50K"]

    def test_single_file_path(self, tmp_path):
        fp = tmp_path / "adult.data"
        fp.write_text(adult_row() + "\n\n" + adult_row(age="44") + "\n")
        assert len(read_adult_records(fp)) == 2

    def test_rejects_wrong_field_count(self, tmp_path):
        fp = tmp_path / "adult.data"
        fp.write_text(adult_row() + "\n39, Private, 100\n")
        with pytest.raises(IngestionError, match=":2: expected 15 fields"):
            read_adult_records(fp)

    def test_rejects_empty_directory(self, tmp_path):
        d = tmp_path / "adult"
        d.mkdir()
        with pytest.raises(IngestionError, match="no adult.data"):
            read_adult_records(d)

    def test_drops_incomplete_rows(self, tmp_path):
        d = write_adult_dir(tmp_path, [
            adult_row(),
            adult_row(age="50", occupation="?", income=">50K"),
            adult_row(age="31", sex="Female", income=">50K"),
        ])
        ds = load_adult(d)
        assert ds.num_samples == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_keep_missing_makes_question_mark_a_category(self, tmp_path):
        d = write_adult_dir(tmp_path, [
            adult_row(),
            adult_row(occupation="?"),
        ])
        ds = load_adult(d, drop_missing=False)
        assert ds.num_samples == 2
        # 6 numerics + 7 single-valued categoricals + 2 occupation values,
        # with "?" kept as a category of its own
        assert ds.inputs.shape[1] == 6 + 7 + 2

    def test_feature_layout_and_values(self, tmp_path):
        d = write_adult_dir(tmp_path, [
            adult_row(age="20", sex="Male", gain="100"),
            adult_row(age="40", sex="Female", gain="300", income=">50K"),
        ])
        ds = load_adult(d)
        # 6 numeric columns + one one-hot column per distinct category value:
        # every categorical has exactly 1 distinct value except sex (2).
        assert ds.inputs.shape == (2, 6 + 7 * 1 + 2)
        # column order: age wc fnlwgt edu edu-num marital occ rel race
        #               sex sex gain loss hours country
        # age z-scores: mean 30, std 10 -> -1, +1 in column 0
        np.testing.assert_allclose(ds.inputs[:, 0], [-1.0, 1.0], atol=1e-12)
        # gain z-scores: mean 200, std 100
        np.testing.assert_allclose(ds.inputs[:, 11], [-1.0, 1.0], atol=1e-12)
        # constant numeric columns (fnlwgt, capital-loss, hours) collapse to 0
        np.testing.assert_array_equal(ds.inputs[:, [2, 12, 13]], 0.0)
        # single-valued categoricals are a lone all-ones column
        np.testing.assert_array_equal(ds.inputs[:, 1], 1.0)
        # sex block is sorted: Female first
        female_col, male_col = 9, 10
        np.testing.assert_array_equal(ds.inputs[:, female_col], [0.0, 1.0])
        np.testing.assert_array_equal(ds.inputs[:, male_col], [1.0, 0.0])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_numeric_columns_are_z_scored(self, tmp_path):
        rows = [adult_row(age=str(20 + 3 * i), hours=str(30 + i),
                          income=">50K" if i % 2 else "<=50K") for i in range(8)]
        ds = load_adult(write_adult_dir(tmp_path, rows))
        age = ds.inputs[:, 0]
        assert abs(age.mean()) < 1e-12
        assert age.std() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_label(self, tmp_path):
        d = write_adult_dir(tmp_path, [adult_row(income="50K+")])
        with pytest.raises(IngestionError, match="unexpected income labels"):
            load_adult(d)

    def test_rejects_all_rows_incomplete(self, tmp_path):
        d = write_adult_dir(tmp_path, [adult_row(occupation="?")])
        with pytest.raises(IngestionError, match="all records dropped"):
            load_adult(d)

    def test_non_numeric_value_reports_column(self, tmp_path):
        d = write_adult_dir(tmp_path, [adult_row(age="old")])
        with pytest.raises(IngestionError, match="column 'age'"):
            load_adult(d)


class TestRealAdultFiles:
    """Runs only when the actual census files are on disk."""

    def test_full_record_count(self):
        root = os.environ.get("FEDUNLEARN_DATA_DIR")
        base = Path(root) if root else Path(__file__).resolve().parent.parent / "data"
        data_dir = base / "adult"
        if not (data_dir / "adult.data").exists():
            pytest.skip(f"census income files not found under {data_dir}")
        records = read_adult_records(data_dir)
        assert len(records) == 48842


# ---------------------------------------------------------------------------
# Digit-image loader (idx format)


def idx_bytes(array: np.ndarray) -> bytes:
    array = np.asarray(array, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    dims = struct.pack(f">{array.ndim}I", *array.shape)
    return header + dims + array.tobytes()


def write_mnist_dir(tmp_path, train_images, train_labels, test_images=None,
                    test_labels=None, gz=False):
    d = tmp_path / "mnist"
    d.mkdir(exist_ok=True)
    suffix = ".gz" if gz else ""
    wrap = gzip.compress if gz else bytes
    (d / f"train-images-idx3-ubyte{suffix}").write_bytes(wrap(idx_bytes(train_images)))
    (d / f"train-labels-idx1-ubyte{suffix}").write_bytes(wrap(idx_bytes(train_labels)))
    if test_images is not None:
        (d / f"t10k-images-idx3-ubyte{suffix}").write_bytes(wrap(idx_bytes(test_images)))
        (d / f"t10k-labels-idx1-ubyte{suffix}").write_bytes(wrap(idx_bytes(test_labels)))
    return d


class TestMnistLoader:
    def test_scales_pads_and_concatenates(self, tmp_path):
        train = np.zeros((3, 28, 28), dtype=np.uint8)
        train[0, 0, 0] = 255
        train[1, 27, 27] = 51
        test = np.zeros((2, 28, 28), dtype=np.uint8)
        d = write_mnist_dir(tmp_path, train, np.array([1, 2, 3]),
                            test, np.array([4, 5]))
        ds = load_mnist(d)
        assert ds.inputs.shape == (5, 1, 32, 32)
        assert ds.num_classes == 10
        np.testing.assert_array_equal(ds.labels, [1, 2, 3, 4, 5])
        # 28x28 content sits centered at offset (2, 2)
        assert ds.inputs[0, 0, 2, 2] == 1.0
        assert ds.inputs[1, 0, 29, 29] == pytest.approx(51 / 255)
        assert ds.inputs[:, :, :2, :].max() == 0.0

    def test_gzip_by_suffix(self, tmp_path):
        d = write_mnist_dir(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.array([0, 9]), gz=True)
        ds = load_mnist(d)
        assert ds.num_samples == 2
        np.testing.assert_array_equal(ds.labels, [0, 9])

    def test_gzip_sniffed_without_suffix(self, tmp_path):
        d = tmp_path / "mnist"
        d.mkdir()
        imgs = np.zeros((1, 28, 28), dtype=np.uint8)
        (d / "train-images-idx3-ubyte").write_bytes(gzip.compress(idx_bytes(imgs)))
        (d / "train-labels-idx1-ubyte").write_bytes(gzip.compress(idx_bytes(np.array([7]))))
        ds = load_mnist(d)
        assert ds.labels[0] == 7

    def test_plain_files_are_sniffed_without_reading_them_whole(self, tmp_path, monkeypatch):
        d = write_mnist_dir(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.array([3, 4]))

        def read_whole(self):
            raise AssertionError(f"{self} read whole")

        monkeypatch.setattr(Path, "read_bytes", read_whole)
        np.testing.assert_array_equal(load_mnist(d).labels, [3, 4])

    def test_already_32_not_padded(self, tmp_path):
        imgs = np.full((1, 32, 32), 255, dtype=np.uint8)
        d = write_mnist_dir(tmp_path, imgs, np.array([0]))
        ds = load_mnist(d)
        assert ds.inputs.min() == 1.0  # no zero border introduced

    def test_rejects_bad_magic(self, tmp_path):
        d = tmp_path / "mnist"
        d.mkdir()
        (d / "train-images-idx3-ubyte").write_bytes(b"\x01\x02\x03\x04rest")
        (d / "train-labels-idx1-ubyte").write_bytes(idx_bytes(np.array([0])))
        with pytest.raises(IngestionError, match="not an idx file"):
            load_mnist(d)

    def test_rejects_non_byte_dtype(self, tmp_path):
        d = tmp_path / "mnist"
        d.mkdir()
        bad = struct.pack(">BBBB", 0, 0, 0x0D, 1) + struct.pack(">I", 1) + b"\x00" * 4
        (d / "train-images-idx3-ubyte").write_bytes(bad)
        (d / "train-labels-idx1-ubyte").write_bytes(idx_bytes(np.array([0])))
        with pytest.raises(IngestionError, match="unsigned-byte"):
            load_mnist(d)

    def test_rejects_payload_size_mismatch(self, tmp_path):
        d = tmp_path / "mnist"
        d.mkdir()
        blob = idx_bytes(np.zeros((2, 28, 28), dtype=np.uint8))
        (d / "train-images-idx3-ubyte").write_bytes(blob[:-10])
        (d / "train-labels-idx1-ubyte").write_bytes(idx_bytes(np.array([0, 1])))
        with pytest.raises(IngestionError, match="header says"):
            load_mnist(d)

    def test_rejects_count_mismatch(self, tmp_path):
        d = write_mnist_dir(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.array([0, 1, 2]))
        with pytest.raises(IngestionError, match="disagree on sample count"):
            load_mnist(d)

    def test_rejects_empty_directory(self, tmp_path):
        d = tmp_path / "mnist"
        d.mkdir()
        with pytest.raises(IngestionError, match="no idx image/label pairs"):
            load_mnist(d)


# ---------------------------------------------------------------------------
# Image-batch loader (3073-byte records)


class TestCifarLoader:
    def test_parses_records(self, tmp_path):
        d = tmp_path / "cifar"
        d.mkdir()
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(2, 3072), dtype=np.uint8)
        rec = np.hstack([np.array([[3], [9]], dtype=np.uint8), pixels])
        (d / "data_batch_1.bin").write_bytes(rec.tobytes())
        ds = load_cifar10(d)
        assert ds.inputs.shape == (2, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, [3, 9])
        np.testing.assert_allclose(
            ds.inputs[0].ravel(), pixels[0].astype(np.float64) / 255.0
        )

    def test_single_file(self, tmp_path):
        rec = np.zeros((1, 3073), dtype=np.uint8)
        fp = tmp_path / "batch.bin"
        fp.write_bytes(rec.tobytes())
        assert load_cifar10(fp).num_samples == 1

    def test_rejects_truncated_file(self, tmp_path):
        fp = tmp_path / "batch.bin"
        fp.write_bytes(b"\x00" * 3072)
        with pytest.raises(IngestionError, match="multiple of 3073"):
            load_cifar10(fp)

    def test_rejects_label_above_nine(self, tmp_path):
        rec = np.zeros((1, 3073), dtype=np.uint8)
        rec[0, 0] = 10
        fp = tmp_path / "batch.bin"
        fp.write_bytes(rec.tobytes())
        with pytest.raises(IngestionError, match="label byte above 9"):
            load_cifar10(fp)

    def test_rejects_empty_directory(self, tmp_path):
        d = tmp_path / "cifar"
        d.mkdir()
        with pytest.raises(IngestionError, match="no .bin batches"):
            load_cifar10(d)


# ---------------------------------------------------------------------------
# Transaction-basket loader


def write_purchase_csv(tmp_path, rows, header="customer_id,item_id"):
    fp = tmp_path / "purchases.csv"
    fp.write_text(header + "\n" + "\n".join(rows) + "\n")
    return fp


class TestPurchaseLoader:
    def test_basket_matrix_over_top_items(self, tmp_path):
        # item "milk" appears 3 times, "eggs" twice, "jam" twice, "rare" once.
        rows = [
            "alice,milk", "alice,eggs",
            "bob,milk", "bob,jam",
            "carol,milk", "carol,eggs", "carol,jam", "carol,rare",
            "dave,rare2",
        ]
        fp = write_purchase_csv(tmp_path, rows)
        ds = load_purchase(fp, seed=0, num_items=3, num_classes=2)
        # customers sorted; columns = top-3 items by (count desc, name asc):
        # milk(3), eggs(2), jam(2)
        assert ds.inputs.shape == (4, 3)
        expected = np.array([
            [1, 1, 0],  # alice
            [1, 0, 1],  # bob
            [1, 1, 1],  # carol
            [0, 0, 0],  # dave (only bought items outside the top 3)
        ], dtype=np.float64)
        np.testing.assert_array_equal(ds.inputs, expected)
        assert ds.num_classes == 2

    def test_clusters_separable_customers_consistently(self, tmp_path):
        rows = []
        for i in range(6):
            rows += [f"a{i},breada", f"a{i},buttera"]
        for i in range(6):
            rows += [f"b{i},screwb", f"b{i},nailb"]
        fp = write_purchase_csv(tmp_path, rows)
        ds = load_purchase(fp, seed=1, num_items=4, num_classes=2)
        labels = ds.labels  # customers sorted: a0..a5 then b0..b5
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_rejects_missing_column(self, tmp_path):
        fp = write_purchase_csv(tmp_path, ["x,y"], header="customer_id,sku")
        with pytest.raises(IngestionError, match="lacks"):
            load_purchase(fp, seed=0)

    def test_custom_column_names(self, tmp_path):
        fp = write_purchase_csv(tmp_path, ["c1,i1", "c2,i2"], header="buyer,sku")
        ds = load_purchase(fp, seed=0, num_items=2, num_classes=2,
                           customer_col="buyer", item_col="sku")
        assert ds.num_samples == 2

    def test_rejects_short_record(self, tmp_path):
        fp = write_purchase_csv(tmp_path, ["alice,milk", "bob"])
        with pytest.raises(IngestionError, match=":3: short record"):
            load_purchase(fp, seed=0)

    def test_rejects_empty_ids(self, tmp_path):
        fp = write_purchase_csv(tmp_path, ["alice,"])
        with pytest.raises(IngestionError, match="empty customer or item"):
            load_purchase(fp, seed=0)

    def test_rejects_empty_file(self, tmp_path):
        fp = tmp_path / "purchases.csv"
        fp.write_text("")
        with pytest.raises(IngestionError, match="is empty"):
            load_purchase(fp, seed=0)


class TestPurchaseLabels:
    def test_assignment_is_a_fixed_point(self):
        rng = np.random.default_rng(2)
        records = (rng.random((40, 8)) < 0.3).astype(np.float64)
        labels = assign_purchase_labels(records, 3, seed=5)
        assert set(np.unique(labels)) == {0, 1, 2}
        # every record must sit with the centroid of its own cluster
        centroids = np.array([records[labels == c].mean(axis=0) for c in range(3)])
        d = ((records[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(d.argmin(axis=1), labels)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        records = (rng.random((30, 6)) < 0.4).astype(np.float64)
        a = assign_purchase_labels(records, 2, seed=9)
        b = assign_purchase_labels(records, 2, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            assign_purchase_labels(np.eye(4), 1, seed=0)

    def test_rejects_k_above_distinct_rows(self):
        records = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="exceeds the 2 distinct"):
            assign_purchase_labels(records, 3, seed=0)


# ---------------------------------------------------------------------------
# Config and dispatcher


def config_kwargs(**overrides):
    base = dict(dataset="synthetic", num_clients=4, global_rounds=6,
                local_epochs=2, retain_interval=2, calibration_ratio=0.5,
                learning_rate=0.1, batch_size=8, seed=0, target_client=1)
    base.update(overrides)
    return base


class TestFedConfig:
    def test_valid(self):
        cfg = FedConfig(**config_kwargs())
        assert cfg.num_clients == 4

    @pytest.mark.parametrize("field,value,phrase", [
        ("num_clients", 1, "num_clients"),
        ("global_rounds", 0, "global_rounds"),
        ("local_epochs", 0, "local_epochs"),
        ("retain_interval", 0, "retain_interval"),
        ("retain_interval", 7, "retain_interval"),
        ("calibration_ratio", 0.0, "calibration_ratio"),
        ("calibration_ratio", 1.2, "calibration_ratio"),
        ("learning_rate", 0.0, "learning_rate"),
        ("batch_size", 0, "batch_size"),
        ("target_client", 0, "target_client"),
        ("target_client", 5, "target_client"),
        ("max_samples", 0, "max_samples"),
        ("synthetic_samples", 0, "synthetic_samples"),
        ("synthetic_features", 0, "synthetic_features"),
        ("synthetic_classes", 1, "synthetic_classes"),
        ("purchase_items", 0, "purchase_items"),
        ("purchase_classes", 1, "purchase_classes"),
        ("hidden_units", 0, "hidden_units"),
        ("attack_epochs", 0, "attack_epochs"),
        ("attack_hidden", 0, "attack_hidden"),
        ("attack_learning_rate", 0.0, "attack_learning_rate"),
        ("eval_batch_size", 0, "eval_batch_size"),
        ("seed", -1, "seed"),
    ])
    def test_rejects_each_bad_field(self, field, value, phrase):
        with pytest.raises(ValueError, match=phrase):
            FedConfig(**config_kwargs(**{field: value}))

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset 'imagenet'"):
            FedConfig(**config_kwargs(dataset="imagenet"))

    def test_reports_all_problems_at_once(self):
        with pytest.raises(ValueError) as err:
            FedConfig(**config_kwargs(num_clients=0, learning_rate=-1, batch_size=0))
        msg = str(err.value)
        assert "num_clients" in msg
        assert "learning_rate" in msg
        assert "batch_size" in msg

    @pytest.mark.parametrize("ratio,epochs,expected", [
        (0.5, 4, 2),
        (0.1, 4, 1),
        (1.0, 4, 4),
        (0.5, 1, 1),
        (0.3, 10, 3),
        (0.26, 4, 2),  # ceil(1.04)
    ])
    def test_calibration_epochs(self, ratio, epochs, expected):
        cfg = FedConfig(**config_kwargs(calibration_ratio=ratio, local_epochs=epochs))
        assert cfg.calibration_epochs == expected


class TestLoadDataset:
    def test_defaults_are_the_synthetic_generators(self):
        ds = load_dataset(FedConfig())
        expected = make_synthetic(1000, 20, 2, seed=0, separation=2.0)
        assert ds.inputs.tobytes() == expected.inputs.tobytes()
        assert ds.labels.tobytes() == expected.labels.tobytes()

    def test_synthetic_kwargs(self):
        ds = load_dataset(FedConfig(seed=3, synthetic_samples=64,
                                    synthetic_features=9, synthetic_classes=3))
        assert ds.inputs.shape == (64, 9)
        assert ds.num_classes == 3

    def test_real_sets_require_path(self):
        with pytest.raises(IngestionError, match="requires a path"):
            load_dataset(FedConfig(dataset="adult"))

    def test_rejects_missing_path(self, tmp_path):
        with pytest.raises(IngestionError, match="does not exist"):
            load_dataset(FedConfig(dataset="adult", path=str(tmp_path / "nope")))

    def test_max_samples_caps_size(self):
        ds = load_dataset(FedConfig(synthetic_samples=500, max_samples=120))
        assert ds.num_samples == 120

    def test_adult_through_dispatcher(self, tmp_path):
        d = write_adult_dir(tmp_path, [adult_row(), adult_row(age="52", income=">50K")])
        ds = load_dataset(FedConfig(dataset="adult", path=str(d)))
        assert ds.name == "adult"
        assert ds.num_samples == 2

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10", "purchase"])
    def test_file_sets_through_prepare_data_and_their_presets(self, tmp_path, dataset):
        rng = np.random.default_rng(1)
        if dataset == "mnist":
            path = write_mnist_dir(tmp_path, rng.integers(0, 256, size=(10, 28, 28)),
                                   rng.integers(0, 10, size=10))
            preset = mnist_arch()
        elif dataset == "cifar10":
            path = tmp_path / "cifar"
            path.mkdir()
            records = rng.integers(0, 256, size=(10, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            (path / "data_batch_1.bin").write_bytes(records.tobytes())
            preset = cifar10_arch()
        else:
            path = write_purchase_csv(tmp_path, [f"c{i},item{(i + j) % 6}"
                                                 for i in range(10) for j in range(3)])
            preset = purchase_arch(4, num_classes=2)
        config = FedConfig(dataset=dataset, path=str(path), num_clients=2,
                           purchase_items=4, purchase_classes=2)
        train, test, shards = prepare_data(config)
        assert train.name == dataset
        assert (train.num_samples, test.num_samples) == (8, 2)
        assert [s.sample_count for s in shards] == [4, 4]
        arch = build_arch(config, train)
        assert arch.arch_hash() == preset.arch_hash()
        first = shards[0].dataset
        probs = forward(arch, build_model(arch, 0), Batch(first.inputs, first.labels))
        assert probs.shape == (4, train.num_classes)
