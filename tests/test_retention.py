"""Retention schedule and the on-disk update store, including corruption
detection and crash-safety details."""

import json
import struct
import zlib

import numpy as np
import pytest

from fedunlearn.federation import ClientUpdate, aggregate
from fedunlearn.nn import ParamSet, dump_param_bytes
from fedunlearn.retention import (
    IntegrityError,
    RetentionStore,
    StoreFingerprint,
    schedule,
)


FP = StoreFingerprint(arch_hash="abc123", num_clients=3, global_rounds=4,
                      retain_interval=2, seed=5)


DENSE = (("w", (3, 2)), ("b", (2,)))
CONV = (("layer0.weight", (2, 1, 3, 3)), ("layer0.bias", (2,)),
        ("layer3.weight", (8, 3)), ("layer3.bias", (3,)))


def make_updates(round_index, num_clients=3, seed=0, with_loss=True, shapes=DENSE):
    rng = np.random.default_rng(seed + round_index)
    return [
        ClientUpdate(
            client_id=cid,
            round_index=round_index,
            delta=ParamSet([(name, rng.normal(size=shape)) for name, shape in shapes]),
            sample_count=int(rng.integers(1, 50)),
            train_loss=float(rng.random()) if with_loss else None,
        )
        for cid in range(1, num_clients + 1)
    ]


def full_store(tmp_path, fingerprint=FP):
    store = RetentionStore.create(tmp_path / "store", fingerprint)
    for r in store.retained_rounds:
        store.store_round(r, make_updates(r, fingerprint.num_clients))
    return store


def replace_blob(store, round_index, client_id, payload: bytes) -> RetentionStore:
    """Write `payload` as the client's blob with a valid trailing CRC, record
    that CRC in its manifest entry, and reopen the store: a blob that every
    checksum vouches for, so only what its bytes say can refuse it."""
    crc = zlib.crc32(payload)
    (store.root / f"round_{round_index}" / f"client_{client_id}.fesp").write_bytes(
        payload + struct.pack("<I", crc))
    path = store.root / "manifest.json"
    doc = json.loads(path.read_text())
    doc["rounds"][str(round_index)][str(client_id)]["blob_crc"] = crc
    path.write_text(json.dumps(doc))
    return RetentionStore.open(store.root)


class TestSchedule:
    @pytest.mark.parametrize("rounds,interval,expected", [
        (10, 2, [1, 3, 5, 7, 9]),
        (10, 1, list(range(1, 11))),
        (7, 3, [1, 4]),
        (5, 5, [1]),
        (1, 1, [1]),
        (6, 4, [1]),
    ])
    def test_known_schedules(self, rounds, interval, expected):
        assert schedule(rounds, interval) == expected

    def test_first_round_always_retained(self):
        for rounds in range(1, 30):
            for interval in range(1, rounds + 1):
                assert schedule(rounds, interval)[0] == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="global_rounds"):
            schedule(0, 1)
        with pytest.raises(ValueError, match="interval"):
            schedule(5, 0)
        with pytest.raises(ValueError, match="interval"):
            schedule(5, 6)


class TestLifecycle:
    def test_create_writes_manifest(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        assert (tmp_path / "store" / "manifest.json").exists()
        assert store.retained_rounds == [1, 3]

    def test_create_refuses_existing_store(self, tmp_path):
        RetentionStore.create(tmp_path / "store", FP)
        with pytest.raises(IntegrityError, match="already exists"):
            RetentionStore.create(tmp_path / "store", FP)

    def test_open_restores_fingerprint_and_entries(self, tmp_path):
        store = full_store(tmp_path)
        reopened = RetentionStore.open(store.root)
        assert reopened.fingerprint == FP
        assert reopened.retained_rounds == [1, 3]
        for round_index in (1, 3):
            assert reopened.load_round(round_index) == store.load_round(round_index)
            for client in (1, 2, 3):
                reopened.load_norms(round_index, client)

    def test_open_without_manifest(self, tmp_path):
        with pytest.raises(IntegrityError, match="no manifest"):
            RetentionStore.open(tmp_path)

    def test_open_with_garbage_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(IntegrityError, match="unreadable manifest"):
            RetentionStore.open(tmp_path)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = full_store(tmp_path)
        assert not list(store.root.rglob("*.tmp"))


class TestStoreRound:
    def test_round_trip_is_bit_exact(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        updates = make_updates(3)
        store.store_round(3, updates)
        for original in updates:
            loaded = store.load_client(3, original.client_id)
            assert loaded.delta == original.delta
            assert loaded.sample_count == original.sample_count
            assert loaded.train_loss == original.train_loss
            assert loaded.round_index == 3

    def test_round_trip_survives_reopen(self, tmp_path):
        store = full_store(tmp_path)
        reopened = RetentionStore.open(store.root)
        for r in store.retained_rounds:
            for cid in range(1, 4):
                assert reopened.load_client(r, cid).delta == store.load_client(r, cid).delta

    def test_none_train_loss_round_trips(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        store.store_round(1, make_updates(1, with_loss=False))
        assert store.load_client(1, 2).train_loss is None

    def test_restore_overwrites_cleanly(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        store.store_round(1, make_updates(1, seed=0))
        second = make_updates(1, seed=99)
        store.store_round(1, second)
        assert store.load_client(1, 1).delta == second[0].delta

    def test_rejects_unscheduled_round(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        with pytest.raises(ValueError, match="not in the retention schedule"):
            store.store_round(2, make_updates(2))

    def test_rejects_missing_client(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        with pytest.raises(ValueError, match="need all of 1..3"):
            store.store_round(1, make_updates(1)[:2])

    def test_rejects_update_from_other_round(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        updates = make_updates(1)[:2] + [make_updates(3)[2]]
        with pytest.raises(ValueError, match="client 3 is from round 3"):
            store.store_round(1, updates)


class TestIntegrity:
    def test_corrupt_byte_is_detected(self, tmp_path):
        store = full_store(tmp_path)
        blob_path = store.root / "round_3" / "client_2.fesp"
        blob = bytearray(blob_path.read_bytes())
        blob[20] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum mismatch for round 3 client 2"):
            store.load_client(3, 2)

    def test_truncated_blob_is_detected(self, tmp_path):
        store = full_store(tmp_path)
        blob_path = store.root / "round_1" / "client_1.fesp"
        blob_path.write_bytes(blob_path.read_bytes()[:3])
        with pytest.raises(IntegrityError, match="truncated blob for round 1 client 1"):
            store.load_client(1, 1)

    def test_valid_crc_but_undecodable_payload(self, tmp_path):
        store = replace_blob(full_store(tmp_path), 1, 3, b"XXXX not a parameter blob")
        with pytest.raises(IntegrityError, match="undecodable blob for round 1 client 3"):
            store.load_client(1, 3)

    @pytest.mark.parametrize("aggregation", [None, "standard"])
    def test_swapped_self_consistent_blobs_are_refused(self, tmp_path, aggregation):
        store = full_store(tmp_path)
        first, second = (store.root / "round_3" / f"client_{c}.fesp" for c in (1, 2))
        blobs = first.read_bytes(), second.read_bytes()
        first.write_bytes(blobs[1])
        second.write_bytes(blobs[0])
        with pytest.raises(IntegrityError,
                           match="blob for round 3 client 1 is not the one its manifest entry"):
            store.load_round(3, [1, 2], aggregation=aggregation)
        store.load_client(3, 3)  # the other blobs still check out

    def test_manifest_without_blob_crc(self, tmp_path):
        store = full_store(tmp_path)
        path = store.root / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["rounds"]["1"]["2"]["blob_crc"]
        path.write_text(json.dumps(doc))
        reopened = RetentionStore.open(store.root)
        with pytest.raises(IntegrityError, match="round 1 client 2: .* re-run `fedunlearn train`"):
            reopened.load_client(1, 2)

    def test_missing_blob_file(self, tmp_path):
        store = full_store(tmp_path)
        (store.root / "round_3" / "client_1.fesp").unlink()
        with pytest.raises(IntegrityError, match="missing blob for round 3 client 1"):
            store.load_client(3, 1)

    def test_tampered_norms_are_detected(self, tmp_path):
        store = full_store(tmp_path)
        path = store.root / "manifest.json"
        doc = json.loads(path.read_text())
        doc["rounds"]["3"]["1"]["sq_norms"][1] += 1e-9
        path.write_text(json.dumps(doc))
        reopened = RetentionStore.open(store.root)
        with pytest.raises(IntegrityError, match="norms checksum mismatch for round 3 client 1"):
            reopened.load_norms(3, 1)
        reopened.load_norms(3, 2)  # the other entries still check out

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda entry: entry["sq_norms"].__setitem__(0, "x"), id="not-numeric"),
        pytest.param(lambda entry: entry.pop("sq_norms_crc"), id="crc-missing"),
    ])
    def test_malformed_norms_entry(self, tmp_path, damage):
        store = full_store(tmp_path)
        path = store.root / "manifest.json"
        doc = json.loads(path.read_text())
        damage(doc["rounds"]["3"]["1"])
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="norms checksum mismatch for round 3 client 1"):
            RetentionStore.open(store.root).load_norms(3, 1)

    def test_manifest_without_norms(self, tmp_path):
        store = full_store(tmp_path)
        path = store.root / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["rounds"]["1"]["2"]["sq_norms"]
        path.write_text(json.dumps(doc))
        reopened = RetentionStore.open(store.root)
        with pytest.raises(IntegrityError, match="re-run `fedunlearn train`"):
            reopened.load_norms(1, 2)

    def test_unknown_entry(self, tmp_path):
        store = RetentionStore.create(tmp_path / "store", FP)
        with pytest.raises(IntegrityError, match="no stored update for round 1 client 1"):
            store.load_client(1, 1)

    def test_manifest_is_valid_json_with_sample_counts(self, tmp_path):
        store = full_store(tmp_path)
        doc = json.loads((store.root / "manifest.json").read_text())
        assert doc["fingerprint"]["num_clients"] == 3
        assert doc["retained_rounds"] == [1, 3]
        entry = doc["rounds"]["1"]["2"]
        assert entry["path"] == "round_1/client_2.fesp"
        assert entry["sample_count"] >= 1


class TestNorms:
    def test_manifest_records_each_tensors_sum_of_squares(self, tmp_path):
        store = full_store(tmp_path)
        update = make_updates(3)[1]
        stored = RetentionStore.open(store.root).load_norms(3, 2)
        assert (stored.round_index, stored.client_id) == (3, 2)
        assert stored.sample_count == update.sample_count
        for root, (_, t) in zip(np.sqrt(stored.sq_norms), update.delta.items()):
            assert root == np.linalg.norm(t)
        assert stored.load() == update.delta

    def test_norms_are_read_without_the_blob(self, tmp_path):
        store = full_store(tmp_path)
        (store.root / "round_3" / "client_2.fesp").unlink()
        stored = store.load_norms(3, 2)
        assert store.bytes_read == 0
        with pytest.raises(IntegrityError, match="missing blob for round 3 client 2"):
            stored.load()

    def test_bytes_read_counts_blob_bytes(self, tmp_path):
        store = full_store(tmp_path)
        store.load_round(1)
        store.load_client(3, 2)
        assert store.bytes_read == sum(
            (store.root / rel).stat().st_size
            for rel in ("round_1/client_1.fesp", "round_1/client_2.fesp",
                        "round_1/client_3.fesp", "round_3/client_2.fesp"))


class TestLoadRound:
    def test_returns_ascending_client_order(self, tmp_path):
        store = full_store(tmp_path)
        updates = store.load_round(3)
        assert [u.client_id for u in updates] == [1, 2, 3]

    def test_explicit_subset(self, tmp_path):
        store = full_store(tmp_path)
        updates = store.load_round(1, client_ids=[3, 1])
        assert [u.client_id for u in updates] == [1, 3]

    def test_rejects_unscheduled_round(self, tmp_path):
        store = full_store(tmp_path)
        with pytest.raises(ValueError, match="not in the retention schedule"):
            store.load_round(4)


class TestAccounting:
    def test_completeness_tracks_schedule(self, tmp_path):
        # the manifest names the stored updates once every scheduled round is in
        store = RetentionStore.create(tmp_path / "store", FP)
        store.store_round(1, make_updates(1))
        with pytest.raises(IntegrityError, match="no stored update for round 1 client 1"):
            RetentionStore.open(store.root).load_client(1, 1)
        store.store_round(3, make_updates(3))
        assert RetentionStore.open(store.root).load_round(1) == store.load_round(1)

    def test_total_blob_bytes_matches_files(self, tmp_path):
        store = full_store(tmp_path)
        expected = sum(
            p.stat().st_size for p in store.root.rglob("client_*.fesp")
        )
        assert store.total_blob_bytes() == expected
        # 2 rounds x 3 clients, each blob: 12-byte header + 2 tensors
        # (name+rank+dims+data) + 4-byte checksum
        per_blob = 12 + (4 + 1 + 4 + 8 + 48) + (4 + 1 + 4 + 4 + 16) + 4
        assert store.total_blob_bytes() == 6 * per_blob


class TestCopyFreeIO:
    """Blobs are written from views of the deltas and read through one
    reused buffer; nothing read may alias that buffer."""

    @pytest.mark.parametrize("shapes", [DENSE, CONV], ids=["dense", "conv"])
    def test_blob_is_the_dump_and_its_crc(self, tmp_path, shapes):
        store = RetentionStore.create(tmp_path / "store", FP)
        updates = make_updates(1, shapes=shapes)
        store.store_round(1, updates)
        for u in updates:
            payload = dump_param_bytes(u.delta)
            blob = (store.root / f"round_1/client_{u.client_id}.fesp").read_bytes()
            assert blob == payload + struct.pack("<I", zlib.crc32(payload))
        assert not list(store.root.rglob("*.tmp"))

    def test_loaded_deltas_do_not_alias_the_read_buffer(self, tmp_path):
        store = full_store(tmp_path)
        one = store.load_client(1, 1).delta
        first = store.load_round(1)
        folded = store.load_round(3, aggregation="standard")
        store.load_round(3)
        store.load_client(1, 3)
        assert one == make_updates(1)[0].delta
        assert [u.delta for u in first] == [u.delta for u in make_updates(1)]
        assert folded == aggregate(make_updates(3))

    def test_fold_needs_every_requested_entry(self, tmp_path):
        store = full_store(tmp_path)
        with pytest.raises(IntegrityError, match="no stored update for round 1 client 4"):
            store.load_round(1, client_ids=[1, 4], aggregation="standard")
        with pytest.raises(ValueError, match="duplicate client ids"):
            store.load_round(1, client_ids=[2, 2], aggregation="standard")

    def test_flipped_byte_is_caught_by_the_fold(self, tmp_path):
        store = full_store(tmp_path)
        blob_path = store.root / "round_3" / "client_2.fesp"
        blob = bytearray(blob_path.read_bytes())
        blob[-20] ^= 0x01
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum mismatch for round 3 client 2"):
            store.load_round(3, client_ids=[1, 2, 3], aggregation="standard")

    def test_non_finite_blob_with_a_valid_crc_is_caught_by_the_fold(self, tmp_path):
        payload = bytearray(dump_param_bytes(make_updates(1)[2].delta))
        payload[-8:] = struct.pack("<d", float("nan"))  # the last value of "b"
        store = replace_blob(full_store(tmp_path), 1, 3, bytes(payload))
        with pytest.raises(IntegrityError,
                           match="round 1 client 3: tensor 'b' contains non-finite values"):
            store.load_round(1, aggregation="literal")
