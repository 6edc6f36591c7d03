"""On-disk retention of per-client updates at scheduled rounds.

The store is a directory: `manifest.json` names the run it belongs to and
references every stored blob together with the CRC32 of its payload, its
client's sample count and the update's per-tensor sums of squares (with a
CRC32 of their little-endian float64 bytes); blobs live at
`round_<t>/client_<k>.fesp` in the shared parameter-set format plus a
trailing CRC32. Calibration after the first
retained round needs only the norms, so it reads the manifest instead of the
blobs. Blob and manifest writes are atomic (temp file + rename), so a crashed
run never leaves a torn file behind the manifest's back.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import FedConfig
from .federation import ClientUpdate, RoundSum
from .nn import ArchSpec, ParamSet, atomic_write, param_chunks
from .nn.params import ParamReader

MANIFEST_NAME = "manifest.json"


class IntegrityError(RuntimeError):
    """A stored update is corrupt or the store does not match the run."""


def schedule(global_rounds: int, interval: int) -> list[int]:
    """The retained rounds: 1, 1+interval, 1+2*interval, ... — exactly
    floor(global_rounds / interval) of them, so the first round is always
    retained and the spacing is uniform."""
    if global_rounds < 1:
        raise ValueError("global_rounds must be at least 1")
    if not 1 <= interval <= global_rounds:
        raise ValueError("interval must be in [1, global_rounds]")
    return [1 + j * interval for j in range(global_rounds // interval)]


@dataclass(frozen=True)
class StoreFingerprint:
    """Identifies the run a store belongs to; mismatches are hard errors."""

    arch_hash: str
    num_clients: int
    global_rounds: int
    retain_interval: int
    seed: int

    @classmethod
    def of(cls, arch: ArchSpec, config: FedConfig) -> StoreFingerprint:
        """The fingerprint of a run of `config` on `arch`."""
        return cls(
            arch_hash=arch.arch_hash(),
            num_clients=config.num_clients,
            global_rounds=config.global_rounds,
            retain_interval=config.retain_interval,
            seed=config.seed,
        )


@dataclass(frozen=True)
class StoredNorms:
    """One stored update as its manifest entry records it: the client's
    sample count and the per-tensor sums of squares of the delta, already
    checked against their CRC. `load` reads the delta itself from its blob."""

    round_index: int
    client_id: int
    sample_count: int
    sq_norms: np.ndarray
    load: Callable[[], ParamSet]


def _norms_crc(sq_norms: np.ndarray) -> int:
    return zlib.crc32(np.asarray(sq_norms, dtype="<f8").tobytes())


class RetentionStore:
    """Directory-backed store of client updates at the scheduled rounds.

    `bytes_read` counts the blob bytes this instance has read, and
    `manifest_crc` is the CRC32 of the manifest it last read or wrote."""

    def __init__(self, root: Path, fingerprint: StoreFingerprint,
                 entries: dict[int, dict[int, dict]] | None = None,
                 manifest_crc: int | None = None):
        self.root = root
        self.fingerprint = fingerprint
        self.retained_rounds = schedule(
            fingerprint.global_rounds, fingerprint.retain_interval
        )
        # entries[round][client] = {"path": ..., "blob_crc": ..., "sample_count": ...,
        #   "train_loss": ..., "sq_norms": [...], "sq_norms_crc": ...}
        self._entries: dict[int, dict[int, dict]] = entries or {}
        self.bytes_read = 0
        self.manifest_crc = manifest_crc
        self._reader = ParamReader()
        self._buffer = bytearray()  # every blob is read into this one buffer

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, fingerprint: StoreFingerprint) -> "RetentionStore":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            raise IntegrityError(f"store already exists at {root}")
        store = cls(root, fingerprint)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "RetentionStore":
        root = Path(root)
        manifest = root / MANIFEST_NAME
        if not manifest.exists():
            raise IntegrityError(f"no manifest at {root}")
        data = manifest.read_bytes()
        try:
            raw = json.loads(data)
            fingerprint = StoreFingerprint(**raw["fingerprint"])
            entries = {
                int(r): {int(c): e for c, e in clients.items()}
                for r, clients in raw["rounds"].items()
            }
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"unreadable manifest at {root}: {exc}") from None
        return cls(root, fingerprint, entries, zlib.crc32(data))

    def _write_manifest(self) -> None:
        doc = {
            "fingerprint": asdict(self.fingerprint),
            "retained_rounds": self.retained_rounds,
            "rounds": {
                str(r): {str(c): e for c, e in sorted(clients.items())}
                for r, clients in sorted(self._entries.items())
            },
        }
        self.manifest_crc = atomic_write(
            self.root / MANIFEST_NAME,
            json.dumps(doc, separators=(",", ":"), sort_keys=True).encode())

    # -- writes -------------------------------------------------------------

    def store_round(self, round_index: int, updates: list[ClientUpdate]) -> None:
        """Persist every client's update for one scheduled round. Re-storing
        the same round overwrites it cleanly (writes are idempotent)."""
        if round_index not in self.retained_rounds:
            raise ValueError(
                f"round {round_index} is not in the retention schedule {self.retained_rounds}"
            )
        ids = sorted(u.client_id for u in updates)
        if ids != list(range(1, self.fingerprint.num_clients + 1)):
            raise ValueError(
                f"round {round_index}: got updates for clients {ids}; "
                f"need all of 1..{self.fingerprint.num_clients}"
            )
        entries: dict[int, dict] = {}
        (self.root / f"round_{round_index}").mkdir(exist_ok=True)
        for u in updates:
            if u.round_index != round_index:
                raise ValueError(
                    f"update for client {u.client_id} is from round {u.round_index}"
                )
            # the payload is written from views of the delta's vector, and its
            # CRC chained over the same chunks: nothing is copied
            rel = f"round_{round_index}/client_{u.client_id}.fesp"
            crc = atomic_write(f"{self.root}/{rel}", *param_chunks(u.delta), crc_trailer=True)
            sq_norms = u.delta.sq_norms()
            entries[u.client_id] = {
                "path": rel,
                "blob_crc": crc,
                "sample_count": u.sample_count,
                "train_loss": u.train_loss,
                "sq_norms": sq_norms.tolist(),
                "sq_norms_crc": _norms_crc(sq_norms),
            }
        self._entries[round_index] = entries
        # a partial store is never read back (training records no store
        # before it is whole), so the manifest is written once it is whole
        if self._entries.keys() >= set(self.retained_rounds):
            self._write_manifest()

    # -- reads --------------------------------------------------------------

    def _entry(self, round_index: int, client_id: int) -> dict:
        entry = self._entries.get(round_index, {}).get(client_id)
        if entry is None:
            raise IntegrityError(
                f"no stored update for round {round_index} client {client_id}"
            )
        return entry

    def load_client(self, round_index: int, client_id: int, *,
                    into: RoundSum | None = None) -> ClientUpdate | None:
        """One stored update, its blob checked against its trailing CRC, the
        CRC its manifest entry records, its header and its finiteness. The
        blob is read into the store's one reused buffer; the returned update
        owns a fresh copy of the delta. With
        `into`, the delta is instead written into that round sum's scratch
        vector and added to it, and nothing is returned."""
        entry = self._entry(round_index, client_id)
        where = f"round {round_index} client {client_id}"
        # a string path and open(): cheaper per read than pathlib on small blobs
        blob_path = f"{self.root}/{entry['path']}"
        try:
            with open(blob_path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if len(self._buffer) < size:
                    self._buffer = bytearray(size)
                blob = memoryview(self._buffer)[:size]
                size = fh.readinto(blob)
        except FileNotFoundError:
            raise IntegrityError(f"missing blob for {where}: {blob_path}") from None
        self.bytes_read += size
        if size < 4:
            raise IntegrityError(f"truncated blob for {where}")
        payload = blob[: size - 4]
        crc = zlib.crc32(payload)
        if crc != int.from_bytes(blob[size - 4 : size], "little"):
            raise IntegrityError(f"checksum mismatch for {where}")
        # a blob vouches only for itself; the entry names which blob it is
        if "blob_crc" not in entry:
            raise IntegrityError(
                f"{where}: the manifest at {self.root} records no blob CRC "
                "(it predates them); re-run `fedunlearn train` to rebuild the store"
            )
        if crc != entry["blob_crc"]:
            raise IntegrityError(f"blob for {where} is not the one its manifest entry records")
        try:
            if into is None:
                delta = self._reader.parse(payload)
            else:
                layout = self._reader.layout_of(payload)
                scratch = into.scratch(layout)
                self._reader.read_into(payload, scratch)
        except ValueError as exc:
            raise IntegrityError(f"undecodable blob for {where}: {exc}") from None
        if into is not None:
            into.add(client_id, layout, scratch)
            return None
        return ClientUpdate(
            client_id=client_id,
            round_index=round_index,
            delta=delta,
            sample_count=entry["sample_count"],
            train_loss=entry["train_loss"],
        )

    def load_norms(self, round_index: int, client_id: int) -> StoredNorms:
        """What the manifest records of one stored update, without reading
        its blob; the norms are checked against their CRC first."""
        entry = self._entry(round_index, client_id)
        where = f"round {round_index} client {client_id}"
        if "sq_norms" not in entry:
            raise IntegrityError(
                f"{where}: the manifest at {self.root} records no update norms "
                "(it predates them); re-run `fedunlearn train` to rebuild the store"
            )
        try:
            sq_norms = np.array(entry["sq_norms"], dtype=np.float64)
            crc_ok = _norms_crc(sq_norms) == entry["sq_norms_crc"]
        except (KeyError, TypeError, ValueError):
            crc_ok = False
        if not crc_ok:
            raise IntegrityError(f"norms checksum mismatch for {where}")
        return StoredNorms(
            round_index=round_index,
            client_id=client_id,
            sample_count=entry["sample_count"],
            sq_norms=sq_norms,
            load=lambda: self.load_client(round_index, client_id).delta,
        )

    def load_round(self, round_index: int, client_ids: list[int] | None = None, *,
                   aggregation: str | None = None) -> list[ClientUpdate] | ParamSet:
        """Updates for one retained round, ascending by client id. An explicit
        id list reads only those clients' blobs. With `aggregation`, the
        round's aggregate in that mode instead: `aggregate` of the same
        updates bit for bit, each blob added to a :class:`RoundSum` straight
        from the read buffer, so no update is kept."""
        if round_index not in self.retained_rounds:
            raise ValueError(f"round {round_index} is not in the retention schedule")
        if client_ids is None:
            client_ids = list(range(1, self.fingerprint.num_clients + 1))
        if aggregation is None:
            return [self.load_client(round_index, cid) for cid in sorted(client_ids)]
        total = RoundSum(((cid, self._entry(round_index, cid)["sample_count"])
                          for cid in client_ids), aggregation)
        for cid in sorted(client_ids):
            self.load_client(round_index, cid, into=total)
        return total.result()

    def total_blob_bytes(self) -> int:
        return sum(
            (self.root / entry["path"]).stat().st_size
            for clients in self._entries.values()
            for entry in clients.values()
            if (self.root / entry["path"]).exists()
        )
