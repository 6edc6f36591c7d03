"""On-disk retention of per-client updates at scheduled rounds.

The store is a directory: `manifest.json` names the run it belongs to and
references every stored blob together with its client's sample count; blobs
live at `round_<t>/client_<k>.fesp` in the shared parameter-set format plus
a trailing CRC32. Blob and manifest writes are atomic (temp file + rename),
so a crashed run never leaves a torn file behind the manifest's back.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from .federation import ClientUpdate
from .nn import dump_param_bytes, parse_param_bytes

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


class RetentionStore:
    """Directory-backed store of client updates at the scheduled rounds."""

    def __init__(self, root: Path, fingerprint: StoreFingerprint,
                 entries: dict[int, dict[int, dict]] | None = None):
        self.root = root
        self.fingerprint = fingerprint
        self.retained_rounds = schedule(
            fingerprint.global_rounds, fingerprint.retain_interval
        )
        # entries[round][client] = {"path": ..., "sample_count": ..., "train_loss": ...}
        self._entries: dict[int, dict[int, dict]] = entries or {}

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
        try:
            raw = json.loads(manifest.read_text())
            fingerprint = StoreFingerprint(**raw["fingerprint"])
            entries = {
                int(r): {int(c): e for c, e in clients.items()}
                for r, clients in raw["rounds"].items()
            }
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"unreadable manifest at {root}: {exc}") from None
        return cls(root, fingerprint, entries)

    def _write_manifest(self) -> None:
        doc = {
            "fingerprint": asdict(self.fingerprint),
            "retained_rounds": self.retained_rounds,
            "rounds": {
                str(r): {str(c): e for c, e in sorted(clients.items())}
                for r, clients in sorted(self._entries.items())
            },
        }
        _atomic_write(self.root / MANIFEST_NAME,
                      json.dumps(doc, indent=2, sort_keys=True).encode())

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
        for u in updates:
            if u.round_index != round_index:
                raise ValueError(
                    f"update for client {u.client_id} is from round {u.round_index}"
                )
            payload = dump_param_bytes(u.delta)
            blob = payload + struct.pack("<I", zlib.crc32(payload))
            rel = f"round_{round_index}/client_{u.client_id}.fesp"
            (self.root / f"round_{round_index}").mkdir(exist_ok=True)
            _atomic_write(self.root / rel, blob)
            entries[u.client_id] = {
                "path": rel,
                "sample_count": u.sample_count,
                "train_loss": u.train_loss,
            }
        self._entries[round_index] = entries
        self._write_manifest()

    # -- reads --------------------------------------------------------------

    def load_client(self, round_index: int, client_id: int) -> ClientUpdate:
        entry = self._entries.get(round_index, {}).get(client_id)
        if entry is None:
            raise IntegrityError(
                f"no stored update for round {round_index} client {client_id}"
            )
        blob_path = self.root / entry["path"]
        try:
            blob = blob_path.read_bytes()
        except FileNotFoundError:
            raise IntegrityError(
                f"missing blob for round {round_index} client {client_id}: {blob_path}"
            ) from None
        if len(blob) < 4:
            raise IntegrityError(
                f"truncated blob for round {round_index} client {client_id}"
            )
        # a view, not a copy: the parser copies the data once, into the set
        payload, (stored_crc,) = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(payload) != stored_crc:
            raise IntegrityError(
                f"checksum mismatch for round {round_index} client {client_id}"
            )
        try:
            delta = parse_param_bytes(payload)
        except ValueError as exc:
            raise IntegrityError(
                f"undecodable blob for round {round_index} client {client_id}: {exc}"
            ) from None
        return ClientUpdate(
            client_id=client_id,
            round_index=round_index,
            delta=delta,
            sample_count=entry["sample_count"],
            train_loss=entry["train_loss"],
        )

    def load_round(self, round_index: int,
                   client_ids: list[int] | None = None) -> list[ClientUpdate]:
        """Updates for one retained round, ascending by client id. An explicit
        id list reads only those clients' blobs."""
        if round_index not in self.retained_rounds:
            raise ValueError(f"round {round_index} is not in the retention schedule")
        if client_ids is None:
            client_ids = list(range(1, self.fingerprint.num_clients + 1))
        return [self.load_client(round_index, cid) for cid in sorted(client_ids)]

    def is_complete(self) -> bool:
        return all(
            (entry := self._entries.get(r, {}).get(c)) is not None
            and (self.root / entry["path"]).exists()
            for r in self.retained_rounds
            for c in range(1, self.fingerprint.num_clients + 1)
        )

    def total_blob_bytes(self) -> int:
        return sum(
            (self.root / entry["path"]).stat().st_size
            for clients in self._entries.values()
            for entry in clients.values()
            if (self.root / entry["path"]).exists()
        )


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
