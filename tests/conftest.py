import numpy as np
import pytest

import fedunlearn.nn.params as params
from fedunlearn.data import FedConfig, make_synthetic, partition_iid, train_test_split
from fedunlearn.federation import run_fedavg
from fedunlearn.nn import ArchSpec, Dense, build_model
from fedunlearn.retention import RetentionStore, StoreFingerprint


def small_arch(features=6, classes=3, hidden=8) -> ArchSpec:
    return ArchSpec(
        layers=(Dense(features, hidden, "relu"), Dense(hidden, classes)),
        input_shape=(features,),
    )


def tear_writes(monkeypatch, chunk: int = 0) -> None:
    """From here on every atomic write stops halfway into its chunk number
    `chunk` with an error, as a crash or a full disk in the middle of a
    write would leave the file: the chunks before it are written, and half
    of it."""
    real_open = open

    class TornFile:
        def __init__(self, fh):
            self._fh, self._written = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            if self._written == chunk:
                data = memoryview(data).cast("B")
                self._fh.write(data[: len(data) // 2])
                raise OSError("disk full")
            self._written += 1
            return self._fh.write(data)

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr(params, "open", torn_open, raising=False)


def small_config(**overrides) -> FedConfig:
    base = dict(
        dataset="synthetic",
        num_clients=3,
        global_rounds=4,
        local_epochs=2,
        retain_interval=2,
        calibration_ratio=0.5,
        learning_rate=0.1,
        batch_size=8,
        seed=11,
        target_client=1,
    )
    base.update(overrides)
    return FedConfig(**base)


@pytest.fixture
def arch():
    return small_arch()


@pytest.fixture
def config():
    return small_config()


@pytest.fixture
def split():
    ds = make_synthetic(samples=180, features=6, classes=3, seed=11, separation=2.5)
    return train_test_split(ds, 0.2, seed=11)


@pytest.fixture
def shards(split, config):
    train, _ = split
    return partition_iid(train, config.num_clients, config.seed)


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory):
    """One complete small training run with retention, shared by read-only
    tests: (arch, config, shards, test split, initial model, final model,
    store, history)."""
    arch = small_arch()
    config = small_config()
    ds = make_synthetic(samples=180, features=6, classes=3, seed=11, separation=2.5)
    train, test = train_test_split(ds, 0.2, seed=11)
    shard_list = partition_iid(train, config.num_clients, config.seed)
    store = RetentionStore.create(
        tmp_path_factory.mktemp("store"), StoreFingerprint.of(arch, config)
    )
    initial = build_model(arch, config.seed)
    model, history = run_fedavg(
        arch, shard_list, config, initial_model=initial, retention_sink=store
    )
    return arch, config, shard_list, test, initial, model, store, history
