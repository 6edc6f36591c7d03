"""The benchmark's workloads: the scenario each one runs, the inputs it
generates from the seed, and the exact work its schedule implies.

Every workload is a scenario INI written into the run directory; the program
reads it with its own parser, and the conv workload's images are written in
the CIFAR-10 binary batch format so the program's own loader reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CIFAR_RECORD = 3073  # one label byte + 3 x 32 x 32 pixel bytes
PROTOTYPE_WEIGHT = 0.9  # share of a generated image that is its class prototype


@dataclass(frozen=True)
class Workload:
    name: str
    sections: dict[str, dict[str, object]]  # INI body, without the seed
    chance_floor: float  # original and retrain test accuracy must beat this on any seed
    cifar_images: int = 0  # generated CIFAR-format images (conv only)


WORKLOADS = {
    # Same shape as configs/synthetic_desk.ini: a 1,378-parameter dense net.
    "desk": Workload(
        name="desk",
        sections={
            "data": dict(dataset="synthetic", test_fraction=0.2, synthetic_samples=5000,
                         synthetic_features=40, synthetic_classes=2,
                         synthetic_separation=1.6),
            "federation": dict(num_clients=20, global_rounds=20, local_epochs=4,
                               learning_rate=0.05, batch_size=32, hidden_units=32),
            "unlearning": dict(retain_interval=2, calibration_ratio=0.5),
        },
        chance_floor=0.6,
    ),
    # cifar10_arch (52,202 parameters) on generated 3x32x32 images, small
    # enough that a run holds several train-and-forget cycles.
    "conv": Workload(
        name="conv",
        sections={
            "data": dict(dataset="cifar10", test_fraction=0.2),
            "federation": dict(num_clients=8, global_rounds=4, local_epochs=2,
                               learning_rate=0.05, batch_size=12),
            "unlearning": dict(retain_interval=2, calibration_ratio=0.5),
        },
        chance_floor=0.2,
        cifar_images=240,
    ),
    # A wide dense net (77,186 parameters, about 0.6 MB per stored update);
    # every round is retained and every client trains one batch per round.
    "store": Workload(
        name="store",
        sections={
            "data": dict(dataset="synthetic", test_fraction=0.2, synthetic_samples=800,
                         synthetic_features=600, synthetic_classes=2,
                         synthetic_separation=5.0),
            "federation": dict(num_clients=20, global_rounds=10, local_epochs=1,
                               learning_rate=0.05, batch_size=32, hidden_units=128),
            "unlearning": dict(retain_interval=1, calibration_ratio=0.5),
        },
        chance_floor=0.6,
    ),
}


def write_inputs(workload: Workload, seed: int, run_dir: Path) -> Path:
    """Write the scenario (and for conv the image batches); return the INI path."""
    sections = {name: dict(body) for name, body in workload.sections.items()}
    sections["federation"]["seed"] = seed
    sections["output"] = {"dir": str(run_dir / "out")}
    if workload.cifar_images:
        image_dir = run_dir / "cifar"
        write_cifar_batches(image_dir, workload.cifar_images, seed)
        sections["data"]["path"] = str(image_dir)
    ini = run_dir / "scenario.ini"
    ini.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items()) + "\n"
        for name, body in sections.items()
    ))
    return ini


def write_cifar_batches(image_dir: Path, count: int, seed: int) -> None:
    """Seeded CIFAR-10-format images: each class has a blocky colour
    prototype mixed with uniform noise, strong enough that a few rounds of
    training clearly beat chance."""
    rng = np.random.default_rng([seed, 10])
    blocks = rng.uniform(0.0, 255.0, size=(10, 3, 4, 4))
    prototypes = blocks.repeat(8, axis=2).repeat(8, axis=3)
    labels = rng.integers(0, 10, size=count)
    noise = rng.uniform(0.0, 255.0, size=(count, 3, 32, 32))
    pixels = np.rint(PROTOTYPE_WEIGHT * prototypes[labels]
                     + (1.0 - PROTOTYPE_WEIGHT) * noise).astype(np.uint8)
    records = np.empty((count, CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels.reshape(count, -1)
    image_dir.mkdir(parents=True)
    split = count * 4 // 5
    (image_dir / "data_batch_1.bin").write_bytes(records[:split].tobytes())
    (image_dir / "test_batch.bin").write_bytes(records[split:].tobytes())


def forget_requests(workload: Workload, seed: int) -> list[int]:
    """The seeded order in which clients ask to be forgotten; each client once."""
    clients = workload.sections["federation"]["num_clients"]
    rng = np.random.default_rng([seed, 20])
    return [int(c) + 1 for c in rng.permutation(clients)]


# ---------------------------------------------------------------------------
# Closed form of the work a schedule implies

@dataclass(frozen=True)
class Schedule:
    """Shard sizes and knobs of a scenario, enough to count its work exactly."""

    shard_sizes: tuple[int, ...]  # client k has shard_sizes[k - 1] samples
    test_samples: int
    rounds: int
    epochs: int
    calibration_epochs: int
    retained_rounds: int
    batch_size: int
    attack_epochs: int
    attack_batch: int = 64  # evaluation.train_attack's default

    @classmethod
    def of(cls, scenario, total_samples: int) -> "Schedule":
        test = min(max(int(round(total_samples * scenario.test_fraction)), 1),
                   total_samples - 1)
        train = total_samples - test
        k = scenario.num_clients
        sizes = tuple(train // k + (1 if i < train % k else 0) for i in range(k))
        return cls(
            shard_sizes=sizes,
            test_samples=test,
            rounds=scenario.global_rounds,
            epochs=scenario.local_epochs,
            calibration_epochs=max(1, math.ceil(scenario.calibration_ratio
                                                * scenario.local_epochs)),
            retained_rounds=scenario.global_rounds // scenario.retain_interval,
            batch_size=scenario.batch_size,
            attack_epochs=scenario.attack_epochs,
        )

    def _steps(self, n: int, epochs: int) -> int:
        return epochs * math.ceil(n / min(self.batch_size, n))

    def _remaining(self, target: int) -> list[int]:
        return [n for k, n in enumerate(self.shard_sizes, start=1) if k != target]

    def sgd_steps(self, stage: str, target: int | None = None) -> int:
        """Local SGD steps of one stage (train) or one request's method."""
        if stage == "train":
            return self.rounds * sum(self._steps(n, self.epochs) for n in self.shard_sizes)
        remaining = self._remaining(target)
        if stage == "retrain":
            return self.rounds * sum(self._steps(n, self.epochs) for n in remaining)
        if stage == "eraser":
            # the first retained round is applied as stored, without calibration
            return (self.retained_rounds - 1) * sum(
                self._steps(n, self.calibration_epochs) for n in remaining)
        return 0

    def sample_grads(self, stage: str, target: int | None = None) -> int:
        if stage == "train":
            return self.rounds * self.epochs * sum(self.shard_sizes)
        remaining = self._remaining(target)
        if stage == "retrain":
            return self.rounds * self.epochs * sum(remaining)
        if stage == "eraser":
            return (self.retained_rounds - 1) * self.calibration_epochs * sum(remaining)
        return 0

    def attack_steps(self, target: int) -> int:
        """Gradient steps of the membership-attack fit in one attack stage."""
        fit = min(sum(self._remaining(target)), self.test_samples // 2)
        rows = 2 * fit
        return self.attack_epochs * math.ceil(rows / min(self.attack_batch, rows))
