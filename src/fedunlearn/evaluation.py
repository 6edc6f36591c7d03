"""Model quality, model divergence, and membership-inference measurements.

Divergence between an unlearned model and its retrained reference is read
two ways: mean prediction difference over a common test set, and the angle
between their last classification layers. The membership attack trains a
small dense network on the original model's per-sample posterior behavior
and is then asked whether the unlearned client's records still look like
training members.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import ClientShard, Dataset, FedConfig, subsample_indices
from .nn import (
    ArchSpec,
    Batch,
    Dense,
    ParamSet,
    atomic_write,
    build_model,
    forward,
)
from .federation import sgd_epochs
from .seeds import derive_seed

_LOG_FLOOR = 1e-300  # probabilities are clipped here before log


# ---------------------------------------------------------------------------
# Utility metrics

def evaluate(
    arch: ArchSpec, params: ParamSet, ds: Dataset, batch_size: int = 256
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) over the whole dataset."""
    return accuracy_and_loss(batched_probs(arch, params, ds, batch_size))


def accuracy_and_loss(batches: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) from batched_probs' batches."""
    correct = 0
    loss_sum = 0.0
    n = 0
    for probs, labels in batches:
        correct += int((probs.argmax(axis=1) == labels).sum())
        loss_sum += float(-np.log(np.clip(probs[np.arange(len(labels)), labels],
                                          _LOG_FLOOR, None)).sum())
        n += len(labels)
    return correct / n, loss_sum / n


def mean_probability_distance(batches_a: Iterable[tuple[np.ndarray, np.ndarray]],
                              batches_b: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """Mean Euclidean distance between two models' probability vectors, from
    their batched_probs over one dataset: the prediction difference."""
    total = 0.0
    n = 0
    for (probs_a, _), (probs_b, _) in zip(batches_a, batches_b):
        total += float(np.linalg.norm(probs_a - probs_b, axis=1).sum())
        n += len(probs_a)
    return total / n


def batched_probs(arch: ArchSpec, params: ParamSet, ds: Dataset,
                  batch_size: int = 256) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The model's class probabilities over the dataset, one forward pass per
    batch of `batch_size` rows in order, each with its labels."""
    if ds.num_classes != arch.num_classes:
        raise ValueError(
            f"dataset has {ds.num_classes} classes, model predicts {arch.num_classes}"
        )
    for start in range(0, ds.num_samples, batch_size):
        labels = ds.labels[start : start + batch_size]
        yield forward(arch, params, Batch(ds.inputs[start : start + batch_size], labels)), labels


def class_probs(arch: ArchSpec, params: ParamSet, ds: Dataset,
                batch_size: int = 256) -> np.ndarray:
    """batched_probs' batches as one array, one row per sample."""
    return np.concatenate([probs for probs, _ in batched_probs(arch, params, ds, batch_size)])


def score_probs(arch: ArchSpec, models: Mapping[str, ParamSet], test: Dataset, target: Dataset,
                batch_size: int) -> dict[str, np.ndarray]:
    """Each model's class_probs over the test set and the target shard, as
    "<model>.test" and "<model>.target": one forward pass per batch of each."""
    return {f"{name}.{part}": class_probs(arch, model, ds, batch_size)
            for name, model in models.items() for part, ds in (("test", test), ("target", target))}


def method_scores(probs: Mapping[str, np.ndarray], test: Dataset, target: Dataset,
                  batch_size: int) -> dict[str, dict[str, float]]:
    """Each model's scores from its score_probs: accuracy and mean loss on
    the test set and on the target shard, and, when retrain's are there too,
    the prediction difference to retrain on the target shard. Every sum runs
    over slices of `batch_size` rows, the batches batched_probs forwards, so
    the scores are those of scoring each model directly, bit for bit."""
    def batches(key: str, ds: Dataset) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return ((probs[key][start : start + batch_size], ds.labels[start : start + batch_size])
                for start in range(0, ds.num_samples, batch_size))

    scores = {}
    for name in (key.removesuffix(".test") for key in probs if key.endswith(".test")):
        record = scores[name] = {}
        record["test_accuracy"], record["test_loss"] = accuracy_and_loss(
            batches(f"{name}.test", test))
        record["target_accuracy"], record["target_loss"] = accuracy_and_loss(
            batches(f"{name}.target", target))
        if "retrain.target" in probs and name != "retrain":
            record["prediction_difference"] = mean_probability_distance(
                batches(f"{name}.target", target), batches("retrain.target", target))
    return scores


def angle_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in degrees between two flattened parameter vectors."""
    a, b = np.asarray(a, dtype=np.float64).ravel(), np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("vectors have different lengths")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for a zero vector")
    if np.array_equal(a, b):
        return 0.0  # arccos rounding would otherwise report ~1e-6 degrees
    cosine = np.clip(float(a @ b) / (na * nb), -1.0, 1.0)
    return float(np.degrees(np.arccos(cosine)))


def last_layer_angles(
    method_heads: Sequence[np.ndarray],
    retrain_heads: Sequence[np.ndarray],
    retained_rounds: Sequence[int],
    per_neuron: bool = False,
) -> list[float]:
    """Head angles between a reconstruction trajectory and retraining.

    The j-th reconstructed head is compared against the retrained head as
    of the same training round (the j-th retained round). With per_neuron the
    angle is averaged over output columns instead of taken on the full
    flattened matrix.
    """
    if len(method_heads) != len(retained_rounds):
        raise ValueError("one head per retained round is required")
    angles = []
    for w_method, round_index in zip(method_heads, retained_rounds):
        if not 1 <= round_index <= len(retrain_heads):
            raise ValueError(f"no retraining head for round {round_index}")
        w_ref = retrain_heads[round_index - 1]
        if per_neuron:
            per_col = [
                angle_deviation(w_method[:, j], w_ref[:, j])
                for j in range(w_method.shape[1])
            ]
            angles.append(float(np.mean(per_col)))
        else:
            angles.append(angle_deviation(w_method, w_ref))
    return angles


# ---------------------------------------------------------------------------
# Membership inference

def build_membership_features(arch: ArchSpec, params: ParamSet, ds: Dataset) -> np.ndarray:
    """Per-sample attack features from a target model: membership_features
    of its class_probs over the dataset."""
    return membership_features(class_probs(arch, params, ds), ds.labels)


def membership_features(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample attack features from a model's class probabilities.

    Concatenates the class posteriors sorted descending, the one-hot true
    class, and the sample's cross-entropy loss — 2C+1 columns. Each row is
    made from its own row of `probs` alone.
    """
    rows = np.arange(len(labels))
    sorted_probs = np.sort(probs, axis=1)[:, ::-1]
    onehot = np.zeros_like(probs)
    onehot[rows, labels] = 1.0
    loss = -np.log(np.clip(probs[rows, labels], _LOG_FLOOR, None))
    return np.hstack([sorted_probs, onehot, loss[:, None]])


@dataclass(frozen=True)
class AttackModel:
    """Binary membership classifier over attack features (member class = 1)."""

    arch: ArchSpec
    params: ParamSet
    feature_mean: np.ndarray
    feature_std: np.ndarray
    threshold: float = 0.5

    def membership_probability(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        standardized = (features - self.feature_mean) / self.feature_std
        labels = np.zeros(len(features), dtype=np.int64)  # labels unused by forward
        return forward(self.arch, self.params, Batch(standardized, labels))[:, 1]

    def predict_member(self, features: np.ndarray) -> np.ndarray:
        return self.membership_probability(features) >= self.threshold


def train_attack(
    member_features: np.ndarray,
    nonmember_features: np.ndarray,
    seed: int,
    hidden: int = 16,
    epochs: int = 30,
    learning_rate: float = 0.1,
    batch_size: int = 64,
) -> AttackModel:
    """Fit the membership classifier on labeled feature rows."""
    members = np.asarray(member_features, dtype=np.float64)
    nonmembers = np.asarray(nonmember_features, dtype=np.float64)
    if len(members) == 0 or len(nonmembers) == 0:
        raise ValueError("both member and non-member features are required")
    if members.shape[1] != nonmembers.shape[1]:
        raise ValueError("member and non-member features have different widths")

    features = np.vstack([members, nonmembers])
    labels = np.concatenate(
        [np.ones(len(members), dtype=np.int64), np.zeros(len(nonmembers), dtype=np.int64)]
    )
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    standardized = (features - mean) / std

    arch = ArchSpec(
        layers=(
            Dense(features.shape[1], hidden, activation="relu"),
            Dense(hidden, 2),
        ),
        input_shape=(features.shape[1],),
    )
    if learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    seeds = (derive_seed(seed, "attack-epoch", epoch) for epoch in range(epochs))
    _, params, _ = sgd_epochs(arch, build_model(arch, derive_seed(seed, "attack-init")),
                              standardized, labels, min(batch_size, len(features)),
                              learning_rate, seeds, "membership attack fit")
    return AttackModel(arch=arch, params=ParamSet(params.items()), feature_mean=mean,
                       feature_std=std)


def attack_metrics(
    attack: AttackModel,
    members: np.ndarray,
    nonmembers: np.ndarray,
    seed: int = 0,
) -> dict[str, float]:
    """Member-class precision/recall/F1 of the attack against one model.

    The evaluation set is the model's membership features over the target
    client's data (`members`) plus an equal-size seeded sample of its
    features over the holdout (`nonmembers`); the larger side is subsampled
    so a blind guesser's positive rate is exactly one half. No predicted
    members means precision 0; precision + recall = 0 means F1 = 0.
    """
    if len(members) == 0 or len(nonmembers) == 0:
        raise ValueError("both target and holdout data are required")
    size = min(len(members), len(nonmembers))
    rng = np.random.default_rng(derive_seed(seed, "attack-eval"))
    if len(members) > size:
        members = members[np.sort(rng.choice(len(members), size=size, replace=False))]
    if len(nonmembers) > size:
        nonmembers = nonmembers[np.sort(rng.choice(len(nonmembers), size=size, replace=False))]

    pred_members = attack.predict_member(members)
    pred_nonmembers = attack.predict_member(nonmembers)
    tp = int(pred_members.sum())
    fp = int(pred_nonmembers.sum())
    fn = int((~pred_members).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + int((~pred_nonmembers).sum())) / (2 * size)
    return {"precision": precision, "recall": recall, "f1": f1, "accuracy": accuracy}


def member_fit_sample(members: Sequence[Dataset], size: int, seed: int,
                      num_classes: int) -> Dataset:
    """The rows `subsample(pool, size, seed)` keeps of the pool of the
    members' rows in order, a dataset named "members", gathered from each
    member's rows without building the pool."""
    idx = subsample_indices(sum(ds.num_samples for ds in members), size, seed, "members")
    inputs, labels = [], []
    end = 0
    for ds in members:
        start, end = end, end + ds.num_samples
        if idx is None:
            rows = slice(None)
        else:
            lo, hi = np.searchsorted(idx, (start, end))
            rows = idx[lo:hi] - start
        inputs.append(ds.inputs[rows])
        labels.append(ds.labels[rows])
    return Dataset("members", np.concatenate(inputs), np.concatenate(labels), num_classes)


def membership_attack(
    arch: ArchSpec,
    models: Mapping[str, ParamSet],
    shards: Sequence[ClientShard],
    test: Dataset,
    config: FedConfig,
) -> dict[str, dict[str, float]]:
    """attack_metrics of one attack, fitted on models["original"], against
    every model in `models`.

    The test set is split in half (seeded): the attack is fitted on the
    remaining clients' records against one half, and each model is scored
    on the target client's shard against the other half.
    """
    return attack_and_probs(arch, models, shards, test, config)[0]


def attack_and_probs(
    arch: ArchSpec,
    models: Mapping[str, ParamSet],
    shards: Sequence[ClientShard],
    test: Dataset,
    config: FedConfig,
) -> tuple[dict[str, dict[str, float]], dict[str, np.ndarray]]:
    """membership_attack's results, and the score_probs (at eval_batch_size)
    they were measured on: each model is forwarded once over the test set
    and once over the target shard, and the features of both halves of the
    test set are rows of its test probabilities. Only the original model's
    member fit sample is forwarded on its own."""
    if test.num_samples < 2:
        raise ValueError("the membership attack splits the test set in half and needs at least "
                         f"2 test rows; the test set has {test.num_samples}")
    target = next(s for s in shards if s.client_id == config.target_client).dataset
    probs = score_probs(arch, models, test, target, config.eval_batch_size)
    members = [s.dataset for s in shards if s.client_id != config.target_client]
    rng = np.random.default_rng(derive_seed(config.seed, "attack-split"))
    order = rng.permutation(test.num_samples)
    half = test.num_samples // 2
    fit_rows, eval_rows = np.sort(order[:half]), np.sort(order[half:])
    # the member pool dwarfs the held-out one; an attack fitted on the raw
    # pools just learns the base rate and calls everything a member
    fit_size = min(sum(ds.num_samples for ds in members), half)
    fit_seed = derive_seed(config.seed, "attack-fit")
    # the rows `subsample` keeps of the fit half, a subset of the test set
    if (kept := subsample_indices(half, fit_size, fit_seed, test.name)) is not None:
        fit_rows = fit_rows[kept]

    def holdout_features(name: str, rows: np.ndarray) -> np.ndarray:
        return membership_features(probs[f"{name}.test"][rows], test.labels[rows])

    attack = train_attack(
        build_membership_features(arch, models["original"],
                                  member_fit_sample(members, fit_size, fit_seed,
                                                    test.num_classes)),
        holdout_features("original", fit_rows),
        seed=config.seed, hidden=config.attack_hidden, epochs=config.attack_epochs,
        learning_rate=config.attack_learning_rate,
    )
    results = {name: attack_metrics(attack,
                                    membership_features(probs[f"{name}.target"], target.labels),
                                    holdout_features(name, eval_rows), seed=config.seed)
               for name in models}
    return results, probs


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class MethodMetrics:
    """Everything measured about one model (original, or one unlearning route)."""

    method: str
    test_accuracy: float
    test_loss: float
    target_accuracy: float | None = None
    target_loss: float | None = None
    prediction_difference: float | None = None
    angle_to_retrain_deg: float | None = None
    attack_precision: float | None = None
    attack_recall: float | None = None
    attack_f1: float | None = None

    def as_row(self) -> dict[str, str]:
        row = {}
        for col in METRIC_COLUMNS:
            value = getattr(self, col)
            if value is None:
                row[col] = ""
            elif isinstance(value, str):
                row[col] = value
            else:
                row[col] = format(float(value), ".10g")
        return row


METRIC_COLUMNS = tuple(f.name for f in fields(MethodMetrics))


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[dict]) -> int:
    """Every CSV artifact of a run: a header, then one line per row, written
    atomically. Returns the CRC32 of the bytes written."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    return atomic_write(path, text.getvalue().encode())


def write_metrics_csv(path: str | Path, metrics: list[MethodMetrics]) -> int:
    return write_csv(path, METRIC_COLUMNS, (m.as_row() for m in metrics))


def write_report_json(path: str | Path, report: dict) -> int:
    """Every JSON artifact of a run: indented, key-sorted, written atomically.
    Returns the CRC32 of the bytes written."""
    return atomic_write(path, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
