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
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .nn import (
    ArchSpec,
    Batch,
    Dense,
    ParamSet,
    build_model,
    forward,
    loss_and_grad,
)
from .seeds import derive_seed

_LOG_FLOOR = 1e-300  # probabilities are clipped here before log


# ---------------------------------------------------------------------------
# Utility metrics

def evaluate(
    arch: ArchSpec, params: ParamSet, ds: Dataset, batch_size: int = 256
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) over the whole dataset."""
    if ds.num_classes != arch.num_classes:
        raise ValueError(
            f"dataset has {ds.num_classes} classes, model predicts {arch.num_classes}"
        )
    correct = 0
    loss_sum = 0.0
    for probs, labels in _batched_probs(arch, params, ds, batch_size):
        correct += int((probs.argmax(axis=1) == labels).sum())
        loss_sum += float(-np.log(np.clip(probs[np.arange(len(labels)), labels],
                                          _LOG_FLOOR, None)).sum())
    n = ds.num_samples
    return correct / n, loss_sum / n


def prediction_difference(
    arch: ArchSpec, params_a: ParamSet, params_b: ParamSet, ds: Dataset,
    batch_size: int = 256,
) -> float:
    """Mean Euclidean distance between the two models' probability vectors."""
    total = 0.0
    batches_b = _batched_probs(arch, params_b, ds, batch_size)
    for (probs_a, _), (probs_b, _) in zip(_batched_probs(arch, params_a, ds, batch_size),
                                          batches_b):
        total += float(np.linalg.norm(probs_a - probs_b, axis=1).sum())
    return total / ds.num_samples


def _batched_probs(arch, params, ds, batch_size):
    for start in range(0, ds.num_samples, batch_size):
        labels = ds.labels[start : start + batch_size]
        yield forward(arch, params, Batch(ds.inputs[start : start + batch_size], labels)), labels


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


def last_dense_weight(arch: ArchSpec, params: ParamSet) -> np.ndarray:
    """The weight matrix of the final dense layer — the classification head."""
    return params[f"layer{arch.last_dense_index()}.weight"]


def last_layer_angles(
    arch: ArchSpec,
    method_states: list[ParamSet] | tuple[ParamSet, ...],
    retrain_snapshots: list[ParamSet] | tuple[ParamSet, ...],
    retained_rounds: list[int],
    per_neuron: bool = False,
) -> list[float]:
    """Head angles between a reconstruction trajectory and retraining.

    The j-th reconstructed state is compared against the retrained model as
    of the same training round (the j-th retained round). With per_neuron the
    angle is averaged over output columns instead of taken on the full
    flattened matrix.
    """
    if len(method_states) != len(retained_rounds):
        raise ValueError("one state per retained round is required")
    angles = []
    for state, round_index in zip(method_states, retained_rounds):
        if not 1 <= round_index <= len(retrain_snapshots):
            raise ValueError(f"no retraining snapshot for round {round_index}")
        w_method = last_dense_weight(arch, state)
        w_ref = last_dense_weight(arch, retrain_snapshots[round_index - 1])
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
    """Per-sample attack features from a target model.

    Concatenates the model's class posteriors sorted descending, the one-hot
    true class, and the sample's cross-entropy loss — 2C+1 columns.
    """
    rows = []
    for probs, labels in _batched_probs(arch, params, ds, batch_size=256):
        sorted_probs = np.sort(probs, axis=1)[:, ::-1]
        onehot = np.zeros_like(probs)
        onehot[np.arange(len(labels)), labels] = 1.0
        loss = -np.log(np.clip(probs[np.arange(len(labels)), labels], _LOG_FLOOR, None))
        rows.append(np.hstack([sorted_probs, onehot, loss[:, None]]))
    return np.vstack(rows)


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
    lr = float(learning_rate)
    # In-place SGD, bit-equal to stepping with sgd_step (see local_train).
    w, params = build_model(arch, derive_seed(seed, "attack-init")).working_copy()
    n = len(features)
    bs = min(batch_size, n)
    for epoch in range(epochs):
        rng = np.random.default_rng(derive_seed(seed, "attack-epoch", epoch))
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            _, grads = loss_and_grad(arch, params, Batch(standardized[idx], labels[idx]))
            w -= lr * grads.vector
    return AttackModel(arch=arch, params=ParamSet(params.items()), feature_mean=mean,
                       feature_std=std)


def attack_metrics(
    attack: AttackModel,
    arch: ArchSpec,
    victim: ParamSet,
    target: Dataset,
    holdout: Dataset,
    seed: int = 0,
) -> dict[str, float]:
    """Member-class precision/recall/F1 of the attack against one model.

    The evaluation set is the target client's data (labeled member) plus an
    equal-size seeded sample of the holdout (labeled non-member), with
    features built from the victim model; the larger side is subsampled so a
    blind guesser's positive rate is exactly one half. No predicted members
    means precision 0; precision + recall = 0 means F1 = 0.
    """
    if target.num_samples == 0 or holdout.num_samples == 0:
        raise ValueError("both target and holdout data are required")
    members = build_membership_features(arch, victim, target)
    nonmembers = build_membership_features(arch, victim, holdout)
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


# ---------------------------------------------------------------------------
# Reports

METRIC_COLUMNS = (
    "method",
    "test_accuracy",
    "test_loss",
    "target_accuracy",
    "target_loss",
    "prediction_difference",
    "angle_to_retrain_deg",
    "attack_precision",
    "attack_recall",
    "attack_f1",
)


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


def write_metrics_csv(path: str | Path, metrics: list[MethodMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS)
        writer.writeheader()
        for m in metrics:
            writer.writerow(m.as_row())


def write_report_json(path: str | Path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
