"""Run settings, dataset ingestion, preprocessing, and client partitioning.

Real loaders (census incomes, shopping baskets, digit and image corpora)
read the documented on-disk formats; the synthetic generator produces a
seeded Gaussian-blob classification set so every pipeline runs without any
downloads. All loaders are deterministic given (path, seed).
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .seeds import derive_seed


class IngestionError(ValueError):
    """A dataset file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Dataset:
    name: str
    inputs: np.ndarray  # float64, (num_samples, *feature_shape)
    labels: np.ndarray  # int64 class indices
    num_classes: int

    def __post_init__(self):
        inputs = np.ascontiguousarray(np.asarray(self.inputs, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError("inputs and labels disagree on sample count")
        if inputs.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not np.isfinite(inputs).all():
            raise ValueError("dataset features contain non-finite values")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels outside [0, {self.num_classes})")
        inputs.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.inputs.shape[1:]

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        return Dataset(
            name=name or self.name,
            inputs=self.inputs[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
        )


@dataclass(frozen=True)
class ClientShard:
    client_id: int
    dataset: Dataset

    def __post_init__(self):
        if self.client_id < 1:
            raise ValueError("client ids start at 1")

    @property
    def sample_count(self) -> int:
        return self.dataset.num_samples


AGGREGATION_MODES = ("standard", "literal")
NORM_MODES = ("layer", "global")
DATASET_NAMES = ("adult", "purchase", "mnist", "cifar10", "synthetic")


@dataclass(frozen=True)
class FedConfig:
    """All settings of one run, as one scenario INI file holds them: the
    data, the federation, the unlearning, the evaluation and the output.

    Each field's annotation names the INI section that holds it, and the
    fields are declared in file order. Every range and enum check of the
    settings is made here, and all problems are reported in one
    ``ValueError``.
    """

    dataset: Annotated[str, "data"] = "synthetic"
    path: Annotated[str, "data"] = ""
    test_fraction: Annotated[float, "data"] = 0.2
    max_samples: Annotated[int | None, "data"] = None
    synthetic_samples: Annotated[int, "data"] = 1000
    synthetic_features: Annotated[int, "data"] = 20
    synthetic_classes: Annotated[int, "data"] = 2
    synthetic_separation: Annotated[float, "data"] = 2.0
    purchase_items: Annotated[int, "data"] = 600
    purchase_classes: Annotated[int, "data"] = 2
    num_clients: Annotated[int, "federation"] = 20
    global_rounds: Annotated[int, "federation"] = 20
    local_epochs: Annotated[int, "federation"] = 4
    learning_rate: Annotated[float, "federation"] = 0.05
    batch_size: Annotated[int, "federation"] = 32
    seed: Annotated[int, "federation"] = 0
    aggregation: Annotated[str, "federation"] = "standard"
    hidden_units: Annotated[int, "federation"] = 32
    target_client: Annotated[int, "unlearning"] = 1
    retain_interval: Annotated[int, "unlearning"] = 2
    calibration_ratio: Annotated[float, "unlearning"] = 0.5
    norm_mode: Annotated[str, "unlearning"] = "layer"
    attack_epochs: Annotated[int, "evaluation"] = 30
    attack_hidden: Annotated[int, "evaluation"] = 16
    attack_learning_rate: Annotated[float, "evaluation"] = 0.1
    eval_batch_size: Annotated[int, "evaluation"] = 256
    per_neuron_angles: Annotated[bool, "evaluation"] = False
    out_dir: Annotated[str, "output"] = "runs/latest"

    def __post_init__(self):
        problems = []
        if self.dataset not in DATASET_NAMES:
            problems.append(f"unknown dataset {self.dataset!r}; expected one of {DATASET_NAMES}")
        if not 0.0 < self.test_fraction < 1.0:
            problems.append("test_fraction must be in (0, 1)")
        # the loaders enforce the data ranges too, and keep their own checks
        # for callers that pass these numbers directly
        for name, least in (("max_samples", 1), ("synthetic_samples", 1),
                            ("synthetic_features", 1), ("synthetic_classes", 2),
                            ("purchase_items", 1), ("purchase_classes", 2),
                            ("num_clients", 2), ("global_rounds", 1), ("local_epochs", 1),
                            ("batch_size", 1), ("seed", 0), ("hidden_units", 1),
                            ("attack_epochs", 1), ("attack_hidden", 1),
                            ("eval_batch_size", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                problems.append(f"{name} must be at least {least}")
        for name in ("learning_rate", "attack_learning_rate"):
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be positive")
        if self.aggregation not in AGGREGATION_MODES:
            problems.append(f"unknown aggregation {self.aggregation!r}")
        if not 1 <= self.target_client <= self.num_clients:
            problems.append("target_client must be in [1, num_clients]")
        if not 1 <= self.retain_interval <= self.global_rounds:
            problems.append("retain_interval must be in [1, global_rounds]")
        if not 0.0 < self.calibration_ratio <= 1.0:
            problems.append("calibration_ratio must be in (0, 1]")
        if self.norm_mode not in NORM_MODES:
            problems.append(f"unknown norm_mode {self.norm_mode!r}")
        if problems:
            raise ValueError("invalid federation config: " + "; ".join(problems))

    @property
    def calibration_epochs(self) -> int:
        """Local epochs per calibration round: ceil(ratio * local_epochs), at least 1."""
        return max(1, math.ceil(self.calibration_ratio * self.local_epochs))


# ---------------------------------------------------------------------------
# Loaders

def load_dataset(config: FedConfig) -> Dataset:
    """The dataset `config` names, read from `config.path` or generated from
    the seed, and capped at `config.max_samples` by a seeded subsample."""
    name, seed = config.dataset, config.seed
    if name == "synthetic":
        ds = make_synthetic(
            samples=config.synthetic_samples,
            features=config.synthetic_features,
            classes=config.synthetic_classes,
            seed=seed,
            separation=config.synthetic_separation,
        )
    else:
        if not config.path:
            raise IngestionError(f"dataset {name!r} requires a path")
        path = Path(config.path)
        if not path.exists():
            raise IngestionError(f"dataset path does not exist: {path}")
        if name == "adult":
            ds = load_adult(path)
        elif name == "mnist":
            ds = load_mnist(path)
        elif name == "cifar10":
            ds = load_cifar10(path)
        else:
            ds = load_purchase(path, seed=seed, num_items=config.purchase_items,
                               num_classes=config.purchase_classes)
    if config.max_samples is not None and ds.num_samples > config.max_samples:
        ds = subsample(ds, config.max_samples, seed)
    return ds


def make_synthetic(samples: int, features: int, classes: int, seed: int,
                   separation: float = 2.0) -> Dataset:
    """Seeded Gaussian blobs: one unit-variance cluster per class."""
    if samples < 1 or features < 1 or classes < 2:
        raise ValueError("synthetic data needs samples >= 1, features >= 1, classes >= 2")
    rng = np.random.default_rng(derive_seed(seed, "synthetic"))
    directions = rng.normal(size=(classes, features))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = directions * separation
    labels = rng.integers(0, classes, size=samples)
    inputs = centers[labels] + rng.normal(size=(samples, features))
    return Dataset("synthetic", inputs, labels, classes)


def subsample(ds: Dataset, max_samples: int, seed: int) -> Dataset:
    idx = subsample_indices(ds.num_samples, max_samples, seed, ds.name)
    return ds if idx is None else ds.subset(idx)


def subsample_indices(num_samples: int, max_samples: int, seed: int,
                      name: str) -> np.ndarray | None:
    """The ascending row indices `subsample` keeps of `num_samples` rows of
    a dataset called `name`, or None when it keeps every row."""
    if max_samples < 1:
        raise ValueError("max_samples must be at least 1")
    if num_samples <= max_samples:
        return None
    rng = np.random.default_rng(derive_seed(seed, "subsample", name))
    return np.sort(rng.choice(num_samples, size=max_samples, replace=False))


ADULT_COLUMNS = (
    ("age", "numeric"),
    ("workclass", "categorical"),
    ("fnlwgt", "numeric"),
    ("education", "categorical"),
    ("education-num", "numeric"),
    ("marital-status", "categorical"),
    ("occupation", "categorical"),
    ("relationship", "categorical"),
    ("race", "categorical"),
    ("sex", "categorical"),
    ("capital-gain", "numeric"),
    ("capital-loss", "numeric"),
    ("hours-per-week", "numeric"),
    ("native-country", "categorical"),
)


def read_adult_records(path: str | Path) -> list[list[str]]:
    """Raw comma-separated records (14 attributes + income label) from a file
    or from a directory holding the conventional train/test pair."""
    path = Path(path)
    if path.is_dir():
        files = [p for p in (path / "adult.data", path / "adult.test") if p.exists()]
        if not files:
            raise IngestionError(f"no adult.data or adult.test under {path}")
    else:
        files = [path]
    records: list[list[str]] = []
    for fp in files:
        for lineno, line in enumerate(fp.read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("|"):  # test split carries a banner line
                continue
            fields = [f.strip().rstrip(".") for f in line.split(",")]
            if len(fields) != 15:
                raise IngestionError(f"{fp}:{lineno}: expected 15 fields, got {len(fields)}")
            records.append(fields)
    if not records:
        raise IngestionError(f"no records found in {path}")
    return records


def load_adult(path: str | Path, drop_missing: bool = True) -> Dataset:
    """Census-income table: z-scored numerics, one-hot categoricals, binary label."""
    records = read_adult_records(path)
    if drop_missing:
        records = [r for r in records if "?" not in r]
        if not records:
            raise IngestionError("all records dropped as incomplete")

    labels = np.array([1 if r[14] == ">50K" else 0 for r in records], dtype=np.int64)
    seen = {r[14] for r in records}
    if not seen <= {">50K", "<=50K"}:
        raise IngestionError(f"unexpected income labels: {sorted(seen)}")

    blocks: list[np.ndarray] = []
    for j, (col, kind) in enumerate(ADULT_COLUMNS):
        values = [r[j] for r in records]
        if kind == "numeric":
            try:
                numeric = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise IngestionError(f"non-numeric value in column {col!r}: {exc}") from None
            std = numeric.std()
            blocks.append(((numeric - numeric.mean()) / (std if std > 0 else 1.0))[:, None])
        else:
            categories = sorted(set(values))
            lookup = {c: i for i, c in enumerate(categories)}
            onehot = np.zeros((len(values), len(categories)))
            onehot[np.arange(len(values)), [lookup[v] for v in values]] = 1.0
            blocks.append(onehot)
    return Dataset("adult", np.hstack(blocks), labels, 2)


def _read_idx(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(2)
    opener = gzip.open if path.suffix == ".gz" or magic == b"\x1f\x8b" else open
    with opener(path, "rb") as fh:
        header = fh.read(4)
        if len(header) != 4 or header[:2] != b"\x00\x00":
            raise IngestionError(f"{path}: not an idx file")
        dtype_code, rank = header[2], header[3]
        if dtype_code != 0x08:
            raise IngestionError(f"{path}: only unsigned-byte idx payloads are supported")
        dims = struct.unpack(f">{rank}I", fh.read(4 * rank))
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    expected = int(np.prod(dims))
    if data.size != expected:
        raise IngestionError(f"{path}: payload has {data.size} bytes, header says {expected}")
    return data.reshape(dims)


MNIST_FILE_PAIRS = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
)


def load_mnist(path: str | Path) -> Dataset:
    """Digit images from idx files, scaled to [0,1], zero-padded to 32x32."""
    path = Path(path)
    images_list, labels_list = [], []
    for img_name, lbl_name in MNIST_FILE_PAIRS:
        for suffix in ("", ".gz"):
            img_fp, lbl_fp = path / (img_name + suffix), path / (lbl_name + suffix)
            if img_fp.exists() and lbl_fp.exists():
                images_list.append(_read_idx(img_fp))
                labels_list.append(_read_idx(lbl_fp))
                break
    if not images_list:
        raise IngestionError(f"no idx image/label pairs found under {path}")
    images = np.concatenate(images_list).astype(np.float64) / 255.0
    labels = np.concatenate(labels_list).astype(np.int64)
    if images.ndim != 3:
        raise IngestionError("image idx file must be rank 3 (count, rows, cols)")
    if images.shape[0] != labels.shape[0]:
        raise IngestionError("image and label files disagree on sample count")
    if images.shape[1:] != (32, 32):
        rows, cols = images.shape[1:]
        top, left = (32 - rows) // 2, (32 - cols) // 2
        padded = np.zeros((images.shape[0], 32, 32))
        padded[:, top : top + rows, left : left + cols] = images
        images = padded
    return Dataset("mnist", images[:, None, :, :], labels, 10)


CIFAR10_FILES = (
    "data_batch_1.bin",
    "data_batch_2.bin",
    "data_batch_3.bin",
    "data_batch_4.bin",
    "data_batch_5.bin",
    "test_batch.bin",
)


def load_cifar10(path: str | Path) -> Dataset:
    """Binary image batches: 3073-byte records, one label byte + 3072 pixels."""
    path = Path(path)
    if path.is_dir():
        files = [path / n for n in CIFAR10_FILES if (path / n).exists()]
        if not files:
            files = sorted(path.glob("*.bin"))
        if not files:
            raise IngestionError(f"no .bin batches under {path}")
    else:
        files = [path]
    inputs_list, labels_list = [], []
    for fp in files:
        raw = np.frombuffer(fp.read_bytes(), dtype=np.uint8)
        if raw.size == 0 or raw.size % 3073:
            raise IngestionError(f"{fp}: size {raw.size} is not a multiple of 3073")
        rec = raw.reshape(-1, 3073)
        labels_list.append(rec[:, 0].astype(np.int64))
        inputs_list.append(rec[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0)
    labels = np.concatenate(labels_list)
    if labels.max() > 9:
        raise IngestionError("label byte above 9 in image batch")
    return Dataset("cifar10", np.concatenate(inputs_list), labels, 10)


def load_purchase(
    path: str | Path,
    seed: int,
    num_items: int = 600,
    num_classes: int = 2,
    customer_col: str = "customer_id",
    item_col: str = "item_id",
) -> Dataset:
    """Transaction log -> binary basket matrix over the most frequent items,
    with class labels assigned by clustering the baskets."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise IngestionError(f"{path} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    try:
        cust_idx, item_idx = header.index(customer_col), header.index(item_col)
    except ValueError:
        raise IngestionError(
            f"{path}: header {header} lacks {customer_col!r} or {item_col!r}"
        ) from None

    item_counts: dict[str, int] = {}
    baskets: dict[str, set[str]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) <= max(cust_idx, item_idx):
            raise IngestionError(f"{path}:{lineno}: short record {fields}")
        customer, item = fields[cust_idx], fields[item_idx]
        if not customer or not item:
            raise IngestionError(f"{path}:{lineno}: empty customer or item id")
        item_counts[item] = item_counts.get(item, 0) + 1
        baskets.setdefault(customer, set()).add(item)
    if not baskets:
        raise IngestionError(f"{path}: no transactions")

    # most frequent items first; ties broken by item id for determinism
    top = sorted(item_counts, key=lambda it: (-item_counts[it], it))[:num_items]
    column = {item: i for i, item in enumerate(top)}
    customers = sorted(baskets)
    features = np.zeros((len(customers), len(top)))
    for row, customer in enumerate(customers):
        for item in baskets[customer]:
            col = column.get(item)
            if col is not None:
                features[row, col] = 1.0
    labels = assign_purchase_labels(features, num_classes, seed)
    return Dataset("purchase", features, labels, num_classes)


def assign_purchase_labels(records: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Cluster binary basket rows into k classes; the cluster index is the label.

    Plain Lloyd iterations from a seeded kmeans++-style initialization,
    Euclidean distance, run to convergence or 100 iterations. The returned
    assignment is a fixed point: every record sits with its nearest centroid.
    """
    records = np.asarray(records, dtype=np.float64)
    if records.ndim != 2 or records.shape[0] < 1:
        raise ValueError("records must be a non-empty 2-d matrix")
    if k < 2:
        raise ValueError("need at least 2 clusters")
    distinct = np.unique(records, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the {distinct.shape[0]} distinct records")

    rng = np.random.default_rng(derive_seed(seed, "kmeans"))
    centroids = _kmeanspp_init(records, k, rng)
    assignment = _nearest_centroid(records, centroids)
    for _ in range(100):
        for c in range(k):
            members = records[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:  # re-seed an emptied cluster at the farthest record
                dist = _sq_distances(records, centroids).min(axis=1)
                centroids[c] = records[int(dist.argmax())]
        new_assignment = _nearest_centroid(records, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return assignment.astype(np.int64)


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return _sq_distances(points, centroids).argmin(axis=1)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = [points[rng.integers(n)]]
    while len(centroids) < k:
        dist = _sq_distances(points, np.array(centroids)).min(axis=1)
        total = dist.sum()
        if total <= 0:  # all remaining points coincide with a centroid
            candidates = np.flatnonzero(dist == dist.max())
            centroids.append(points[candidates[0]])
            continue
        centroids.append(points[rng.choice(n, p=dist / total)])
    return np.array(centroids, dtype=np.float64)


# ---------------------------------------------------------------------------
# Splitting

def partition_iid(train: Dataset, num_clients: int, seed: int) -> list[ClientShard]:
    """Seeded shuffle, then contiguous near-equal shards (sizes differ by <= 1)."""
    if num_clients > train.num_samples:
        raise ValueError(
            f"cannot split {train.num_samples} samples across {num_clients} clients"
        )
    rng = np.random.default_rng(derive_seed(seed, "partition"))
    order = rng.permutation(train.num_samples)
    shards = []
    for i, chunk in enumerate(np.array_split(order, num_clients)):
        shards.append(ClientShard(client_id=i + 1, dataset=train.subset(np.sort(chunk))))
    return shards


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded, disjoint, exhaustive split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = ds.num_samples
    n_test = min(max(int(round(n * test_fraction)), 1), n - 1)
    rng = np.random.default_rng(derive_seed(seed, "split"))
    order = rng.permutation(n)
    test_idx, train_idx = np.sort(order[:n_test]), np.sort(order[n_test:])
    return ds.subset(train_idx), ds.subset(test_idx)


def prepare_data(config: FedConfig) -> tuple[Dataset, Dataset, list[ClientShard]]:
    """Load the configured dataset, split off its test set, and shard the
    training set across the clients."""
    ds = load_dataset(config)
    train, test = train_test_split(ds, config.test_fraction, config.seed)
    shards = partition_iid(train, config.num_clients, config.seed)
    return train, test, shards
