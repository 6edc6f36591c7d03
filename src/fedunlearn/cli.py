"""Command-line entry point: config parsing, run orchestration, artifacts.

Each stage calls the package (the attack is evaluation.attack_and_probs)
and reads and writes the run directory. `train`, `run` and `sweep` take a
scenario file with --out and --seed; `unlearn RUN`, `attack RUN` and
`report RUN` take their scenario from RUN/scenario.ini, which `train` and
`run` write. Every subcommand but `sweep` takes --resume.

Each stage writes the files `_WRITES` declares, then its entry in
RUN/stages.json (below). A stage that runs first forgets what it replaces:
a training all but scenario.ini and run.log, an unlearning the scores.
README's "Run directory layout" describes each file; all but run.log,
profile.json and report.json's timings are deterministic given the scenario.

Every subcommand exits 0 on success; on failure it writes one JSON error
record to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import logging
import os
import shutil
import sys
import typing
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ClientShard, Dataset, FedConfig, class_labels, prepare_data
from .evaluation import (MethodMetrics, angle_deviation, attack_and_probs, evaluate,
                         last_layer_angles, method_scores, score_probs, write_csv,
                         write_metrics_csv, write_report_json)
from .federation import Trajectory, run_fedavg
from .nn import (ArchSpec, ParamSet, adult_arch, array_chunks, atomic_write, build_model,
                 cifar10_arch, dense_arch, load_params, mnist_arch, purchase_arch, save_params)
from .nn.params import check_crc
from .retention import RetentionStore, StoreFingerprint
from .unlearning import expected_speedup, fed_accum, fed_eraser, fed_retrain, schedule_speedup

logger = logging.getLogger(__name__)

METHODS = ("eraser", "accum", "retrain")


class ConfigError(ValueError):
    """The scenario file is malformed; the message lists every problem."""


# (section, key) -> field name, in file order: each field's annotation names
# its section, and each key is its field's name, except [output] dir
_KEYS: dict[tuple[str, str], str] = {
    (hint.__metadata__[0], "dir" if name == "out_dir" else name): name
    for name, hint in typing.get_type_hints(FedConfig, include_extras=True).items()
}
# INI section -> the fields it holds
_SECTIONS: dict[str, tuple[str, ...]] = {
    section: tuple(name for (home, _), name in _KEYS.items() if home == section)
    for section, _ in _KEYS
}

# stage -> the scenario fields it reads, which its record holds. Training
# leaves out what only a forget request and its scoring read, so one
# training serves requests for any target, ratio, norm mode and attack.
_ATTACK = ("attack_epochs", "attack_hidden", "attack_learning_rate")
_TRAIN = tuple(name for name in _KEYS.values() if name not in (
    "target_client", "calibration_ratio", "norm_mode", *_ATTACK, "per_neuron_angles", "out_dir"))
STAGE_FIELDS: dict[str, tuple[str, ...]] = {
    "train": _TRAIN, "eraser": (*_TRAIN, "target_client", "calibration_ratio", "norm_mode"),
    "accum": (*_TRAIN, "target_client"), "retrain": (*_TRAIN, "target_client"),
    "attack": (*_TRAIN, "target_client", *_ATTACK),
    "report": tuple(name for name in _KEYS.values() if name != "out_dir"),
}

# field name -> the type its INI value parses to: `T` for a field typed `T | None`
_PARSERS: dict[str, type] = {
    name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for name, hint in typing.get_type_hints(FedConfig).items()
}

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def parse_scenario(path: str | Path, overrides: dict[str, object] | None = None) -> FedConfig:
    """Read and validate an INI scenario. Every unknown section, unknown key,
    and unparsable value is reported together in one error; when there are
    none, every out-of-range or unknown setting is."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    problems: list[str] = []
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            field_name = _KEYS.get((section, key))
            if field_name is None:
                problems.append(f"unknown key {key!r} in [{section}]")
                continue
            kind = _PARSERS[field_name]
            raw = raw.strip()
            if raw == "":
                continue  # blank means "use the default"
            try:
                if kind is bool:
                    if raw.lower() not in _BOOL_WORDS:
                        raise ValueError(f"not a boolean: {raw!r}")
                    values[field_name] = _BOOL_WORDS[raw.lower()]
                else:
                    values[field_name] = kind(raw)
            except ValueError:
                problems.append(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}")
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))

    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return FedConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def format_scenario(scenario: FedConfig) -> str:
    """The scenario as an INI file that parse_scenario reads back to an
    equal scenario; unset optional values are left out."""
    sections: dict[str, list[str]] = {}
    for (section, key), field_name in _KEYS.items():
        value = getattr(scenario, field_name)
        if value is None:
            continue
        kind = _PARSERS[field_name]
        if kind is bool:
            text = "true" if value else "false"
        elif kind is float:
            text = repr(float(value))
        else:
            text = str(value).replace("%", "%%")
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "\n".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                     for section, lines in sections.items())


# ---------------------------------------------------------------------------
# Shared setup

def setup_logging(out_dir: Path) -> None:
    """Log to stderr and to out_dir/run.log. A file handler left by an
    earlier call for another directory is closed and replaced."""
    out_dir.mkdir(parents=True, exist_ok=True)
    root = logging.getLogger()
    root.setLevel(logging.INFO)
    fmt = logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    log_path = os.path.abspath(out_dir / "run.log")
    for h in list(root.handlers):
        if getattr(h, "_fedunlearn_tag", None) == "file" and h.baseFilename != log_path:
            root.removeHandler(h)
            h.close()
    have = {getattr(h, "_fedunlearn_tag", None) for h in root.handlers}
    for tag, make in (("file", lambda: logging.FileHandler(log_path)),
                      ("stream", lambda: logging.StreamHandler(sys.stderr))):
        if tag not in have:
            handler = make()
            handler.setFormatter(fmt)
            handler._fedunlearn_tag = tag
            root.addHandler(handler)


def build_arch(scenario: FedConfig, data: Dataset) -> ArchSpec:
    """The scenario's architecture for inputs and classes shaped as `data`'s."""
    return _preset(scenario, int(np.prod(data.feature_shape)), data.num_classes)


def model_arch(scenario: FedConfig, model: ParamSet) -> ArchSpec:
    """The scenario's architecture for a model of it, without its data: the
    input width is the first weight's, the class count the last bias's."""
    return _preset(scenario, model.tensors[0].shape[0], model.tensors[-1].shape[0])


def _preset(scenario: FedConfig, features: int, num_classes: int) -> ArchSpec:
    if scenario.dataset == "adult":
        return adult_arch(features, hidden=scenario.hidden_units)
    if scenario.dataset == "purchase":
        return purchase_arch(features, num_classes=num_classes)
    if scenario.dataset == "mnist":
        return mnist_arch()
    if scenario.dataset == "cifar10":
        return cifar10_arch()
    return dense_arch(features, num_classes, hidden=scenario.hidden_units)


@dataclass(frozen=True)
class Run:
    """What every stage of one command shares: the scenario, the directory
    its artifacts live in, and the prepared data, architecture and stage
    entries, made once. A training that runs prepares the data from the
    dataset the scenario names (`prepare`) and writes it to data.fesp; any
    other stage that needs the data reads that file, at the CRC32 of
    training's entry for this scenario, and never the dataset."""

    scenario: FedConfig
    out_dir: Path

    def prepare(self) -> None:
        """Prepare the data from the dataset; this command's later stages share it."""
        _, test, shards = prepare_data(self.scenario)
        object.__setattr__(self, "data", (shards, test))  # fills the cached property

    @functools.cached_property
    def data(self) -> tuple[list[ClientShard], Dataset]:
        """The clients' shards and the test set, read once from data.fesp."""
        return _load_data(self.out_dir / "data.fesp", _reads(self, _DATA)["data.fesp"],
                          self.scenario.dataset)

    @property
    def shards(self) -> list[ClientShard]:
        return self.data[0]

    @property
    def test(self) -> Dataset:
        return self.data[1]

    @functools.cached_property
    def arch(self) -> ArchSpec:
        return build_arch(self.scenario, self.test)

    @functools.cached_property
    def entries(self) -> dict[str, dict]:
        """The stage entries of RUN/stages.json, read once; `_record` and
        `_forget` change them and the file together."""
        return _read_json(self.out_dir / "stages.json", _is_entry)

    @property
    def target_shard(self) -> ClientShard:
        return next(s for s in self.shards if s.client_id == self.scenario.target_client)

    def model_path(self, name: str) -> Path:
        return self.out_dir / "models" / f"{name}.fesp"

    def fields(self, stage: str) -> dict[str, object]:
        """The scenario's values of the fields `stage` reads."""
        return {name: getattr(self.scenario, name) for name in STAGE_FIELDS[stage]}


# RUN/data.fesp, in the .fesp format: each client's inputs and labels in
# client order, then the test set's, then the class count. Labels are
# stored as float64, which is exact for class indices.

def _save_data(path: Path, shards: list[ClientShard], test: Dataset) -> int:
    """Write the data without copying its features; return the file's CRC32."""
    sets = [*((f"client{s.client_id}", s.dataset) for s in shards), ("test", test)]
    return atomic_write(path, *array_chunks([
        *((f"{name}.{part}", getattr(ds, part)) for name, ds in sets
          for part in ("inputs", "labels")),
        ("num_classes", [test.num_classes])]))


def _load_data(path: Path, crc: int, name: str) -> tuple[list[ClientShard], Dataset]:
    """The data `_save_data` wrote, read into one vector: the datasets view it."""
    *arrays, (num_classes,) = load_params(path, crc).tensors
    sets = [Dataset(name, inputs, labels, int(num_classes))
            for inputs, labels in zip(arrays[::2], arrays[1::2])]
    return [ClientShard(k, ds) for k, ds in enumerate(sets[:-1], start=1)], sets[-1]


# RUN/labels.fesp, in the .fesp format: the labels the attack scored
# against, `test` (the test set's) and `target` (the target shard's), as
# float64 like data.fesp's.

def _load_labels(path: Path, crc: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The test and target labels the attack wrote, checked as the data's are:
    whole class indices below `num_classes`."""
    labels = load_params(path, crc)
    if labels.names != ("test", "target"):
        raise ValueError(f"{path} holds {', '.join(labels.names)}, not test and target labels")
    return class_labels(labels["test"], num_classes), class_labels(labels["target"], num_classes)


def _read_json(path: Path, valid: typing.Callable[[object], bool]) -> dict:
    """The JSON object in `path`, each of whose values passes `valid`; {} if
    the file is missing. A file that does not parse, or has another shape,
    is read as {} too, with a warning naming it."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except ValueError as exc:  # not JSON, or not text
        logger.warning("ignoring %s: %s", path, exc)
        return {}
    if not (isinstance(doc, dict) and all(valid(value) for value in doc.values())):
        logger.warning("ignoring %s: not the shape this version writes", path)
        return {}
    return doc


def _is_timing(record: object) -> bool:
    return isinstance(record, dict) and isinstance(record.get("total_seconds"), (int, float))


def _record_timing(out_dir: Path, stage: str, walk: Trajectory) -> None:
    """Merge `stage`'s wall-clock seconds into RUN/profile.json, the one file
    that holds them; report.json's timings copy its totals."""
    profile = _read_json(out_dir / "profile.json", _is_timing)
    profile[stage] = {"total_seconds": walk.total_seconds,
                      "round_timings": list(walk.round_timings)}
    write_report_json(out_dir / "profile.json", profile)


# ---------------------------------------------------------------------------
# Stage records. Each stage writes, as its last file, its entry in
# RUN/stages.json: the scenario fields it read and the CRC32 of each file it
# read and wrote. `--resume` skips a stage only when its entry equals what it
# would record now; a stage reads another stage's file only through that
# stage's entry made for its own scenario, at the CRC32 the entry records.

# stage -> the files it writes (training's retention/manifest.json stands for its blobs)
_WRITES = {"train": ("data.fesp", "models/initial.fesp", "models/original.fesp", "manifest.json",
                     "retention/manifest.json"),
           **{m: (f"models/{m}.fesp", f"heads/{m}.fesp") for m in METHODS},
           "attack": ("attack.json", "probs.fesp", "labels.fesp"),
           "report": ("report.json", "metrics.csv")}
# stage -> the (earlier stage, file) pairs it reads, of the stages that ran
_DATA = (("train", "data.fesp"),)
_STORED = (("train", "models/initial.fesp"), ("train", "retention/manifest.json"))
_SCORED = (*_DATA, ("train", "models/original.fesp"), *((m, f"models/{m}.fesp") for m in METHODS))
_READS = {"eraser": (*_DATA, *_STORED), "accum": _STORED, "retrain": _DATA, "attack": _SCORED,
          "report": (*_SCORED, *((m, f"heads/{m}.fesp") for m in METHODS), _STORED[1],
                     *(("attack", rel) for rel in _WRITES["attack"]))}


def _is_entry(entry: object) -> bool:
    return isinstance(entry, dict) and all(isinstance(entry.get(key), dict)
                                           for key in ("fields", "reads", "writes"))


def _changes(run: Run, stage: str, entry: dict) -> str:
    """The fields of the run's scenario that `stage`'s entry records otherwise."""
    was = entry["fields"]
    return "; ".join(f"{name.replace('_', ' ')} {was.get(name, 'unrecorded')}, not {value}"
                     for name, value in run.fields(stage).items()
                     if was.get(name, "unrecorded") != value)


def _reads(run: Run, pairs: tuple[tuple[str, str], ...]) -> dict[str, int]:
    """The CRC32 each (stage, file) pair's stage recorded for the file, if
    that stage ran: a stage's reads are `_reads(run, _READS[stage])`. An
    entry made for another scenario, or listing fewer files than _WRITES,
    is refused. Every stage after training needs training."""
    entries, reads = run.entries, {}
    if "train" not in entries:
        raise FileNotFoundError(f"no trained model under {run.out_dir}; run `train` first")
    for made, rel in pairs:
        if (entry := entries.get(made)) is not None:
            what = {"train": "trained model", "attack": "attack"}.get(made, f"{made} model")
            command = "unlearn" if made in METHODS else made
            if changes := _changes(run, made, entry):
                raise ValueError(f"the {what} under {run.out_dir} was made for {changes}; run "
                                 f"`{command}` for this scenario")
            if missing := [f for f in _WRITES[made] if f not in entry["writes"]]:
                raise FileNotFoundError(f"the {what} under {run.out_dir} has no "
                                        f"{', '.join(missing)}; run `{command}` again")
            reads[rel] = entry["writes"][rel]
    return reads


def _report_crc(report: dict) -> int:
    """report.json's CRC32 in its record: of the report without its wall-clock
    timings and the run directory's path, which no record holds."""
    scenario = {**report["scenario"], "out_dir": None}
    return zlib.crc32(json.dumps({**report, "scenario": scenario, "timings": None},
                                 sort_keys=True).encode())


def _file_crc(path: Path) -> int | None:
    """The CRC32 a record holds for `path`; None if it is missing or an unreadable report."""
    try:
        data = path.read_bytes()
        return _report_crc(json.loads(data)) if path.name == "report.json" else zlib.crc32(data)
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _current(run: Run, stage: str, reads: dict[str, int]) -> bool:
    """Whether `stage`'s entry equals what it would record now: this scenario's
    fields, these reads, and each file of _WRITES[stage] at its recorded CRC32."""
    entry = run.entries.get(stage)
    if entry is None:
        return False
    writes = entry["writes"]
    why = _changes(run, stage, entry) or ("other inputs" if entry["reads"] != reads else "; ".join(
        f"{rel} {'changed' if rel in writes else 'unrecorded'}" for rel in _WRITES[stage]
        if rel not in writes or _file_crc(run.out_dir / rel) != writes[rel]))
    if not why:
        logger.info("%s is recorded for this scenario; skipping", stage)
        return True
    logger.warning("training again: the run directory was trained otherwise (%s)"
                   if stage == "train" else f"redoing {stage}: its record differs (%s)", why)
    return False


def _record(run: Run, stage: str, reads: dict[str, int], writes: dict[str, int]) -> None:
    run.entries[stage] = {"fields": run.fields(stage), "reads": reads, "writes": writes}
    write_report_json(run.out_dir / "stages.json", run.entries)


def _forget(run: Run, stages: typing.Collection[str], *rest: str) -> None:
    """Drop the stages' entries, then delete their files and `rest`, made from what is redone."""
    entries = run.entries
    if entries.keys() & set(stages):
        for stage in stages:
            entries.pop(stage, None)
        write_report_json(run.out_dir / "stages.json", entries)
    for rel in (*(rel for stage in stages for rel in _WRITES[stage]), *rest):
        path = run.out_dir / rel
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Stages. Each public run_* makes its own Run; run_scenario and run_sweep
# make one and hand it to the stage bodies.

def run_train(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    """Federated training with retention; writes the initial and final model."""
    _train(Run(scenario, Path(out_dir)), resume)


def run_unlearn(scenario: FedConfig, out_dir: Path, resume: bool = False,
                methods: tuple[str, ...] = METHODS) -> None:
    """All requested reconstruction routes from the stored artifacts."""
    _unlearn(Run(scenario, Path(out_dir)), resume, methods)


def run_attack(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    """Membership inference against the original and each reconstruction made."""
    _attack(Run(scenario, Path(out_dir)), resume)


def run_report(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    """Final measurements: utility, divergence, angles, attack, timings."""
    _report(Run(scenario, Path(out_dir)), resume)


def run_scenario(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    run = Run(scenario, Path(out_dir))
    for stage in (_train, _unlearn, _attack, _report):
        stage(run, resume)


def _train(run: Run, resume: bool) -> None:
    """Write the scenario to scenario.ini, then train unless `resume` finds
    this scenario's training recorded; a training that runs starts a clean
    run directory and writes the data it prepared to data.fesp."""
    scenario, out_dir = run.scenario, run.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "scenario.ini", format_scenario(scenario).encode())
    if resume and _current(run, "train", {}):
        return
    run.prepare()
    _forget(run, _WRITES, "retention", "models", "heads", "profile.json", "unlearn.json")
    arch = run.arch
    store = RetentionStore.create(out_dir / "retention", StoreFingerprint.of(arch, scenario))

    initial = build_model(arch, scenario.seed)
    trained = run_fedavg(arch, run.shards, scenario, initial_model=initial,
                         retention_sink=store)

    (out_dir / "models").mkdir()
    writes = {"data.fesp": _save_data(out_dir / "data.fesp", run.shards, run.test),
              "models/initial.fesp": save_params(initial, run.model_path("initial")),
              "models/original.fesp": save_params(trained.model, run.model_path("original"))}
    test_acc, test_loss = evaluate(arch, trained.model, run.test, scenario.eval_batch_size)
    manifest = {
        "scenario": run.fields("train"),
        "architecture": arch.describe(),
        "arch_hash": arch.arch_hash(),
        "num_parameters": arch.num_params(),
        "retained_rounds": store.retained_rounds,
        "retention_bytes": store.total_blob_bytes(),
        "train_samples": sum(s.sample_count for s in run.shards),
        "test_samples": run.test.num_samples,
        "client_sample_counts": {s.client_id: s.sample_count for s in run.shards},
        "final_train_loss": trained.mean_losses[-1],
        "sgd_steps": trained.sgd_steps,
        "sample_grads": trained.sample_grads,
        "original_test_accuracy": test_acc,
        "original_test_loss": test_loss,
    }
    writes["manifest.json"] = write_report_json(out_dir / "manifest.json", manifest)
    writes["retention/manifest.json"] = store.manifest_crc
    _record_timing(out_dir, "train", trained)
    _record(run, "train", {}, writes)
    logger.info("trained %d rounds; test accuracy %.4f", scenario.global_rounds, test_acc)


def _unlearn(run: Run, resume: bool, methods: tuple[str, ...] = METHODS) -> None:
    """The requested methods in METHODS order, skipping under `resume` each
    one recorded for this scenario; their summaries merge into unlearn.json."""
    if unknown := [m for m in methods if m not in METHODS]:
        raise ConfigError(f"unknown methods {unknown}; choose from {METHODS}")
    reads = {m: _reads(run, _READS[m]) for m in METHODS if m in methods}
    todo = [m for m in reads if not (resume and _current(run, m, reads[m]))]
    if not todo:
        return
    scenario, out_dir = run.scenario, run.out_dir
    _forget(run, ("attack", "report"))  # the scores of the models it replaces
    if {"eraser", "accum"} & set(todo):  # retraining reads only the data of the training
        stored = reads[todo[0]]
        initial = load_params(out_dir / "models/initial.fesp", stored["models/initial.fesp"])
        store = RetentionStore.open(out_dir / "retention")
        check_crc(store.root / "manifest.json", store.manifest_crc,
                  stored["retention/manifest.json"])
        # a replay's arch is the initial model's, which the store's fingerprint
        # vouches for, so accum reads no data
        replayed = model_arch(scenario, initial)
    reconstruct = {
        "eraser": lambda: fed_eraser(replayed, initial, store, run.shards, scenario),
        "accum": lambda: fed_accum(replayed, initial, store, scenario),
        "retrain": lambda: fed_retrain(run.arch, run.shards, scenario),
    }

    summary_path = out_dir / "unlearn.json"
    summary = _read_json(summary_path, lambda record: isinstance(record, dict))
    (out_dir / "heads").mkdir(exist_ok=True)
    for name in todo:
        result = reconstruct[name]()
        heads = ParamSet((f"step{j:04d}", head) for j, head in enumerate(result.heads, start=1))
        writes = {f"models/{name}.fesp": save_params(result.model, run.model_path(name)),
                  f"heads/{name}.fesp": save_params(heads, out_dir / "heads" / f"{name}.fesp")}
        _record_timing(out_dir, name, result)
        summary[name] = {"store_bytes_read": result.store_bytes_read,
                         "sgd_steps": result.sgd_steps, "sample_grads": result.sample_grads}
        if name == "eraser":
            summary[name]["eps_fallbacks"] = result.eps_fallbacks
        write_report_json(summary_path, summary)
        _record(run, name, reads[name], writes)
        logger.info("%s finished in %.2fs", name, result.total_seconds)


def _load(run: Run, reads: dict[str, int], kind: str) -> dict[str, ParamSet]:
    """The files of `reads` in the `kind` directory ("models" or "heads"), by name."""
    return {Path(rel).stem: load_params(run.out_dir / rel, crc)
            for rel, crc in reads.items() if rel.startswith(kind)}


def _attack(run: Run, resume: bool) -> None:
    """Write attack.json, to probs.fesp the class probabilities it was
    measured on, and to labels.fesp the labels it scored them against, from
    which the report scores the models."""
    reads = _reads(run, _READS["attack"])
    if resume and _current(run, "attack", reads):
        return
    results, probs = attack_and_probs(run.arch, _load(run, reads, "models"), run.shards,
                                      run.test, run.scenario)
    for name, scores in results.items():
        logger.info("attack on %s: precision %.3f recall %.3f f1 %.3f",
                    name, scores["precision"], scores["recall"], scores["f1"])
    labels = (("test", run.test.labels), ("target", run.target_shard.dataset.labels))
    _record(run, "attack", reads, {
        "probs.fesp": atomic_write(run.out_dir / "probs.fesp", *array_chunks(probs.items())),
        "labels.fesp": atomic_write(run.out_dir / "labels.fesp", *array_chunks(labels)),
        "attack.json": write_report_json(run.out_dir / "attack.json", results)})


def _angles(run: Run, heads: dict[str, tuple[np.ndarray, ...]],
            retained: list[int]) -> dict[str, object]:
    """Eraser and accum head angles to retraining at each retained round."""
    if (retrain := heads.get("retrain")) is None:
        return {}
    angles: dict[str, object] = {}
    for name, series in heads.items():
        if name != "retrain":
            angles[name] = last_layer_angles(series, retrain, retained,
                                             per_neuron=run.scenario.per_neuron_angles)
            angles[f"{name}_mean"] = float(np.mean(angles[name]))
    return angles


def _report(run: Run, resume: bool) -> dict | None:
    """Write report.json and metrics.csv; return the report (None if skipped)."""
    scenario, out_dir = run.scenario, run.out_dir
    reads = _reads(run, _READS["report"])
    if resume and _current(run, "report", reads):
        return None
    # the attack's probabilities and labels when it ran, else one forward
    # pass per model over each dataset: either serves every score but the
    # angle, so after an attack only the original model is read, for its head
    attacked = "attack.json" in reads
    models = (_load(run, {"models/original.fesp": reads["models/original.fesp"]}, "models")
              if attacked else _load(run, reads, "models"))
    arch = model_arch(scenario, models["original"])
    attack_results = {}
    if attacked:
        data = (out_dir / "attack.json").read_bytes()
        check_crc(out_dir / "attack.json", zlib.crc32(data), reads["attack.json"])
        attack_results = json.loads(data)
        probs = dict(load_params(out_dir / "probs.fesp", reads["probs.fesp"]).items())
        labels = _load_labels(out_dir / "labels.fesp", reads["labels.fesp"], arch.num_classes)
    else:
        target = run.target_shard.dataset
        probs = score_probs(arch, models, run.test, target, scenario.eval_batch_size)
        labels = run.test.labels, target.labels
    scores = method_scores(probs, *labels, scenario.eval_batch_size)

    # each method's final head is the last step of its trajectory
    heads = {name: params.tensors for name, params in _load(run, reads, "heads").items()}
    finals = {"original": arch.head_weight(models["original"]),
              **{name: series[-1] for name, series in heads.items()}}
    metrics: list[MethodMetrics] = []
    for name, head in finals.items():
        angle = None
        if "retrain" in finals and name != "retrain":
            angle = angle_deviation(head, finals["retrain"])
        att = attack_results.get(name, {})
        metrics.append(MethodMetrics(
            method=name, **scores[name], angle_to_retrain_deg=angle,
            attack_precision=att.get("precision"), attack_recall=att.get("recall"),
            attack_f1=att.get("f1"),
        ))

    store = RetentionStore.open(out_dir / "retention")
    check_crc(store.root / "manifest.json", store.manifest_crc, reads["retention/manifest.json"])
    timings = {stage: record["total_seconds"]
               for stage, record in _read_json(out_dir / "profile.json", _is_timing).items()}
    speedups = {"expected_speedup": expected_speedup(scenario.calibration_ratio,
                                                     scenario.retain_interval),
                "schedule_speedup": schedule_speedup(scenario)}
    if "retrain" in timings and timings.get("eraser", 0.0) > 0.0:
        speedups["measured_speedup"] = timings["retrain"] / timings["eraser"]

    report = {
        "scenario": dataclasses.asdict(scenario),
        "methods": {m.method: {k: v for k, v in dataclasses.asdict(m).items()
                               if v is not None and k != "method"}
                    for m in metrics},
        "angles": _angles(run, heads, store.retained_rounds),
        "attack": attack_results,
        "storage": {"retention_bytes": store.total_blob_bytes()},
        "timings": {**timings, **speedups},
    }
    write_report_json(out_dir / "report.json", report)
    writes = {"report.json": _report_crc(report),
              "metrics.csv": write_metrics_csv(out_dir / "metrics.csv", metrics)}
    _record(run, "report", reads, writes)
    logger.info("report written to %s", out_dir / "report.json")
    return report


# ---------------------------------------------------------------------------
# Sweeps

# sweep parameter -> the FedConfig field it sets
SWEEP_FIELDS = {"ratio": "calibration_ratio", "interval": "retain_interval",
                "clients": "num_clients", "seed": "seed"}
SWEEP_COLUMNS = (
    "param", "value",
    "eraser_test_accuracy", "eraser_target_accuracy",
    "retrain_test_accuracy", "retrain_target_accuracy",
    "eraser_seconds", "retrain_seconds",
    "measured_speedup", "expected_speedup", "schedule_speedup",
    "degenerate", "error",
)


def run_sweep(
    scenario: FedConfig, out_dir: Path, param: str, sweep_values: list[float],
) -> None:
    """Utility-and-cost sweep over one knob: each point trains, runs eraser
    and retrain and reports in its own directory, and its row is read from
    that report. A failing value gets its error in the row; the sweep goes on."""
    if param not in SWEEP_FIELDS:
        raise ConfigError(
            f"unknown sweep parameter {param!r}; choose from {tuple(SWEEP_FIELDS)}")
    if not sweep_values:
        raise ConfigError("sweep needs at least one value")
    field_name = SWEEP_FIELDS[param]
    kind = _PARSERS[field_name]
    rows, schedules = [], {}  # calibration epochs -> the values whose points run them
    for value in sweep_values:
        row = {**dict.fromkeys(SWEEP_COLUMNS, ""), "param": param, "value": format(value, "g")}
        try:
            if kind is int and kind(value) != value:
                raise ConfigError(f"{field_name} takes whole numbers, not {value:g}")
            point_dir = out_dir / f"{param}_{format(value, 'g')}"
            point = dataclasses.replace(scenario, out_dir=str(point_dir),
                                        **{field_name: kind(value)})
            schedules.setdefault(point.calibration_epochs, []).append(row["value"])
            run = Run(point, point_dir)
            _train(run, resume=False)
            _unlearn(run, resume=False, methods=("eraser", "retrain"))
            report = _report(run, resume=False)
            timings = report["timings"]
            for method in ("eraser", "retrain"):
                scores = report["methods"][method]
                row[f"{method}_test_accuracy"] = format(scores["test_accuracy"], ".10g")
                row[f"{method}_target_accuracy"] = format(scores["target_accuracy"], ".10g")
                row[f"{method}_seconds"] = format(timings[method], ".6f")
            for key in ("measured_speedup", "expected_speedup", "schedule_speedup"):
                if timings.get(key) is not None:
                    row[key] = format(timings[key], ".6f")
            # at full calibration the burst costs as much as ordinary local
            # training, so only the retention interval still saves anything
            row["degenerate"] = str(point.calibration_epochs >= point.local_epochs).lower()
        except Exception as exc:  # noqa: BLE001 - a sweep records and continues
            logger.exception("sweep point %s=%s failed", param, value)
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    # calibration epochs are ceil(ratio x local_epochs), so distinct ratios
    # can run the same schedule; say which
    for epochs, ratios in sorted(schedules.items()):
        if param == "ratio" and len(ratios) > 1:
            logger.warning("sweep ratios %s all give calibration_epochs = %d at local_epochs = %d;"
                           " their points run the same schedule",
                           ", ".join(ratios), epochs, scenario.local_epochs)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    logger.info("sweep written to %s", out_dir / "sweep.csv")


# ---------------------------------------------------------------------------
# Entry point

# subcommands that act on a trained run directory and take its scenario.ini
RUN_DIR_COMMANDS = ("unlearn", "attack", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedunlearn", description=(
        "Federated training with client unlearning by update calibration."))
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "federated training with update retention"),
        ("unlearn", "reconstruct models without the target client"),
        ("attack", "membership inference against the stored models"),
        ("run", "train, unlearn, attack, and report in one go"),
        ("report", "write report.json and metrics.csv"),
        ("sweep", "vary one knob and compare cost/utility"),
    ):
        sub = commands.add_parser(name, help=help_text)
        if name in RUN_DIR_COMMANDS:
            sub.add_argument("run_dir", help="run directory; its scenario.ini is the scenario")
        else:
            sub.add_argument("config", help="scenario INI file")
            sub.add_argument("--out", default=None,
                             help="output directory (overrides [output] dir)")
            sub.add_argument("--seed", type=int, default=None,
                             help="override [federation] seed")
        if name != "sweep":
            sub.add_argument("--resume", action="store_true",
                             help="skip each stage whose record in stages.json is current")
        if name == "unlearn":
            sub.add_argument("--method", action="append", choices=METHODS,
                             help="repeatable; default is all three methods")
        if name == "sweep":
            sub.add_argument("--param", required=True, choices=SWEEP_FIELDS)
            sub.add_argument("--values", required=True,
                             help="comma-separated values, e.g. 0.1,0.5,1.0")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in RUN_DIR_COMMANDS:
            scenario = parse_scenario(Path(args.run_dir) / "scenario.ini",
                                      {"out_dir": args.run_dir})
        else:
            scenario = parse_scenario(args.config, {"seed": args.seed, "out_dir": args.out})
        out_dir = Path(scenario.out_dir)
        setup_logging(out_dir)

        if args.command == "unlearn":
            run_unlearn(scenario, out_dir, args.resume, tuple(args.method or METHODS))
        elif args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            run_sweep(scenario, out_dir, args.param, values)
        else:
            stages = {"train": run_train, "attack": run_attack, "report": run_report,
                      "run": run_scenario}
            stages[args.command](scenario, out_dir, args.resume)
        return 0
    except Exception as exc:  # noqa: BLE001 - reported as a machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
