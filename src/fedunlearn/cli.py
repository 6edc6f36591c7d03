"""Command-line entry point: config parsing, run orchestration, artifacts.

Each stage calls the package (the attack is evaluation.membership_attack)
and reads and writes the run directory. `train`, `run` and `sweep` take a
scenario file with --out and --seed; `unlearn RUN`, `attack RUN` and
`report RUN` take their scenario from RUN/scenario.ini alone. Every
subcommand but `sweep` takes --resume.

A run lives in one output directory:

    run.log                     stage log (timestamps; not part of the
                                deterministic surface)
    scenario.ini                the scenario the run was trained under
                                (--seed and --out applied), written by
                                training alone
    manifest.json               dataset/architecture/schedule summary
    retention/                  stored per-client updates
    models/*.fesp               initial, original, and reconstructed models
    heads/<method>.fesp         head weight after each step (tensors step0001,
                                step0002, ...) for angle trajectories
    unlearn.json                per-method reconstruction record; its
                                total_seconds and round_timings are
                                wall-clock
    attack.json                 membership-attack metrics per model
    report.json, metrics.csv    final measurements, deterministic given the
                                scenario, except report.json's wall-clock
                                timings
    timings.csv                 wall-clock numbers (machine-dependent)

Every subcommand exits 0 on success; on failure it writes one JSON error
record to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import logging
import os
import shutil
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ClientShard, Dataset, FedConfig, prepare_data
from .evaluation import (
    MethodMetrics,
    accuracy_and_loss,
    angle_deviation,
    batched_probs,
    evaluate,
    last_layer_angles,
    mean_probability_distance,
    membership_attack,
    write_csv,
    write_metrics_csv,
    write_report_json,
)
from .federation import run_fedavg
from .nn import (
    ArchSpec,
    ParamSet,
    adult_arch,
    atomic_write,
    build_model,
    cifar10_arch,
    dense_arch,
    load_params,
    mnist_arch,
    purchase_arch,
    save_params,
)
from .retention import RetentionStore, StoreFingerprint
from .unlearning import (
    expected_speedup,
    fed_accum,
    fed_eraser,
    fed_retrain,
    schedule_speedup,
)

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
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
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
    if "file" not in have:
        fh = logging.FileHandler(log_path)
        fh.setFormatter(fmt)
        fh._fedunlearn_tag = "file"
        root.addHandler(fh)
    if "stream" not in have:
        sh = logging.StreamHandler(sys.stderr)
        sh.setFormatter(fmt)
        sh._fedunlearn_tag = "stream"
        root.addHandler(sh)


def build_arch(scenario: FedConfig, train: Dataset) -> ArchSpec:
    features = int(np.prod(train.feature_shape))
    if scenario.dataset == "adult":
        return adult_arch(features, hidden=scenario.hidden_units)
    if scenario.dataset == "purchase":
        return purchase_arch(features, num_classes=train.num_classes)
    if scenario.dataset == "mnist":
        return mnist_arch()
    if scenario.dataset == "cifar10":
        return cifar10_arch()
    return dense_arch(features, train.num_classes, hidden=scenario.hidden_units)


@dataclass(frozen=True)
class Run:
    """What every stage of one command shares: the scenario, the directory
    its artifacts live in, and the data and architecture, loaded once."""

    scenario: FedConfig
    out_dir: Path
    train: Dataset
    test: Dataset
    shards: list[ClientShard]
    arch: ArchSpec

    @classmethod
    def build(cls, scenario: FedConfig, out_dir: Path) -> Run:
        train, test, shards = prepare_data(scenario)
        return cls(scenario, Path(out_dir), train, test, shards, build_arch(scenario, train))

    @property
    def target_shard(self) -> ClientShard:
        return next(s for s in self.shards if s.client_id == self.scenario.target_client)

    def model_path(self, name: str) -> Path:
        return self.out_dir / "models" / f"{name}.fesp"

    def head_path(self, method: str) -> Path:
        return self.out_dir / "heads" / f"{method}.fesp"


def _read_timings(out_dir: Path) -> dict[str, float]:
    path = out_dir / "timings.csv"
    if not path.exists():
        return {}
    with open(path, newline="") as fh:
        return {r["name"]: float(r["seconds"]) for r in csv.DictReader(fh)}


def _record_timing(out_dir: Path, name: str, seconds: float) -> None:
    rows = _read_timings(out_dir)
    rows[name] = seconds
    write_csv(out_dir / "timings.csv", ("name", "seconds"),
              ({"name": key, "seconds": format(rows[key], ".6f")} for key in sorted(rows)))


# ---------------------------------------------------------------------------
# Stages. Each public run_* builds its own Run; run_scenario and run_sweep
# build one and hand it to the stage bodies.

def run_train(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    """Federated training with retention; writes the initial and final model."""
    _train(Run.build(scenario, out_dir), resume)


def run_unlearn(
    scenario: FedConfig, out_dir: Path, resume: bool = False,
    methods: tuple[str, ...] = METHODS,
) -> None:
    """All requested reconstruction routes from the stored artifacts."""
    _unlearn(Run.build(scenario, out_dir), resume, methods)


def run_attack(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    """Membership inference against every model present in the run."""
    _attack(Run.build(scenario, out_dir), resume)


def run_report(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    """Final measurements: utility, divergence, angles, attack, timings."""
    _report(Run.build(scenario, out_dir), resume)


def run_scenario(scenario: FedConfig, out_dir: Path, resume: bool = False) -> None:
    run = Run.build(scenario, out_dir)
    _train(run, resume)
    _unlearn(run, resume)
    _attack(run, resume)
    _report(run, resume)


# The scores of the stored models. An unlearning that runs deletes them,
# so none of them can pair with a replaced model.
_SCORES = ("attack.json", "report.json", "metrics.csv")
# Everything in a run directory derived from its training. A training that
# runs deletes them, so none of them can pair with the new one.
_TRAINING_DERIVED = ("retention", "timings.csv", "manifest.json", "models", "heads",
                     "unlearn.json", *_SCORES)


def _train(run: Run, resume: bool) -> None:
    """Train unless `resume` finds this scenario's training complete in the
    run directory; a training that runs starts a clean directory and
    records the scenario in it before training."""
    scenario, out_dir, arch = run.scenario, run.out_dir, run.arch
    store_dir, scenario_path = out_dir / "retention", out_dir / "scenario.ini"
    fingerprint = StoreFingerprint.of(arch, scenario)
    if resume and all(path.exists() for path in (
            scenario_path, run.model_path("original"), run.model_path("initial"),
            store_dir / "manifest.json")):
        recorded = dataclasses.asdict(parse_scenario(scenario_path))
        changed = {name: value for name, value in recorded.items()
                   if name != "out_dir" and value != getattr(scenario, name)}
        found = RetentionStore.open(store_dir)
        if changed:
            logger.warning("training again: the run directory was trained with %s", changed)
        elif found.fingerprint != fingerprint:
            logger.warning("training again: the run directory was trained for %s, not %s",
                           found.fingerprint, fingerprint)
        elif not found.is_complete():
            logger.warning("training again: the retention store is incomplete")
        else:
            logger.info("training artifacts already present; skipping")
            return
    for rel in _TRAINING_DERIVED:
        path = out_dir / rel
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    store = RetentionStore.create(store_dir, fingerprint)
    atomic_write(scenario_path, format_scenario(scenario).encode())

    initial = build_model(arch, scenario.seed)
    trained = run_fedavg(arch, run.shards, scenario, initial_model=initial,
                         retention_sink=store)

    (out_dir / "models").mkdir()
    save_params(initial, run.model_path("initial"))
    save_params(trained.model, run.model_path("original"))
    test_acc, test_loss = evaluate(arch, trained.model, run.test, scenario.eval_batch_size)
    manifest = {
        "scenario": dataclasses.asdict(scenario),
        "architecture": arch.describe(),
        "arch_hash": arch.arch_hash(),
        "num_parameters": arch.num_params(),
        "retained_rounds": store.retained_rounds,
        "retention_bytes": store.total_blob_bytes(),
        "train_samples": run.train.num_samples,
        "test_samples": run.test.num_samples,
        "client_sample_counts": {s.client_id: s.sample_count for s in run.shards},
        "final_train_loss": trained.mean_losses[-1],
        "original_test_accuracy": test_acc,
        "original_test_loss": test_loss,
    }
    write_report_json(out_dir / "manifest.json", manifest)
    _record_timing(out_dir, "train", trained.total_seconds)
    logger.info("trained %d rounds; test accuracy %.4f", scenario.global_rounds, test_acc)


def _unlearn(run: Run, resume: bool, methods: tuple[str, ...] = METHODS) -> None:
    """The requested methods in METHODS order, skipping under `resume` each
    one with both its files; each record is merged into unlearn.json."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; choose from {METHODS}")
    todo = [m for m in METHODS if m in methods and not (
        resume and run.model_path(m).exists() and run.head_path(m).exists())]
    if not todo:
        logger.info("unlearning artifacts already present; skipping")
        return
    if not run.model_path("initial").exists():
        raise FileNotFoundError(f"no training artifacts under {run.out_dir}; run `train` first")
    for rel in _SCORES:
        (run.out_dir / rel).unlink(missing_ok=True)
    scenario, arch = run.scenario, run.arch
    initial = load_params(run.model_path("initial"))
    # retraining reads nothing from the store, so only the replays open it
    store = (RetentionStore.open(run.out_dir / "retention")
             if {"eraser", "accum"} & set(todo) else None)
    reconstruct = {
        "eraser": lambda: fed_eraser(arch, initial, store, run.shards, scenario),
        "accum": lambda: fed_accum(arch, initial, store, scenario),
        "retrain": lambda: fed_retrain(arch, run.shards, scenario),
    }

    summary_path = run.out_dir / "unlearn.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    (run.out_dir / "heads").mkdir(exist_ok=True)
    for name in todo:
        result = reconstruct[name]()
        save_params(result.model, run.model_path(name))
        save_params(ParamSet((f"step{j:04d}", head)
                             for j, head in enumerate(result.heads, start=1)),
                    run.head_path(name))
        _record_timing(run.out_dir, name, result.total_seconds)
        summary[name] = {
            "total_seconds": result.total_seconds,
            "round_timings": list(result.round_timings),
            "calibration_rounds": len(result.heads),
            "store_bytes_read": result.store_bytes_read,
        }
        if name == "eraser":
            summary[name]["eps_fallbacks"] = result.eps_fallbacks
        write_report_json(summary_path, summary)
        logger.info("%s finished in %.2fs", name, result.total_seconds)


def _stored_models(run: Run) -> dict[str, ParamSet]:
    """The original model and every reconstruction present, loaded once."""
    if not run.model_path("original").exists():
        raise FileNotFoundError(f"no trained model under {run.out_dir}; run `train` first")
    return {name: load_params(run.model_path(name))
            for name in ("original",) + METHODS if run.model_path(name).exists()}


def _attack(run: Run, resume: bool) -> None:
    attack_path = run.out_dir / "attack.json"
    if resume and attack_path.exists():
        logger.info("attack artifacts already present; skipping")
        return
    results = membership_attack(run.arch, _stored_models(run), run.shards, run.test,
                                run.scenario)
    for name, scores in results.items():
        logger.info("attack on %s: precision %.3f recall %.3f f1 %.3f",
                    name, scores["precision"], scores["recall"], scores["f1"])
    write_report_json(attack_path, results)


def _angles(run: Run, retained: list[int]) -> dict[str, object]:
    """Eraser and accum head angles to retraining at each retained round.
    A trajectory whose length does not fit the retained schedule is
    left out with a warning."""
    heads = {name: load_params(run.head_path(name)).tensors
             for name in METHODS if run.head_path(name).exists()}
    retrain = heads.pop("retrain", None)
    if retrain is None:
        return {}
    if len(retrain) < retained[-1]:
        logger.warning("retrain has %d heads but the retained schedule reaches round %d;"
                       " angles omitted", len(retrain), retained[-1])
        return {}
    angles: dict[str, object] = {}
    for name, series in heads.items():
        if len(series) != len(retained):
            logger.warning("%s has %d heads but %d rounds are retained; its angles"
                           " are omitted", name, len(series), len(retained))
            continue
        angles[name] = last_layer_angles(series, retrain, retained,
                                         per_neuron=run.scenario.per_neuron_angles)
        angles[f"{name}_mean"] = float(np.mean(angles[name]))
    return angles


def _report(run: Run, resume: bool) -> dict | None:
    """Write report.json and metrics.csv; return the report (None if skipped)."""
    scenario, out_dir, arch = run.scenario, run.out_dir, run.arch
    report_path = out_dir / "report.json"
    if resume and report_path.exists() and (out_dir / "metrics.csv").exists():
        logger.info("report already present; skipping")
        return None
    target = run.target_shard.dataset
    models = _stored_models(run)
    retrain = models.get("retrain")

    attack_results = {}
    attack_path = out_dir / "attack.json"
    if attack_path.exists():
        attack_results = json.loads(attack_path.read_text())

    # one forward pass per model over the target shard serves its accuracy,
    # its loss and its prediction difference to retrain
    target_probs = {name: list(batched_probs(arch, model, target, scenario.eval_batch_size))
                    for name, model in models.items()}
    metrics: list[MethodMetrics] = []
    for name, model in models.items():
        test_acc, test_loss = evaluate(arch, model, run.test, scenario.eval_batch_size)
        tgt_acc, tgt_loss = accuracy_and_loss(target_probs[name])
        pdiff = angle = None
        if retrain is not None and name != "retrain":
            pdiff = mean_probability_distance(target_probs[name], target_probs["retrain"])
            angle = angle_deviation(arch.head_weight(model), arch.head_weight(retrain))
        att = attack_results.get(name, {})
        metrics.append(MethodMetrics(
            method=name,
            test_accuracy=test_acc,
            test_loss=test_loss,
            target_accuracy=tgt_acc,
            target_loss=tgt_loss,
            prediction_difference=pdiff,
            angle_to_retrain_deg=angle,
            attack_precision=att.get("precision"),
            attack_recall=att.get("recall"),
            attack_f1=att.get("f1"),
        ))

    angles = {}
    storage = {}
    retention_dir = out_dir / "retention"
    if (retention_dir / "manifest.json").exists():
        store = RetentionStore.open(retention_dir)
        storage["retention_bytes"] = store.total_blob_bytes()
        angles = _angles(run, store.retained_rounds)

    timings = _read_timings(out_dir)
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
        "angles": angles,
        "attack": attack_results,
        "storage": storage,
        "timings": {**timings, **speedups},
    }
    write_report_json(report_path, report)
    write_metrics_csv(out_dir / "metrics.csv", metrics)
    logger.info("report written to %s", report_path)
    return report


# ---------------------------------------------------------------------------
# Sweeps

# sweep parameter -> the FedConfig field it sets
SWEEP_FIELDS = {"ratio": "calibration_ratio", "interval": "retain_interval",
                "clients": "num_clients"}
SWEEP_COLUMNS = (
    "param", "value",
    "eraser_test_accuracy", "eraser_target_accuracy",
    "retrain_test_accuracy", "retrain_target_accuracy",
    "eraser_seconds", "retrain_seconds",
    "measured_speedup", "expected_speedup", "schedule_speedup",
    "degenerate", "error",
)


def _warn_merged_ratios(scenario: FedConfig, ratios: list[float]) -> None:
    """Calibration epochs are ceil(ratio x local_epochs), so distinct ratios
    can run the same schedule; say which."""
    by_epochs: dict[int, list[str]] = {}
    for ratio in ratios:
        try:
            epochs = dataclasses.replace(scenario, calibration_ratio=ratio).calibration_epochs
        except ValueError:
            continue  # its sweep point records the error
        by_epochs.setdefault(epochs, []).append(format(ratio, "g"))
    for epochs, merged in sorted(by_epochs.items()):
        if len(merged) > 1:
            logger.warning(
                "sweep ratios %s all give calibration_epochs = %d at local_epochs = %d;"
                " their points run the same schedule",
                ", ".join(merged), epochs, scenario.local_epochs,
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
    if param == "ratio":
        _warn_merged_ratios(scenario, sweep_values)
    field_name = SWEEP_FIELDS[param]
    kind = _PARSERS[field_name]
    rows = []
    for value in sweep_values:
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row["param"] = param
        row["value"] = format(value, "g")
        try:
            if kind is int and kind(value) != value:
                raise ConfigError(f"{field_name} takes whole numbers, not {value:g}")
            point_dir = out_dir / f"{param}_{format(value, 'g')}"
            point = dataclasses.replace(scenario, out_dir=str(point_dir),
                                        **{field_name: kind(value)})
            run = Run.build(point, point_dir)
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
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    logger.info("sweep written to %s", out_dir / "sweep.csv")


# ---------------------------------------------------------------------------
# Entry point

# subcommands that act on a trained run directory and take its scenario.ini
RUN_DIR_COMMANDS = ("unlearn", "attack", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedunlearn",
        description="Federated training with client unlearning by update calibration.",
    )
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
                             help="skip stages whose artifacts already exist")
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

        if args.command == "train":
            run_train(scenario, out_dir, args.resume)
        elif args.command == "unlearn":
            methods = tuple(args.method) if args.method else METHODS
            run_unlearn(scenario, out_dir, args.resume, methods)
        elif args.command == "attack":
            run_attack(scenario, out_dir, args.resume)
        elif args.command == "report":
            run_report(scenario, out_dir, args.resume)
        elif args.command == "run":
            run_scenario(scenario, out_dir, args.resume)
        else:
            values = [float(v) for v in args.values.split(",") if v.strip()]
            run_sweep(scenario, out_dir, args.param, values)
        return 0
    except Exception as exc:  # noqa: BLE001 - reported as a machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
