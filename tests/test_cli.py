"""Command-line layer: scenario parsing, stage orchestration, artifacts.

The end-to-end tests run the real pipeline on a deliberately tiny scenario
(120 samples, 3 clients, 4 rounds) so the whole file stays fast.
"""

import csv
import dataclasses
import json
import logging
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from fedunlearn import cli, data, evaluation
from fedunlearn.cli import (
    METHODS,
    SWEEP_COLUMNS,
    ConfigError,
    _record_timing,
    build_arch,
    main,
    parse_scenario,
)
from fedunlearn.data import FedConfig, make_synthetic
from fedunlearn.evaluation import METRIC_COLUMNS
from fedunlearn.federation import Trajectory
from fedunlearn.nn import (ParamSet, adult_arch, build_model, dense_arch, load_params,
                           save_params)
from fedunlearn.nn.params import _parse_header

from conftest import tear_writes
from oracles import prediction_difference

TINY_INI = """\
[data]
dataset = synthetic
test_fraction = 0.25
synthetic_samples = 120
synthetic_features = 8
synthetic_classes = 2
synthetic_separation = 2.0

[federation]
num_clients = 3
global_rounds = 4
local_epochs = 2
learning_rate = 0.1
batch_size = 16
seed = 5
hidden_units = 8

[unlearning]
target_client = 1
retain_interval = 2
calibration_ratio = 0.5

[evaluation]
attack_epochs = 5
attack_hidden = 8
"""


def write_ini(directory, text, name="scenario.ini"):
    path = Path(directory) / name
    path.write_text(text)
    return path


@pytest.fixture(autouse=True)
def _drop_cli_log_handlers():
    # setup_logging attaches handlers to the root logger keyed by a tag;
    # leaving them around would point later tests' log records at temp
    # directories (and captured stderr streams) that no longer exist.
    yield
    root = logging.getLogger()
    for handler in list(root.handlers):
        if getattr(handler, "_fedunlearn_tag", None):
            root.removeHandler(handler)
            handler.close()


def last_stderr_record(capsys):
    lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    return json.loads(lines[-1])


def deterministic_files(out):
    """Every file of a run directory by relative path, its wall-clock parts
    left out: run.log and profile.json whole, and report.json's timings but
    for their names. The directory's own path is replaced, so runs in two
    directories compare."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel in ("run.log", "profile.json"):
            continue
        data = path.read_bytes().replace(str(out).encode(), b"RUN")
        if rel == "report.json":
            data = json.loads(data)
            data["timings"] = sorted(data["timings"])
        files[rel] = data
    return files


# ---------------------------------------------------------------------------
# Scenario parsing


class TestParseScenario:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = write_ini(tmp_path, "")
        assert parse_scenario(path) == FedConfig()

    def test_full_file(self, tmp_path):
        scenario = parse_scenario(write_ini(tmp_path, TINY_INI))
        assert scenario.dataset == "synthetic"
        assert scenario.synthetic_samples == 120
        assert scenario.num_clients == 3
        assert scenario.global_rounds == 4
        assert scenario.learning_rate == 0.1
        assert scenario.seed == 5
        assert scenario.retain_interval == 2
        assert scenario.attack_epochs == 5
        # untouched keys keep their defaults
        assert scenario.aggregation == "standard"
        assert scenario.norm_mode == "layer"
        assert scenario.out_dir == "runs/latest"
        assert scenario.max_samples is None

    def test_blank_value_means_default(self, tmp_path):
        path = write_ini(tmp_path, "[federation]\nseed =\nbatch_size = 64\n")
        scenario = parse_scenario(path)
        assert scenario.seed == FedConfig().seed
        assert scenario.batch_size == 64

    def test_inline_comments(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[federation]\nseed = 9 ; chosen by fair dice roll\n"
            "batch_size = 8 # small\n",
        )
        scenario = parse_scenario(path)
        assert scenario.seed == 9
        assert scenario.batch_size == 8

    @pytest.mark.parametrize(
        "text, expected",
        [("true", True), ("YES", True), ("1", True),
         ("false", False), ("No", False), ("0", False)],
    )
    def test_bool_words(self, tmp_path, text, expected):
        path = write_ini(tmp_path, f"[evaluation]\nper_neuron_angles = {text}\n")
        assert parse_scenario(path).per_neuron_angles is expected

    def test_every_field_sits_in_exactly_one_section(self):
        placed = [name for names in cli._SECTIONS.values() for name in names]
        assert sorted(placed) == sorted(f.name for f in dataclasses.fields(FedConfig))

    def test_readme_reference_block_lists_every_default_in_file_order(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_scenario(write_ini(tmp_path, block)) == FedConfig()
        keys, section = [], None
        for line in block.splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif line.strip():
                keys.append((section, line.split("=", 1)[0].strip()))
        assert keys == list(cli._KEYS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config file"):
            parse_scenario(tmp_path / "nope.ini")

    def test_a_directory_is_not_a_scenario(self, tmp_path):
        # ConfigParser.read skips a path it cannot open, which gave the defaults
        with pytest.raises(ConfigError, match=f"cannot read {tmp_path}"):
            parse_scenario(tmp_path)

    def test_malformed_ini(self, tmp_path):
        path = write_ini(tmp_path, "[data]\nx\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_scenario(path)

    def test_all_problems_reported_together(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[nonsense]\nfoo = 1\n"
            "[data]\ncolour = red\n"
            "[federation]\nseed = abc\n",
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(path)
        message = str(excinfo.value)
        assert message.startswith(str(path))
        assert "unknown section [nonsense]" in message
        assert "unknown key 'colour' in [data]" in message
        assert "[federation] seed = 'abc' is not a valid int" in message

    @pytest.mark.parametrize(
        "section, key, raw, kind",
        [("federation", "seed", "abc", "int"),
         ("data", "test_fraction", "huh", "float"),
         ("evaluation", "per_neuron_angles", "maybe", "bool")],
    )
    def test_bad_value_names_the_type(self, tmp_path, section, key, raw, kind):
        path = write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"is not a valid {kind}"):
            parse_scenario(path)

    def test_overrides_beat_file_values(self, tmp_path):
        path = write_ini(tmp_path, "[federation]\nseed = 5\n")
        scenario = parse_scenario(path, {"seed": 99, "out_dir": "elsewhere"})
        assert scenario.seed == 99
        assert scenario.out_dir == "elsewhere"

    def test_none_overrides_are_ignored(self, tmp_path):
        path = write_ini(tmp_path, "[federation]\nseed = 5\n")
        scenario = parse_scenario(path, {"seed": None, "out_dir": None})
        assert scenario.seed == 5
        assert scenario.out_dir == "runs/latest"

    def test_range_errors_surface_as_config_errors(self, tmp_path):
        path = write_ini(
            tmp_path, "[federation]\nnum_clients = 1\n[unlearning]\nretain_interval = 99\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(path)
        message = str(excinfo.value)
        assert "num_clients must be at least 2" in message
        assert "retain_interval must be in [1, global_rounds]" in message

    def test_range_and_enum_problems_reported_together(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[data]\ndataset = imagenet\ntest_fraction = 2\n"
            "[federation]\nnum_clients = 1\naggregation = fancy\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(path)
        message = str(excinfo.value)
        assert "unknown dataset 'imagenet'" in message
        assert "num_clients must be at least 2" in message
        assert "unknown aggregation 'fancy'" in message
        assert "test_fraction must be in (0, 1)" in message

    def test_data_range_problems_reported_together(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[data]\nmax_samples = 0\nsynthetic_classes = 1\nsynthetic_features = 0\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(path)
        message = str(excinfo.value)
        assert "max_samples must be at least 1" in message
        assert "synthetic_classes must be at least 2" in message
        assert "synthetic_features must be at least 1" in message

    def test_unknown_aggregation(self, tmp_path):
        path = write_ini(tmp_path, "[federation]\naggregation = fancy\n")
        with pytest.raises(ConfigError, match="unknown aggregation 'fancy'"):
            parse_scenario(path)

    def test_unknown_norm_mode(self, tmp_path):
        path = write_ini(tmp_path, "[unlearning]\nnorm_mode = sideways\n")
        with pytest.raises(ConfigError, match="unknown norm_mode"):
            parse_scenario(path)

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.2"])
    def test_test_fraction_out_of_range(self, tmp_path, fraction):
        path = write_ini(tmp_path, f"[data]\ntest_fraction = {fraction}\n")
        with pytest.raises(ConfigError, match="test_fraction"):
            parse_scenario(path)


class TestBuildArch:
    def test_synthetic_uses_dense_arch(self):
        train = make_synthetic(40, 8, 2, seed=0)
        scenario = FedConfig(synthetic_features=8, hidden_units=8)
        arch = build_arch(scenario, train)
        assert arch.arch_hash() == dense_arch(8, 2, hidden=8).arch_hash()

    def test_adult_uses_its_preset(self):
        train = make_synthetic(40, 8, 2, seed=0)
        scenario = FedConfig(dataset="adult", hidden_units=8)
        arch = build_arch(scenario, train)
        assert arch.arch_hash() == adult_arch(8, hidden=8).arch_hash()

    @staticmethod
    def cifar_scenario(tmp_path):
        source = tmp_path / "cifar"
        source.mkdir()
        rng = np.random.default_rng(0)
        records = np.hstack([rng.integers(0, 10, size=(24, 1), dtype=np.uint8),
                             rng.integers(0, 256, size=(24, 3072), dtype=np.uint8)])
        (source / "data_batch_1.bin").write_bytes(records.tobytes())
        return write_ini(tmp_path, TINY_INI.replace(
            "dataset = synthetic", f"dataset = cifar10\npath = {source}"))

    @pytest.mark.parametrize("config", ["synthetic_small", "synthetic_desk", "cifar10"])
    def test_a_models_arch_is_its_datas(self, tmp_path, config):
        # accum builds its arch from the initial model, without the data
        ini = (self.cifar_scenario(tmp_path) if config == "cifar10" else
               Path(__file__).resolve().parent.parent / "configs" / f"{config}.ini")
        scenario = parse_scenario(ini)
        _, test, _ = data.prepare_data(scenario)
        arch = build_arch(scenario, test)
        model = build_model(arch, scenario.seed)
        assert cli.model_arch(scenario, model).arch_hash() == arch.arch_hash()

    @pytest.mark.parametrize("dataset", ["adult", "purchase", "mnist", "synthetic"])
    def test_each_presets_arch_comes_back_from_its_model(self, dataset):
        train = make_synthetic(40, 8, 2 if dataset == "adult" else 3, seed=0)
        scenario = FedConfig(dataset=dataset, hidden_units=8)
        arch = build_arch(scenario, train)
        model = build_model(arch, 0)
        assert cli.model_arch(scenario, model).arch_hash() == arch.arch_hash()


def walk(*round_timings):
    """A trajectory whose only use here is its wall-clock seconds."""
    return Trajectory(ParamSet(()), round_timings, sum(round_timings))


class TestRecordTiming:
    def test_merge_sort_and_overwrite(self, tmp_path):
        _record_timing(tmp_path, "train", walk(1.0, 0.5))
        _record_timing(tmp_path, "eraser", walk(0.25))
        _record_timing(tmp_path, "train", walk(2.0))
        profile = json.loads((tmp_path / "profile.json").read_text())
        assert list(profile) == ["eraser", "train"]
        assert profile["train"] == {"total_seconds": 2.0, "round_timings": [2.0]}
        assert profile["eraser"] == {"total_seconds": 0.25, "round_timings": [0.25]}

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        _record_timing(tmp_path, "train", walk(1.5))
        before = (tmp_path / "profile.json").read_bytes()
        tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            _record_timing(tmp_path, "eraser", walk(0.25))
        assert (tmp_path / "profile.json").read_bytes() == before


# ---------------------------------------------------------------------------
# End-to-end stages
#
# One module-scoped fixture runs the pipeline twice into separate
# directories: once with the single `run` command and once stage by stage
# (train / unlearn / attack / report).  Comparing the two directories
# byte-for-byte establishes determinism across invocations and parity
# between the combined and staged paths at the same time.


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    ini = write_ini(base, TINY_INI)
    run_dir = base / "combined"
    stage_dir = base / "staged"
    assert main(["run", str(ini), "--out", str(run_dir)]) == 0
    assert main(["train", str(ini), "--out", str(stage_dir)]) == 0
    for command in ("unlearn", "attack", "report"):
        assert main([command, str(stage_dir)]) == 0
    return ini, run_dir, stage_dir


class TestArtifacts:
    def test_layout(self, pipelines):
        ini, run_dir, _ = pipelines
        for rel in (
            "scenario.ini", "manifest.json", "unlearn.json", "attack.json", "probs.fesp",
            "labels.fesp", "report.json", "metrics.csv", "profile.json",
            "retention/manifest.json",
            "models/initial.fesp", "models/original.fesp",
            "models/eraser.fesp", "models/accum.fesp", "models/retrain.fesp",
        ):
            assert (run_dir / rel).exists(), rel
        # training records the scenario it ran, in the one canonical form
        scenario = parse_scenario(ini, {"out_dir": str(run_dir)})
        assert parse_scenario(run_dir / "scenario.ini") == scenario
        assert (run_dir / "scenario.ini").read_bytes() == cli.format_scenario(scenario).encode()

    def test_state_trajectories(self, pipelines):
        _, run_dir, _ = pipelines
        # 4 rounds at interval 2 retain rounds 1 and 3: two replay steps,
        # while retraining keeps one head per round.
        arch = dense_arch(8, 2, hidden=8)
        for method, count in (("eraser", 2), ("accum", 2), ("retrain", 4)):
            heads = load_params(run_dir / "heads" / f"{method}.fesp")
            assert heads.names == tuple(f"step{j:04d}" for j in range(1, count + 1))
            assert heads.shapes()[0][1] == (8, 2)
            final = load_params(run_dir / "models" / f"{method}.fesp")
            np.testing.assert_array_equal(heads[f"step{count:04d}"],
                                          arch.head_weight(final))
        assert not (run_dir / "states").exists()

    def test_manifest_contents(self, pipelines):
        _, run_dir, _ = pipelines
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["retained_rounds"] == [1, 3]
        assert manifest["train_samples"] == 90
        assert manifest["test_samples"] == 30
        assert manifest["client_sample_counts"] == {"1": 30, "2": 30, "3": 30}
        assert manifest["scenario"]["seed"] == 5
        assert manifest["num_parameters"] == 8 * 8 + 8 + 8 * 2 + 2
        assert manifest["retention_bytes"] > 0
        assert 0.0 <= manifest["original_test_accuracy"] <= 1.0

    def test_metrics_csv_shape(self, pipelines):
        _, run_dir, _ = pipelines
        with open(run_dir / "metrics.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == METRIC_COLUMNS
            rows = {r["method"]: r for r in reader}
        assert set(rows) == {"original", "eraser", "accum", "retrain"}
        for name, row in rows.items():
            assert 0.0 <= float(row["test_accuracy"]) <= 1.0
            assert float(row["test_loss"]) > 0.0
        # the retrain row is the reference, so it has no divergence columns
        assert rows["retrain"]["prediction_difference"] == ""
        assert rows["retrain"]["angle_to_retrain_deg"] == ""
        assert rows["eraser"]["prediction_difference"] != ""
        assert float(rows["eraser"]["angle_to_retrain_deg"]) >= 0.0

    def test_attack_json(self, pipelines):
        _, run_dir, _ = pipelines
        attack = json.loads((run_dir / "attack.json").read_text())
        assert set(attack) == {"original", "eraser", "accum", "retrain"}
        for record in attack.values():
            assert set(record) == {"precision", "recall", "f1", "accuracy"}
            for value in record.values():
                assert 0.0 <= value <= 1.0

    def test_report_json(self, pipelines):
        _, run_dir, _ = pipelines
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report) == {
            "scenario", "methods", "angles", "attack", "storage", "timings"}
        assert set(report["methods"]) == {"original", "eraser", "accum", "retrain"}
        assert len(report["angles"]["eraser"]) == 2
        assert len(report["angles"]["accum"]) == 2
        assert report["angles"]["eraser_mean"] == pytest.approx(
            float(np.mean(report["angles"]["eraser"])))
        assert report["storage"]["retention_bytes"] > 0
        # interval 2 at calibration ratio 0.5
        assert report["timings"]["expected_speedup"] == 4.0
        # exact schedule: 4 rounds x 2 epochs against 1 calibrated round x 1
        assert report["timings"]["schedule_speedup"] == 8.0
        assert report["timings"]["measured_speedup"] > 0.0

    def test_unlearn_summary(self, pipelines):
        _, run_dir, _ = pipelines
        summary = json.loads((run_dir / "unlearn.json").read_text())
        assert set(summary) == set(METHODS)
        profile = json.loads((run_dir / "profile.json").read_text())
        assert len(profile["eraser"]["round_timings"]) == 2
        assert len(profile["retrain"]["round_timings"]) == 4
        assert not any("calibration_rounds" in record for record in summary.values())

    def test_unlearn_summary_counts_store_reads(self, pipelines):
        _, run_dir, _ = pipelines
        summary = json.loads((run_dir / "unlearn.json").read_text())

        def blob_bytes(rounds):
            # target client 1 is never read
            return sum((run_dir / "retention" / f"round_{r}" / f"client_{c}.fesp")
                       .stat().st_size for r in rounds for c in (2, 3))

        # the eraser reads whole blobs at the first retained round only
        assert summary["eraser"]["store_bytes_read"] == blob_bytes([1])
        assert summary["eraser"]["eps_fallbacks"] == 0
        assert summary["accum"]["store_bytes_read"] == blob_bytes([1, 3])
        assert summary["retrain"]["store_bytes_read"] == 0
        assert "eps_fallbacks" not in summary["accum"]

    def test_work_counts(self, pipelines):
        _, run_dir, _ = pipelines
        manifest = json.loads((run_dir / "manifest.json").read_text())
        summary = json.loads((run_dir / "unlearn.json").read_text())
        # 30 rows per client at batch 16 is two steps an epoch; train runs 3
        # clients x 4 rounds x 2 epochs, retrain 2 clients, and the eraser
        # calibrates round 3 alone, 2 clients x 1 epoch
        assert (manifest["sgd_steps"], manifest["sample_grads"]) == (48, 720)
        assert {m: (summary[m]["sgd_steps"], summary[m]["sample_grads"]) for m in METHODS} \
            == {"eraser": (4, 60), "accum": (0, 0), "retrain": (32, 480)}

    def test_profile_json(self, pipelines):
        _, run_dir, _ = pipelines
        profile = json.loads((run_dir / "profile.json").read_text())
        timings = {stage: record["total_seconds"] for stage, record in profile.items()}
        assert set(timings) == {"train", "eraser", "accum", "retrain"}
        assert all(v >= 0.0 for v in timings.values())


class TestReportScoring:
    """The attack forwards each model once over the test set and once over
    the target shard and writes those probabilities to probs.fesp; a report
    that follows it scores every model from that file."""

    @staticmethod
    def count_passes(monkeypatch, arch) -> list[int]:
        """The row count of every forward pass of a model of `arch` (the
        attack model's own passes are not counted)."""
        passes = []
        real = evaluation.forward

        def counting(model_arch, params, batch):
            if model_arch == arch:
                passes.append(len(batch))
            return real(model_arch, params, batch)

        monkeypatch.setattr(evaluation, "forward", counting)
        return passes

    def test_the_attack_forwards_each_model_once_per_dataset(self, pipelines, tmp_path,
                                                            monkeypatch):
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        run = cli.Run(parse_scenario(out / "scenario.ini"), out)
        passes = self.count_passes(monkeypatch, run.arch)
        assert main(["attack", str(out)]) == 0
        # 4 models, each in one batch over the 30 test rows and one over the
        # target's 30 rows, and the original model over its member fit
        # sample, as many rows as half the test set
        assert sorted(passes) == [15] + [30] * 8
        for rel in ("attack.json", "probs.fesp", "labels.fesp"):
            assert (out / rel).read_bytes() == (run_dir / rel).read_bytes(), rel

        # probs.fesp holds each model's probabilities over both datasets
        monkeypatch.undo()
        probs = load_params(out / "probs.fesp")
        target = run.target_shard.dataset
        assert probs.names == tuple(f"{name}.{part}" for name in ("original", *METHODS)
                                    for part in ("test", "target"))
        for name in ("original", *METHODS):
            model = load_params(run.model_path(name))
            for part, ds in (("test", run.test), ("target", target)):
                direct = evaluation.class_probs(run.arch, model, ds, run.scenario.eval_batch_size)
                assert probs[f"{name}.{part}"].tobytes() == direct.tobytes()

        # labels.fesp holds the labels those probabilities were scored against
        labels = load_params(out / "labels.fesp")
        assert labels.names == ("test", "target")
        for part, ds in (("test", run.test), ("target", target)):
            assert labels[part].tobytes() == ds.labels.astype(np.float64).tobytes()

    def test_one_forward_pass_per_model_and_dataset(self, pipelines, tmp_path, monkeypatch):
        ini, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        run = cli.Run(parse_scenario(out / "scenario.ini"), out)
        passes = self.count_passes(monkeypatch, run.arch)
        # after the attack, the report scores every model from probs.fesp
        assert main(["report", str(out)]) == 0
        assert passes == []
        scored = json.loads((out / "report.json").read_text())["methods"]
        assert scored == json.loads((run_dir / "report.json").read_text())["methods"]

        # with no attack entry it scores them itself: 4 models, each in one
        # batch over the 30 test rows and one over the target's 30 rows,
        # prediction difference included
        stages = json.loads((out / "stages.json").read_text())
        del stages["attack"]
        (out / "stages.json").write_text(json.dumps(stages))
        assert main(["report", str(out)]) == 0
        assert passes == [30] * 8
        report = json.loads((out / "report.json").read_text())
        assert report["attack"] == {}
        assert report["methods"] == {
            name: {k: v for k, v in scores.items() if not k.startswith("attack_")}
            for name, scores in scored.items()}

        # the same numbers, bit for bit, as scoring each model on its own
        monkeypatch.undo()
        target = run.target_shard.dataset
        retrain = load_params(run.model_path("retrain"))
        batch_size = run.scenario.eval_batch_size
        for name, scores in report["methods"].items():
            model = load_params(run.model_path(name))
            assert (scores["test_accuracy"], scores["test_loss"]) == evaluation.evaluate(
                run.arch, model, run.test, batch_size)
            assert (scores["target_accuracy"], scores["target_loss"]) == evaluation.evaluate(
                run.arch, model, target, batch_size)
            if name != "retrain":
                assert scores["prediction_difference"] == prediction_difference(
                    run.arch, model, retrain, target, batch_size)

    def test_the_report_refuses_an_attack_recorded_without_probabilities(self, pipelines,
                                                                         tmp_path, capsys):
        # as an attack recorded before it wrote probs.fesp
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        stages = json.loads((out / "stages.json").read_text())
        del stages["attack"]["writes"]["probs.fesp"]
        (out / "stages.json").write_text(json.dumps(stages))
        (out / "probs.fesp").unlink()
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "FileNotFoundError"
        assert record["message"] == f"the attack under {out} has no probs.fesp; run `attack` again"

    def test_resume_redoes_an_older_attack_and_report_once(self, pipelines, tmp_path, caplog):
        ini, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        stages = json.loads((out / "stages.json").read_text())
        del stages["attack"]["writes"]["probs.fesp"]
        del stages["report"]["reads"]["probs.fesp"]
        (out / "stages.json").write_text(json.dumps(stages))
        (out / "probs.fesp").unlink()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        redone = [r.getMessage() for r in caplog.records if r.getMessage().startswith("redoing")]
        assert redone == ["redoing attack: its record differs (probs.fesp unrecorded)",
                          "redoing report: its record differs (other inputs)"]
        assert deterministic_files(out) == deterministic_files(run_dir)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        assert not any(r.getMessage().startswith("redoing") for r in caplog.records)

    def test_the_report_refuses_an_attack_recorded_without_labels(self, pipelines, tmp_path,
                                                                  capsys):
        # as an attack recorded before it wrote labels.fesp
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        stages = json.loads((out / "stages.json").read_text())
        del stages["attack"]["writes"]["labels.fesp"]
        (out / "stages.json").write_text(json.dumps(stages))
        (out / "labels.fesp").unlink()
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "FileNotFoundError"
        assert record["message"] == f"the attack under {out} has no labels.fesp; run `attack` again"

    def test_resume_redoes_an_attack_without_labels_and_its_report_once(self, pipelines,
                                                                        tmp_path, caplog):
        ini, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        stages = json.loads((out / "stages.json").read_text())
        del stages["attack"]["writes"]["labels.fesp"]
        del stages["report"]["reads"]["labels.fesp"]
        (out / "stages.json").write_text(json.dumps(stages))
        (out / "labels.fesp").unlink()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        redone = [r.getMessage() for r in caplog.records if r.getMessage().startswith("redoing")]
        assert redone == ["redoing attack: its record differs (labels.fesp unrecorded)",
                          "redoing report: its record differs (other inputs)"]
        assert deterministic_files(out) == deterministic_files(run_dir)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        assert not any(r.getMessage().startswith("redoing") for r in caplog.records)

    @staticmethod
    def forge_labels(out, part, row, value):
        """labels.fesp with one label changed, recorded in the attack's entry."""
        labels = {name: tensor.copy() for name, tensor in load_params(out / "labels.fesp").items()}
        labels[part][row] = value
        stages = json.loads((out / "stages.json").read_text())
        stages["attack"]["writes"]["labels.fesp"] = save_params(ParamSet(labels.items()),
                                                                out / "labels.fesp")
        (out / "stages.json").write_text(json.dumps(stages))

    @pytest.mark.parametrize("part,value,message", [
        ("target", 1.5, "labels must be whole class indices; row 3 holds 1.5"),
        ("test", 2.0, "labels outside [0, 2)"),
        ("target", -1.0, "labels outside [0, 2)"),
    ])
    def test_the_report_refuses_labels_that_are_no_class(self, pipelines, tmp_path, capsys,
                                                         part, value, message):
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        self.forge_labels(out, part, 3, value)
        (out / "report.json").unlink()
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert (record["error"], record["message"]) == ("ValueError", message)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("tensors,message", [
        (lambda labels: [("test", labels["test"]), ("target", labels["target"][:-1])],
         "original.target has 30 rows for 29 labels"),
        (lambda labels: [("test", labels["test"])],
         "{path} holds test, not test and target labels"),
    ], ids=["a_short_target", "no_target"])
    def test_the_report_refuses_labels_of_another_shape(self, pipelines, tmp_path, capsys,
                                                        tensors, message):
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        path = out / "labels.fesp"
        stages = json.loads((out / "stages.json").read_text())
        stages["attack"]["writes"]["labels.fesp"] = save_params(
            ParamSet(tensors(load_params(path))), path)
        (out / "stages.json").write_text(json.dumps(stages))
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert (record["error"], record["message"]) == ("ValueError", message.format(path=path))

    def test_a_missing_blob_is_an_error(self, pipelines, tmp_path, capsys):
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        blob = out / "retention" / "round_3" / "client_2.fesp"
        blob.unlink()
        assert main(["report", str(out)]) == 1
        assert str(blob) in last_stderr_record(capsys)["message"]


class TestReportReads:
    """A report that follows an attack reads the scores' inputs from the
    attack's probs.fesp and labels.fesp, and each reconstruction's final
    head from the last step of its heads/<method>.fesp: of the models it
    reads only the original, and it reads no data."""

    def test_each_trajectorys_last_head_is_its_models_head(self, pipelines):
        _, run_dir, _ = pipelines
        arch = dense_arch(8, 2, hidden=8)
        for method in METHODS:
            heads = load_params(run_dir / "heads" / f"{method}.fesp")
            head = arch.head_weight(load_params(run_dir / "models" / f"{method}.fesp"))
            assert heads.tensors[-1].shape == head.shape
            assert heads.tensors[-1].tobytes() == head.tobytes(), method

    def test_after_an_attack_it_opens_no_data_and_no_reconstruction(self, pipelines, tmp_path,
                                                                   monkeypatch):
        _, run_dir, _ = pipelines
        out = tmp_path / "run"
        shutil.copytree(run_dir, out)
        opened = []

        def recording(real):
            def read(path, *args):
                opened.append(Path(path).relative_to(out).as_posix())
                return real(path, *args)
            return read

        monkeypatch.setattr(cli, "load_params", recording(cli.load_params))
        monkeypatch.setattr(cli, "_load_data", recording(cli._load_data))
        assert main(["report", str(out)]) == 0
        assert sorted(opened) == ["heads/accum.fesp", "heads/eraser.fesp", "heads/retrain.fesp",
                                  "labels.fesp", "models/original.fesp", "probs.fesp"]
        report = json.loads((out / "report.json").read_text())
        fixture = json.loads((run_dir / "report.json").read_text())
        for key in ("methods", "angles", "attack", "storage"):
            assert report[key] == fixture[key], key
        assert (out / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()

        # each angle is the one between the two models' own heads
        monkeypatch.undo()
        arch = dense_arch(8, 2, hidden=8)
        retrain = arch.head_weight(load_params(run_dir / "models" / "retrain.fesp"))
        for name in ("original", "eraser", "accum"):
            head = arch.head_weight(load_params(run_dir / "models" / f"{name}.fesp"))
            assert report["methods"][name]["angle_to_retrain_deg"] == \
                evaluation.angle_deviation(head, retrain), name


class TestDeterminism:
    # profile.json, run.log, and report.json (which embeds the timings and
    # the output path) are allowed to differ; everything else must match.
    PARITY_FILES = (
        "metrics.csv", "attack.json", "probs.fesp", "labels.fesp", "stages.json",
        "unlearn.json", "models/initial.fesp",
        "models/original.fesp", "models/eraser.fesp",
        "models/accum.fesp", "models/retrain.fesp",
    )

    @pytest.mark.parametrize("rel", PARITY_FILES)
    def test_combined_and_staged_runs_match_byte_for_byte(self, pipelines, rel):
        _, run_dir, stage_dir = pipelines
        assert (run_dir / rel).read_bytes() == (stage_dir / rel).read_bytes()

    def test_method_reports_match(self, pipelines):
        _, run_dir, stage_dir = pipelines
        a = json.loads((run_dir / "report.json").read_text())
        b = json.loads((stage_dir / "report.json").read_text())
        assert a["methods"] == b["methods"]
        assert a["angles"] == b["angles"]
        assert a["attack"] == b["attack"]


class TestResume:
    def test_resume_skips_every_stage(self, pipelines):
        ini, run_dir, _ = pipelines
        watched = [
            run_dir / "models" / "original.fesp",
            run_dir / "models" / "eraser.fesp",
            run_dir / "attack.json",
            run_dir / "report.json",
            run_dir / "metrics.csv",
        ]
        before = [os.stat(p).st_mtime_ns for p in watched]
        assert main(["run", str(ini), "--out", str(run_dir), "--resume"]) == 0
        after = [os.stat(p).st_mtime_ns for p in watched]
        assert before == after

    def test_plain_rerun_rewrites(self, tmp_path):
        # its own directory: a training clears what the shared runs hold
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out)]) == 0
        target = out / "models" / "original.fesp"
        before_time = os.stat(target).st_mtime_ns
        before_bytes = target.read_bytes()
        assert main(["train", str(ini), "--out", str(out)]) == 0
        assert os.stat(target).st_mtime_ns != before_time
        assert target.read_bytes() == before_bytes  # rebuilt, identically

    def test_resume_reruns_only_the_incomplete_method(self, tmp_path, caplog):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        (out / "heads" / "eraser.fesp").unlink()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["unlearn", str(out), "--resume"]) == 0
        finished = [r.getMessage().split()[0] for r in caplog.records
                    if r.name == "fedunlearn.cli" and " finished in " in r.getMessage()]
        assert finished == ["eraser"]
        assert set(json.loads((out / "unlearn.json").read_text())) == set(METHODS)

    def test_resume_rebuilds_missing_heads(self, pipelines, tmp_path):
        ini, run_dir, _ = pipelines
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        (out / "heads" / "eraser.fesp").unlink()
        assert main(["unlearn", str(out), "--resume"]) == 0
        assert (out / "heads" / "eraser.fesp").exists()
        assert main(["report", str(out)]) == 0
        angles = json.loads((out / "report.json").read_text())["angles"]
        fresh = json.loads((run_dir / "report.json").read_text())["angles"]
        assert angles["eraser"] == fresh["eraser"]

    @pytest.mark.parametrize("text,flags", [
        (TINY_INI, ["--seed", "9"]),
        (TINY_INI.replace("retain_interval = 2", "retain_interval = 1"), []),
        # outside the store's fingerprint: only the recorded scenario tells
        (TINY_INI.replace("learning_rate = 0.1", "learning_rate = 0.02"), []),
    ], ids=["seed", "schedule", "learning_rate"])
    def test_resume_under_another_scenario_trains_again(self, tmp_path, caplog, text, flags):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["train", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        ini = write_ini(tmp_path, text, name="other.ini")
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["train", str(ini), "--out", str(out), "--resume", *flags]) == 0
        assert any(r.getMessage().startswith("training again: the run directory was trained")
                   for r in caplog.records)
        assert main(["train", str(ini), "--out", str(fresh), *flags]) == 0
        for rel in ("models/initial.fesp", "models/original.fesp", "retention/manifest.json"):
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel

    def test_resume_under_another_target_redoes_every_stage(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        target_3 = write_ini(tmp_path, TINY_INI.replace("target_client = 1", "target_client = 3"),
                             name="target_3.ini")
        assert main(["run", str(target_3), "--out", str(out), "--resume"]) == 0
        assert main(["run", str(target_3), "--out", str(fresh)]) == 0
        for name in ("initial", "original", *METHODS):
            rel = f"models/{name}.fesp"
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel
        methods = [json.loads((run / "report.json").read_text())["methods"]
                   for run in (out, fresh)]
        assert methods[0] == methods[1]

    def test_resume_after_a_training_cut_short_trains_again(self, tmp_path, monkeypatch):
        # the new training's store is complete and its scenario.ini written
        # when saving its models fails: the old models must not pass for its own
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["train", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        ini = write_ini(tmp_path, TINY_INI.replace("learning_rate = 0.1", "learning_rate = 0.02"),
                        name="other.ini")

        def cut_short(params, path):
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "save_params", cut_short)
            assert main(["train", str(ini), "--out", str(out)]) == 1
        assert main(["train", str(ini), "--out", str(out), "--resume"]) == 0
        assert main(["train", str(ini), "--out", str(fresh)]) == 0
        for rel in ("models/initial.fesp", "models/original.fesp", "manifest.json"):
            assert (out / rel).exists(), rel
        assert ((out / "models" / "original.fesp").read_bytes()
                == (fresh / "models" / "original.fesp").read_bytes())

    def test_resume_rebuilds_a_store_without_norms(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out)]) == 0
        manifest = out / "retention" / "manifest.json"
        doc = json.loads(manifest.read_text())
        for clients in doc["rounds"].values():
            for entry in clients.values():
                del entry["sq_norms"], entry["sq_norms_crc"]
        manifest.write_text(json.dumps(doc))
        assert main(["train", str(ini), "--out", str(out), "--resume"]) == 0
        rebuilt = json.loads(manifest.read_text())
        assert all("sq_norms" in entry for clients in rebuilt["rounds"].values()
                   for entry in clients.values())


class Crash(BaseException):
    """A stop that nothing in the program handles, as a kill would be."""


class TestCrashPoints:
    """A command stopped after each completed rename of an atomic write, then
    run again with --resume in the same directory, ends with the files of a
    run that was never stopped: `run`, `train`, and `unlearn --method eraser`
    on a trained directory."""

    @staticmethod
    def command(name, ini, out):
        if name == "unlearn":
            return ["unlearn", str(out), "--method", "eraser"]
        return [name, str(ini), "--out", str(out)]

    def start(self, name, base):
        """The scenario and run directory for `name`; `unlearn` starts trained."""
        base.mkdir(exist_ok=True)
        ini, out = write_ini(base, TINY_INI), base / "out"
        if name == "unlearn":
            assert main(["train", str(ini), "--out", str(out)]) == 0
        return ini, out

    def clean_run(self, name, base):
        ini, out = self.start(name, base)
        renames = []
        real = os.replace

        def counting(src, dst):
            real(src, dst)
            renames.append(dst)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "replace", counting)
            assert main(self.command(name, ini, out)) == 0
        return deterministic_files(out), renames

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("clean")
        return (base / "scenario.ini", *self.clean_run("run", base))

    def stop_and_resume(self, ini, out, stop, stray_tmp=False, name="run"):
        """Run until `stop` renames are done; the next one raises. Then resume."""
        done = []
        real = os.replace

        def stopping(src, dst):
            if len(done) == stop:
                raise Crash(dst)
            real(src, dst)
            done.append(dst)

        with pytest.MonkeyPatch.context() as patch, pytest.raises(Crash) as crash:
            patch.setattr(os, "replace", stopping)
            main(self.command(name, ini, out))
        if stray_tmp:
            # a kill leaves the temp file, which atomic_write's cleanup removes
            Path(f"{crash.value.args[0]}.tmp").write_bytes(b"torn")
        assert main([*self.command(name, ini, out), "--resume"]) == 0
        return deterministic_files(out)

    def test_every_stop_point_resumes_to_the_clean_run(self, clean, tmp_path):
        ini, want, renames = clean
        assert len(renames) > 20
        failed = [f"{stop}: after {renames[stop - 1] if stop else 'nothing'}"
                  for stop in range(len(renames))
                  if self.stop_and_resume(ini, tmp_path / f"stop_{stop}", stop) != want]
        assert failed == []

    @pytest.mark.parametrize("name,last", [("train", "data.fesp"), ("unlearn", "eraser.fesp")])
    def test_every_stop_point_of_a_stage_command_resumes_to_the_clean_run(self, tmp_path,
                                                                         name, last):
        want, renames = self.clean_run(name, tmp_path / "clean")
        assert any(path.name == last for path in map(Path, renames))
        failed = []
        for stop in range(len(renames)):
            ini, out = self.start(name, tmp_path / f"stop_{stop}")
            if self.stop_and_resume(ini, out, stop, name=name) != want:
                failed.append(f"{stop}: after {renames[stop - 1] if stop else 'nothing'}")
        assert failed == []

    def test_a_stray_temp_file_is_replaced(self, clean, tmp_path):
        ini, want, renames = clean
        stop = next(i for i, path in enumerate(renames) if str(path).endswith("original.fesp"))
        assert self.stop_and_resume(ini, tmp_path / "out", stop, stray_tmp=True) == want


class TestStaleResume:
    """A record made for other scenario fields is not resumed: exactly the
    stages that read a changed field run again."""

    @staticmethod
    def edit(out, old, new):
        path = out / "scenario.ini"
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))

    def test_a_ratio_edit_remakes_the_eraser_alone(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        kept = [p for p in (*(out / "retention").rglob("*"), *(out / "models").iterdir())
                if p.is_file() and p.name != "eraser.fesp"]
        assert len(kept) == 4 + 1 + 2 * 3  # models, retention manifest, 2 rounds x 3 blobs
        before = {p: p.stat().st_mtime_ns for p in kept}
        eraser = (out / "models" / "eraser.fesp").read_bytes()
        self.edit(out, "calibration_ratio = 0.5", "calibration_ratio = 1.0")
        assert main(["unlearn", str(out), "--resume"]) == 0
        assert {p: p.stat().st_mtime_ns for p in kept} == before
        ratio_1 = write_ini(tmp_path, TINY_INI.replace("calibration_ratio = 0.5",
                                                       "calibration_ratio = 1.0"), "ratio_1.ini")
        assert main(["run", str(ratio_1), "--out", str(fresh)]) == 0
        assert (out / "models" / "eraser.fesp").read_bytes() != eraser
        for rel in ("models/eraser.fesp", "heads/eraser.fesp"):
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel
        assert main(["report", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["calibration_ratio"] == 1.0
        assert report["methods"]["eraser"]["test_accuracy"] == \
            json.loads((fresh / "report.json").read_text())["methods"]["eraser"]["test_accuracy"]

    def test_an_attack_edit_redoes_the_attack(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        self.edit(out, "attack_epochs = 5", "attack_epochs = 7")
        assert main(["attack", str(out), "--resume"]) == 0
        epochs_7 = write_ini(tmp_path, TINY_INI.replace("attack_epochs = 5", "attack_epochs = 7"),
                             "epochs_7.ini")
        assert main(["run", str(epochs_7), "--out", str(fresh)]) == 0
        assert (out / "attack.json").read_bytes() == (fresh / "attack.json").read_bytes()

    def test_another_target_keeps_the_training(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        original = (out / "models" / "original.fesp").stat().st_mtime_ns
        target_3 = write_ini(tmp_path, TINY_INI.replace("target_client = 1", "target_client = 3"),
                             "target_3.ini")
        assert main(["run", str(target_3), "--out", str(out), "--resume"]) == 0
        assert (out / "models" / "original.fesp").stat().st_mtime_ns == original
        assert main(["run", str(target_3), "--out", str(fresh)]) == 0
        assert deterministic_files(out) == deterministic_files(fresh)
        assert main(["report", str(out)]) == 0


class TestScenarioPersisted:
    def test_report_scores_with_the_seed_the_run_used(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out), "--seed", "3"]) == 0
        assert parse_scenario(out / "scenario.ini").seed == 3
        metrics = (out / "metrics.csv").read_bytes()
        (out / "metrics.csv").unlink()
        (out / "report.json").unlink()
        assert main(["report", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["scenario"]["seed"] == 3
        assert (out / "metrics.csv").read_bytes() == metrics

    @pytest.mark.parametrize("name", ["synthetic_small", "synthetic_desk", "adult_desk"])
    def test_format_scenario_round_trips(self, tmp_path, name):
        config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini"
        scenario = parse_scenario(config, {"seed": 3, "out_dir": str(tmp_path / "a%b")})
        written = write_ini(tmp_path, cli.format_scenario(scenario))
        assert parse_scenario(written) == scenario


class TestReconstructionTarget:
    """Library stages take any scenario, and a forget request may name
    another target client than RUN/scenario.ini: each reconstruction's
    record in stages.json holds its target, and attack and report score
    only reconstructions made for the target of the scenario they are given."""

    @staticmethod
    def targets(out):
        stages = json.loads((out / "stages.json").read_text())
        return {m: stages[m]["fields"].get("target_client") for m in METHODS}

    @pytest.fixture
    def run_for_target_3(self, tmp_path):
        out = tmp_path / "out"
        scenario = parse_scenario(write_ini(tmp_path, TINY_INI), {"out_dir": str(out)})
        cli.run_train(scenario, out)
        request = dataclasses.replace(scenario, target_client=3)
        cli.run_unlearn(request, out)
        return out, request

    def test_each_record_names_its_target(self, run_for_target_3):
        out, _ = run_for_target_3
        assert self.targets(out) == dict.fromkeys(METHODS, 3)

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_scoring_another_targets_models_is_refused(self, run_for_target_3, capsys,
                                                       command):
        out, _ = run_for_target_3
        assert parse_scenario(out / "scenario.ini").target_client == 1
        assert main([command, str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert "target client 3, not 1" in record["message"]
        assert not (out / f"{command}.json").exists()

    def test_the_requests_own_scenario_scores_them(self, run_for_target_3):
        out, request = run_for_target_3
        cli.run_attack(request, out)
        cli.run_report(request, out)
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["target_client"] == 3
        assert set(report["methods"]) == {"original", *METHODS}

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_resume_refuses_another_targets_scores(self, run_for_target_3, capsys, command):
        out, request = run_for_target_3
        cli.run_attack(request, out)
        cli.run_report(request, out)
        assert main([command, str(out), "--resume"]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert "target client 3, not 1" in record["message"]

    def test_resume_redoes_the_methods_of_another_target(self, run_for_target_3, tmp_path):
        out, _ = run_for_target_3
        assert main(["unlearn", str(out), "--resume"]) == 0
        assert self.targets(out) == dict.fromkeys(METHODS, 1)
        fresh = tmp_path / "fresh"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(fresh)]) == 0
        for name in METHODS:
            rel = f"models/{name}.fesp"
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel
        assert main(["report", str(out)]) == 0

    def test_a_reconstruction_without_a_record_is_refused_and_redone(self, tmp_path,
                                                                     capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        stages = json.loads((out / "stages.json").read_text())
        del stages["accum"]["fields"]["target_client"]
        (out / "stages.json").write_text(json.dumps(stages))
        (out / "report.json").unlink()
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert "accum model" in record["message"]
        assert "target client unrecorded, not 1" in record["message"]
        eraser = (out / "models" / "eraser.fesp").stat().st_mtime_ns
        assert main(["unlearn", str(out), "--resume"]) == 0
        assert (out / "models" / "eraser.fesp").stat().st_mtime_ns == eraser
        assert self.targets(out)["accum"] == 1
        assert main(["report", str(out)]) == 0


class TestFreshTrainTimings:
    def read_timings(self, out):
        profile = json.loads((out / "profile.json").read_text())
        return {stage: record["total_seconds"] for stage, record in profile.items()}

    def test_fresh_train_drops_the_previous_runs_timings(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out), "--seed", "3"]) == 0
        assert set(self.read_timings(out)) == {"train", "eraser", "accum", "retrain"}
        assert main(["train", str(ini), "--out", str(out), "--seed", "5"]) == 0
        assert set(self.read_timings(out)) == {"train"}
        assert main(["report", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "measured_speedup" not in report["timings"]
        assert set(report["timings"]) == {"train", "expected_speedup", "schedule_speedup"}

    def test_fresh_train_drops_the_previous_runs_methods(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out), "--seed", "3"]) == 0
        assert main(["train", str(ini), "--out", str(out), "--seed", "5"]) == 0
        for rel in ("models/eraser.fesp", "models/accum.fesp", "models/retrain.fesp",
                    "heads", "unlearn.json", "attack.json", "report.json", "metrics.csv"):
            assert not (out / rel).exists(), rel
        assert main(["report", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["methods"]) == {"original"}
        assert report["attack"] == {}

    def test_training_writes_the_retention_manifest_twice(self, tmp_path, monkeypatch):
        # once when the store is created, once when its last round is stored
        writes = []
        real = cli.RetentionStore._write_manifest

        def counting(store):
            writes.append(store.root)
            real(store)

        monkeypatch.setattr(cli.RetentionStore, "_write_manifest", counting)
        ini = write_ini(tmp_path, TINY_INI)
        assert main(["train", str(ini), "--out", str(tmp_path / "out")]) == 0
        assert len(writes) == 2

    def test_skipped_resume_keeps_them(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        before = self.read_timings(out)
        assert main(["train", str(ini), "--out", str(out), "--resume"]) == 0
        assert self.read_timings(out) == before

    def test_schedule_speedup_is_null_without_calibrated_rounds(self, tmp_path):
        # interval 4 over 4 rounds retains round 1 only, which is replayed
        # as stored: the reconstruction trains nothing
        ini = write_ini(tmp_path, TINY_INI.replace("retain_interval = 2",
                                                   "retain_interval = 4"))
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["timings"]["schedule_speedup"] is None
        assert report["timings"]["expected_speedup"] == 8.0


class TestUnlearnCommand:
    def test_method_flag_is_repeatable_and_partial(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out)]) == 0
        assert main(["unlearn", str(out), "--method", "eraser", "--method", "retrain"]) == 0
        assert (out / "models" / "eraser.fesp").exists()
        assert (out / "models" / "retrain.fesp").exists()
        assert not (out / "models" / "accum.fesp").exists()
        summary = json.loads((out / "unlearn.json").read_text())
        assert set(summary) == {"eraser", "retrain"}

        assert main(["unlearn", str(out), "--method", "accum"]) == 0
        assert (out / "models" / "accum.fesp").exists()

    def test_one_method_rerun_keeps_the_other_records(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        before = json.loads((out / "unlearn.json").read_text())
        assert main(["unlearn", str(out), "--method", "accum"]) == 0
        after = json.loads((out / "unlearn.json").read_text())
        assert set(after) == set(METHODS)
        assert after["eraser"] == before["eraser"]
        assert after["retrain"] == before["retrain"]

    def test_unlearn_that_runs_drops_the_stale_scores(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        scores = [out / "attack.json", out / "report.json", out / "metrics.csv"]
        before = [os.stat(p).st_mtime_ns for p in scores]
        assert main(["unlearn", str(out), "--resume"]) == 0
        assert [os.stat(p).st_mtime_ns for p in scores] == before
        assert main(["unlearn", str(out), "--method", "eraser"]) == 0
        for path in scores:
            assert not path.exists(), path.name
        assert main(["report", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["attack"] == {}
        assert "attack_f1" not in report["methods"]["eraser"]

    def test_retrain_needs_no_retention_store(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out)]) == 0
        shutil.rmtree(out / "retention")
        assert main(["unlearn", str(out), "--method", "retrain"]) == 0
        assert (out / "models" / "retrain.fesp").exists()
        profile = json.loads((out / "profile.json").read_text())
        assert len(profile["retrain"]["round_timings"]) == 4

    def test_library_rejects_unknown_method(self, tmp_path):
        scenario = parse_scenario(write_ini(tmp_path, TINY_INI))
        with pytest.raises(ConfigError, match=r"unknown methods \['bogus'\]"):
            cli.run_unlearn(scenario, tmp_path / "out", methods=("bogus",))

    def test_rejects_unknown_method_at_the_parser(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        with pytest.raises(SystemExit):
            main(["unlearn", str(ini), "--method", "osmosis"])

    def test_unlearn_before_train_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        # no scenario.ini: not a run directory
        assert main(["unlearn", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "no such config file" in record["message"]
        assert not (out / "run.log").exists()
        # a scenario but no training
        write_ini(out, TINY_INI)
        assert main(["unlearn", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "FileNotFoundError"
        assert "run `train` first" in record["message"]


class TestMainErrors:
    def test_bad_config_exits_nonzero_with_json_record(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[federation]\nseed = abc\n")
        assert main(["train", str(ini)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "not a valid int" in record["message"]

    def test_range_errors_stop_before_any_artifact(self, tmp_path, capsys):
        ini = write_ini(tmp_path, TINY_INI.replace("attack_epochs = 5", "attack_epochs = 0")
                        + "eval_batch_size = 0\n")
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out)]) == 1
        lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError"
        assert "eval_batch_size must be at least 1" in record["message"]
        assert "attack_epochs must be at least 1" in record["message"]
        assert not (out / "retention").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "absent.ini")]) == 1
        assert last_stderr_record(capsys)["error"] == "ConfigError"

    def test_report_on_untouched_directory(self, tmp_path, capsys):
        empty = tmp_path / "nothing_here"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "no such config file" in record["message"]

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_scoring_before_train_fails(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        # no scenario.ini: not a run directory
        assert main([command, str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "no such config file" in record["message"]
        assert not (out / "run.log").exists()
        # a scenario but no training
        write_ini(out, TINY_INI)
        assert main([command, str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "FileNotFoundError"
        assert "no trained model" in record["message"]
        assert "run `train` first" in record["message"]

    @pytest.mark.parametrize("command,flags", [
        ("report", ["--seed", "9"]),  # would score the run's models on seed 9's data
        ("report", ["--out", "elsewhere"]),
        ("sweep", ["--resume"]),  # would train every point again
        ("attack", ["--seed", "9"]),  # would score the seed-5 models on seed 9's data
        ("attack", ["--out", "elsewhere"]),
        ("unlearn", ["--seed", "9"]),  # would retrain under seed 9 beside seed-5 models
    ])
    def test_flags_a_subcommand_does_not_take_are_refused(self, tmp_path, monkeypatch,
                                                          command, flags):
        monkeypatch.chdir(tmp_path)
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        if command == "sweep":
            args = [str(ini), "--out", str(out), "--param", "ratio", "--values", "0.5", *flags]
            scenario = None
        else:
            assert main(["train", str(ini), "--out", str(out)]) == 0
            args = [str(out), *flags]
            scenario = (out / "scenario.ini").read_bytes()
        with pytest.raises(SystemExit) as refused:
            main([command, *args])
        assert refused.value.code == 2
        if scenario is not None:
            assert (out / "scenario.ini").read_bytes() == scenario
        for rel in ("report.json", "attack.json", "unlearn.json"):
            assert not (out / rel).exists(), rel
        assert not (out / "ratio_0.5").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_the_attack_refuses_a_one_row_test_set(self, tmp_path, capsys):
        # 12 samples at test_fraction 0.1 leave one test row: no half to fit on
        ini = write_ini(tmp_path, TINY_INI.replace("test_fraction = 0.25", "test_fraction = 0.1")
                        .replace("synthetic_samples = 120", "synthetic_samples = 12")
                        .replace("num_clients = 3", "num_clients = 2")
                        .replace("retain_interval = 2", "retain_interval = 1"))
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["test_samples"] == 1
        assert main(["unlearn", str(out)]) == 0
        assert main(["attack", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == ("the membership attack splits the test set in half and "
                                     "needs at least 2 test rows; the test set has 1")
        assert not (out / "attack.json").exists()
        assert main(["report", str(out)]) == 0

    def test_seed_flag_overrides_the_file(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["train", str(ini), "--out", str(out), "--seed", "123"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"]["seed"] == 123


class TestRunLog:
    def test_each_run_directory_gets_its_own_log(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        for name in ("a", "b"):
            assert main(["train", str(ini), "--out", str(tmp_path / name)]) == 0
        for name in ("a", "b"):
            log = (tmp_path / name / "run.log").read_text()
            assert sum("trained" in line for line in log.splitlines()) == 1


class TestDataLoadedOnce:
    def test_cli_binds_the_data_modules_prepare_data(self):
        # perfbench binds cli.prepare_data, and its tracer patches it by identity
        assert cli.prepare_data is data.prepare_data

    @pytest.fixture
    def prepare_calls(self, monkeypatch):
        calls = []
        real = cli.prepare_data

        def counting(scenario):
            calls.append(scenario)
            return real(scenario)

        monkeypatch.setattr(cli, "prepare_data", counting)
        return calls

    def test_run_loads_once(self, tmp_path, prepare_calls):
        ini = write_ini(tmp_path, TINY_INI)
        assert main(["run", str(ini), "--out", str(tmp_path / "out")]) == 0
        assert len(prepare_calls) == 1

    def test_stage_commands_load_only_in_training(self, tmp_path, prepare_calls):
        ini, out = write_ini(tmp_path, TINY_INI), tmp_path / "out"
        for args in (["train", str(ini), "--out", str(out)], ["unlearn", str(out)],
                     ["attack", str(out)], ["report", str(out)],
                     ["run", str(ini), "--out", str(out), "--resume"]):
            assert main(args) == 0
        assert len(prepare_calls) == 1

    def test_sweep_loads_once_per_point(self, tmp_path, prepare_calls):
        ini = write_ini(tmp_path, TINY_INI)
        assert main(["sweep", str(ini), "--out", str(tmp_path / "sweep"),
                     "--param", "ratio", "--values", "0.5,1.0"]) == 0
        assert [p.calibration_ratio for p in prepare_calls] == [0.5, 1.0]


class TestDataSnapshot:
    """Training writes the data it prepared to RUN/data.fesp; every later
    stage reads that file, at the CRC32 training recorded, not the dataset."""

    SMALL = Path(__file__).resolve().parent.parent / "configs" / "synthetic_small.ini"

    def test_it_holds_the_prepared_shards_and_test_set_bit_for_bit(self, tmp_path):
        out = tmp_path / "out"
        assert main(["train", str(self.SMALL), "--out", str(out)]) == 0
        scenario = parse_scenario(self.SMALL, {"out_dir": str(out)})
        _, test, shards = data.prepare_data(scenario)
        sets = [*((f"client{s.client_id}", s.dataset) for s in shards), ("test", test)]
        want = [(f"{name}.{part}", getattr(ds, part)) for name, ds in sets
                for part in ("inputs", "labels")]
        snapshot = load_params(out / "data.fesp")
        assert snapshot.names == (*(name for name, _ in want), "num_classes")
        for (_, array), tensor in zip(want, snapshot.tensors):
            assert tensor.shape == array.shape
            assert tensor.tobytes() == array.astype(np.float64).tobytes()
        assert snapshot["num_classes"].tolist() == [2]
        # and a later stage's run reads back the very arrays prepare_data made
        run = cli.Run(scenario, out)
        assert [s.client_id for s in run.shards] == [s.client_id for s in shards]
        for got, (_, made) in zip([*(s.dataset for s in run.shards), run.test], sets):
            assert got.inputs.tobytes() == made.inputs.tobytes()
            assert got.labels.dtype == made.labels.dtype
            assert got.labels.tobytes() == made.labels.tobytes()
            assert got.num_classes == made.num_classes

    def test_later_stages_read_no_dataset_file(self, tmp_path):
        source = tmp_path / "cifar"
        source.mkdir()

        def write_batches(seed):
            rng = np.random.default_rng(seed)
            records = np.hstack([rng.integers(0, 10, size=(24, 1), dtype=np.uint8),
                                 rng.integers(0, 256, size=(24, 3072), dtype=np.uint8)])
            (source / "data_batch_1.bin").write_bytes(records.tobytes())

        write_batches(0)
        ini = write_ini(tmp_path, TINY_INI.replace(
            "dataset = synthetic", f"dataset = cifar10\npath = {source}").replace(
            "global_rounds = 4", "global_rounds = 2").replace(
            "local_epochs = 2", "local_epochs = 1").replace("batch_size = 16", "batch_size = 6"))
        untouched, staged = tmp_path / "untouched", tmp_path / "staged"
        assert main(["run", str(ini), "--out", str(untouched)]) == 0
        assert main(["train", str(ini), "--out", str(staged)]) == 0
        write_batches(1)
        _, test, _ = data.prepare_data(parse_scenario(ini))
        assert test.inputs.tobytes() != cli.Run(parse_scenario(ini), staged).test.inputs.tobytes()
        for command in ("unlearn", "attack", "report"):
            assert main([command, str(staged)]) == 0
        assert deterministic_files(staged) == deterministic_files(untouched)

    def test_a_flipped_byte_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        path = out / "data.fesp"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(raw)
        assert main(["unlearn", str(out)]) == 1
        message = last_stderr_record(capsys)["message"]
        assert message.startswith(f"{path} is not the file its record names")

    def test_accum_reads_none_of_it(self, tmp_path, capsys):
        # accum's arch comes from the initial model, so a damaged data.fesp
        # leaves it as it was, while the eraser, which trains, is refused
        out = tmp_path / "out"
        assert main(["train", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        assert main(["unlearn", str(out), "--method", "accum"]) == 0
        made = {rel: (out / rel).read_bytes() for rel in ("models/accum.fesp", "heads/accum.fesp")}
        assert "data.fesp" not in json.loads((out / "stages.json").read_text())["accum"]["reads"]
        path = out / "data.fesp"
        raw = bytearray(path.read_bytes())
        _, _, layout, offsets = _parse_header(bytes(raw))
        raw[offsets[layout.names.index("test.inputs")] + 3] ^= 0x01  # a low mantissa byte
        path.write_bytes(raw)
        assert main(["unlearn", str(out), "--method", "accum"]) == 0
        assert {rel: (out / rel).read_bytes() for rel in made} == made
        assert main(["unlearn", str(out), "--method", "eraser"]) == 1
        message = last_stderr_record(capsys)["message"]
        assert message.startswith(f"{path} is not the file its record names")

    def test_labels_that_are_not_whole_numbers_are_refused(self, tmp_path, capsys):
        # a label of 1.5 was once read as class 1
        out = tmp_path / "out"
        assert main(["train", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        arrays = {name: tensor.copy() for name, tensor in load_params(out / "data.fesp").items()}
        arrays["client2.labels"][4] = 1.5
        stages = json.loads((out / "stages.json").read_text())
        stages["train"]["writes"]["data.fesp"] = save_params(ParamSet(arrays.items()),
                                                             out / "data.fesp")
        (out / "stages.json").write_text(json.dumps(stages))
        assert main(["unlearn", str(out), "--method", "retrain"]) == 1
        record = last_stderr_record(capsys)
        assert (record["error"], record["message"]) == (
            "ValueError", "labels must be whole class indices; row 4 holds 1.5")

    def test_a_training_record_without_it_is_refused(self, tmp_path, capsys):
        # as a training recorded before the data was written to the run
        out = tmp_path / "out"
        assert main(["train", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        stages = json.loads((out / "stages.json").read_text())
        del stages["train"]["writes"]["data.fesp"]
        (out / "stages.json").write_text(json.dumps(stages))
        assert main(["unlearn", str(out), "--method", "retrain"]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "FileNotFoundError"
        assert "has no data.fesp; run `train` again" in record["message"]

    def test_resume_trains_again_on_a_training_record_without_it(self, tmp_path, caplog):
        # an entry that lists fewer files than training writes is not current
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        ini = write_ini(tmp_path, TINY_INI)
        assert main(["run", str(ini), "--out", str(out)]) == 0
        stages = json.loads((out / "stages.json").read_text())
        del stages["train"]["writes"]["data.fesp"]
        (out / "stages.json").write_text(json.dumps(stages))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        assert any(r.getMessage().startswith("training again") and "data.fesp unrecorded"
                   in r.getMessage() for r in caplog.records)
        assert main(["run", str(ini), "--out", str(fresh)]) == 0
        for rel in TestDeterminism.PARITY_FILES:
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel


class TestDamagedRecords:
    """--resume redoes a stage whose report or record cannot be read, and a
    stages.json that cannot be read holds no entry, with a warning naming it."""

    @pytest.mark.parametrize("text", ['{"x": 1', "{}"], ids=["torn", "no_scenario"])
    def test_an_unreadable_report_is_written_again(self, pipelines, tmp_path, text):
        ini, run_dir, _ = pipelines
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        (out / "report.json").write_text(text)
        assert main(["report", str(out), "--resume"]) == 0
        assert deterministic_files(out) == deterministic_files(run_dir)

    def test_an_unreadable_stage_record_redoes_every_stage(self, pipelines, tmp_path, caplog):
        ini, run_dir, _ = pipelines
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        (out / "stages.json").write_text('{"train": {')
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        assert any(r.levelno == logging.WARNING and str(out / "stages.json") in r.getMessage()
                   for r in caplog.records)
        assert not any(r.getMessage().endswith("skipping") for r in caplog.records)
        assert deterministic_files(out) == deterministic_files(run_dir)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda stages: [], id="a_list"),
        pytest.param(lambda stages: {"train": {}}, id="an_empty_entry"),
        *(pytest.param(lambda stages, key=key: {**stages, "train": {
            k: v for k, v in stages["train"].items() if k != key}}, id=f"no_{key}")
          for key in ("fields", "reads", "writes")),
    ])
    def test_a_stage_record_of_another_shape_redoes_every_stage(self, pipelines, tmp_path,
                                                                 caplog, damage):
        ini, run_dir, _ = pipelines
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        path = out / "stages.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"ignoring {path}: not the shape this version writes"]
        assert not any(r.getMessage().endswith("skipping") for r in caplog.records)
        assert deterministic_files(out) == deterministic_files(run_dir)

    def test_an_unreadable_stage_record_is_warned_about_once(self, pipelines, tmp_path,
                                                             caplog):
        ini, _, _ = pipelines
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        (out / "stages.json").write_text('{"train": {')
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["run", str(ini), "--out", str(out), "--resume"]) == 0
        ignored = [r for r in caplog.records if r.getMessage().startswith("ignoring")]
        assert len(ignored) == 1
        assert str(out / "stages.json") in ignored[0].getMessage()

    @pytest.mark.parametrize("name", ["profile.json", "unlearn.json"])
    def test_a_damaged_summary_is_read_as_empty(self, tmp_path, caplog, name):
        # no record vouches for either file: it is written again from this stage on
        out = tmp_path / "out"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        path = out / name
        path.write_text('{"x"')
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedunlearn.cli"):
            assert main(["unlearn", str(out), "--method", "accum"]) == 0
        assert any(r.levelno == logging.WARNING and r.getMessage().startswith(f"ignoring {path}")
                   for r in caplog.records)
        assert list(json.loads(path.read_text())) == ["accum"]

    def test_a_later_stage_without_a_readable_record_needs_a_training(self, tmp_path,
                                                                     capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_ini(tmp_path, TINY_INI)), "--out", str(out)]) == 0
        (out / "stages.json").write_text('{"train": {')
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "FileNotFoundError"
        assert record["message"] == f"no trained model under {out}; run `train` first"


class TestWritesDeclared:
    """cli._WRITES is the one list of the files each stage writes: every entry
    lists exactly its stage's, and a run directory holds no other file but the
    retention blobs and the files no entry lists."""

    UNLISTED = ("scenario.ini", "run.log", "stages.json", "profile.json", "unlearn.json")

    @pytest.mark.parametrize("which", ["combined", "staged"])
    def test_every_entry_lists_the_files_its_stage_declares(self, pipelines, which):
        out = pipelines[1 if which == "combined" else 2]
        stages = json.loads((out / "stages.json").read_text())
        assert set(stages) == set(cli._WRITES)
        for stage, entry in stages.items():
            assert set(entry["writes"]) == set(cli._WRITES[stage]), stage

    @pytest.mark.parametrize("stage", cli._READS)
    def test_every_read_names_a_declared_write(self, stage):
        for made, rel in cli._READS[stage]:
            assert rel in cli._WRITES[made], (stage, made, rel)

    @pytest.mark.parametrize("which", ["combined", "staged"])
    def test_no_file_is_written_undeclared(self, pipelines, which):
        out = pipelines[1 if which == "combined" else 2]
        manifest = json.loads((out / "retention" / "manifest.json").read_text())
        blobs = {f"retention/{entry['path']}" for clients in manifest["rounds"].values()
                 for entry in clients.values()}
        assert blobs
        declared = {rel for files in cli._WRITES.values() for rel in files}
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files - declared - blobs - set(self.UNLISTED) == set()


class TestSweep:
    def test_ratio_sweep_rows_and_degeneracy(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", "ratio", "--values", "0.5,1.0"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == SWEEP_COLUMNS
            rows = list(reader)
        assert [r["value"] for r in rows] == ["0.5", "1"]
        for row in rows:
            assert row["param"] == "ratio"
            assert row["error"] == ""
            assert 0.0 <= float(row["eraser_test_accuracy"]) <= 1.0
            assert 0.0 <= float(row["retrain_test_accuracy"]) <= 1.0
            assert float(row["eraser_seconds"]) > 0.0
            assert float(row["measured_speedup"]) > 0.0
        # at ratio 1.0 each calibration burst costs a full local-training
        # pass (2 epochs of 2), so the point is flagged
        assert rows[0]["degenerate"] == "false"
        assert rows[1]["degenerate"] == "true"
        assert float(rows[0]["expected_speedup"]) == 4.0
        assert float(rows[1]["expected_speedup"]) == 2.0
        assert float(rows[0]["schedule_speedup"]) == 8.0
        assert float(rows[1]["schedule_speedup"]) == 4.0
        assert (out / "ratio_0.5" / "models" / "eraser.fesp").exists()
        assert (out / "ratio_1" / "models" / "retrain.fesp").exists()

    @pytest.mark.parametrize("param, value", [("ratio", "0.5"), ("clients", "4")])
    def test_rows_are_read_from_each_points_report(self, tmp_path, param, value):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", param, "--values", value]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["error"] == ""
        report = json.loads((out / f"{param}_{value}" / "report.json").read_text())
        assert report["scenario"][cli.SWEEP_FIELDS[param]] == float(value)
        for method in ("eraser", "retrain"):
            scores = report["methods"][method]
            assert row[f"{method}_test_accuracy"] == format(scores["test_accuracy"], ".10g")
            assert row[f"{method}_target_accuracy"] == format(scores["target_accuracy"],
                                                              ".10g")
        for key in ("eraser", "retrain", "measured_speedup", "expected_speedup",
                    "schedule_speedup"):
            column = key if key.endswith("speedup") else f"{key}_seconds"
            assert row[column] == format(report["timings"][key], ".6f")
        assert (out / f"{param}_{value}" / "metrics.csv").exists()

    def test_a_seed_sweep_trains_each_seed(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", "seed", "--values", "1,2"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == SWEEP_COLUMNS
            rows = list(reader)
        assert [(r["param"], r["value"], r["error"]) for r in rows] == [("seed", "1", ""),
                                                                     ("seed", "2", "")]
        originals = [(out / f"seed_{seed}" / "models" / "original.fesp").read_bytes()
                     for seed in (1, 2)]
        assert originals[0] != originals[1]
        assert parse_scenario(out / "seed_2" / "scenario.ini").seed == 2

    def test_each_point_is_a_run_directory(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", "ratio", "--values", "0.5"]) == 0
        point = out / "ratio_0.5"
        assert parse_scenario(point / "scenario.ini") == dataclasses.replace(
            parse_scenario(ini), calibration_ratio=0.5, out_dir=str(point))
        assert not (out / "scenario.ini").exists()  # the sweep itself is not a run
        assert main(["attack", str(point)]) == 0
        assert main(["report", str(point)]) == 0
        report = json.loads((point / "report.json").read_text())
        assert set(report["attack"]) == {"original", "eraser", "retrain"}

    def test_ratios_with_the_same_calibration_epochs_warn(self, tmp_path, caplog):
        ini = write_ini(tmp_path, TINY_INI)
        # 2 local epochs: ratios 0.1 and 0.5 both calibrate for 1 epoch
        with caplog.at_level(logging.WARNING, logger="fedunlearn.cli"):
            assert main(["sweep", str(ini), "--out", str(tmp_path / "sweep"),
                         "--param", "ratio", "--values", "0.1,0.5,1.0"]) == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING and r.name == "fedunlearn.cli"]
        assert len(warnings) == 1
        assert "ratios 0.1, 0.5 all give calibration_epochs = 1" in warnings[0]

    def test_schedule_speedup_blank_without_calibrated_rounds(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", "interval", "--values", "4"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["error"] == ""
        assert row["schedule_speedup"] == ""
        assert float(row["expected_speedup"]) == 8.0

    def test_failing_point_becomes_an_error_row(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        # interval 5 exceeds the 4 training rounds, so that point fails
        # while the interval-2 point still completes
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", "interval", "--values", "2,5"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == ""
        assert rows[0]["eraser_test_accuracy"] != ""
        assert rows[1]["error"].startswith("ValueError")
        assert "retain_interval" in rows[1]["error"]
        assert rows[1]["eraser_test_accuracy"] == ""

    def test_fractional_value_of_a_whole_number_field_is_an_error_row(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", str(ini), "--out", str(out),
                     "--param", "interval", "--values", "2,2.7"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["2", "2.7"]
        assert rows[0]["error"] == ""
        assert rows[0]["eraser_test_accuracy"] != ""
        assert "retain_interval takes whole numbers" in rows[1]["error"]
        assert rows[1]["eraser_test_accuracy"] == ""
        assert (out / "interval_2").is_dir()
        assert not (out / "interval_2.7").exists()

    def test_empty_values_rejected(self, tmp_path, capsys):
        ini = write_ini(tmp_path, TINY_INI)
        assert main(["sweep", str(ini), "--out", str(tmp_path / "s"),
                     "--param", "ratio", "--values", ","]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert "at least one value" in record["message"]

    def test_unknown_param_rejected_by_parser(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI)
        with pytest.raises(SystemExit):
            main(["sweep", str(ini), "--param", "bogus", "--values", "1"])


class TestAngleTrajectories:
    def test_rerun_with_another_interval_keeps_the_angles(self, pipelines, tmp_path):
        ini, run_dir, _ = pipelines
        out = tmp_path / "out"
        interval_1 = write_ini(tmp_path, TINY_INI.replace("retain_interval = 2",
                                                          "retain_interval = 1"),
                               name="interval_1.ini")
        assert main(["run", str(interval_1), "--out", str(out)]) == 0
        assert main(["run", str(ini), "--out", str(out)]) == 0
        angles = json.loads((out / "report.json").read_text())["angles"]
        fresh = json.loads((run_dir / "report.json").read_text())["angles"]
        for name in ("eraser", "accum"):
            assert angles[name] == fresh[name]
            assert angles[f"{name}_mean"] == fresh[f"{name}_mean"]

    @pytest.mark.parametrize("method,steps", [("eraser", 1), ("retrain", 2)])
    def test_head_file_that_differs_from_its_record_is_refused(self, tmp_path, capsys,
                                                               method, steps):
        # a trajectory cut short, as a hand edit or a copy from another run
        # leaves it: its record names other bytes
        ini = write_ini(tmp_path, TINY_INI)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 0
        path = out / "heads" / f"{method}.fesp"
        save_params(ParamSet(list(load_params(path).items())[:steps]), path)
        (out / "report.json").unlink()
        assert main(["report", str(out)]) == 1
        record = last_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert f"{path} is not the file its record names" in record["message"]
        assert not (out / "report.json").exists()
