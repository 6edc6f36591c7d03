"""The benchmark's tracer (perfbench/tracing.py) patches this package from
outside: it finds each function it wraps by name, at every module that
binds it, and its counting hooks read call arguments by name. A rename
that breaks either, or a loop change that breaks its work counts, would
otherwise show only under `perfbench/run.py --trace 1`. The tracer and
workload modules are loaded from their files, unchanged."""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from fedunlearn import cli  # imports every module the tracer patches

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (module, function or Class.method) -> the arguments its tracer hook reads
HOOK_ARGUMENTS = {
    ("fedunlearn.nn.engine", "loss_and_grad"): {"batch"},
    ("fedunlearn.federation", "local_train"): {"round_index"},
    ("fedunlearn.unlearning", "calibrate_update"): {"fresh", "norm_mode", "epsilon"},
    ("fedunlearn.retention", "RetentionStore.store_round"): {"self", "round_index", "updates"},
    ("fedunlearn.retention", "RetentionStore.load_client"): {"self", "round_index",
                                                             "client_id"},
}


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def resolve(module: str, dotted: str):
    target = sys.modules[module]
    for part in dotted.split("."):
        target = getattr(target, part)
    return target


def package_state(tracing) -> dict:
    """Every attribute of every loaded package module and traced class."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "fedunlearn"]
    owners += [resolve(module, cls) for module, cls, _ in tracing.METHODS]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_every_traced_name_resolves(tracing):
    for module, functions in tracing.FUNCTIONS.items():
        for name in functions:
            assert callable(resolve(module, name)), f"{module}.{name}"
    for module, cls, name in tracing.METHODS:
        assert callable(resolve(module, f"{cls}.{name}")), f"{module}.{cls}.{name}"


@pytest.mark.parametrize("module,name", sorted(HOOK_ARGUMENTS))
def test_hook_arguments_are_parameters(module, name):
    parameters = inspect.signature(resolve(module, name)).parameters
    assert HOOK_ARGUMENTS[(module, name)] <= set(parameters)


def test_install_then_uninstall_restores_every_patched_attribute(tracing):
    before = package_state(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._restore]
        assert all(getattr(owner, attr) is not before[id(owner)][1][attr]
                   for owner, attr in patched)
        for module, functions in tracing.FUNCTIONS.items():
            for name in functions.values():
                assert tracer.counters[f"sites.{name}"] >= 1, name
    finally:
        tracer.uninstall()
    assert {owner for owner, _ in patched} >= {resolve(m, c) for m, c, _ in tracing.METHODS}
    after = package_state(tracing)
    assert after.keys() == before.keys()
    for key, (owner, attributes) in before.items():
        now = after[key][1]
        assert now.keys() == attributes.keys(), owner
        changed = [attr for attr, value in attributes.items() if now[attr] is not value]
        assert not changed, (owner, changed)


# 93 training rows over 4 clients (24, 23, 23, 23) at batch 10: every epoch
# of every client ends on a ragged step
COUNTED_INI = """\
[data]
dataset = synthetic
test_fraction = 0.25
synthetic_samples = 124
synthetic_features = 6
synthetic_classes = 2

[federation]
num_clients = 4
global_rounds = 4
local_epochs = 2
batch_size = 10
seed = 3
hidden_units = 4

[unlearning]
target_client = 2
retain_interval = 2
calibration_ratio = 0.5

[output]
dir = {out}
"""


def test_work_counters_match_the_closed_form_and_the_trajectories(tracing, tmp_path):
    out = tmp_path / "out"
    ini = tmp_path / "scenario.ini"
    ini.write_text(COUNTED_INI.format(out=out))
    scenario = cli.parse_scenario(ini)
    target = scenario.target_client
    stages = {"train": (cli.run_train, {}),
              **{m: (cli.run_unlearn, {"methods": (m,)}) for m in ("eraser", "retrain")}}
    traced = {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for stage, (fn, kwargs) in stages.items():
            before = tracer.counters["sample_grads"]
            tracer.stage(stage, target, fn, scenario, out, **kwargs)
            traced[stage] = (tracer.counters[f"sgd_steps.{stage}"],
                             tracer.counters["sample_grads"] - before)
    finally:
        tracer.uninstall()

    train, test, _ = cli.prepare_data(scenario)
    schedule = load("workloads").Schedule.of(scenario, train.num_samples + test.num_samples)
    closed_form = {stage: (schedule.sgd_steps(stage, target),
                           schedule.sample_grads(stage, target)) for stage in stages}
    assert closed_form["eraser"][0] > 0
    assert traced == closed_form
    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((out / "unlearn.json").read_text())
    recorded = {"train": (manifest["sgd_steps"], manifest["sample_grads"]),
                **{m: (summary[m]["sgd_steps"], summary[m]["sample_grads"])
                   for m in ("eraser", "retrain")}}
    assert recorded == closed_form


def test_store_counters_match_the_manifest_and_the_replay(tracing, tmp_path):
    # the tracer finds blobs at round_<t>/client_<k>.fesp after each
    # store_round and load_client: every blob accum reads goes through
    # load_client, once per retained round and remaining client
    out = tmp_path / "out"
    ini = tmp_path / "scenario.ini"
    ini.write_text(COUNTED_INI.format(out=out))
    scenario = cli.parse_scenario(ini)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.stage("train", scenario.target_client, cli.run_train, scenario, out)
        tracer.stage("accum", scenario.target_client, cli.run_unlearn, scenario, out,
                     methods=("accum",))
    finally:
        tracer.uninstall()
    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((out / "unlearn.json").read_text())
    assert tracer.counters["bytes_written"] == manifest["retention_bytes"]
    assert tracer.counters["bytes_read"] == summary["accum"]["store_bytes_read"] > 0
    assert tracer.totals["retention.load_client"][0] == (
        len(manifest["retained_rounds"]) * (scenario.num_clients - 1))
