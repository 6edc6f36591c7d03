"""The benchmark's tracer (perfbench/tracing.py) patches this package from
outside: it finds each function it wraps by name, at every module that
binds it, and its counting hooks read call arguments by name. A rename
that breaks either would otherwise show only under `perfbench/run.py
--trace 1`. The tracer module is loaded from its file, unchanged."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import fedunlearn.cli  # noqa: F401 - imports every module the tracer patches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, function or Class.method) -> the arguments its tracer hook reads
HOOK_ARGUMENTS = {
    ("fedunlearn.nn.engine", "loss_and_grad"): {"batch"},
    ("fedunlearn.federation", "local_train"): {"round_index"},
    ("fedunlearn.unlearning", "calibrate_update"): {"fresh", "norm_mode", "epsilon"},
    ("fedunlearn.retention", "RetentionStore.store_round"): {"self", "round_index", "updates"},
    ("fedunlearn.retention", "RetentionStore.load_client"): {"self", "round_index",
                                                             "client_id"},
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
