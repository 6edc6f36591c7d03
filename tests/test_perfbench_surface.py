"""Every name the benchmark (perfbench/*.py) takes from this package still
resolves: each `from fedunlearn... import`, each attribute read off the
`cli` module, and each attribute read off a retention store it opens.
A prune that drops one of them would otherwise pass every other test and
fail only when the benchmark runs. The benchmark's sources are parsed
with `ast`, not run."""

import ast
import importlib
from pathlib import Path

import pytest

from fedunlearn import cli
from fedunlearn.data import FedConfig
from fedunlearn.nn import dense_arch
from fedunlearn.retention import RetentionStore, StoreFingerprint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def dotted(node: ast.expr) -> list[str]:
    """`a.b.c` as ["a", "b", "c"]; a root that is not a name reads ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "")
    return parts[::-1]


def package_uses(source: str) -> dict[str, set[tuple[str, ...]]]:
    """What `source` takes from the package: "import" -> (module, name)
    pairs, "cli" -> attribute names read off a `cli` or `*.cli` binding,
    "store" -> attribute paths read off `*RetentionStore` or off a name
    bound to `*RetentionStore.open(...)` in the same function."""
    tree = ast.parse(source)
    uses: dict[str, set[tuple[str, ...]]] = {"import": set(), "cli": set(), "store": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fedunlearn":
            uses["import"].update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = dotted(node.value)[-1]
            if owner == "cli":
                uses["cli"].add((node.attr,))
            elif owner == "RetentionStore":
                uses["store"].add((node.attr,))
    for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        stores = {target.id for n in ast.walk(function) if isinstance(n, ast.Assign)
                  and isinstance(n.value, ast.Call)
                  and dotted(n.value.func)[-2:] == ["RetentionStore", "open"]
                  for target in n.targets if isinstance(target, ast.Name)}
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and (names := dotted(node))[0] in stores:
                uses["store"].add(tuple(names[1:]))
    return uses


@pytest.fixture(scope="module")
def uses() -> dict[str, set[tuple[str, ...]]]:
    merged: dict[str, set[tuple[str, ...]]] = {"import": set(), "cli": set(), "store": set()}
    for path in SOURCES:
        for kind, found in package_uses(path.read_text()).items():
            merged[kind] |= found
    return merged


def test_the_parse_finds_each_kind_of_use():
    source = ("from fedunlearn.nn import forward\n"
              "def f(bench, root):\n"
              "    cli = bench.cli\n"
              "    cli.run_train()\n"
              "    store = bench.RetentionStore.open(root)\n"
              "    RetentionStore.create(root)\n"
              "    return store.fingerprint.num_clients, bench.cli.prepare_data\n")
    assert package_uses(source) == {
        "import": {("fedunlearn.nn", "forward")},
        "cli": {("run_train",), ("prepare_data",)},
        "store": {("open",), ("create",), ("fingerprint",), ("fingerprint", "num_clients")},
    }


def test_the_benchmark_uses_what_this_guard_names(uses):
    # an empty set here would mean the parse no longer sees the benchmark's code
    assert ("fedunlearn.federation", "aggregate") in uses["import"]
    assert {("run_train",), ("run_unlearn",), ("parse_scenario",)} <= uses["cli"]
    assert {("open",), ("load_round",), ("total_blob_bytes",)} <= uses["store"]


def test_every_imported_name_resolves(uses):
    missing = []
    for module, name in sorted(uses["import"]):
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_every_cli_attribute_resolves(uses):
    assert [name for (name,) in sorted(uses["cli"]) if not hasattr(cli, name)] == []


def test_every_store_attribute_resolves(uses, tmp_path):
    store = RetentionStore.create(tmp_path / "retention",
                                  StoreFingerprint.of(dense_arch(4, 2, hidden=3), FedConfig()))
    opened = RetentionStore.open(store.root)
    missing = []
    for path in sorted(uses["store"]):
        owner = opened
        for part in path:
            if not hasattr(owner, part):
                missing.append(".".join(path))
                break
            owner = getattr(owner, part)
    assert missing == []
