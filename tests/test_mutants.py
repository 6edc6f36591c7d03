"""The committed mutant table (tests/mutants.py) stays applicable: every
snippet occurs exactly once in its file, and every node it names is a test
that exists. Running the mutants themselves is opt-in."""

import ast

import pytest

from mutants import MUTANTS, REPO


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_changes_the_file(mutant):
    text = (REPO / "src" / mutant.path).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.nodes


def _defined_tests(path) -> set[tuple[str, ...]]:
    # (function,) and (class, method) for every test the file defines
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            found.add((node.name,))
        elif isinstance(node, ast.ClassDef):
            found |= {(node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)}
    return found


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_nodes_name_existing_tests(mutant):
    for node in mutant.nodes:
        path, *parts = node.split("::")
        assert tuple(parts) in _defined_tests(REPO / path), node
