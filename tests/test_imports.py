"""No module of the package imports a name it never uses.

A name counts as used when the module reads it anywhere, or lists it in
its `__all__` (a re-export). The check parses the sources with the
standard library's `ast`, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedunlearn"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Each name an import in `source` binds that the source never reads,
    as "name (line N)"."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys\nfrom typing import Any, cast\n"
              "from . import kept\n__all__ = ['kept']\nprint(sys.argv, cast)\n")
    assert unused_imports(source) == ["Any (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
