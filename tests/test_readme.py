"""README's "Library use" example runs as written, and its `fedunlearn`
commands parse, against the current API and CLI."""

import re
import shlex
from pathlib import Path

import pytest

from fedunlearn import cli
from fedunlearn.federation import Trajectory

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the example creates its store in the working directory
    namespace: dict = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    config, store = namespace["config"], namespace["store"]
    assert (tmp_path / "demo-store" / "manifest.json").exists()
    for name in ("original", "erased", "retrained"):
        assert isinstance(namespace[name], Trajectory), name
    assert len(namespace["original"].mean_losses) == config.global_rounds
    assert len(namespace["retrained"].heads) == config.global_rounds
    assert len(namespace["erased"].heads) == len(store.retained_rounds)
    assert namespace["erased"].mean_losses == ()
    scores = namespace["scores"]
    assert list(scores) == list(namespace["models"])
    for record in scores.values():
        assert set(record) == {"precision", "recall", "f1", "accuracy"}
        assert all(0.0 <= value <= 1.0 for value in record.values())


def readme_commands() -> list[str]:
    """Every `fedunlearn` command of README's `sh` blocks, continuation
    lines joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["fedunlearn"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {words[0] for words in commands} == {
        "run", "train", "unlearn", "attack", "report", "sweep"}
    parser = cli.build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README command does not parse: fedunlearn {shlex.join(words)}")


def stage_table() -> dict[str, set[str]]:
    """The files column of README's stage table, by stage: a row that names
    several stages gives each its files, with `<method>` read as the stage."""
    section = README.read_text().split("\n### Stage records\n", 1)[1]
    header = "| stage | fields its entry holds | files it writes |\n|---|---|---|\n"
    rows = section.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    table = {}
    for row in rows:
        stages, _, files = (cell.strip() for cell in row.strip("|").split("|"))
        for stage in re.findall(r"`([^`]+)`", stages):
            table[stage] = {name.replace("<method>", stage)
                            for name in re.findall(r"`([^`]+)`", files)}
    return table


def test_stage_table_lists_the_files_each_stage_writes():
    table = stage_table()
    assert list(table) == list(cli._WRITES)
    for stage, files in cli._WRITES.items():
        assert table[stage] == set(files), stage
