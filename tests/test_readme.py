"""README's library example runs as written, and its CLI examples parse."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import gramoverlap
from gramoverlap import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(title: str, lang: str = "python") -> str:
    """The first ```lang block under the README heading ``title``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    namespace = {}
    exec(compile(section_code("Library quickstart"), str(README), "exec"), namespace)
    assert "ErrorReport(" in capsys.readouterr().out
    assert namespace["report"].partition.n == namespace["pair"].x.shape[1]


def test_cli_examples_parse():
    # parsing only: a flag the parser no longer defines exits 2 here
    code = section_code("CLI", "bash").replace("\\\n", " ")
    commands = [
        shlex.split(line)[1:]
        for line in code.splitlines()
        if line.startswith("gramoverlap ")
    ]
    assert {argv[0] for argv in commands} == {
        "gen", "match", "eval", "bench", "imgdiff"
    }
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def table_call(name: str):
    """The object an entry-point table name calls: a package attribute
    (``match``), a member of one (``OverlapMatrix.wrap``), or a function of
    one of its modules (``bench.run_sweep``)."""
    head, _, member = name.partition(".")
    owner = getattr(gramoverlap, head, None)
    if owner is None and member:
        owner = importlib.import_module(f"gramoverlap.{head}")
    return getattr(owner, member, None) if member else owner


def test_entry_point_table_names_only_public_calls():
    # a call removed from the package cannot linger in the table
    text = README.read_text(encoding="utf-8")
    table = text.split("\nKey entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = [
        call.split("(", 1)[0].strip()
        for row in rows
        for call in row.split("`", 2)[1].split(" / ")
    ]
    assert len(names) >= len(rows) > 0
    assert [name for name in names if table_call(name) is None] == []
