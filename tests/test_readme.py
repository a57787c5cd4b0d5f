"""README's code against the package it documents."""

import re
import shlex
from pathlib import Path

from strcat import cli, families, quiver_core

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of README's ``## title`` section."""
    text = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def library_block() -> str:
    """The first Python block of README's ``## Library`` section."""
    found = re.search(r"```python\n(.*?)```", section("Library"), re.S)
    assert found, "README's Library section has no python block"
    return found.group(1)


def test_the_library_example_runs(capsys):
    # every name it imports exists and every call it makes runs
    exec(compile(library_block(), str(README), "exec"), {})
    assert capsys.readouterr().out


def command_lines() -> list[tuple[list[str], str]]:
    """(arguments, comment) of each line of the first shell block of
    README's ``## Command line`` section."""
    found = re.search(r"```sh\n(.*?)```", section("Command line"), re.S)
    assert found, "README's Command line section has no sh block"
    lines = []
    for line in found.group(1).splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "strcat", line
        lines.append((argv[1:], comment.strip()))
    return lines


# a value a comment states -> the line the command prints for it
STATED = {
    "dim Hom(V2, V3) = 3": "dim Hom(V2, V3) = 3\n",
    "dim Ext^1 = 1": "dim Ext1(V3, V3) = 1\n",
    "Omega^2(V0) = V0": "Omega^2(V0) has dimension vector (1,), isomorphic to V0\n",
}


def test_the_command_line_examples_run(capsys):
    # every line exits 0, and prints what its comment states
    lines = command_lines()
    assert set(STATED) <= {comment for _, comment in lines}
    for argv, comment in lines:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out, argv
        assert out == STATED.get(comment, out), argv


def test_the_family_ranges_and_the_dimension_cap_are_the_package_s():
    # each row of the family table states the m the record accepts, and
    # both statements of the dimension cap state quiver_core.MAX_DIM
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` .*\| `(\d+) <= m <= (\d+)` *\|$",
                      section("The built-in families"), re.M)
    assert {name: (int(lo), int(hi)) for name, lo, hi in rows} == {
        name: (f.m_min, f.m_max) for name, f in families.FAMILIES.items()}
    assert len(rows) == len(families.FAMILIES)
    stated = (re.findall(r"`quiver_core\.MAX_DIM = (\d+)`", text)
              + re.findall(r"outside 1\.\.(\d+)", text))
    assert len(stated) == 2 and {int(n) for n in stated} == {quiver_core.MAX_DIM}
