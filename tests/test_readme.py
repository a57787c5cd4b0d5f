"""README's code against the package it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first Python block of README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    found = re.search(r"```python\n(.*?)```", section, re.S)
    assert found, "README's Library section has no python block"
    return found.group(1)


def test_the_library_example_runs(capsys):
    # every name it imports exists and every call it makes runs
    exec(compile(library_block(), str(README), "exec"), {})
    assert capsys.readouterr().out
