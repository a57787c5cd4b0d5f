"""Byte-exact CLI output: every command in every format it supports.

The files under ``tests/golden/cli`` were recorded from a known-good
build; each case compares stdout with its file byte for byte.  To record
them again (only from a build whose output is known to be right):

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import contextlib
import io
from pathlib import Path

import pytest

from strcat import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# family, m, and the module arguments of hom, ext and syzygy
FAMILIES = [
    ("ae1", 3, ["V1", "V2"], ["V0", "V0"], ["V0", "--n", "1"]),
    ("ae2", 2, ["M1", "N2"], ["M1", "M1"], ["M1", "--n", "2"]),
    ("ae3", 3, ["X1", "Y2"], ["V3", "V3"], ["U1", "--n", "3"]),
]

FORMATS = ["table", "json", "csv"]


def cases():
    out = []
    for family, m, hom, ext, syz in FAMILIES:
        commands = [(["algebra", "info"], FORMATS),
                    (["strings"], FORMATS),
                    (["hom", *hom], FORMATS),
                    (["ext", *ext], FORMATS),
                    (["syzygy", *syz], FORMATS),
                    (["arquiver"], FORMATS + ["dot"]),
                    (["classify"], FORMATS)]
        for command, formats in commands:
            for fmt in formats:
                name = f"{family}_m{m}_{command[0]}_{fmt}.txt"
                argv = command + ["--family", family, "--m", str(m),
                                  "--format", fmt]
                out.append((name, argv))
    return out


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


CASES = cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_cli_output_is_byte_identical(name, argv):
    assert run(argv).encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / name).write_bytes(run(argv).encode("utf-8"))
