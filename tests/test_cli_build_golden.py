"""Byte-exact pins of ``zolocirc build`` for z4, z5 and z6.

``data/cli_build_golden.json`` maps each argv (space-joined) to the exit
code and stdout it produced when the pins were taken.  Every value in a
``build`` payload comes from scalar ``math`` code (coefficients, node
constants, the degree reduction), so the pins hold on any numpy build.
"""

import json
import os

import pytest

from zolocirc.cli import main

with open(os.path.join(os.path.dirname(__file__), "data", "cli_build_golden.json")) as fh:
    GOLDEN = json.load(fh)


def test_pins_cover_the_stated_degrees():
    degrees = {(argv.split()[2], int(argv.split()[4])) for argv in GOLDEN}
    assert degrees == {("z4", m) for m in (1, 4, 33, 255)} | {
        (p, m) for p in ("z5", "z6") for m in (0, 7, 64)
    }


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_build_bytes(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == GOLDEN[argv]["exit_code"]
    assert captured.err == ""
    assert captured.out == GOLDEN[argv]["stdout"]
