"""Byte-exact pins of ``zolocirc build`` for z4, z5 and z6.

``data/cli_build_golden.json`` maps each argv (space-joined) to the exit
code and stdout it produced when the pins were taken.  Every value in a
``build`` payload comes from scalar ``math`` code (coefficients, node
constants, the degree reduction), so the pins hold on any numpy build.
"""

import json
import math
import os

import pytest

from zolocirc.cli import main

with open(os.path.join(os.path.dirname(__file__), "data", "cli_build_golden.json")) as fh:
    GOLDEN = json.load(fh)


def test_pins_cover_the_stated_degrees():
    # (problem, degree, theta or ell); the window ends sit next to
    # THETA_MIN/ELL_MIN and THETA_MAX/ELL_MAX, and 1.5707963162581844 is
    # the largest double with sin(theta) < 1
    cases = {(w[2], int(w[4]), float(w[6])) for w in map(str.split, GOLDEN)}
    z4 = {("z4", m, 0.3) for m in (1, 4, 33, 255)} | {
        ("z4", m, ell) for ell in (1.0000001e-8, 1.0 - 1e-7) for m in (1, 2, 255, 256)
    }
    arcs = {(p, m, 1.0) for p in ("z5", "z6") for m in (0, 7, 64)} | {
        (p, m, theta)
        for p in ("z5", "z6")
        for theta in (2e-4, 0.5 * math.pi - 1e-5, 1.5707963162581844)
        for m in (1, 2, 255, 256)
    }
    assert cases == z4 | arcs


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_build_bytes(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == GOLDEN[argv]["exit_code"]
    assert captured.err == ""
    assert captured.out == GOLDEN[argv]["stdout"]
