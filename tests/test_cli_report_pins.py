"""Pins of the ``zolocirc error`` and ``bounds`` reports for z5 and z6.

``data/cli_report_pins.json`` maps each argv (space-joined) to the exit
code, ``inputs`` and ``results`` it produced when the pins were taken; a
CSV table is stored as its rows, with ``inputs`` null.  Fields computed by
scalar ``math`` code (counts, grid size, predicted error, bounds) must
match exactly.  Measured values (the maximum error, the extrema and the
measured column of ``bounds``) come from grids sampled by numpy, whose
rounding may differ in the last digits between builds, so they are
compared within 2e-15 absolute.
"""

import json
import os

import pytest

from zolocirc.cli import main

with open(os.path.join(os.path.dirname(__file__), "data", "cli_report_pins.json")) as fh:
    PINS = json.load(fh)

MEASURED_TOL = 2e-15


def parse(out):
    """(inputs, results) of a JSON report, or (None, rows) of a bounds CSV table."""
    if out.startswith("degree,"):
        rows = [line.split(",") for line in out.splitlines()[1:]]
        keys = ("degree", "measured", "bound_rho", "bound_secant")
        return None, {"rows": [dict(zip(keys, [int(d)] + [float(v) for v in rest])) for d, *rest in rows]}
    doc = json.loads(out)
    return doc["inputs"], doc["results"]


def test_pins_cover_both_problems_and_formats():
    words = [argv.split() for argv in PINS]
    assert {(w[0], w[2]) for w in words} == {(c, p) for c in ("error", "bounds") for p in ("z5", "z6")}
    formats = {w[w.index("--format") + 1] if "--format" in w else "csv" for w in words if w[0] == "bounds"}
    assert formats == {"csv", "json"}


@pytest.mark.parametrize("argv", sorted(PINS))
def test_report_fields(capsys, argv):
    pin = PINS[argv]
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == pin["exit_code"]
    assert captured.err == ""
    inputs, results = parse(captured.out)
    assert inputs == pin["inputs"]
    want = pin["results"]
    assert list(results) == list(want)
    for key, value in want.items():
        if key == "rows":
            assert len(results["rows"]) == len(value)
            for row, pinned in zip(results["rows"], value):
                assert list(row) == list(pinned)
                assert abs(row["measured"] - pinned["measured"]) <= MEASURED_TOL
                assert {k: row[k] for k in row if k != "measured"} == {k: pinned[k] for k in pinned if k != "measured"}
        elif key == "measured_max_error":
            assert abs(results[key] - value) <= MEASURED_TOL
        elif key == "extrema":
            assert len(results[key]) == len(value)
            for got, pinned in zip(results[key], value):
                assert max(abs(g - p) for g, p in zip(got, pinned)) <= MEASURED_TOL
        else:
            assert results[key] == value, key
