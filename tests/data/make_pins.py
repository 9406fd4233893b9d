"""Recompute every pin in tests/data from the code in src/.

    PYTHONPATH=src python tests/data/make_pins.py

For each existing key of elliptic_pins.json, node_pins.json,
cli_build_golden.json, cli_report_pins.json and grid_pins.json the value is recomputed
exactly as the pin test computes it, and the file is rewritten in place;
no key is added or removed.  Pins guard refactors: run this only for a
change that is meant to move pinned bits, and check the moved values
against tests/mpref.py.  pytest does not collect this file.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))  # the tests, for their pin bodies and key parsers

from test_cli_report_pins import parse
from test_elliptic_pins import pin as elliptic_pin
from test_grid_pins import measure
from test_node_pins import pin as node_pin

from zolocirc.cli import main as cli_main


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv.split())
    return code, out.getvalue()


def build_pin(argv):
    code, out = run(argv)
    return {"exit_code": code, "stdout": out}


def report_pin(argv):
    code, out = run(argv)
    inputs, results = parse(out)
    return {"exit_code": code, "inputs": inputs, "results": results}


def rewrite(name, recompute):
    path = os.path.join(HERE, name)
    with open(path) as fh:
        pins = json.load(fh)
    pins = recompute(pins)
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


def main():
    rewrite("elliptic_pins.json", lambda p: {fam: {k: elliptic_pin(fam, k) for k in p[fam]} for fam in p})
    rewrite("node_pins.json", lambda p: {fam: {k: node_pin(fam, k) for k in p[fam]} for fam in p})
    rewrite("cli_build_golden.json", lambda p: {argv: build_pin(argv) for argv in p})
    rewrite("cli_report_pins.json", lambda p: {argv: report_pin(argv) for argv in p})
    rewrite("grid_pins.json", lambda p: {key: measure(key) for key in p})


if __name__ == "__main__":
    main()
