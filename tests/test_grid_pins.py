"""Pins of the grid route: reports and ``max_phase_error`` on rationals that are not optima.

``data/grid_pins.json`` maps a key 'problem kind degree theta grid_n' to
the phase report (or the ``ResolutionError`` it raised) and the
``max_phase_error`` of that rational at that grid, as they were when the
pins were taken.  ``kind`` names how the rational comes from the built
optimum of that degree (``build_s`` for z6, ``build_r`` for z5):
``tampered`` moves its first factor as ``TestReportedGrid`` does (s: times
1.05, r: plus 1e-3), ``reciprocal`` is 1/R (z5 only: 1/s_m is the second
optimum of z6, read at its nodes) and ``quarter`` is i R.
Counts, grid size, method, expected count and predicted error must match
exactly; the measured maximum, the extrema and ``max_phase_error`` come
from numpy grids and are compared within 2e-15 absolute, as the CLI
report pins are.
"""

import json
import os

import pytest

from zolocirc import analysis as an
from zolocirc import approximants as ap
from zolocirc.errors import ResolutionError

with open(os.path.join(os.path.dirname(__file__), "data", "grid_pins.json")) as fh:
    PINS = json.load(fh)

MEASURED_TOL = 2e-15


def rational(key):
    """(R, theta, problem, grid_n) named by a key such as 'z6 tampered 6 1.0 256'."""
    problem, kind, degree, theta, grid_n = key.split()
    theta = float(theta)
    r = (ap.build_r if problem == "z5" else ap.build_s)(int(degree), theta)
    if kind == "tampered":
        first = r.factors[0] + 1e-3 if problem == "z5" else 1.05 * r.factors[0]
        r = ap.UnimodularRational(r.quarter_turns, (first,) + r.factors[1:], r.family)
    elif kind == "reciprocal":
        r = r.reciprocal()
    elif kind == "quarter":
        r = ap.UnimodularRational((r.quarter_turns + 1) % 4, r.factors, r.family)
    return r, theta, problem, int(grid_n)


def measure(key):
    """The pin of ``key``: {"report": fields or {"raises": text}, "max_phase_error": value}."""
    r, theta, problem, grid_n = rational(key)
    report = an.phase_error_sqrt if problem == "z5" else an.phase_error_sign
    try:
        rep = report(r, theta, grid_n)
    except ResolutionError as exc:
        fields = {"raises": str(exc)}
    else:
        fields = {
            "max_error": rep.max_error,
            "predicted": rep.predicted,
            "extrema": [[float(t), float(e)] for t, e in rep.extrema],
            "arcs": list(rep.arcs),
            "grid_size": rep.grid_size,
            "expected": rep.expected,
            "method": rep.method,
        }
    return {"report": fields, "max_phase_error": an.max_phase_error(r, theta, problem, grid_n)}


def test_pins_cover_every_kind_and_both_outcomes():
    words = [key.split() for key in PINS]
    kinds = {(p, k) for p in ("z5", "z6") for k in ("tampered", "reciprocal", "quarter")} - {("z6", "reciprocal")}
    assert {(w[0], w[1]) for w in words} == kinds
    assert any("raises" in pin["report"] for pin in PINS.values())
    assert all(pin["report"].get("method", "grid") == "grid" for pin in PINS.values())


@pytest.mark.parametrize("key", sorted(PINS))
def test_grid_route(key):
    got, pin = measure(key), PINS[key]
    assert abs(got["max_phase_error"] - pin["max_phase_error"]) <= MEASURED_TOL
    got, pin = got["report"], pin["report"]
    assert list(got) == list(pin)
    for name, value in pin.items():
        if name == "max_error":
            assert abs(got[name] - value) <= MEASURED_TOL
        elif name == "extrema":
            assert len(got[name]) == len(value)
            for pair, pinned in zip(got[name], value):
                assert max(abs(g - p) for g, p in zip(pair, pinned)) <= MEASURED_TOL
        else:
            assert got[name] == value, name


# built optima, which a report reads at their nodes and max_phase_error on the grid like any other rational
OPTIMA = ["z6 optimum 0 1.0 128", "z6 optimum 8 1.0 128", "z6 optimum 24 1.0 200", "z5 optimum 3 0.7 128",
          "z5 optimum 6 0.3 128"]


@pytest.mark.parametrize("key", sorted(PINS) + OPTIMA)
def test_max_phase_error_is_the_grid_routes_amplitude(key):
    r, theta, problem, grid_n = rational(key)
    jobs = an._arc_jobs(r, theta, problem)
    got = an.max_phase_error(r, theta, problem, grid_n)
    assert got == an._tally([an._arc_extrema(fn, lo, hi, grid_n) for fn, lo, hi in jobs])[0]
    report = an.phase_error_sqrt if problem == "z5" else an.phase_error_sign
    if key in PINS and "grid_size" in PINS[key]["report"]:  # on the grid a report counted on, its amplitude
        rep = report(r, theta, grid_n)
        assert an.max_phase_error(r, theta, problem, rep.grid_size) == rep.max_error
    if key in OPTIMA:
        node = report(r, theta, grid_n)
        assert node.method == "nodes"
        if node.max_error > 1e-13:  # the grid resolves the amplitude to a few ulp(pi)
            assert abs(got - node.max_error) <= 2e-15
        else:  # a flat arc reads its error at the midpoint alone, here 0 at the centre of the z5 arc
            assert got == max(abs(fn(0.5 * (lo + hi))) for fn, lo, hi in jobs) == 0.0
