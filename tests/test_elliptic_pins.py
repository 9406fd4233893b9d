"""Bitwise pins of the elliptic scalars that every node and bound reads.

``data/elliptic_pins.json`` holds, as they were when the pins were taken:
``complete_K``, ``groetzsch_mu`` and ``EllipticModulus.from_ell`` (K,
K_comp, mu, rho) at moduli from 0 to 1 - 1e-7; ``solve_lambda`` (lam,
lam_comp, M) at (cos Theta, m, sin Theta) and at (0.5, 800);
``jacobi_sncndn`` at multiples of K; and ``eval_F_direct`` on both its
elliptic (|x| <= ell) and product branches.  All come from scalar ``math``
code only, so they must match exactly on any build.
"""

import json
import math
import os

import pytest

from zolocirc import elliptic as el
from zolocirc.approximants import ZolotarevFraction, eval_F_direct

with open(os.path.join(os.path.dirname(__file__), "data", "elliptic_pins.json")) as fh:
    PINS = json.load(fh)


def _fields(key):
    """{'theta': 1.0, 'm': 16.0, ...} from a key such as 'theta 1.0 m 16'."""
    words = key.split()
    return {name: float(value) for name, value in zip(words[::2], words[1::2])}


def pin(family, key):
    """The value that ``PINS[family][key]`` pins, computed from src/ (tests/data/make_pins.py writes it)."""
    f = _fields(key)
    if family == "complete_K":
        return el.complete_K(float(key))
    if family == "groetzsch_mu":
        return el.groetzsch_mu(float(key))
    if family == "from_ell":
        mod = el.EllipticModulus.from_ell(float(key))
        return [mod.K, mod.K_comp, mod.mu, mod.rho]
    if family == "solve_lambda":
        if "theta" in f:
            red = el.solve_lambda(math.cos(f["theta"]), int(f["m"]), math.sin(f["theta"]))
        else:
            red = el.solve_lambda(f["ell"], int(f["m"]))
        return [red.lam, red.lam_comp, red.M]
    if family == "jacobi_sncndn":
        return list(el.jacobi_sncndn(f["u"] * el.complete_K(f["ell"]), f["ell"]))
    if family == "eval_F_direct":
        return list(eval_F_direct(ZolotarevFraction.from_ell(int(f["m"]), f["ell"]), f["x"]))
    raise KeyError(family)


def test_pins_cover_the_stated_grid():
    assert len(PINS["complete_K"]) == 7 and "0.0" in PINS["complete_K"]
    assert sorted(PINS["groetzsch_mu"]) == sorted(PINS["from_ell"]) == sorted(set(PINS["complete_K"]) - {"0.0"})
    assert len(PINS["solve_lambda"]) == 4 * 4 + 1
    assert len(PINS["jacobi_sncndn"]) == 3 * 6
    assert len(PINS["eval_F_direct"]) == 2 * 3 * 5


@pytest.mark.parametrize("key", sorted(PINS["complete_K"]))
def test_complete_K(key):
    assert pin("complete_K", key) == PINS["complete_K"][key]


@pytest.mark.parametrize("key", sorted(PINS["groetzsch_mu"]))
def test_groetzsch_mu(key):
    assert pin("groetzsch_mu", key) == PINS["groetzsch_mu"][key]


@pytest.mark.parametrize("key", sorted(PINS["from_ell"]))
def test_modulus_from_ell(key):
    assert pin("from_ell", key) == PINS["from_ell"][key]


@pytest.mark.parametrize("key", sorted(PINS["solve_lambda"]))
def test_solve_lambda(key):
    assert pin("solve_lambda", key) == PINS["solve_lambda"][key]


@pytest.mark.parametrize("key", sorted(PINS["jacobi_sncndn"]))
def test_jacobi_sncndn(key):
    assert pin("jacobi_sncndn", key) == PINS["jacobi_sncndn"][key]


@pytest.mark.parametrize("key", sorted(PINS["eval_F_direct"]))
def test_eval_F_direct(key):
    assert pin("eval_F_direct", key) == PINS["eval_F_direct"][key]
