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


def test_pins_cover_the_stated_grid():
    assert len(PINS["complete_K"]) == 7 and "0.0" in PINS["complete_K"]
    assert sorted(PINS["groetzsch_mu"]) == sorted(PINS["from_ell"]) == sorted(set(PINS["complete_K"]) - {"0.0"})
    assert len(PINS["solve_lambda"]) == 4 * 4 + 1
    assert len(PINS["jacobi_sncndn"]) == 3 * 6
    assert len(PINS["eval_F_direct"]) == 2 * 3 * 5


@pytest.mark.parametrize("key", sorted(PINS["complete_K"]))
def test_complete_K(key):
    assert el.complete_K(float(key)) == PINS["complete_K"][key]


@pytest.mark.parametrize("key", sorted(PINS["groetzsch_mu"]))
def test_groetzsch_mu(key):
    assert el.groetzsch_mu(float(key)) == PINS["groetzsch_mu"][key]


@pytest.mark.parametrize("key", sorted(PINS["from_ell"]))
def test_modulus_from_ell(key):
    mod = el.EllipticModulus.from_ell(float(key))
    assert [mod.K, mod.K_comp, mod.mu, mod.rho] == PINS["from_ell"][key]


@pytest.mark.parametrize("key", sorted(PINS["solve_lambda"]))
def test_solve_lambda(key):
    f = _fields(key)
    if "theta" in f:
        red = el.solve_lambda(math.cos(f["theta"]), int(f["m"]), math.sin(f["theta"]))
    else:
        red = el.solve_lambda(f["ell"], int(f["m"]))
    assert [red.lam, red.lam_comp, red.M] == PINS["solve_lambda"][key]


@pytest.mark.parametrize("key", sorted(PINS["jacobi_sncndn"]))
def test_jacobi_sncndn(key):
    f = _fields(key)
    assert list(el.jacobi_sncndn(f["u"] * el.complete_K(f["ell"]), f["ell"])) == PINS["jacobi_sncndn"][key]


@pytest.mark.parametrize("key", sorted(PINS["eval_F_direct"]))
def test_eval_F_direct(key):
    f = _fields(key)
    zf = ZolotarevFraction.from_ell(int(f["m"]), f["ell"])
    assert list(eval_F_direct(zf, f["x"])) == PINS["eval_F_direct"][key]
