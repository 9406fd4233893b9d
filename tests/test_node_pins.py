"""Bitwise pins of node constants that no CLI output carries.

``data/node_pins.json`` holds ``ZolotarevFraction.dn2_odd`` (built from a
Theta or from a modulus) and the Ng-Tsang parameters ``blaschke_h(m,
ell).params`` as they were when the pins were taken.  Both come from
scalar ``math`` code only, so they must match exactly on any build.
"""

import json
import os

import pytest

from zolocirc import ZolotarevFraction, blaschke_h
from zolocirc.elliptic import require_theta

with open(os.path.join(os.path.dirname(__file__), "data", "node_pins.json")) as fh:
    PINS = json.load(fh)


def _args(key):
    """("theta" or "ell", value, m) from a key such as 'theta 1.0 m 7'."""
    side, value, _, m = key.split()
    return side, float(value), int(m)


@pytest.mark.parametrize("key", sorted(PINS["dn2_odd"]))
def test_dn2_odd(key):
    side, value, m = _args(key)
    zf = ZolotarevFraction.from_ell(m, *(require_theta(value) if side == "theta" else (value,)))
    assert list(zf.dn2_odd) == PINS["dn2_odd"][key]


@pytest.mark.parametrize("key", sorted(PINS["blaschke_h"]))
def test_blaschke_params(key):
    _, ell, m = _args(key)
    assert list(blaschke_h(m, ell).params) == PINS["blaschke_h"][key]
