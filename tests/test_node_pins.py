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


def pin(family, key):
    """The value that ``PINS[family][key]`` pins, computed from src/ (tests/data/make_pins.py writes it)."""
    side, value, m = _args(key)
    if family == "dn2_odd":
        return list(ZolotarevFraction.from_ell(m, *(require_theta(value) if side == "theta" else (value,))).dn2_odd)
    if family == "blaschke_h":
        return list(blaschke_h(m, value).params)
    raise KeyError(family)


@pytest.mark.parametrize("key", sorted(PINS["dn2_odd"]))
def test_dn2_odd(key):
    assert pin("dn2_odd", key) == PINS["dn2_odd"][key]


@pytest.mark.parametrize("key", sorted(PINS["blaschke_h"]))
def test_blaschke_params(key):
    assert pin("blaschke_h", key) == PINS["blaschke_h"][key]
