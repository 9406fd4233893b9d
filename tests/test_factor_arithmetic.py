"""Pins the pair-based factor arithmetic to the literal per-family formulas.

Every factor is evaluated as the Moebius map (u z + v)/(conj(v) z + conj(u)).
The reference below writes out the three families' numerators and
denominators as the paper states them; values must agree with ``==`` (not
approximately), zeros and poles to the last bit.
"""

import math

import numpy as np
import pytest

from zolocirc import approximants as ap
from zolocirc.connections import blaschke_h

R, S, H = ap.Family.R_FAMILY, ap.Family.S_FAMILY, ap.Family.H_FAMILY
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def literal_num_den(family, value, z):
    """(numerator, denominator) of one factor, family by family."""
    if family is R:
        return 1.0 + value * z, z + value
    if family is S:
        if math.isinf(value):
            return -1.0 + 0.0 * z, z
        if value == 0.0:
            return z, 1.0 + 0.0 * z
        return z - 1j * value, 1.0 + 1j * value * z
    return z - value, 1.0 - value * z


def literal_value(r, z):
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(z, np.ndarray):
            w = np.full(z.shape, I_POWERS[r.quarter_turns % 4], dtype=complex)
        else:
            w = I_POWERS[r.quarter_turns % 4]
        for p in r.factors:
            num, den = literal_num_den(r.family, p, z)
            w = w * (num / den)
    return w


def literal_roots(r):
    """(zeros, poles, exact type) from the per-family cases."""
    zeros, poles, order = [], [], 0
    for p in r.factors:
        if r.family is R:
            zeros.append(complex(-1.0 / p))
            poles.append(complex(-p))
        elif r.family is S and math.isinf(p):
            order -= 1
        elif p == 0.0:
            order += 1
        elif r.family is S:
            zeros.append(1j * p)
            poles.append(1j / p)
        else:
            zeros.append(complex(p))
            poles.append(complex(1.0 / p))
    regular = len(zeros)
    return (
        tuple([0j] * max(order, 0) + zeros),
        tuple([0j] * max(-order, 0) + poles),
        (regular + max(order, 0), regular + max(-order, 0)),
    )


def _cases():
    cases = {}
    for theta in (0.3, 1.5):
        for n in (0, 1, 9):
            r = ap.build_r(n, theta)
            cases[f"r{n}@{theta}"] = r
            cases[f"1/r{n}@{theta}"] = r.reciprocal()
        # m = 1, 5 carry b = 0 and m = 3, 7 carry b = inf at the middle node
        for m in (0, 1, 3, 5, 7, 8):
            s = ap.build_s(m, theta)
            cases[f"s{m}@{theta}"] = s
            cases[f"1/s{m}@{theta}"] = s.reciprocal()
    for m in (1, 4, 7):
        cases[f"h{m}"] = blaschke_h(m, 0.3).as_rational()
    cases["h with c = 0"] = ap.UnimodularRational(0, (0.3, 0.0, -0.5), H)
    # z = 0 is a factor: b = inf twice is a double pole there, b = 0 and inf cancel
    cases["z^-2 s"] = ap.UnimodularRational(3, (0.4, math.inf, math.inf, -1.7), S)
    cases["s with b = 0 and inf"] = ap.UnimodularRational(1, (0.4, math.inf, 0.0, -1.7), S)
    return cases


CASES = _cases()
SCALARS = [complex(math.cos(t), math.sin(t)) for t in (0.0, 0.4, 1.3, 2.9, -2.2)] + [
    0.3 + 0.4j, 2.0 - 1.0j, -1.5 + 0.2j, 0.05 - 0.7j, 1.0, -3.0,
]


def _pole_grid(r):
    """17 x 17 grid whose middle node is exactly a pole of r (0 if it has none)."""
    poles = r.poles()
    centre = poles[0] if poles else 0j
    steps = np.linspace(-1.0, 1.0, 17)
    return (centre.real + steps)[None, :] + 1j * (centre.imag + steps)[:, None]


@pytest.mark.parametrize("name", sorted(CASES))
class TestFactorArithmetic:
    def test_circle_array(self, name):
        r = CASES[name]
        z = np.exp(1j * np.linspace(-math.pi, math.pi, 301))
        np.testing.assert_array_equal(r(z), literal_value(r, z))

    def test_off_circle_grid_through_a_pole(self, name):
        r = CASES[name]
        z = _pole_grid(r)
        got, expected = r(z), literal_value(r, z)
        np.testing.assert_array_equal(got, expected)
        if r.poles():
            assert not np.isfinite(got[8, 8])

    def test_scalars(self, name):
        r = CASES[name]
        for z in SCALARS:
            assert r(z) == literal_value(r, z)

    def test_zeros_poles_and_type(self, name):
        r = CASES[name]
        zeros, poles, exact = literal_roots(r)
        # repr keeps the sign of zero parts, so this pins every bit
        assert [repr(w) for w in r.zeros()] == [repr(w) for w in zeros]
        assert [repr(w) for w in r.poles()] == [repr(w) for w in poles]
        assert r.exact_type() == exact


def test_degenerate_factors_are_present():
    assert 0.0 in CASES["s5@1.5"].factors
    assert math.inf in CASES["s7@1.5"].factors
    assert math.inf in CASES["1/s5@1.5"].factors
    assert 0.0 in CASES["1/s7@1.5"].factors


def test_pairs_stay_out_of_equality_and_repr():
    a, b = ap.build_s(5, 1.0), ap.build_s(5, 1.0)
    assert a == b and hash(a) == hash(b)
    assert "_pairs" not in repr(a)
    assert ap.UnimodularRational(0, (0.5,), R) != ap.UnimodularRational(0, (0.5,), H)


def test_double_pole_at_the_origin():
    # its values against the literal reference are the parametrized tests above
    r = CASES["z^-2 s"]
    assert r._origin_order() == -2
    assert r.poles()[:2] == (0j, 0j) and r.exact_type() == (2, 4)
    assert CASES["s with b = 0 and inf"]._origin_order() == 0
