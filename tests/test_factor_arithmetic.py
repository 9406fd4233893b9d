"""Pins the pair-based factor arithmetic to the literal per-family formulas.

Every factor is evaluated as the Moebius map (u z + v)/(conj(v) z + conj(u)).
The reference below writes out the three families' numerators and
denominators as the paper states them; values must agree with ``==`` (not
approximately), zeros and poles to the last bit.  The built optima enter
as plain rationals with the same factors: ``build_s`` and ``build_r``
output reads circle points through the F/G lift instead, which the last
tests here hold to the product wherever it does not apply.
"""

import dataclasses
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


def plain(r):
    """r with the same factors but no optimum record: always the product of its factors."""
    return ap.UnimodularRational(r.quarter_turns, r.factors, r.family)


def _cases():
    cases = {}
    for theta in (0.3, 1.5):
        for n in (0, 1, 9):
            r = ap.build_r(n, theta)
            cases[f"r{n}@{theta}"] = plain(r)
            cases[f"1/r{n}@{theta}"] = plain(r.reciprocal())
        # m = 1, 5 carry b = 0 and m = 3, 7 carry b = inf at the middle node
        for m in (0, 1, 3, 5, 7, 8):
            s = ap.build_s(m, theta)
            cases[f"s{m}@{theta}"] = plain(s)
            cases[f"1/s{m}@{theta}"] = plain(s.reciprocal())
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


def bits(values):
    values = np.ascontiguousarray(values, dtype=complex)
    return values.view(np.float64).view(np.uint64)


CIRCLE = np.exp(1j * np.linspace(-math.pi, math.pi, 301))


@pytest.mark.parametrize("theta", [0.3, 1.5])
@pytest.mark.parametrize("build,degree", [(ap.build_s, 1), (ap.build_s, 8), (ap.build_s, 33), (ap.build_r, 1),
                                          (ap.build_r, 9)])
def test_a_routed_optimum_reads_scalars_as_its_array(build, degree, theta):
    optima = [build(degree, theta)]
    if build is ap.build_s:
        optima.append(optima[0].reciprocal())
    for r in optima:
        assert r._optimum is not None
        scalars = [r(z) for z in CIRCLE.tolist()]
        assert all(type(v) is complex for v in scalars)
        assert np.array_equal(bits(scalars), bits(r(CIRCLE)))


def _unrouted():
    """Rationals made from optima that the circle call does not lift, by name.

    s_0 = i and r_0 = 1 are optima and carry the record, but have no factors to lift.
    """
    s, r = ap.build_s(7, 1.0), ap.build_r(3, 1.0)
    tampered = (math.nextafter(s.factors[0], math.inf),) + s.factors[1:]
    return {
        "tampered s7": dataclasses.replace(s, factors=tampered),
        "replaced s7": dataclasses.replace(s),
        "quarter-turned s7": dataclasses.replace(s, quarter_turns=s.quarter_turns + 1),
        "1/(1/s7)": s.reciprocal().reciprocal(),
        "1/r3": r.reciprocal(),
        "s0": ap.build_s(0, 1.0),
        "r0": ap.build_r(0, 1.0),
        "s3 s5": ap.UnimodularRational(0, ap.build_s(3, 1.0).factors + ap.build_s(5, 1.0).factors, ap.Family.S_FAMILY),
        "h3": blaschke_h(3, 0.3).as_rational(),
    }


@pytest.mark.parametrize("name", sorted(_unrouted()))
def test_what_is_not_an_optimum_is_the_product(name):
    r = _unrouted()[name]
    assert (r._optimum is not None) == (name in ("s0", "r0"))
    np.testing.assert_array_equal(r(CIRCLE), literal_value(r, CIRCLE))
    for z in SCALARS:
        assert r(z) == literal_value(r, z)


@pytest.mark.parametrize("r", [ap.build_s(8, 1.0), ap.build_s(8, 1.0).reciprocal(), ap.build_r(9, 1.0)],
                         ids=["s8", "1/s8", "r9"])
def test_an_optimum_off_the_circle_is_the_product(r):
    # one point off the circle sends the whole array to the product, as any contour grid does
    for z in (np.append(CIRCLE, 1.0 + 1e-14), _pole_grid(r), 1.0001 * CIRCLE):
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(bits(r(z)), bits(plain(r)(z)))
    for z in SCALARS:
        if abs(abs(z) - 1.0) > 1e-3:
            assert np.array_equal(bits([r(z)]), bits([plain(r)(z)]))


def test_an_r_factor_at_infinity_is_z():
    # 1/(1/z): the R factor a = 0 is 1/z, and its reciprocal a = inf is (1 z + 0)/(0 z + 1)
    z_r = ap.UnimodularRational(0, (0.0,), R).reciprocal()
    assert z_r.factors == (math.inf,)
    assert z_r(0.5) == 0.5 and all(z_r(z) == z for z in SCALARS)
    np.testing.assert_array_equal(z_r(CIRCLE), CIRCLE)
    assert (z_r.zeros(), z_r.poles(), z_r.exact_type()) == ((0j,), (), (1, 0))
