"""The Groetzsch inverse and the degree equation against an mpmath reference.

The reference (mpref.mp_pair) solves mu(ell) = (pi/2) K(ell')/K(ell) = v
with mpmath.findroot on mpmath.ellipk, in y = -log of the small modulus,
at a working precision that grows with the target so that 1 - ell^2
resolves.  It uses no theta function, so it shares no formula with the
nome series in zolocirc.elliptic.
"""

import math
import sys

import mpmath as mp
import pytest
from mpref import EPS, mp_pair, mp_reduction, rel_err

from zolocirc import elliptic as el

HALF_PI = 0.5 * math.pi
THETAS = [2e-4, 1e-3, 0.3, 1.0, 1.5, HALF_PI - 1e-5, HALF_PI - 1e-7]
DEGREES = [2, 3, 7, 16, 64, 256]
# ell near 1 with m = 256 and ell = 0.5 past m = 600 underflow lam'
UNDERFLOW_CASES = [(0.5, 600), (0.5, 800), (0.5, 3000), (1.0 - 1e-7, 256), (1e-7, 3000)]


@pytest.mark.parametrize(
    "v", [0.05, 0.09, 0.3, 0.7, 1.0, 1.5, HALF_PI, 1.6, 3.0, 11.9, 12.5, 50.0, 200.0, 700.0]
)
def test_small_member_of_the_pair(v):
    V = max(v, HALF_PI**2 / v)
    ell, ell_comp, K, _ = el._mu_inverse_pair(v)
    ref, ref_comp = mp_pair(mp.mpf(v))
    small, ref_small = (ell, ref) if v >= HALF_PI else (ell_comp, ref_comp)
    assert rel_err(small, ref_small) <= 4 * EPS * (1 + V)
    with mp.workdps(int(0.87 * V) + 30):
        assert rel_err(K, mp.ellipk(ref**2)) <= 4 * EPS
    assert ell * ell + ell_comp * ell_comp == pytest.approx(1.0, abs=2 * EPS)
    if v > 0.09:  # below, ell rounds to 1
        assert el.mu_inverse(v) == ell


@pytest.fixture(scope="module")
def theta_grid():
    rows = []
    for theta in THETAS:
        with mp.workdps(40):
            t = mp.mpf(theta)
            ell_sq, ell_comp_sq = mp.cos(t) ** 2, mp.sin(t) ** 2
        for m in DEGREES:
            red = el.solve_lambda(math.cos(theta), m, math.sin(theta))
            rows.append((theta, m, red, mp_reduction(ell_sq, ell_comp_sq, m)))
    return rows


def test_solve_lambda_against_reference(theta_grid):
    for theta, m, red, (lam, lam_comp, M, V) in theta_grid:
        where = f"theta={theta!r}, m={m}"
        if lam_comp < sys.float_info.min:
            # lam' is below the normal range: the rounding floor
            assert red.lam_comp < sys.float_info.min and red.lam == 1.0, where
        else:
            assert rel_err(red.lam_comp, lam_comp) <= 4 * EPS * (1 + V), where
            assert rel_err(red.lam, lam) <= 16 * EPS, where
        assert rel_err(red.M, M) <= 8 * EPS, where


@pytest.mark.parametrize("ell,m", UNDERFLOW_CASES)
def test_M_survives_an_underflowing_complement(ell, m):
    with mp.workdps(40):
        ell_sq = mp.mpf(ell) ** 2
        ell_comp_sq = 1 - ell_sq
    red = el.solve_lambda(ell, m)
    lam, lam_comp, M, V = mp_reduction(ell_sq, ell_comp_sq, m)
    assert rel_err(red.M, M) <= 8 * EPS
    assert red.lam_comp == pytest.approx(float(lam_comp), rel=4 * EPS * (1 + V), abs=1e-320)
