"""The elliptic kernel against a 50-digit mpmath reference across the window.

Node sn/cn/dn, r_n coefficients a_j, s_m coefficients b_j, K and mu are
held to 16 eps relative (an exact 0 to exactly 0) over an arc grid that
includes both window ends,
0.0001414213571029879 (the first Theta whose cosine falls below ELL_MAX)
and 1.5707963162581844 (the last Theta whose sine stays below 1), and
over a modulus grid from ELL_MIN^+ to 1 - 1e-7, at node denominators 16,
257 and 3000 and degrees 16, 64 and 256 (a_j also at n = 300).  Large
denominators are sampled: both ends of each quarter period, its middle
and an even spread between.
The reference is tests/mpref.py, which shares no formula with the kernel.

Also here: Zolotarev's number Z_m against the paper's product, held to
4 (1 + V) eps with V = m pi^2 / mu(ell) wherever Z_m is a normal double;
the optimal error angle arccos(lam), from ``theta_tilde`` and through
``phase_error_from_Z`` of Z_m, held to the same bound at both window ends
(exactly 0 where the reference underflows);
the z4 deviation (1 - lam)/(1 + lam) of ``z4_solution``, held to the same
bound where it is a normal double, to 4 subnormal steps below that and
to exactly 0 where the reference underflows, and its scale 2/(1 + lam) to
2 eps, for m = 1..64 at both ends of the modulus window and inside it;
the values of s_m, 1/s_m and r_n on the unit circle, which read the F/G
lift, held to 4 (M + 1) eps at the effective degree M on and off the arcs
from the bottom of the window to just below THETA_MAX;
the F/G Pythagorean identity at small moduli, where the node
constants sit at modulus ell' -> 1, and the direct F/G evaluation, which
reads the reduced modulus lam through its complement and must agree with
the product identities while lam rounds to 1, and whose G holds
2 (1 + V) eps against the reference while lam' is subnormal.
"""

import cmath
import math
import sys

import mpmath as mp
import mpref
import numpy as np
import pytest

from zolocirc import elliptic as el
from zolocirc.analysis import _arcs, effective_degree, phase_error_from_Z, theta_tilde, zolotarev_number
from zolocirc.approximants import (
    ZolotarevFraction,
    build_r,
    build_s,
    coeff_a,
    coeff_b,
    eval_F_direct,
    eval_F_product,
    eval_s_via_FG,
    z4_solution,
)
from zolocirc.errors import PrecisionError

BOUND = 16 * mpref.EPS
THETAS = [0.0001414213571029879, 2e-4, 1e-3, 0.3, 1.0, 1.5, 0.5 * math.pi - 1e-5, 1.5707963162581844]
ELLS = [math.nextafter(el.ELL_MIN, 1.0), 1e-6, 1e-4, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-7]
DENS = [16, 257, 3000]


def sample(den, count=12):
    """Node numerators over the half period [0, 2 den]: every one up to 2 * count, else a spread."""
    if 2 * den <= 2 * count:
        return range(2 * den + 1)
    picks = {0, 1, 2, den // 2, den // 2 + 1, den - 2, den - 1, den, den + 1, 2 * den - 1}
    return sorted(picks | set(range(1, 2 * den, 2 * den // count)))


def node_cases():
    """(label, modulus, complement, exact squared modulus) for every modulus a node table uses."""
    for theta in THETAS:
        ell, ell_comp = el.require_theta(theta)
        yield f"theta={theta!r}", ell_comp, ell, mpref.theta_squares(theta)[1]
    for ell in ELLS:
        ell_sq, ell_comp_sq = mpref.ell_squares(ell)
        yield f"ell={ell!r}", ell, el.complement(ell), ell_sq  # the Blaschke nodes
        yield f"ell'={ell!r}", el.complement(ell), ell, ell_comp_sq  # the F/G nodes


@pytest.mark.parametrize("den", DENS)
def test_nodes(den):
    for label, k, k_comp, k_sq in node_cases():
        nome = el._nome(k, k_comp)
        for num in sample(den):
            got = el._sncndn(num, den, k, k_comp, nome)
            for name, value, ref in zip(("sn", "cn", "dn"), got, mpref.node(num, den, k_sq)):
                assert mpref.rel_err(value, ref) <= BOUND, f"{name} at {label}, {num}/{den}"


@pytest.mark.parametrize("m", [16, 64, 256])
def test_coeff_b(m):
    js = [j for j in sample(m, 6) if 1 <= j <= m and 2 * j - 1 != m]
    for theta in THETAS:
        for j in js:
            b = coeff_b(j, m, theta)
            assert mpref.rel_err(b, mpref.coeff_b(j, m, theta)) <= BOUND, f"b_{j} at theta={theta!r}, m={m}"


@pytest.mark.parametrize("n", [16, 64, 256, 300])
def test_coeff_a(n):
    js = [j for j in sample(n, 6) if 1 <= j <= n]
    for theta in THETAS:
        for j in js:
            a = coeff_a(j, n, theta)
            assert mpref.rel_err(a, mpref.coeff_a(j, n, theta)) <= BOUND, f"a_{j} at theta={theta!r}, n={n}"


def test_complete_K_and_mu():
    for ell in [0.0, 1e-300] + ELLS + [i / 16 for i in range(1, 16)] + [math.sqrt(0.5)]:
        ell_sq, ell_comp_sq = mpref.ell_squares(ell)
        assert mpref.rel_err(el.complete_K(ell), mpref.complete_K(ell_sq)) <= BOUND, ell
        if ell > 1e-300:  # mu(1e-300) is past the reference's 50 digits
            assert mpref.rel_err(el.groetzsch_mu(ell), mpref.groetzsch_mu(ell_sq, ell_comp_sq)) <= BOUND, ell
    for theta in THETAS:
        ell_sq, ell_comp_sq = mpref.theta_squares(theta)
        mod = el.EllipticModulus.from_ell(*el.require_theta(theta))
        assert mpref.rel_err(mod.K, mpref.complete_K(ell_sq)) <= BOUND, theta
        assert mpref.rel_err(mod.K_comp, mpref.complete_K(ell_comp_sq)) <= BOUND, theta
        assert mpref.rel_err(mod.mu, mpref.groetzsch_mu(ell_sq, ell_comp_sq)) <= BOUND, theta


@pytest.mark.parametrize("m", [1, 2, 3, 8, 32, 128, 256])
def test_zolotarev_number_against_the_product(m):
    checked = 0
    for theta in THETAS:
        ref, V = mpref.zolotarev_product(theta, m)
        if ref < sys.float_info.min:  # only where the reference is a normal double
            continue
        got = zolotarev_number(m, theta)
        assert mpref.rel_err(got, ref) <= 4 * (1 + V) * mpref.EPS, f"Z_{m} at theta={theta!r}"
        checked += 1
    assert checked


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 32, 128, 256])
def test_optimal_error_angle_at_the_window_ends(m):
    # at the top lam' -> 1, where asin(lam') would miss this bound by up to 2e6 times (m = 1-3)
    for theta in (THETAS[0], THETAS[-1]):
        lam, lam_comp, _, _ = mpref.mp_reduction(*mpref.theta_squares(theta), m)
        zm, V = mpref.zolotarev_product(theta, m)
        with mp.workdps(mpref.DPS):
            ref = mp.atan2(lam_comp, lam)
        for got, underflows in ((theta_tilde(m, theta), ref), (phase_error_from_Z(zolotarev_number(m, theta)), zm)):
            if float(underflows) == 0.0:
                assert got == 0.0, (theta, m)
            else:
                assert mpref.rel_err(got, ref) <= 4 * (1 + V) * mpref.EPS, (theta, m)


@pytest.mark.parametrize("ell", [math.nextafter(el.ELL_MIN, 1.0), 1e-4, 0.3, 0.9, 0.999999, 1.0 - 1.0000001e-8,
                                 math.nextafter(el.ELL_MAX, 0.0)])
def test_z4_deviation_and_scale(ell):
    # the largest deviation error was 2.41 (1 + V) eps (1 - 1.0000001e-8, m = 28), and 1.2 subnormal steps
    # below the normals (0.999999, m = 45)
    ell_sq, ell_comp_sq = mpref.ell_squares(ell)
    for m in range(1, 65):
        lam, lam_comp, _, V = mpref.mp_reduction(ell_sq, ell_comp_sq, m)
        with mp.workdps(int(0.87 * V) + 30):
            deviation, scale = lam_comp**2 / (1 + lam) ** 2, 2 / (1 + lam)
        got = z4_solution(m, ell)
        assert mpref.rel_err(got.scale, scale) <= 2 * mpref.EPS, m
        if deviation >= sys.float_info.min:
            assert mpref.rel_err(got.deviation, deviation) <= 4 * (1 + V) * mpref.EPS, m
        elif float(deviation) == 0.0:
            assert got.deviation == 0.0, m
        else:
            assert abs(got.deviation - deviation) <= 4 * 2.0**-1074, m


def _worst(values, refs):
    with mp.workdps(mpref.DPS):
        return max(float(abs(mp.mpc(v.real, v.imag) - ref)) for v, ref in zip(values, refs))


@pytest.mark.parametrize("problem,degree",
                         [("z6", m) for m in (1, 7, 32, 256)] + [("z5", n) for n in (1, 3, 16, 64, 128)])
def test_optimum_values_on_the_circle(problem, degree):
    # worst 2.71 (M + 1) eps (z5, n = 1, just below THETA_MAX); there the product of the factors reaches
    # 1.24e6 (M + 1) eps (z6, m = 256), while mid-window the lift errs up to 4.3 times the product (8.5
    # against 2.0 eps at z5, n = 3, Theta = 0.3)
    M = effective_degree(problem, degree)
    rng = np.random.default_rng(degree)
    for theta in (1.0001 * THETAS[0], 0.3, 1.0, 1.4, 1.5707, el.THETA_MAX * (1.0 - 1e-9)):
        optimum = (build_s if problem == "z6" else build_r)(degree, theta)
        on_arcs = [mid + scale * np.linspace(-theta, theta, 7) for mid, scale in _arcs(problem)]
        z = np.exp(1j * np.concatenate(on_arcs + [rng.uniform(-math.pi, math.pi, 12)]))
        optima = [optimum, optimum.reciprocal()] if problem == "z6" else [optimum]
        refs = mpref.optimum_values(problem, degree, theta, z.tolist())
        for r, ref in zip(optima, (refs, [1 / v for v in refs])):
            assert r._optimum is not None
            assert _worst(r(z), ref) <= 4 * (M + 1) * mpref.EPS, (theta, r._optimum[3])


@pytest.mark.parametrize("w", [cmath.exp(-1.7e-4j), cmath.exp(1e-6j)])
def test_r1_and_s3_near_w_one(w):
    # an odd-degree G read as sign(y) sqrt((1 - x)(1 + x)) put s_3 2.1e-13 and 5.0e-12 off here
    z = cmath.sqrt(w)
    assert _worst([eval_s_via_FG(3, 1.0, z)], mpref.optimum_values("z6", 3, 1.0, [z])) <= 16 * mpref.EPS
    assert _worst([build_r(1, 1.0)(w)], mpref.optimum_values("z5", 1, 1.0, [w])) <= 16 * mpref.EPS


@pytest.mark.parametrize("ell", [1.0000001e-8, 1e-6, 1e-4])
@pytest.mark.parametrize("m", [102, 500, 3000])
def test_fg_pythagoras_at_small_moduli(ell, m):
    F, G = eval_F_product(ZolotarevFraction.from_ell(m, ell), np.linspace(-1.0, 1.0, 41))
    assert np.max(np.abs(F * F + G * G - 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [17, 33, 64, 256])
def test_direct_F_while_lam_rounds_to_one(m):
    zf = ZolotarevFraction.from_ell(m, 0.5)
    assert zf.reduction.lam == 1.0 and zf.reduction.lam_comp > 0.0
    for x in np.linspace(-0.5, 0.5, 41).tolist():
        direct, product = eval_F_direct(zf, x), eval_F_product(zf, x)
        assert max(abs(d - p) for d, p in zip(direct, product)) <= 1e-14, x


def test_direct_F_at_the_criterion_5_sweep():
    for theta in (0.5, 1.0, 1.4):
        for m in (2, 3, 5, 8, 13):
            zf = ZolotarevFraction.from_ell(m, *el.require_theta(theta))
            for x in np.linspace(-1.0, 1.0, 41).tolist():
                direct, product = eval_F_direct(zf, x), eval_F_product(zf, x)
                assert max(abs(d - p) for d, p in zip(direct, product)) <= 1e-14, (theta, m, x)


def test_far_branch_stays_finite_down_to_the_last_complement():
    for lam_comp in (1e-300, 1e-310, 5e-324):
        for num in range(0, 33):
            sn, cn, dn = el._sncndn(num, 8, 1.0, lam_comp, el._nome(1.0, lam_comp))
            assert all(math.isfinite(v) for v in (sn, cn, dn)) and 0.0 <= dn <= 1.0, (lam_comp, num)
    zf = ZolotarevFraction.from_ell(606, 0.5)  # lam' = 2e-323, the last m before it underflows
    assert 0.0 < zf.reduction.lam_comp < 1e-320
    assert eval_F_direct(zf, 0.3) == pytest.approx(eval_F_product(zf, 0.3), abs=1e-14)


@pytest.mark.parametrize("m", [570, 600, 606])
def test_direct_G_reads_the_nome_of_the_degree_equation(m):
    # lam' = 4.4e-304 at m = 570 and subnormal at 600 and 606; |x| <= ell sn(K/2) is unreflected
    xs = [-0.05, 0.05, 0.2, 0.3, 0.35]
    zf = ZolotarevFraction.from_ell(m, 0.5)
    refs, V = mpref.direct_G(0.5, m, xs)
    for x, ref in zip(xs, refs):
        assert mpref.rel_err(eval_F_direct(zf, x)[1], ref) <= 2 * (1 + V) * mpref.EPS, x


def test_direct_F_raises_once_lam_comp_underflows():
    zf = ZolotarevFraction.from_ell(800, 0.5)
    assert zf.reduction.lam_comp == 0.0
    with pytest.raises(PrecisionError):
        eval_F_direct(zf, 0.3)
    assert eval_F_direct(zf, 0.7) == eval_F_product(zf, 0.7)  # |x| > ell needs no sn
