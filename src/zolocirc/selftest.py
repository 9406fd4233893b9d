"""Acceptance sweep: every analytic identity the library promises, end to end.

Each criterion function returns (name, ok, detail).  The CLI selftest
command runs them all and reports one line per criterion; the test suite
asserts them individually.  Criterion tolerances are pinned here.

Bound comparisons carry a 1e-12 absolute allowance: criterion 3 holds
the closed-form error arccos(lambda) against the rho-form bound, and the
gap between the two shrinks geometrically with the degree until it is
below double rounding at the far end of the sweep (at z5 n = 4, Theta =
0.5 the closed form rounds 1.6e-15 relative above the bound), so a strict
float comparison would be a coin toss.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from . import analysis, approximants, composition, connections, elliptic, oracle

THETA_SWEEP = (0.5, 1.0, 1.4, 0.5 * math.pi - 0.1)
M_SWEEP = tuple(range(1, 9))
N_SWEEP = tuple(range(0, 5))
# (theta, problem, degree letter, degree): at each Theta the z6 sweep, then the z5 sweep
_SWEEP = tuple(
    (theta, problem, letter, degree)
    for theta in THETA_SWEEP
    for problem, letter, degrees in (("z6", "m", M_SWEEP), ("z5", "n", N_SWEEP))
    for degree in degrees
)
_BOUND_SLACK = 1e-12


def _grid_for(problem: str, degree: int) -> int:
    return max(64, 16 * (analysis.effective_degree(problem, degree) + 1))


def criterion_1():
    """Measured max phase error equals arccos(lambda) to 1e-9, within 5 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for theta, problem, _, degree in _SWEEP:
        build, report = analysis._problem_fns(problem)
        rep = report(build(degree, theta), theta, _grid_for(problem, degree))
        worst = max(worst, abs(rep.max_error - rep.predicted))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 5.0
    return ("optimal-error identity", ok, f"worst |measured-predicted| = {worst:.3e}, {elapsed:.2f} s")


def criterion_2():
    """Alternation counts M+1 per arc at the effective degree M, endpoints attained, grid-stable.

    An optimum's report reads its closed-form nodes, which no grid moves: it
    is taken once, on the finer grid 2g of its peak check.  A report on the
    grid route is taken at g as well, and its counts must agree at both.
    """
    bad = []
    for theta, problem, letter, degree in _SWEEP:
        build, report = analysis._problem_fns(problem)
        r = build(degree, theta)
        rep2 = report(r, theta, 2 * _grid_for(problem, degree))
        rep = report(r, theta, _grid_for(problem, degree)) if rep2.method == "grid" else rep2
        label = f"{problem} {letter}={degree} theta={theta:.3f}"
        arcs = analysis._arcs(problem)
        if rep.arcs != (rep.expected,) * len(arcs) or rep2.arcs != rep.arcs:
            bad.append(f"{label}: {rep.arcs}/{rep2.arcs}")
            continue
        angles = [x for x, _ in rep.extrema]
        ends = [e for mid, scale in arcs for e in (mid - scale * theta, mid + scale * theta)]
        if any(min(abs(a - e) for a in angles) > 1e-8 for e in ends):
            bad.append(f"{label}: endpoint not attained")
    return ("equioscillation certificate", not bad, "; ".join(bad) if bad else "all counts exact and stable")


def criterion_3():
    """Decay bounds sit above the predicted error arccos(lambda); the Z-number chain closes."""
    bad = []
    worst_chain = 0.0
    for theta, problem, letter, degree in _SWEEP:
        predicted = composition.theta_tilde(analysis.effective_degree(problem, degree), theta)
        b_rho, b_sec = analysis.error_bounds(degree, theta, problem)
        if not (predicted <= b_rho + _BOUND_SLACK and b_rho <= b_sec * (1.0 + 1e-15)):
            bad.append(f"{problem} {letter}={degree} theta={theta:.3f}")
        if problem == "z6":
            chain = abs(analysis.phase_error_from_Z(analysis.zolotarev_number(degree, theta)) - predicted)
            worst_chain = max(worst_chain, chain)
    ok = not bad and worst_chain <= 1e-10
    detail = f"worst Z-chain deviation = {worst_chain:.3e}" + ("; " + "; ".join(bad) if bad else "")
    return ("error-bound ordering", ok, detail)


def criterion_4():
    """s_{2n+1}(z)^((-1)^n) r_n(z^2) = z on 256 circle points, 1e-11."""
    worst = 0.0
    angles = 2.0 * math.pi * (np.arange(256) + 0.5) / 256
    z = np.exp(1j * angles)
    for theta in (0.5, 1.0, 1.4):
        for n in range(0, 4):
            s_tilde = composition._s_tilde(2 * n + 1, theta)
            r = approximants.build_r(n, theta)
            worst = max(worst, float(np.max(np.abs(s_tilde(z) * r(z * z) - z))))
    return ("structural identity", worst <= 1e-11, f"worst residual = {worst:.3e}")


def criterion_5():
    """Factored product vs F/G lift (1e-11); direct vs product F (1e-10).

    The lift side is the built optimum, which reads the circle through the
    lift; the product side is a plain rational with its factors.  The
    direct side reads the u grid u_k = k K(ell)/64, k = 0..64, as the node
    list ``elliptic._quarter_nodes``: at x = +-ell sn(u_k, ell), covering
    [-ell, ell], F = +-lam sn(u_k/M, lam) and G = dn(u_k/M, lam), and
    u_k/M = k K(lam)/64, so no sn is inverted.
    Its fractions are those of the lift side's optima, which their lift
    calls have built.
    """
    angles = -math.pi + 2.0 * math.pi * (np.arange(100) + 0.41) / 100
    circle = np.cos(angles) + 1j * np.sin(angles)
    worst_lift, fractions_at = 0.0, {}
    for theta in THETA_SWEEP:
        optima = [approximants.build_s(m, theta) for m in M_SWEEP]
        for s in optima:
            product = approximants.UnimodularRational(s.quarter_turns, s.factors, s.family)(circle)
            worst_lift = max(worst_lift, float(np.max(np.abs(product - s(circle)))))
        fractions_at[theta] = [s._optimum_fraction() for s in optima]

    worst_fg = 0.0
    for theta in (0.5, 1.0, 1.4):
        fractions = fractions_at[theta]
        mod = fractions[0].reduction.modulus
        x = mod.ell * np.array(elliptic._quarter_nodes(64, mod.ell, mod.ell_comp, mod.nome))[:, 0]
        for zf in fractions:
            red = zf.reduction
            sn, _, dn = np.array(elliptic._quarter_nodes(64, red.lam, red.lam_comp, red.nome)).T
            for sign in (1.0, -1.0):  # F is odd and G even
                F, G = approximants.eval_F_product(zf, sign * x)
                worst_fg = max(worst_fg, float(np.max(np.abs([sign * red.lam * sn - F, dn - G]))))
    ok = worst_lift <= 1e-11 and worst_fg <= 1e-10
    return ("circle-lift agreement", ok, f"lift = {worst_lift:.3e}, direct-vs-product = {worst_fg:.3e}")


def criterion_6():
    """Composition residuals: s-law 1e-9, r-law 1e-9, F-law 1e-10."""
    angles = 2.0 * math.pi * (np.arange(200) + 0.37) / 200
    z = np.exp(1j * angles)
    worst_s = 0.0
    for m_tilde, m, theta in ((2, 2, 1.0), (2, 3, 1.0), (3, 3, 1.0), (3, 5, 1.0),
                              (3, 3, 0.5 * math.pi - 0.01)):
        left, right = composition.compose_s(m_tilde, m, theta, z)
        worst_s = max(worst_s, float(np.max(np.abs(left - right))))
    worst_r = 0.0
    for n_tilde, n in ((1, 1), (1, 2), (2, 1)):
        left, right = composition.compose_r(n_tilde, n, 1.0, z)
        worst_r = max(worst_r, float(np.max(np.abs(left - right))))
    worst_f = 0.0
    xs = np.linspace(-1.0, 1.0, 101)
    for m_tilde, m, ell in ((2, 2, 0.5), (2, 3, 0.3), (3, 2, 0.7)):
        left, right = composition.compose_F(m_tilde, m, ell, xs)
        worst_f = max(worst_f, float(np.max(np.abs(left - right))))
    ok = worst_s <= 1e-9 and worst_r <= 1e-9 and worst_f <= 1e-10
    return ("composition laws", ok, f"s = {worst_s:.3e}, r = {worst_r:.3e}, F = {worst_f:.3e}")


def criterion_7():
    """Pade poles bracket the exact denominator's roots, pole-set convergence, Blaschke bridges."""
    worst_pade = 0.0  # widest relative bracket 2^k eps in which the exact denominator changes sign
    for n in range(1, 5):
        den = [math.comb(2 * n + 1, 2 * j + 1) for j in range(n + 1)]  # ascending in z
        for p in map(Fraction, connections.pade_p(n).poles):
            w = Fraction(1, 2**52)
            while w < 1 and math.prod(
                    sum(c * (p * s) ** j for j, c in enumerate(den)) for s in (1 - w, 1 + w)) > 0:
                w *= 2
            worst_pade = max(worst_pade, float(w))
    worst_dev = max(connections.pade_limit_check(n, [1e-3])[0] for n in range(1, 5))
    worst_h = 0.0
    z = np.exp(2j * math.pi * (np.arange(100) + 0.43) / 100)
    for m_tilde, m, ell in ((2, 2, 0.25), (2, 3, 0.25), (3, 2, 0.4)):
        lt = connections.blaschke_composition_modulus(m, ell)
        h_in = connections.blaschke_h(m, ell)
        h_out = connections.blaschke_h(m_tilde, lt)
        h_dir = connections.blaschke_h(m_tilde * m, ell)
        worst_h = max(worst_h, float(np.max(np.abs(h_out(h_in(z)) - h_dir(z)))))
    worst_rel = 0.0
    for ell in (0.25, 0.5):
        root = math.sqrt(ell)
        pts = np.concatenate((np.linspace(-0.999 * root, 0.999 * root, 16),
                              np.linspace(1.001 / root, 3.0 / root, 8), -np.linspace(1.001 / root, 3.0 / root, 8)))
        lhs, rhs = connections.blaschke_s_relation(2, ell, pts)
        lhs2, rhs2 = connections.scaled_F_via_blaschke(2, ell, pts)
        worst_rel = max(worst_rel, float(np.max(np.abs([lhs - rhs, lhs2 - rhs2, rhs - rhs2]))))
    ok = worst_pade <= 1e-12 and worst_dev <= 1e-4 and worst_h <= 1e-9 and worst_rel <= 1e-9
    return (
        "pade and blaschke connections",
        ok,
        f"pade = {worst_pade:.3e}, pole-dev = {worst_dev:.3e}, h-comp = {worst_h:.3e}, s<->h = {worst_rel:.3e}",
    )


def criterion_8():
    """Main paths agree with the independent oracles."""
    moduli = [0.0] + [i / 20 for i in range(1, 20)]
    quarters = [oracle.oracle_K(ell).value for ell in moduli]
    worst_k = max(abs(K - elliptic.complete_K(ell)) for ell, K in zip(moduli, quarters))
    worst_j = 0.0
    fracs = np.array((-2.0, -1.5, -0.7, -0.2, 0.3, 0.6, 1.0, 1.4, 1.9))
    for ell in moduli[1::3]:  # ell = 0.05, 0.2, ..., 0.95
        us = fracs * elliptic.complete_K(ell)
        # one Newton run per modulus: each phi is the float call oracle_amplitude(u, ell)'s bit for bit
        for u, phi in zip(us.tolist(), oracle.oracle_amplitude(us, ell).value.tolist()):
            sn, cn, dn = elliptic.jacobi_sncndn(u, ell)
            worst_j = max(
                worst_j,
                abs(sn - math.sin(phi)),
                abs(cn - math.cos(phi)),
                abs(dn - math.sqrt(1.0 - (ell * math.sin(phi)) ** 2)),
            )
    theta = 1.0
    a_star = oracle.oracle_minimax_degree1(theta)
    a_ref = approximants.coeff_a(1, 1, theta)
    lo, hi = oracle.SCAN_RANGE
    cell = (math.log(hi) - math.log(lo)) / (oracle.SCAN_SIZE - 1)  # one step of the coarse scan
    log_gap = abs(math.log(a_star) - math.log(a_ref))
    predicted = composition.theta_tilde(analysis.effective_degree("z5", 1), theta)
    err_gap = abs(oracle.degree1_max_phase_error(a_star, theta, 16384) - predicted)
    ok = worst_k <= 1e-11 and worst_j <= 1e-11 and log_gap <= cell and err_gap <= 1e-6
    return (
        "oracle agreement",
        ok,
        f"K = {worst_k:.3e}, jacobi = {worst_j:.3e}, argmin log-gap = {log_gap:.2e} "
        f"(cell {cell:.2e}), minimax error gap = {err_gap:.2e}",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all():
    """Run every criterion; returns a list of (index, name, ok, detail)."""
    return [(i, *fn()) for i, fn in enumerate(CRITERIA, start=1)]
