"""The node route of the phase reports, against the mpmath reference of tests/mpref.py.

A built optimum's error alternates at amplitude arccos(lam) at M + 1
points per arc known in closed form: t = +-arccos(ell / dn(2j K'/M, ell'))
on the arc around +1, pi + t on the arc around -1, tau = 2t for z5.  A
report on a built optimum reads its errors there through the F/G lift.
Each value must lie within ``analysis.node_bound`` of arccos(lam) (taken
as asin(lam') from ``mpref.mp_reduction``), each angle within 4 ulps of
the mpmath point, and the signs must alternate on every arc.  The second
optimum of z6, 1/s_m, is the conjugate lift: its report is that of s_m
with every error negated.  The route is read from the ``_optimum`` record
that the builders set: a copy equal in value to an optimum, or an optimum
reported at another Theta or problem, is measured on the grid.
"""

import math
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import mpref
from zolocirc import analysis as an
from zolocirc import approximants as ap
from zolocirc import selftest
from zolocirc.errors import PrecisionError

EPS = sys.float_info.epsilon
BOTTOM = 0.0001414213571029879  # the smallest Theta whose cosine falls below ELL_MAX
TOP = 1.5707963162581844  # the largest Theta whose sine falls below 1

# (Theta, m) of s_m and (Theta, n) of r_n, with both ends of the window
Z6 = [(1.0, 8), (1.0, 24), (1.0, 25), (1.0, 64), (0.3, 40), (1.5, 129),
      (BOTTOM, 1), (BOTTOM, 8), (BOTTOM, 40), (TOP, 8), (TOP, 64), (TOP, 256), (1e-3, 85)]
Z5 = [(0.5, 3), (0.7, 10), (0.4, 17), (BOTTOM, 3), (TOP, 20), (1e-3, 42)]  # 1e-3: the last normal optima


def reference(theta, M):
    """(arccos(lam), the M + 1 alternation angles of the arc around +1, ascending), as mpf."""
    ell_sq, ell_comp_sq = mpref.theta_squares(theta)
    _, lam_comp, _, V = mpref.mp_reduction(ell_sq, ell_comp_sq, M)
    with mp.workdps(int(0.87 * V) + 30):
        amplitude = mp.asin(lam_comp)
    with mp.workdps(mpref.DPS):
        ell = mp.sqrt(ell_sq)
        # j = M/2 of even M is the centre, where ell/dn is 1 up to the last digits
        half = [mp.acos(min(mp.mpf(1), ell / mpref.node(2 * j, M, ell_comp_sq)[2])) for j in range(M // 2, -1, -1)]
    return amplitude, [-t for t in half[1 - M % 2 :][::-1]] + half


def check_arc(extrema, angles, amplitude, bound):
    assert len(extrema) == len(angles)
    for (angle, value), ref in zip(extrema, angles):
        assert abs(angle - ref) <= 4 * EPS * max(abs(ref), 1.0)
        assert mpref.rel_err(abs(value), amplitude) <= bound
    assert all((a < 0) != (b < 0) for (_, a), (_, b) in zip(extrema, extrema[1:]))


@pytest.mark.parametrize("theta, m", Z6)
def test_sign_node_errors_on_both_arcs(theta, m):
    grid = 8 * (m + 1)
    rep = an.phase_error_sign(ap.build_s(m, theta), theta, grid)
    assert (rep.method, rep.arcs, rep.grid_size) == ("nodes", (m + 1, m + 1), grid)
    amplitude, angles = reference(theta, m)
    bound = an.node_bound(m, theta)
    with mp.workdps(mpref.DPS):
        check_arc(rep.extrema[: m + 1], angles, amplitude, bound)
        check_arc(rep.extrema[m + 1 :], [mp.pi + t for t in angles], amplitude, bound)
    assert mpref.rel_err(rep.max_error, amplitude) <= bound
    assert mpref.rel_err(rep.predicted, amplitude) <= bound


@pytest.mark.parametrize("theta, m", Z6)
def test_the_second_optimum_reads_the_negated_nodes(theta, m):
    grid = 8 * (m + 1)
    rep = an.phase_error_sign(ap.build_s(m, theta).reciprocal(), theta, grid)
    amplitude, angles = reference(theta, m)
    bound = an.node_bound(m, theta)
    with mp.workdps(mpref.DPS):
        check_arc(rep.extrema[: m + 1], angles, amplitude, bound)
        check_arc(rep.extrema[m + 1 :], [mp.pi + t for t in angles], amplitude, bound)
    own = an.phase_error_sign(ap.build_s(m, theta), theta, grid)
    assert rep == replace(own, extrema=tuple((t, -e) for t, e in own.extrema))


@pytest.mark.parametrize("theta", [BOTTOM, 1.0, TOP])
def test_s0_reads_a_quarter_turn_at_its_nodes(theta):
    rep = an.phase_error_sign(ap.build_s(0, theta), theta, 64)
    assert (rep.method, rep.arcs) == ("nodes", (1, 1))
    assert rep.max_error == rep.predicted == math.pi / 2
    # the first node of each arc: the arc end -Theta, and pi - Theta
    assert rep.extrema == ((-theta, math.pi / 2), (math.pi - theta, -math.pi / 2))


def test_the_second_optimum_at_the_rounding_floor():
    # the grid route's flat-curve rule read (1, 0) at 1.2e-16 here, on a doubled grid of 2048
    rep = an.phase_error_sign(ap.build_s(25, 1.0).reciprocal(), 1.0, 1024)
    assert (rep.method, rep.arcs, rep.grid_size) == ("nodes", (26, 26), 1024)
    assert abs(rep.max_error - 4.341523031440975e-14) <= an.node_bound(25, 1.0) * rep.max_error


@pytest.mark.parametrize("theta, n", Z5)
def test_sqrt_node_errors(theta, n):
    M = 2 * n + 1
    rep = an.phase_error_sqrt(ap.build_r(n, theta), theta, 8 * (n + 1))
    assert (rep.method, rep.arcs) == ("nodes", (M + 1,))
    amplitude, angles = reference(theta, M)
    bound = an.node_bound(M, theta)
    with mp.workdps(mpref.DPS):
        check_arc(rep.extrema, [2 * t for t in angles], amplitude, bound)
    assert mpref.rel_err(rep.max_error, amplitude) <= bound


@pytest.mark.parametrize("report, build, degree", [
    (an.phase_error_sign, ap.build_s, 8),
    (an.phase_error_sqrt, ap.build_r, 3),
])
def test_node_and_grid_routes_agree_where_the_grid_resolves(report, build, degree):
    theta, grid = 1.0, 512
    r = build(degree, theta)
    rep = report(r, theta, grid)
    problem = "z5" if build is ap.build_r else "z6"
    amplitude, predicted, extrema, counts, size = an._certified_measure(r, theta, problem, grid, rep.expected - 1)
    assert rep.method == "nodes" and (counts, size) == (rep.arcs, rep.grid_size)
    assert predicted == rep.predicted
    assert abs(amplitude - rep.max_error) <= 1e-9 * rep.max_error
    # the golden search locates a flat extremum to about the root of eps
    assert max(abs(a - b) for (a, _), (b, _) in zip(extrema, rep.extrema)) <= 1e-6
    assert max(abs(u - v) for (_, u), (_, v) in zip(extrema, rep.extrema)) <= 1e-9 * rep.max_error


S4 = ap.build_s(4, 1.0)


@pytest.mark.parametrize("r", [
    replace(S4, factors=(1.05 * S4.factors[0],) + S4.factors[1:]),  # tampered
    ap.build_r(2, 1.0).reciprocal(),  # 1/r_n approximates 1/sqrt, not sqrt
    ap.UnimodularRational(1, ap.build_s(3, 1.0).factors, ap.Family.S_FAMILY),  # a quarter turn off
])
def test_other_rationals_take_the_grid_route(r):
    report = an.phase_error_sqrt if r.family is ap.Family.R_FAMILY else an.phase_error_sign
    assert report(r, 1.0, 128).method == "grid"


S7 = ap.build_s(7, 1.0)


@pytest.mark.parametrize("r, optimum", [
    (replace(S7), S7),
    (ap.UnimodularRational(S7.quarter_turns, S7.factors, S7.family), S7),
    (S7.reciprocal().reciprocal(), S7),
    (ap.UnimodularRational(1, (), ap.Family.S_FAMILY), ap.build_s(0, 1.0)),
    (ap.UnimodularRational(0, (), ap.Family.R_FAMILY), ap.build_r(0, 1.0)),
], ids=["replaced s7", "constructed s7", "1/(1/s7)", "hand-made s0", "hand-made r0"])
def test_value_equal_copies_take_the_grid_route_at_full_counts(r, optimum):
    # only the record that the builders set makes an optimum; a copy equal in value has none
    assert r == optimum and r._optimum is None and optimum._optimum is not None
    report = an.phase_error_sqrt if r.family is ap.Family.R_FAMILY else an.phase_error_sign
    rep = report(r, 1.0, 64)
    assert (rep.method, rep.grid_size) == ("grid", 64)
    assert rep.arcs == (rep.expected,) * len(rep.arcs)
    assert abs(rep.max_error - rep.predicted) <= 1e-9 * rep.predicted


@pytest.mark.parametrize("report, r, theta", [
    (an.phase_error_sign, ap.build_s(4, 1.0), 1.1),
    (an.phase_error_sign, ap.build_s(4, 1.0), math.nextafter(1.0, 2.0)),  # another modulus pair by an ulp
    (an.phase_error_sqrt, ap.build_r(3, 1.0), 0.9),
    (an.phase_error_sqrt, ap.build_s(4, 1.0), 1.0),
    (an.phase_error_sign, ap.build_r(3, 1.0), 1.0),
    (an.phase_error_sqrt, ap.build_s(0, 1.0), 1.0),
])
def test_an_optimum_reported_at_another_theta_or_problem_takes_the_grid_route(report, r, theta):
    assert report(r, theta, 128).method == "grid"


@pytest.mark.parametrize("theta", [BOTTOM, 1.0, TOP])
def test_r0_reads_the_arc_ends_at_its_nodes(theta):
    rep = an.phase_error_sqrt(ap.build_r(0, theta), theta, 64)
    assert (rep.method, rep.arcs, rep.grid_size) == ("nodes", (2,), 64)
    # r_0 = 1 against sqrt(e^{i tau}): the error -tau/2 peaks at the arc ends tau = -+2 Theta
    assert rep.extrema == ((-2 * theta, rep.max_error), (2 * theta, -rep.max_error))
    assert rep.max_error == rep.predicted
    assert abs(rep.max_error - theta) <= 4 * EPS * theta


def test_a_report_on_an_optimum_builds_nothing_and_keeps_one_fraction(monkeypatch):
    s, r = ap.build_s(7, 1.0), ap.build_r(3, 1.0)
    from_ell, calls = ap.ZolotarevFraction.from_ell, []

    def forbidden(*args):
        raise AssertionError("an optimum was built again to be recognised")

    def counted(cls, *args):
        calls.append(args)
        return from_ell(*args)

    for module in (ap, an):
        for name in ("build_s", "build_r", "coeff_a", "coeff_b"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(ap.ZolotarevFraction, "from_ell", classmethod(counted))
    s(np.exp(1j * np.linspace(-1.0, 1.0, 9)))  # the lift builds the fraction ...
    first = an.phase_error_sign(s, 1.0, 64)  # ... and both reports read it
    assert first.method == "nodes" and an.phase_error_sign(s, 1.0, 64) == first
    assert an.phase_error_sqrt(r, 1.0, 64).method == "nodes"
    assert calls == [s._optimum[:3], r._optimum[:3]]


def test_a_node_report_makes_one_lift_call_and_reads_arccos_lam_from_its_fraction(monkeypatch):
    lift, sizes = an._lift, []

    def counted(zf, x, y):
        sizes.append(x.size)
        return lift(zf, x, y)

    def forbidden(*args):
        raise AssertionError("theta_tilde repeats the fraction's solve_lambda")

    s, r = ap.build_s(7, 1.0), ap.build_r(3, 1.0)
    monkeypatch.setattr(an, "_lift", counted)
    monkeypatch.setattr(an, "theta_tilde", forbidden)
    z6, z5 = an.phase_error_sign(s, 1.0, 64), an.phase_error_sqrt(r, 1.0, 64)
    # M = 7 for both: M + 1 nodes and 64 grid points per arc, the two arcs of z6 in one call
    assert sizes == [2 * (8 + 64), 8 + 64]
    monkeypatch.undo()
    assert (z6.method, z5.method) == ("nodes", "nodes")
    assert z6.predicted == z5.predicted == an.theta_tilde(7, 1.0)


def test_no_grid_moves_a_node_report_of_the_selftest_sweep():
    # selftest criterion 2 takes one report per optimum, at 2g, on this fact: its counts are those at g
    for theta, problem, _, degree in selftest._SWEEP:
        build, report = an._problem_fns(problem)
        g = selftest._grid_for(problem, degree)
        coarse, fine = report(build(degree, theta), theta, g), report(build(degree, theta), theta, 2 * g)
        assert (coarse.method, fine.method, coarse.grid_size, fine.grid_size) == ("nodes", "nodes", g, 2 * g)
        assert replace(fine, grid_size=g) == coarse


def test_the_second_optimum_keeps_the_first_ones_fraction(monkeypatch):
    s, from_ell, calls = ap.build_s(7, 1.0), ap.ZolotarevFraction.from_ell, []

    def counted(cls, *args):
        calls.append(args)
        return from_ell(*args)

    monkeypatch.setattr(ap.ZolotarevFraction, "from_ell", classmethod(counted))
    first = an.phase_error_sign(s, 1.0, 64)
    inverse = s.reciprocal()
    second = an.phase_error_sign(inverse, 1.0, 64)
    assert calls == [s._optimum[:3]] and inverse._fraction is s._fraction
    assert second.method == "nodes" and second.extrema == tuple((t, -e) for t, e in first.extrema)


def test_grid_route_angles_are_python_floats():
    grid = an.phase_error_sqrt(ap.UnimodularRational(0, (), ap.Family.R_FAMILY), 1.0, 64)
    nodes = an.phase_error_sqrt(ap.build_r(0, 1.0), 1.0, 64)
    assert grid.method == "grid" and grid.extrema == nodes.extrema
    assert all(type(t) is float for t, _ in grid.extrema)


@pytest.mark.parametrize("m", [86, 90])
def test_an_amplitude_below_the_normal_doubles_is_refused(m):
    # arccos(lam) is subnormal at m = 86 and underflows to 0 at m = 90: no relative precision is
    # left, and the grid route could only read rounding noise
    assert an.theta_tilde(m, 1e-3) < sys.float_info.min
    with pytest.raises(PrecisionError, match="below the normal doubles"):
        an.phase_error_sign(ap.build_s(m, 1e-3), 1e-3, 8 * (m + 1))


def test_a_failed_grid_check_is_refused(monkeypatch):
    monkeypatch.setattr(an, "node_bound", lambda m, theta: -1.0)  # every grid point exceeds
    with pytest.raises(PrecisionError, match=r"unresolved nodes at effective degree 5: counts \(0, 0\), grid peak"):
        an.phase_error_sign(ap.build_s(5, 1.0), 1.0, 128)


def test_node_bound_is_stated_in_theta_and_degree():
    assert an.node_bound(0, 0.5 * math.pi) == 4 * EPS
    assert an.node_bound(64, 1.0) == 4 * EPS * (65 / math.sin(1.0)) ** 2


def test_a_short_count_on_the_nodes_is_refused(monkeypatch):
    alternating, rels = an._alternating, []

    def drop_one_on_the_first_node_arc(extrema, amplitude, rel=1e-3):
        rels.append(rel)
        kept = alternating(extrema, amplitude, rel)
        return kept[:-1] if len(rels) == 1 else kept

    monkeypatch.setattr(an, "_alternating", drop_one_on_the_first_node_arc)
    with pytest.raises(PrecisionError, match=r"unresolved nodes at effective degree 5: counts \(5, 6\)"):
        an.phase_error_sign(ap.build_s(5, 1.0), 1.0, 128)
    assert rels == [an.node_bound(5, 1.0)] * 2  # both arcs were tallied on the node route, and no grid ran
