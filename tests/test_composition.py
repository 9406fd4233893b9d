import cmath
import math
import re

import numpy as np
import pytest

from zolocirc import analysis as an
from zolocirc import approximants as ap
from zolocirc import composition as co
from zolocirc import elliptic as el
from zolocirc.errors import DomainError, PrecisionError

CIRCLE_200 = np.exp(2j * math.pi * (np.arange(200) + 0.29) / 200)
NEAR_RIGHT_ANGLE = 0.5 * math.pi - 0.01


class TestThetaTilde:
    def test_is_the_optimal_error_of_analysis(self):
        assert co.theta_tilde is an.theta_tilde

    def test_identity_degree(self):
        assert co.theta_tilde(1, 1.2) == pytest.approx(1.2, abs=1e-15)

    def test_degree_zero(self):
        assert co.theta_tilde(0, 1.2) == math.pi / 2

    @pytest.mark.parametrize("theta", [0.0, 5.0, math.nan])
    def test_degree_zero_validates_theta(self, theta):
        with pytest.raises(PrecisionError):
            co.theta_tilde(0, theta)

    @pytest.mark.parametrize("m,theta", [(3, NEAR_RIGHT_ANGLE), (2, 0.7), (5, 1.3)])
    def test_matches_endpoint_argument(self, m, theta):
        s = ap.build_s(m, theta)
        endpoint = abs(cmath.phase(s(cmath.exp(1j * theta))))
        assert abs(endpoint - co.theta_tilde(m, theta)) <= 1e-11

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_strictly_shrinks_for_higher_degrees(self, m):
        assert co.theta_tilde(m, 1.0) < 1.0


class TestComposeS:
    @pytest.mark.parametrize("m_tilde,m", [(1, 4), (4, 1)])
    def test_identity_cases(self, m_tilde, m):
        left, right = co.compose_s(m_tilde, m, 0.8, CIRCLE_200)
        assert float(np.max(np.abs(left - right))) <= 1e-13

    @pytest.mark.parametrize("m_tilde,m,theta", [(2, 2, 1.0), (2, 3, 1.0), (3, 3, NEAR_RIGHT_ANGLE), (3, 5, 1.0)])
    def test_law(self, m_tilde, m, theta):
        left, right = co.compose_s(m_tilde, m, theta, CIRCLE_200)
        assert float(np.max(np.abs(left - right))) <= 1e-9

    def test_rejects_zero_degree(self):
        with pytest.raises(DomainError):
            co.compose_s(0, 2, 1.0, 1.0 + 0j)

    def test_associative(self):
        theta = 1.0
        t2 = co.theta_tilde(2, theta)
        t6 = co.theta_tilde(6, theta)
        s2 = ap.build_s(2, theta)
        s3t = ap.build_s(3, t2)
        s2tt = ap.build_s(2, t6)
        t3_after = co.theta_tilde(3, t2)
        s2_alt = ap.build_s(2, t3_after)
        direct = ap.build_s(12, theta)
        worst = 0.0
        for z in CIRCLE_200[:64]:
            z = complex(z)
            a = s2tt(s3t(s2(z)))  # (2 . 3) . 2 grouping via theta chain
            b = s2_alt(s3t(s2(z)))
            worst = max(worst, abs(a - direct(z)), abs(b - direct(z)))
        assert worst <= 5e-9

    def test_composed_map_equioscillates_at_product_count(self):
        m_tilde, m, theta = 2, 3, 1.0
        tt = co.theta_tilde(m, theta)
        inner = ap.build_s(m, theta)
        outer = ap.build_s(m_tilde, tt)

        def err(t):  # _arc_extrema samples its grid with one array call
            w = outer(inner(np.exp(1j * t)))
            return np.remainder(np.arctan2(w.imag, w.real) + math.pi, 2 * math.pi) - math.pi

        ext = an._arc_extrema(err, -theta, theta, 160)
        amplitude = max(abs(v) for _, v in ext)
        assert len(an._alternating(ext, amplitude)) == m_tilde * m + 1


class TestComposeSTilde:
    def test_trivial(self):
        z = cmath.exp(0.83j)
        left, right = co.compose_s_tilde(0, 0, 1.2, z)
        assert left == right == z

    @pytest.mark.parametrize("n_tilde,n,theta", [(1, 1, 1.2), (1, 2, 0.9), (2, 1, 0.9)])
    def test_law(self, n_tilde, n, theta):
        left, right = co.compose_s_tilde(n_tilde, n, theta, CIRCLE_200)
        assert float(np.max(np.abs(left - right))) <= 1e-9

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_width_invariant_under_reciprocal(self, n):
        # |arg| of s and 1/s agree at the arc endpoint
        m = 2 * n + 1
        theta = 1.1
        s = ap.build_s(m, theta)
        w = cmath.exp(1j * theta)
        assert abs(abs(cmath.phase(s(w))) - abs(cmath.phase(1.0 / s(w)))) <= 1e-14
        assert abs(abs(cmath.phase(s(w))) - co.theta_tilde(m, theta)) <= 1e-11


class TestComposeR:
    def test_degree_zero_inner(self):
        # r_0 = 1 and theta_tilde(1, theta) = theta: both sides are r_2(z; theta)
        left, right = co.compose_r(2, 0, 0.8, CIRCLE_200)
        assert float(np.max(np.abs(left - right))) <= 1e-13

    @pytest.mark.parametrize("n_tilde,n", [(1, 1), (1, 2), (2, 1)])
    def test_law(self, n_tilde, n):
        left, right = co.compose_r(n_tilde, n, 1.0, CIRCLE_200)
        assert float(np.max(np.abs(left - right))) <= 1e-9

    @pytest.mark.parametrize("n_tilde,n", [(1, 1), (2, 1), (1, 3)])
    def test_target_degree_structure(self, n_tilde, n):
        direct = ap.build_r(2 * n_tilde * n + n_tilde + n, 1.0)
        assert len(direct.factors) == 2 * n_tilde * n + n_tilde + n


class TestComposeF:
    def test_inner_identity(self):
        for x in (-0.9, 0.0, 0.4, 1.0):
            left, right = co.compose_F(3, 1, 0.5, x)
            assert left == pytest.approx(right, abs=1e-14)

    def test_at_inner_modulus(self):
        left, right = co.compose_F(2, 3, 0.5, 0.5)
        lam6 = el.solve_lambda(0.5, 6).lam
        assert left == pytest.approx(lam6, abs=1e-12)
        assert right == pytest.approx(lam6, abs=1e-12)

    def test_specific_point(self):
        left, right = co.compose_F(2, 2, 0.5, 0.8)
        assert abs(left - right) <= 1e-10

    @pytest.mark.parametrize("m_tilde,m,ell", [(2, 2, 0.5), (2, 3, 0.3), (3, 2, 0.7)])
    def test_grid(self, m_tilde, m, ell):
        for x in np.linspace(-1.0, 1.0, 81):
            left, right = co.compose_F(m_tilde, m, ell, float(x))
            assert abs(left - right) <= 1e-10

    def test_last_inner_degree_inside_the_window(self):
        # lam(10, 0.3) = 0.99999996 is the outer modulus, just inside ELL_MAX
        left, right = co.compose_F(2, 10, 0.3, 0.5)
        assert math.isfinite(left) and math.isfinite(right)

    @pytest.mark.parametrize("m,ell", [(11, 0.3), (31, 0.3), (32, 0.3), (33, 0.3), (64, 1e-4), (255, 1e-4)])
    def test_outer_modulus_past_the_window(self, m, ell):
        # lam >= ELL_MAX from m = 11 at ell = 0.3, and lam rounds to 1.0 from
        # m = 32: both are the same precision limit, not a domain error
        with pytest.raises(PrecisionError, match=re.escape(f"lam(m={m}, ell={ell!r})=") + ".* outside supported range"):
            co.compose_F(2, m, ell, 0.5)


class TestDerivedThetaTilde:
    # (law, outer degree, inner degree, theta, the inner's effective degree)
    CASES = {
        "compose_s(2, 2)": (co.compose_s, 2, 2, 1e-3, 2),
        "compose_s(2, 400)": (co.compose_s, 2, 400, 1.0, 400),
        "compose_s_tilde(1, 1)": (co.compose_s_tilde, 1, 1, 1e-3, 3),
        "compose_r(1, 1)": (co.compose_r, 1, 1, 1e-3, 3),
    }
    WINDOW = f"outside supported range ({el.THETA_MIN:.6e}, {el.THETA_MAX!r})"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_out_of_window_width_is_named_as_derived(self, case):
        law, outer, inner, theta, effective = self.CASES[case]
        tt = co.theta_tilde(effective, theta)
        assert 0.0 <= tt < el.THETA_MIN
        with pytest.raises(PrecisionError) as info:
            law(outer, inner, theta, CIRCLE_200)
        assert str(info.value) == f"theta_tilde(m={effective}, theta={theta!r})={tt!r} {self.WINDOW}"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_callers_theta_is_refused_first(self, case):
        law, outer, inner, _, _ = self.CASES[case]
        with pytest.raises(PrecisionError) as info:
            law(outer, inner, 1e-9, CIRCLE_200)
        assert str(info.value) == f"theta=1e-09 {self.WINDOW}"


class TestDegreeValidation:
    # (law taking the outer and the inner degree, their names, smallest degree)
    LAWS = {
        "compose_s": (lambda a, b: co.compose_s(a, b, 1.0, 1.0 + 0j), ("m_tilde", "m"), 1),
        "compose_s_tilde": (lambda a, b: co.compose_s_tilde(a, b, 1.0, 1.0 + 0j), ("n_tilde", "n"), 0),
        "compose_r": (lambda a, b: co.compose_r(a, b, 1.0, 1.0 + 0j), ("n_tilde", "n"), 0),
        "compose_F": (lambda a, b: co.compose_F(a, b, 0.5, 0.5), ("m_tilde", "m"), 1),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("bad", ["below", -1, True, 2.0])
    def test_rejects_non_degrees(self, law, bad):
        call, (outer, inner), minimum = self.LAWS[law]
        bad = minimum - 1 if bad == "below" else bad  # 0 for the m-laws
        with pytest.raises(DomainError, match=f"^{outer} must be an integer"):
            call(bad, 2)
        with pytest.raises(DomainError, match=f"^{inner} must be an integer"):
            call(2, bad)

    @pytest.mark.parametrize("law", ["compose_r", "compose_s_tilde"])
    def test_n_laws_accept_degree_zero(self, law):
        left, right = self.LAWS[law][0](0, 0)
        assert abs(left - right) <= 1e-13


class TestModulusChain:
    @pytest.mark.parametrize("m,m_tilde", [(2, 2), (2, 3), (3, 2)])
    def test_theta_tilde_composes(self, m, m_tilde):
        theta = 1.0
        chained = co.theta_tilde(m_tilde, co.theta_tilde(m, theta))
        direct = co.theta_tilde(m_tilde * m, theta)
        assert abs(chained - direct) <= 1e-10
