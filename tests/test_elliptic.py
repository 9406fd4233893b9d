import math

import numpy as np
import pytest

from zolocirc import elliptic as el
from zolocirc import oracle as orc
from zolocirc.errors import DomainError, PrecisionError

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestCompleteK:
    def test_zero_modulus(self):
        assert el.complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_self_complementary_point(self):
        # K(1/sqrt2) = K'(1/sqrt2), i.e. mu there is pi/2
        assert el.complete_K(SQRT_HALF) == pytest.approx(
            el.complete_K(el.complement(SQRT_HALF)), abs=1e-15
        )

    def test_half_modulus_value(self):
        # frozen from adaptive quadrature of the defining integral
        assert el.complete_K(0.5) == pytest.approx(1.6857503548125960, abs=1e-13)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            el.complete_K(bad)

    def test_monotone_in_modulus(self):
        ks = [el.complete_K(i / 20) for i in range(20)]
        assert all(a < b for a, b in zip(ks, ks[1:]))


class TestJacobi:
    def test_origin(self):
        assert el.jacobi_sncndn(0.0, 0.3) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("ell", [0.05, 0.3, 0.6, 0.9])
    def test_quarter_period(self, ell):
        sn, cn, dn = el.jacobi_sncndn(el.complete_K(ell), ell)
        assert sn == pytest.approx(1.0, abs=1e-14)
        assert cn == pytest.approx(0.0, abs=1e-14)
        assert dn == pytest.approx(el.complement(ell), abs=1e-14)

    def test_frozen_triple(self):
        sn, cn, dn = el.jacobi_sncndn(0.7, 0.5)
        assert sn == pytest.approx(0.6342932763351124, abs=1e-13)
        assert cn == pytest.approx(0.7730925168413343, abs=1e-13)
        assert dn == pytest.approx(0.9483765127305806, abs=1e-13)

    def test_matches_amplitude_ode(self):
        phi = orc.oracle_amplitude(0.7, 0.5).value
        sn, _, _ = el.jacobi_sncndn(0.7, 0.5)
        assert sn == pytest.approx(math.sin(phi), abs=1e-11)

    @pytest.mark.parametrize("ell", [i / 20 for i in range(1, 20)])
    def test_pythagorean_identities(self, ell):
        K = el.complete_K(ell)
        for i in range(81):
            u = -2.0 * K + 4.0 * K * i / 80
            sn, cn, dn = el.jacobi_sncndn(u, ell)
            assert abs(sn * sn + cn * cn - 1.0) <= 1e-13
            assert abs(ell * ell * sn * sn + dn * dn - 1.0) <= 1e-13

    @pytest.mark.parametrize("ell", [0.2, 0.55, 0.9])
    def test_half_period(self, ell):
        K = el.complete_K(ell)
        for u in (-1.3, -0.4, 0.2, 0.9, 1.7):
            sn2, _, _ = el.jacobi_sncndn(u + 2.0 * K, ell)
            sn0, _, _ = el.jacobi_sncndn(u, ell)
            assert abs(sn2 + sn0) <= 1e-12

    def test_modulus_domain(self):
        with pytest.raises(DomainError):
            el.jacobi_sncndn(0.5, 1.0)
        with pytest.raises(DomainError):
            el.jacobi_sncndn(0.5, -0.2)


class TestInverseSn:
    def test_zero(self):
        assert el.inverse_sn(0.0, 0.4) == 0.0

    @pytest.mark.parametrize("ell", [0.1, 0.5, 0.9])
    def test_unit_argument_gives_quarter_period(self, ell):
        assert el.inverse_sn(1.0, ell) == pytest.approx(el.complete_K(ell), abs=1e-13)

    def test_frozen_value(self):
        assert el.inverse_sn(0.3, 0.6) == pytest.approx(0.3063835388161756, abs=1e-12)

    @pytest.mark.parametrize("ell", [0.05, 0.5, 0.9, 0.99])
    def test_round_trip(self, ell):
        for x in (-1.0, -0.98, -0.5, -0.1, 0.0, 0.3, 0.77, 0.999, 1.0):
            u = el.inverse_sn(x, ell)
            sn, _, _ = el.jacobi_sncndn(u, ell)
            assert abs(sn - x) <= 1e-12
            assert abs(u) <= el.complete_K(ell) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            el.inverse_sn(1.0001, 0.5)


class TestGroetzsch:
    def test_self_complementary(self):
        assert el.groetzsch_mu(SQRT_HALF) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_half_by_independent_quadrature(self):
        ref = (math.pi / 2) * orc.oracle_K(el.complement(0.5)).value / orc.oracle_K(0.5).value
        assert el.groetzsch_mu(0.5) == pytest.approx(ref, abs=1e-12)
        assert el.groetzsch_mu(0.5) == pytest.approx(2.0094593770052852, abs=1e-13)

    def test_large_modulus_below_self_complementary_value(self):
        assert el.groetzsch_mu(0.99) < math.pi / 2

    @pytest.mark.parametrize("ell", [0.05, 0.3, 0.5, 0.9, 0.999])
    def test_reciprocal_product(self, ell):
        prod = el.groetzsch_mu(ell) * el.groetzsch_mu(el.complement(ell))
        assert abs(prod - (math.pi / 2) ** 2) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            el.groetzsch_mu(bad)


class TestMuInverse:
    def test_self_complementary(self):
        assert el.mu_inverse(math.pi / 2) == pytest.approx(SQRT_HALF, abs=1e-14)

    def test_round_trip(self):
        assert el.mu_inverse(el.groetzsch_mu(0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_against_bisection_oracle(self):
        # independent bisection on the quadrature-based mu, 1e-15 bracket
        def mu_quad(x):
            return (math.pi / 2) * orc.oracle_K(el.complement(x)).value / orc.oracle_K(x).value

        lo, hi = 1e-6, 1.0 - 1e-6
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if mu_quad(mid) > 3.0:
                lo = mid
            else:
                hi = mid
        assert el.mu_inverse(3.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert el.mu_inverse(3.0) == pytest.approx(0.19719072657000561, abs=1e-13)

    @pytest.mark.parametrize("v", [0.3, 0.7, 1.0, 1.5, math.pi / 2, 3.0, 8.0, 11.9, 12.5, 20.0])
    def test_residuals(self, v):
        ell = el.mu_inverse(v)
        assert 0.0 < ell < 1.0
        assert abs(el.groetzsch_mu(ell) - v) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            el.mu_inverse(0.0)
        with pytest.raises(DomainError):
            el.mu_inverse(-1.0)
        with pytest.raises(PrecisionError):
            el.mu_inverse(1e-3)  # solution indistinguishable from 1


class TestEllipticModulus:
    def test_fields(self):
        mod = el.EllipticModulus.from_theta(1.0)
        assert abs(mod.ell**2 + mod.ell_comp**2 - 1.0) <= 4e-16
        assert mod.mu == pytest.approx((math.pi / 2) * mod.K_comp / mod.K, rel=1e-15)
        assert mod.rho == pytest.approx(math.exp(math.pi * mod.K / mod.K_comp), rel=1e-15)
        assert mod.rho > 1.0

    def test_quarter_periods_monotone_across_instances(self):
        mods = [el.EllipticModulus.from_ell(x) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for a, b in zip(mods, mods[1:]):
            assert a.K < b.K
            assert a.K_comp > b.K_comp

    def test_domain(self):
        with pytest.raises(DomainError):
            el.EllipticModulus.from_ell(0.0)
        with pytest.raises(DomainError):
            el.EllipticModulus.from_theta(0.0)


class TestSolveLambda:
    def test_degree_one_is_identity(self):
        red = el.solve_lambda(0.62, 1)
        assert red.lam == 0.62
        assert red.M == 1.0

    def test_degree_zero_convention(self):
        red = el.solve_lambda(0.62, 0)
        assert red.lam == 0.0
        assert red.lam_comp == 1.0
        assert red.M == 1.0

    def test_degree_equation_residual_by_quadrature(self):
        red = el.solve_lambda(0.5, 2)
        lhs = orc.oracle_K(0.5).value / orc.oracle_K(el.complement(0.5)).value
        rhs = orc.oracle_K(red.lam).value / (2.0 * orc.oracle_K(red.lam_comp).value)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("ell", [0.3, 0.62, 0.9])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_degree_equation_residual(self, ell, m):
        red = el.solve_lambda(ell, m)
        # K at the reduced modulus must come through the stored complement:
        # lam rounds into 1 for larger degrees and carries no information there
        reduced = el.EllipticModulus.from_ell(red.lam, red.lam_comp)
        lhs = el.complete_K(ell) / el.complete_K(el.complement(ell))
        rhs = reduced.K / (m * reduced.K_comp)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        assert red.M == pytest.approx(el.complete_K(ell) / reduced.K, rel=1e-13)

    def test_reduced_complement_strictly_decreases_with_degree(self):
        # equivalently the optimal error arccos(lam) shrinks as m grows
        comps = [el.solve_lambda(0.54, m).lam_comp for m in range(1, 9)]
        assert all(a > b for a, b in zip(comps, comps[1:]))
        lams = [el.solve_lambda(0.54, m).lam for m in range(1, 9)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("ell,m,mt", [(0.3, 2, 2), (0.3, 2, 3), (0.7, 3, 2)])
    def test_modulus_chain(self, ell, m, mt):
        lam_direct = el.solve_lambda(ell, m * mt).lam
        lam_chain = el.solve_lambda(el.solve_lambda(ell, m).lam, mt).lam
        assert abs(lam_direct - lam_chain) <= 1e-11

    def test_rejects_modulus_outside_precision_window(self):
        with pytest.raises(PrecisionError):
            el.solve_lambda(1e-9, 2)
        with pytest.raises(PrecisionError):
            el.solve_lambda(1.0 - 1e-9, 2)


class TestRequireDegree:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_become_plain_int(self, value):
        n = el.require_degree(value, 0)
        assert n == 3 and type(n) is int

    @pytest.mark.parametrize("value", [True, False, np.True_, 3.0, "3", None, -1])
    def test_rejects_non_integers_and_values_below_minimum(self, value):
        with pytest.raises(DomainError):
            el.require_degree(value, 0)

    def test_maximum_is_inclusive(self):
        assert el.require_degree(4, 1, "j", 4) == 4
        with pytest.raises(DomainError):
            el.require_degree(5, 1, "j", 4)
