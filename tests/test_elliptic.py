import dataclasses
import math
import warnings

import numpy as np
import pytest

from zolocirc import elliptic as el
from zolocirc import oracle as orc
from zolocirc.approximants import ZolotarevFraction, eval_F_direct, z4_solution
from zolocirc.composition import compose_F
from zolocirc.connections import blaschke_composition_modulus, blaschke_h
from zolocirc.errors import DomainError, PrecisionError

SQRT_HALF = 1.0 / math.sqrt(2.0)


def counted(monkeypatch, name):
    """The argument tuples of every later call of el.<name>."""
    calls, inner = [], getattr(el, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(el, name, wrapper)
    return calls


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
        with pytest.raises(DomainError, match="jacobi modulus"):
            el.jacobi_sncndn(0.5, 1.5)

    def test_nan_argument(self):
        with pytest.raises(DomainError, match="jacobi argument must be finite"):
            el.jacobi_sncndn(math.nan, 0.5)
        with pytest.raises(DomainError, match="jacobi argument must be finite"):
            el.jacobi_sncndn(-math.inf, 0.5)

    @pytest.mark.parametrize("u", [np.complex128(0.3 + 1j), "0.3", None], ids=["complex128", "str", "None"])
    def test_argument_that_is_not_real(self, u):
        # a numpy complex passed by its real part, with a ComplexWarning; a string or None raised TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^u must be a real number, got "):
                el.jacobi_sncndn(u, 0.5)

    @pytest.mark.parametrize("call", [lambda: el.jacobi_sncndn(10**400, 0.5), lambda: el.jacobi_sncndn(-(10**400), 0.5),
                                      lambda: el.mu_inverse(10**400)], ids=["u=10**400", "u=-10**400", "mu_inverse"])
    def test_int_past_the_doubles(self, call):
        # each compared exactly and then overflowed in float()
        with pytest.raises(DomainError, match=r"must be a real number within the doubles, got an int of 1329 bits"):
            call()


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
        with pytest.raises(DomainError, match="inverse_sn modulus"):
            el.inverse_sn(0.5, 1.0)


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


class TestNomeInverse:
    V_GRID = [0.09, 0.3, 1.0, math.pi / 2, 2.0, 12.5, 100.0, 700.0]

    def test_self_complementary_point_to_one_ulp(self):
        root_half = math.sqrt(0.5)  # correctly rounded, unlike 1/sqrt(2)
        assert abs(el.mu_inverse(math.pi / 2) - root_half) <= math.ulp(root_half)
        below = el.mu_inverse(math.nextafter(math.pi / 2, 0.0))
        above = el.mu_inverse(math.nextafter(math.pi / 2, 4.0))
        assert abs(below - above) <= 2 * math.ulp(root_half)

    @pytest.mark.parametrize("v", [745.0, 800.0, 1e300])
    def test_underflow_raises(self, v):
        with pytest.raises(PrecisionError):
            el.mu_inverse(v)

    @pytest.mark.parametrize("v", [math.inf, math.nan])
    def test_non_finite_target(self, v):
        with pytest.raises(DomainError):
            el.mu_inverse(v)

    def test_runs_no_search(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("mu evaluated inside the inverse")

        expected = [el.mu_inverse(v) for v in self.V_GRID]
        monkeypatch.setattr(el, "groetzsch_mu", forbidden)
        monkeypatch.setattr(el, "_mu_pair", forbidden)
        assert [el.mu_inverse(v) for v in self.V_GRID] == expected

    def test_solve_lambda_evaluates_mu_once(self, monkeypatch):
        calls = counted(monkeypatch, "_mu_pair")
        for m in (2, 3, 16, 256, 3000):
            calls.clear()
            el.solve_lambda(0.4, m)
            assert len(calls) == 1

    def test_high_degree_stays_at_the_rounding_floor(self):
        red = el.solve_lambda(0.5, 800)
        assert red.lam == 1.0 and red.lam_comp == 0.0


class TestComplementaryPair:
    def test_inconsistent_complement_rejected(self):
        cases = [(0.5, bad) for bad in (0.1, math.nan, -el.complement(0.5))]
        cases.append((1.5e-8, math.nextafter(1.0, 2.0)))  # within 4 eps of the unit circle, but above 1
        for ell, bad in cases:
            with pytest.raises(DomainError, match="not complementary"):
                el.solve_lambda(ell, 2, ell_comp=bad)
            with pytest.raises(DomainError, match="not complementary"):
                el.EllipticModulus.from_ell(ell, bad)
            with pytest.raises(DomainError, match="not complementary"):
                ZolotarevFraction.from_ell(3, ell, bad)

    def test_rounded_pairs_accepted(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(el.THETA_MIN, el.THETA_MAX, 2000):
            theta = float(theta)
            el.EllipticModulus.from_ell(math.cos(theta), math.sin(theta))
            ell = math.cos(theta)
            el.EllipticModulus.from_ell(ell, el.complement(ell))


class TestEllipticModulus:
    def test_fields(self):
        mod = el.EllipticModulus.from_ell(math.cos(1.0), math.sin(1.0))
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
        assert red.nome == (0.0, math.inf, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("m", [0, 1])
    def test_low_degree_nome_is_the_pair_nome(self, m):
        red = el.solve_lambda(0.62, m)
        assert red.nome == el._nome(red.lam, red.lam_comp)

    @pytest.mark.parametrize("ell,m", [(0.62, 2), (0.3, 5), (0.5, 606), (0.5, 800)])
    def test_nome_comes_from_the_degree_equation(self, ell, m):
        red = el.solve_lambda(ell, m)
        v = el.groetzsch_mu(ell) / m
        assert red.nome[1] == 2.0 * max(v, (0.5 * math.pi) ** 2 / v)
        assert red.nome == el._mu_inverse_pair(v)[3]

    def test_nome_left_out_of_eq_and_repr(self):
        red = el.solve_lambda(0.62, 3)
        assert dataclasses.replace(red, nome=None, modulus=None) == red
        assert "nome" not in repr(red) and "modulus" not in repr(red)
        mod = red.modulus
        assert dataclasses.replace(mod, nome=None) == mod
        assert "nome" not in repr(mod)

    @pytest.mark.parametrize("m", [0, 1, 2, 256])
    @pytest.mark.parametrize("ell,ell_comp", [(0.62, None), (math.cos(1.0), math.sin(1.0)), (1.5e-8, 1.0)])
    def test_keeps_the_modulus_it_solved_at(self, ell, ell_comp, m):
        got, want = el.solve_lambda(ell, m, ell_comp).modulus, el.EllipticModulus.from_ell(ell, ell_comp)
        assert got == want and got.nome == want.nome == el._nome(want.ell, want.ell_comp)
        for name in ("K", "K_comp", "mu", "rho"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name

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


class TestNomePassedOn:
    def test_one_nome_per_fraction(self, monkeypatch):
        calls = counted(monkeypatch, "_nome")
        for m in (1, 2, 8, 256):
            calls.clear()
            zf = ZolotarevFraction.from_ell(m, math.cos(1.0), math.sin(1.0))
            assert len(zf.cot2_even) + len(zf.cot2_odd) == m - 1 and len(calls) == 1, m

    def test_sncndn_derives_no_nome_and_no_theta_constants(self, monkeypatch):
        ell, ell_comp = math.cos(1.0), math.sin(1.0)
        pairs = [(ell, ell_comp, el._nome(ell, ell_comp)), (ell_comp, ell, el._nome(ell_comp, ell))]
        nomes, thetas = counted(monkeypatch, "_nome"), counted(monkeypatch, "_theta")
        for a, b, nome in pairs:
            for num in range(1, 32, 2):
                el._sncndn(num, 8, a, b, nome)
        assert nomes == [] and len(thetas) == 32 and all(z != 0.0 for _, z, *_ in thetas)

    def test_jacobi_derives_one_nome(self, monkeypatch):
        calls = counted(monkeypatch, "_nome")
        el.jacobi_sncndn(0.7, 0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [1, 3, 606])
    def test_direct_F_derives_no_nome(self, monkeypatch, m):
        zf = ZolotarevFraction.from_ell(m, 0.5)
        calls = counted(monkeypatch, "_nome")
        for x in (-0.45, -0.3, 0.0, 0.2, 0.4, 0.7):
            eval_F_direct(zf, x)
        assert calls == []


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


class TestRequireModulus:
    def test_returns_a_plain_float(self):
        ell = el.require_modulus(np.float64(0.5))
        assert ell == 0.5 and type(ell) is float

    def test_numpy_modulus_gives_the_float_results(self):
        # a numpy scalar modulus leaves the validator as a float, so nothing
        # downstream runs numpy scalar arithmetic or warns
        def results(ell, quarter):
            z4 = z4_solution(4, ell)
            return [
                z4.scale,
                z4.deviation,
                z4(0.7),
                z4(1e160),
                *compose_F(2, 2, ell, 0.3),
                *blaschke_h(3, quarter).params,
                blaschke_composition_modulus(3, quarter),
                el.solve_lambda(ell, 5).lam,
            ]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = results(np.float64(0.5), np.float64(0.25))
        want = results(0.5, 0.25)
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    def test_numpy_complement_gives_the_float_results(self):
        # an explicit ell_comp leaves the complementarity check as a float too
        def results(ell_comp):
            frac = ZolotarevFraction.from_ell(3, 0.5, ell_comp)
            modulus = el.solve_lambda(0.5, 3, ell_comp).modulus
            return [modulus.ell_comp, modulus.K_comp, *frac.cot2_even, *frac.cot2_odd, *frac.dn2_odd]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = results(np.float64(el.complement(0.5)))
        want = results(el.complement(0.5))
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
