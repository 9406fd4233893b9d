import cmath
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from zolocirc import approximants as ap
from zolocirc import elliptic as el
from zolocirc.errors import DomainError, PoleError

RNG = np.random.default_rng(0x5EED)
CIRCLE_64 = np.exp(2j * math.pi * RNG.random(64))


def circle(count, offset=0.37):
    return np.exp(2j * math.pi * (np.arange(count) + offset) / count)


def same_bits(a, b):
    """Complex values (scalars or arrays) equal bit for bit, signed zeros included."""
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


class TestCoeffA:
    def test_degree_one_closed_form(self):
        theta = math.pi / 3
        ell, ell_comp = math.cos(theta), math.sin(theta)
        K_comp = el.complete_K(ell_comp)
        sn, cn, dn = el.jacobi_sncndn(K_comp / 3.0, ell_comp)
        assert ap.coeff_a(1, 1, theta) == pytest.approx(((ell * sn + dn) / cn) ** 2, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_positive(self, n):
        for j in range(1, n + 1):
            assert ap.coeff_a(j, n, 1.1) > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_arc_limit_hits_tangent_squares(self, n):
        omega = math.pi / (4 * n + 2)
        for j in range(1, n + 1):
            if (j + n) % 2:
                expected = math.tan((n - j + 1) * omega) ** 2
            else:
                expected = math.tan((n + j) * omega) ** 2
            assert ap.coeff_a(j, n, 1e-3) == pytest.approx(expected, abs=1e-4)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            ap.coeff_a(0, 3, 1.0)
        with pytest.raises(DomainError):
            ap.coeff_a(4, 3, 1.0)


class TestBuildR:
    def test_degree_zero_is_one(self):
        r0 = ap.build_r(0, 0.9)
        assert r0(1.7 + 0.3j) == 1.0 + 0.0j
        assert r0.exact_type() == (0, 0)

    def test_degree_one_against_lift(self):
        # r_1(z^2) = z s_3(z) with the right-hand side through the F/G lift
        theta = math.pi / 3
        r1 = ap.build_r(1, theta)
        worst = 0.0
        for z in circle(100, 0.23):
            z = complex(z)
            if abs(z.real) < 1e-6:
                continue
            lift = ap.eval_s_via_FG(3, theta, z)
            worst = max(worst, abs(r1(z * z) - z * lift))
        assert worst <= 1e-11

    def test_unimodular_on_circle(self):
        r = ap.build_r(3, 1.2)
        assert np.max(np.abs(np.abs(r(CIRCLE_64)) - 1.0)) <= 1e-12

    def test_value_at_one(self):
        assert ap.build_r(4, 0.7)(1.0) == pytest.approx(1.0, abs=1e-14)


class TestCoeffB:
    def test_degree_one_vanishes(self):
        assert ap.coeff_b(1, 1, 1.25) == 0.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_middle_node_infinite_for_odd_n(self, n):
        m = 2 * n + 1
        assert math.isinf(ap.coeff_b(n + 1, m, 1.0))

    @pytest.mark.parametrize("n", [2, 4])
    def test_middle_node_zero_for_even_n(self, n):
        m = 2 * n + 1
        assert ap.coeff_b(n + 1, m, 1.0) == 0.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_n_case_table(self, n):
        # below the middle node: b_j = (-1)^j sqrt(a_j)
        m = 2 * n + 1
        for j in range(1, n + 1):
            expected = (-1) ** j * math.sqrt(ap.coeff_a(j, n, 0.8))
            assert ap.coeff_b(j, m, 0.8) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_n_case_table(self, n):
        m = 2 * n + 1
        for j in range(1, n + 1):
            expected = (-1) ** j / math.sqrt(ap.coeff_a(j, n, 0.8))
            assert ap.coeff_b(j, m, 0.8) == pytest.approx(expected, rel=1e-13)


class TestBuildS:
    def test_degree_one_is_z(self):
        s1 = ap.build_s(1, 1.0)
        z = 0.3 - 0.9j
        assert s1(z) == z
        assert list(s1.factors) == [0.0]
        assert s1.quarter_turns == 0

    def test_degree_zero_is_i(self):
        s0 = ap.build_s(0, 1.0)
        assert s0(0.2 + 0.5j) == 1j

    def test_structural_identity_m3(self):
        theta = 1.2
        s3 = ap.build_s(3, theta)
        r1 = ap.build_r(1, theta)
        worst = 0.0
        for z in np.exp(2j * math.pi * RNG.random(100)):
            z = complex(z)
            worst = max(worst, abs(1.0 / s3(z) - z / r1(z * z)))
        assert worst <= 1e-11

    @pytest.mark.parametrize("m", range(0, 9))
    def test_unimodular(self, m):
        s = ap.build_s(m, 1.3)
        pts = circle(256)
        assert np.max(np.abs(np.abs(s(pts)) - 1.0)) <= 1e-12

    def test_value_at_i(self):
        for m in (2, 3, 5, 8):
            assert ap.build_s(m, 1.0)(1j) == pytest.approx(1j, abs=1e-13)

    # both ends of the accepted window: cos(Theta) < ELL_MAX from the first, sin(Theta) < 1 to the last
    @pytest.mark.parametrize("theta", [0.0001414213571029879, 0.3, 1.0, 1.5, 1.5707963162581844])
    def test_factor_sign_pattern(self, theta):
        # off the middle node b_j is finite, nonzero and carries (-1)^{mj}
        # times the sign of cn at (2j - 1) K'/m, negative past K'
        for m in range(1, 65):
            for j, b in enumerate(ap.build_s(m, theta).factors, start=1):
                if 2 * j - 1 != m:
                    expect = (-1.0) ** (m * j) * (-1.0 if 2 * j - 1 > m else 1.0)
                    assert math.isfinite(b) and b != 0.0 and math.copysign(1.0, b) == expect, (m, j)

    def test_rejects_bool_degree(self):
        with pytest.raises(DomainError):
            ap.build_s(True, 1.0)

    def test_accepts_numpy_integer_degree(self):
        s = ap.build_s(np.int64(3), 1.0)
        assert s == ap.build_s(3, 1.0)
        assert type(ap.ZolotarevFraction.from_ell(np.int64(3), *el.require_theta(1.0)).reduction.m) is int


class TestReciprocal:
    def test_constant(self):
        assert ap.build_s(0, 1.0).reciprocal()(0.5 + 0.1j) == -1j

    def test_degree_one(self):
        inv = ap.build_s(1, 1.0).reciprocal()
        z = cmath.exp(0.7j)
        assert inv(z) == pytest.approx(1.0 / z, abs=1e-15)

    def test_involution(self):
        s = ap.build_s(4, 0.9)
        assert s.reciprocal().reciprocal() == s

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_pointwise_inverse(self, m):
        s = ap.build_s(m, 1.1)
        inv = s.reciprocal()
        for z in circle(32):
            z = complex(z)
            assert abs(s(z) * inv(z) - 1.0) <= 1e-12

    def test_r_family(self):
        r = ap.build_r(2, 1.0)
        inv = r.reciprocal()
        z = cmath.exp(1.1j)
        assert abs(r(z) * inv(z) - 1.0) <= 1e-13

    def test_h_family_is_refused(self):
        from zolocirc.connections import blaschke_h

        with pytest.raises(DomainError, match="H-family"):
            blaschke_h(3, 0.25).as_rational().reciprocal()


class TestEval:
    def test_pole_reports_factor_index(self):
        s = ap.build_s(4, 1.0)
        b = s.factors[2]
        with pytest.raises(PoleError) as exc:
            s(1j / b)
        assert exc.value.factor_index == 2

    def test_origin_pole_is_an_s_factor(self):
        inv_z = ap.UnimodularRational(0, (math.inf,), ap.Family.S_FAMILY)
        with pytest.raises(PoleError) as exc:
            inv_z(0.0 + 0.0j)
        assert exc.value.factor_index == 0

    @pytest.mark.parametrize("point", [[1j, 1], (0.6, 0.8), None, "1j", b"1", np.array(["1"]), np.array("1j"),
                                       np.array([0.6 + 0.8j], dtype=object)])
    def test_refuses_a_point_that_is_neither_a_number_nor_an_array(self, point):
        # complex() would parse the string "1j", an optimum's point on the circle
        for r in (ap.build_s(5, 1.0), ap.build_r(2, 1.0), ap.UnimodularRational(0, (0.5,), ap.Family.R_FAMILY)):
            with pytest.raises(DomainError, match="a number or an ndarray"):
                r(point)

    @pytest.mark.parametrize("point", [10**400, -(10**400), Fraction(10**400, 3), 10**5000],
                             ids=["10**400", "-10**400", "fraction", "10**5000"])
    def test_refuses_a_number_past_the_doubles(self, point):
        # complex() raises OverflowError; 10**5000 also has more digits than repr() may print
        for r in (ap.build_s(5, 1.0), ap.UnimodularRational(0, (0.5,), ap.Family.R_FAMILY)):
            with pytest.raises(DomainError, match="a number or an ndarray, got a (int|Fraction)"):
                r(point)

    def test_any_number_is_a_point(self):
        s = ap.build_s(5, 1.0)
        for point in (1, True, 0.5, np.float64(0.5), np.complex64(0.6 + 0.8j), np.int8(-1)):
            assert s(point) == s(complex(point))

    def test_a_0d_array_is_its_one_point_call_on_either_route(self):
        # on the circle (the lift) and off it (the product), s_0 = i and a copy without the record included
        s = ap.build_s(5, 1.0)
        for r in (s, s.reciprocal(), ap.build_r(2, 1.0), ap.build_s(0, 1.0), dataclasses.replace(s)):
            for z in (0.6 + 0.8j, -1.0, 1.5 + 0.5j, 2.0):
                value = r(np.array(z))
                assert type(value) is np.ndarray and value.shape == ()
                assert same_bits(value, r(np.array([z]))[0])

    def test_an_int_or_bool_array_is_its_float64(self):
        for r in (ap.build_r(3, 0.9), ap.UnimodularRational(0, (0.5, 2.0), ap.Family.R_FAMILY), ap.build_s(4, 0.9)):
            assert same_bits(r(np.array([-3, -1, 1, 2])), r(np.array([-3.0, -1.0, 1.0, 2.0])))
            assert same_bits(r(np.array([True])), r(np.array([1.0])))

    def test_array_scalar_agree(self):
        s = ap.build_s(5, 0.8)
        pts = circle(17)
        arr = s(pts)
        for z, v in zip(pts, arr):
            assert abs(s(complex(z)) - v) <= 1e-15


class TestZolotarevFraction:
    def test_direct_at_origin(self):
        zf = ap.ZolotarevFraction.from_ell(3, *el.require_theta(1.0))
        assert ap.eval_F_direct(zf, 0.0) == (0.0, 1.0)

    def test_direct_at_ell(self):
        zf = ap.ZolotarevFraction.from_ell(4, *el.require_theta(1.0))
        F, G = ap.eval_F_direct(zf, zf.reduction.modulus.ell)
        assert F == pytest.approx(zf.reduction.lam, abs=1e-12)
        assert G == pytest.approx(zf.reduction.lam_comp, abs=1e-12)

    def test_product_basics(self):
        zf = ap.ZolotarevFraction.from_ell(1, *el.require_theta(0.9))
        for x in (-0.8, -0.2, 0.4, 1.0):
            F, G = ap.eval_F_product(zf, x)
            assert F == pytest.approx(x, abs=1e-15)
            assert G == pytest.approx(math.sqrt(1.0 - x * x), abs=1e-15)
        assert ap.eval_F_product(zf, 0.0) == (0.0, 1.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_direct_vs_product(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, *el.require_theta(1.0472975))  # ell ~ 0.5
        for x in np.linspace(-1.0, 1.0, 101):
            fd = ap.eval_F_direct(zf, float(x))
            fp = ap.eval_F_product(zf, float(x))
            assert abs(fd[0] - fp[0]) <= 1e-10
            assert abs(fd[1] - fp[1]) <= 1e-10

    def test_beyond_ell_routes_through_product(self):
        zf = ap.ZolotarevFraction.from_ell(2, 0.5)
        assert ap.eval_F_direct(zf, 0.55) == ap.eval_F_product(zf, 0.55)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_parity_and_circle_identity(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, *el.require_theta(1.1))
        for x in np.linspace(0.0, 1.0, 41):
            Fp, Gp = ap.eval_F_product(zf, float(x))
            Fm, Gm = ap.eval_F_product(zf, float(-x))
            assert abs(Fp + Fm) <= 1e-12  # F odd
            assert abs(Gp - Gm) <= 1e-12  # G even
            assert abs(Fp * Fp + Gp * Gp - 1.0) <= 1e-12

    def test_endpoint_values_by_parity(self):
        # odd degree: F(1) = 1, G(1) = 0; even degree: F(1) = lam, |G(1)| = lam'
        zf3 = ap.ZolotarevFraction.from_ell(3, *el.require_theta(1.0))
        F, G = ap.eval_F_product(zf3, 1.0)
        assert F == pytest.approx(1.0, abs=1e-12)
        assert G == pytest.approx(0.0, abs=1e-12)
        zf4 = ap.ZolotarevFraction.from_ell(4, *el.require_theta(1.0))
        F, G = ap.eval_F_product(zf4, 1.0)
        assert F == pytest.approx(zf4.reduction.lam, abs=1e-12)
        assert abs(G) == pytest.approx(zf4.reduction.lam_comp, abs=1e-12)

    def test_domain(self):
        zf = ap.ZolotarevFraction.from_ell(2, *el.require_theta(1.0))
        with pytest.raises(DomainError):
            ap.eval_F_direct(zf, 1.2)


class TestZ4:
    def test_degree_one_linear(self):
        z4 = ap.z4_solution(1, 0.5)
        for x in (-0.9, 0.5, 0.7, 1.0):
            assert z4(x) == pytest.approx(2.0 / 1.5 * x, rel=1e-14)
        assert z4.deviation == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert abs(z4(0.5) - 1.0) == pytest.approx(z4.deviation, rel=1e-13)
        assert abs(z4(1.0) - 1.0) == pytest.approx(z4.deviation, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_deviation_matches_zolotarev_number(self, m):
        from zolocirc.analysis import zolotarev_number

        ell = 0.5
        z4 = ap.z4_solution(m, ell)
        zm = zolotarev_number(m, math.acos(ell))
        assert z4.deviation == pytest.approx(2.0 * math.sqrt(zm) / (1.0 + zm), abs=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equioscillation_on_right_interval(self, m):
        # m+1 alternating touches of +-deviation by 2/(1+lam) F - 1 on [ell, 1]
        ell = 0.6
        z4 = ap.z4_solution(m, ell)
        xs = np.linspace(ell, 1.0, 4001)
        resid = np.array([z4(float(x)) for x in xs]) - 1.0
        touches = []
        for i in range(len(xs)):
            lo = max(i - 1, 0)
            hi = min(i + 1, len(xs) - 1)
            if abs(resid[i]) >= abs(resid[lo]) and abs(resid[i]) >= abs(resid[hi]):
                if abs(resid[i]) >= z4.deviation * 0.999:
                    if not touches or (resid[i] >= 0) != (touches[-1] >= 0):
                        touches.append(resid[i])
        assert len(touches) == m + 1

    @pytest.mark.parametrize("m", [600, 800])
    def test_high_degree_is_sign_to_rounding(self, m):
        # lam' is subnormal or 0 at these degrees; M = K(ell)/K(lam) must not be
        z4 = ap.z4_solution(m, 0.5)
        for x in (-0.6, 0.5, 0.7):
            assert z4(x) == pytest.approx(math.copysign(1.0, x), abs=1e-14)


class TestLift:
    def test_value_at_one_odd_degree(self):
        assert ap.eval_s_via_FG(3, 1.0, 1.0 + 0.0j) == pytest.approx(1.0 + 0.0j, abs=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_arc_endpoint_amplitude(self, m):
        theta = 1.0
        red = el.solve_lambda(math.cos(theta), m, math.sin(theta))
        val = ap.eval_s_via_FG(m, theta, cmath.exp(1j * theta))
        assert abs(val) == pytest.approx(1.0, abs=1e-12)
        assert abs(cmath.phase(val)) == pytest.approx(math.asin(red.lam_comp), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_factored_form(self, m):
        theta = 0.9
        s = ap.build_s(m, theta)
        worst = 0.0
        for z in np.exp(2j * math.pi * RNG.random(100)):
            z = complex(z)
            if m % 2 and abs(z.real) < 1e-6:
                continue
            worst = max(worst, abs(s(z) - ap.eval_s_via_FG(m, theta, z)))
        assert worst <= 1e-11

    def test_rejects_off_circle(self):
        with pytest.raises(DomainError):
            ap.eval_s_via_FG(2, 1.0, 1.2 + 0.0j)

    def test_imaginary_axis_for_odd_degree(self):
        s = ap.build_s(3, 1.0)
        product = ap.UnimodularRational(s.quarter_turns, s.factors, s.family)
        assert ap.eval_s_via_FG(3, 1.0, 1j) == pytest.approx(product(1j), abs=1e-15)

    def test_degree_validated_before_the_points(self):
        with pytest.raises(DomainError, match="degree must be an integer >= 0"):
            ap.eval_s_via_FG(-1, 1.0, 1j)

    @pytest.mark.parametrize("z", ["1j", None, [1j], np.array(["1j"]), np.array([1j], dtype=object)],
                             ids=["str", "None", "list", "str array", "object array"])
    def test_a_point_that_is_neither_a_number_nor_an_array_is_a_domain_error(self, z):
        # the rule of the built optimum's __call__, taken before the 1e-9 test reads |z|
        with pytest.raises(DomainError, match="a number or an ndarray"):
            ap.eval_s_via_FG(3, 1.0, z)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 40])
    def test_one_circle_rule_with_the_built_optimum(self, m):
        theta = 1.0
        s = ap.build_s(m, theta)
        product = ap.UnimodularRational(s.quarter_turns, s.factors, s.family)
        zf = ap.ZolotarevFraction.from_ell(m, *el.require_theta(theta))
        # on the circle (|x^2 + y^2 - 1| <= 8 eps): the lift eval_s_via_FG took before, bit for bit
        on = np.exp(1j * np.linspace(-math.pi, math.pi, 33))
        assert np.all(np.abs(on.real**2 + on.imag**2 - 1.0) <= 8.0 * sys.float_info.epsilon)
        assert same_bits(ap.eval_s_via_FG(m, theta, on), ap._lifted(zf, on.real, on.imag, 1, False))
        for z in on.tolist():  # a scalar is the lift's one-point array, and a complex
            lifted = ap._lifted(zf, np.array([z.real]), np.array([z.imag]), 1, False)
            assert type(ap.eval_s_via_FG(m, theta, z)) is complex
            assert same_bits(ap.eval_s_via_FG(m, theta, z), lifted)
        # off it by more than 8 eps and at most 1e-9: the product, and an array with one such point takes it all
        r = 1.0 + 4503599 * 2.0**-52  # the largest |z| = 1 + d on the float grid with d <= 1e-9
        near = [r, -r, 1j * r, -1j * r, complex(on[3] * (1.0 + 1e-12))]
        assert all(same_bits(ap.eval_s_via_FG(m, theta, z), product(z)) for z in near)
        mixed = np.concatenate([on, near])
        assert same_bits(ap.eval_s_via_FG(m, theta, mixed), product(mixed))
        # one ulp of |z| past 1e-9: still refused, alone or in an array
        past = 1.0 + 4503600 * 2.0**-52
        for z in (past, -1j * past, np.concatenate([on, [past]])):
            with pytest.raises(DomainError, match=r"requires \|z\| = 1"):
                ap.eval_s_via_FG(m, theta, z)

    @pytest.mark.parametrize("theta", [1e-3, 1.0, 1.5707963])
    def test_s0_is_exactly_i(self, theta):
        z = np.exp(1j * np.linspace(-math.pi, math.pi, 9))
        assert same_bits(ap.eval_s_via_FG(0, theta, z), np.full(9, 1j))
        assert all(same_bits(ap.eval_s_via_FG(0, theta, p), 1j) for p in z.tolist())


class TestExactType:
    def test_cases(self):
        assert ap.build_s(5, 1.0).exact_type() == (5, 4)
        assert ap.build_s(3, 1.0).exact_type() == (2, 3)
        assert ap.build_s(4, 1.0).exact_type() == (4, 4)
        assert ap.build_r(3, 1.0).exact_type() == (3, 3)
        assert ap.build_s(0, 1.0).exact_type() == (0, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_odd_sign_degrees(self, n):
        expected = (2 * n + 1, 2 * n) if n % 2 == 0 else (2 * n, 2 * n + 1)
        assert ap.build_s(2 * n + 1, 0.8).exact_type() == expected


class TestSymmetries:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_even_degree_depends_on_real_part_only(self, m):
        s = ap.build_s(m, 1.1)
        for z in circle(40):
            z = complex(z)
            assert abs(s(z.conjugate()) - s(z)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_odd_degree_conjugate_symmetry(self, m):
        s = ap.build_s(m, 1.1)
        for z in circle(40):
            z = complex(z)
            assert abs(s(z.conjugate()) - s(z).conjugate()) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_antipodal_relation(self, m):
        s = ap.build_s(m, 1.1)
        for t in np.linspace(-math.pi, math.pi, 41):
            lhs = -s(cmath.exp(1j * float(t)))
            rhs = 1.0 / s(cmath.exp(1j * (math.pi - float(t))))
            assert abs(lhs - rhs) <= 1e-11

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_lift_components_parity_in_angle(self, m):
        # Re s even in the angle; Im s odd for odd degree
        for t in np.linspace(0.01, math.pi - 0.01, 25):
            if m % 2 and abs(math.cos(float(t))) < 1e-9:
                continue
            zp = cmath.exp(1j * float(t))
            zm = cmath.exp(-1j * float(t))
            sp = ap.eval_s_via_FG(m, 1.0, zp)
            sm = ap.eval_s_via_FG(m, 1.0, zm)
            assert abs(sp.real - sm.real) <= 1e-13
            if m % 2:
                assert abs(sp.imag + sm.imag) <= 1e-13
