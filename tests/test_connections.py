import cmath
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zolocirc import connections as cn
from zolocirc import elliptic as el
from zolocirc.errors import BranchError, DomainError, PrecisionError


class TestBlaschke:
    def test_degree_one_parameter_vanishes(self):
        assert cn.blaschke_h(1, 0.6).params == (0.0,)

    def test_unimodular(self):
        h = cn.blaschke_h(3, 0.25)
        worst = max(
            abs(abs(h(cmath.exp(2j * math.pi * k / 64))) - 1.0) for k in range(64)
        )
        assert worst <= 1e-12

    def test_params_inside_disk(self):
        # |cn| <= dn at a real argument, so |c_j| <= sqrt(ell) < 1 across the modulus window and
        # blaschke_h needs no disk check; |c|/sqrt(ell) peaks at j = 1 of the largest m (1 - 1.1e-12 at the top)
        for ell in (math.nextafter(el.ELL_MIN, 1.0), 0.5, math.nextafter(el.ELL_MAX, 0.0)):
            root = math.sqrt(ell)
            for m in list(range(1, 101)) + list(range(110, 1001, 10)) + [999]:
                assert max(abs(c) for c in cn.blaschke_h(m, ell).params) <= root < 1.0

    # above ell ~ 0.9996, kappa < 1e-8 and acos(kappa) would lie past THETA_MAX
    @pytest.mark.parametrize(
        "m_tilde,m,ell",
        [(2, 2, 0.25), (2, 3, 0.25), (3, 2, 0.4)]
        + [(mt, m, ell) for ell in (0.999, 0.9997, 1.0 - 1e-7, 1.0 - 2e-8) for mt, m in ((2, 2), (2, 3), (3, 2))],
    )
    def test_composition_law(self, m_tilde, m, ell):
        lt = cn.blaschke_composition_modulus(m, ell)
        h_in = cn.blaschke_h(m, ell)
        h_out = cn.blaschke_h(m_tilde, lt)
        h_dir = cn.blaschke_h(m_tilde * m, ell)
        worst = 0.0
        for k in range(100):
            z = cmath.exp(2j * math.pi * (k + 0.43) / 100)
            worst = max(worst, abs(h_out(h_in(z)) - h_dir(z)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("m,ell", [(2, 0.25), (3, 0.4)])
    def test_composition_modulus_cross_check(self, m, ell):
        # same number through the reduced-modulus chain at kappa
        kappa = ((1.0 - math.sqrt(ell)) / (1.0 + math.sqrt(ell))) ** 2
        lam = el.solve_lambda(kappa, m).lam
        alt = ((1.0 - math.sqrt(lam)) / (1.0 + math.sqrt(lam))) ** 2
        assert cn.blaschke_composition_modulus(m, ell) == pytest.approx(alt, rel=1e-12)

    @pytest.mark.parametrize(
        "ell",
        [math.nextafter(el.ELL_MIN, 1.0), 1e-6, 1e-5, 1e-3, 0.25, 0.9, 0.999, 0.9995, 0.9997, 0.99999, 1.0 - 1e-7],
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_composition_modulus_against_mpmath(self, m, ell):
        # Z_m of the kappa pair = ((1 - sqrt(lam))/(1 + sqrt(lam)))^2, mu(lam) = mu(kappa)/m,
        # lam = (theta_2/theta_3)^2 at the nome exp(-2 mu(lam)), in 80 digits: near
        # ell = 1e-8 (kappa within 2e-4 of 1) this route loses about 35 digits to cancellation
        with mp.workdps(80):
            root = mp.sqrt(mp.mpf(ell))
            kappa = ((1 - root) / (1 + root)) ** 2
            mu = mp.pi / 2 * mp.ellipk(1 - kappa**2) / mp.ellipk(kappa**2)
            q = mp.exp(-2 * mu / m)
            lam_root = mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)
            ref = ((1 - lam_root) / (1 + lam_root)) ** 2
            # the theta quotient is good to a few (1 + V) eps, V = m mu(ell) ~ |log(Z/4)|
            bound = 8 * 2.220446049250313e-16 * (1 - mp.log(ref / 4)) * ref
            assert abs(cn.blaschke_composition_modulus(m, ell) - ref) <= bound

    def test_s_relation_still_needs_the_arc_of_kappa(self):
        # the composition modulus exists at ell = 0.9997, but s_m at acos(kappa) does not
        assert 0.0 < cn.blaschke_composition_modulus(2, 0.9997) < 1.0
        with pytest.raises(PrecisionError, match="^kappa="):
            cn.blaschke_s_relation(2, 0.9997, 0.5)

    def test_composition_modulus_validates_like_blaschke_h(self):
        with pytest.raises(DomainError, match="degree must be an integer >= 1"):
            cn.blaschke_composition_modulus(0, 0.25)
        for ell in (2.0, -1.0, 1e-12, math.nan):
            with pytest.raises(PrecisionError):
                cn.blaschke_composition_modulus(2, ell)
            with pytest.raises(PrecisionError):
                cn.blaschke_h(2, ell)


class TestBlaschkeSignRelation:
    def test_center_point(self):
        lhs, rhs = cn.blaschke_s_relation(2, 0.25, 1.0)
        assert abs(lhs) <= 1e-12
        assert abs(rhs) <= 1e-12

    def test_kappa_angle_range(self):
        kappa = ((1.0 - math.sqrt(0.25)) / (1.0 + math.sqrt(0.25))) ** 2
        assert 0.0 < math.acos(kappa) < math.pi / 2

    @pytest.mark.parametrize("ell", [0.25, 0.5])
    def test_agreement_on_both_set_pieces(self, ell):
        root = math.sqrt(ell)
        pts = list(np.linspace(-0.999 * root, 0.999 * root, 16)) + list(
            np.linspace(1.001 / root, 3.0 / root, 8)
        ) + list(-np.linspace(1.001 / root, 3.0 / root, 8))
        for z in pts:
            lhs, rhs = cn.blaschke_s_relation(2, ell, float(z))
            assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("ell", [0.25, 0.5])
    def test_two_right_hand_forms_agree(self, ell):
        root = math.sqrt(ell)
        for z in np.linspace(-0.99 * root, 0.99 * root, 11):
            _, via_s = cn.blaschke_s_relation(2, ell, float(z))
            lhs, via_f = cn.scaled_F_via_blaschke(2, ell, float(z))
            assert abs(via_s - via_f) <= 1e-9
            assert abs(lhs - via_f) <= 1e-9

    def test_branch_error_off_the_real_sets(self):
        with pytest.raises(BranchError):
            cn.blaschke_s_relation(2, 0.25, 1j)
        with pytest.raises(BranchError):
            cn.blaschke_s_relation(2, 0.25, -1.0)
        with pytest.raises(BranchError, match="is not real"):
            cn.scaled_F_via_blaschke(2, 0.25, 1j)

    @pytest.mark.parametrize("m", [3, 5])
    def test_F_form_at_odd_degree_past_the_unit_interval(self, m):
        # x = sqrt(kappa)(z - 1)/(z + 1) = -1.33 at z = -0.6: F is rational there at either parity
        lhs, rhs = cn.scaled_F_via_blaschke(m, 0.25, -0.6)
        assert abs(lhs - rhs) <= 1e-14

    @pytest.mark.parametrize("relation", [cn.blaschke_s_relation, cn.scaled_F_via_blaschke])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan), math.inf])
    def test_non_finite_z_is_a_domain_error(self, relation, m, z):
        with pytest.raises(DomainError, match="z must be finite"):
            relation(m, 0.25, z)


def criterion_7_points(ell):
    root = math.sqrt(ell)
    return np.concatenate((np.linspace(-0.999 * root, 0.999 * root, 16),
                           np.linspace(1.001 / root, 3.0 / root, 8), -np.linspace(1.001 / root, 3.0 / root, 8)))


@pytest.mark.parametrize("relation", [cn.blaschke_s_relation, cn.scaled_F_via_blaschke])
class TestBridgeArrays:
    @pytest.mark.parametrize("m,ell", [(2, 0.25), (2, 0.5), (3, 0.25)])
    def test_array_agrees_with_the_scalar_loop(self, relation, m, ell):
        # h is a numpy complex product on an array, so the left side agrees to rounding, not bit for bit
        z = criterion_7_points(ell)
        lhs, rhs = relation(m, ell, z)
        assert lhs.shape == rhs.shape == z.shape and lhs.dtype == rhs.dtype == float
        loop = np.array([relation(m, ell, float(p)) for p in z])
        assert np.max(np.abs(lhs - loop[:, 0])) <= 1e-14
        assert np.max(np.abs(rhs - loop[:, 1])) <= 1e-14

    def test_complex_array_on_the_real_sets(self, relation):
        z = criterion_7_points(0.25)
        lhs, rhs = relation(2, 0.25, z + 0j)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_one_point_at_the_moebius_pole(self, relation):
        with pytest.raises(BranchError, match="Moebius pole"):
            relation(2, 0.25, np.array([0.1, -1.0, 0.2]))

    def test_one_nan_point(self, relation):
        with pytest.raises(DomainError, match=r"z must be finite, got \(nan\+0j\)"):
            relation(2, 0.25, np.array([0.1, math.nan, 0.2]))

    def test_scalar_floats_are_the_pinned_ones(self, relation):
        # both sides at three of selftest criterion 7's points (m = 2, ell = 0.25), as floats
        pinned = {
            cn.blaschke_s_relation: {
                -0.29969999999999997: (-1.0439566107649934, -1.0439566107649936),
                3.144285714285714: (1.0203584713635139, 1.0203584713635137),
                -4.857714285714286: (1.1483631923965618, 1.1483631923965623),
            },
            cn.scaled_F_via_blaschke: {
                -0.29969999999999997: (-1.0439566107649934, -1.0439566107649934),
                3.144285714285714: (1.0203584713635139, 1.0203584713635134),
                -4.857714285714286: (1.1483631923965618, 1.148363192396562),
            },
        }[relation]
        for z, sides in pinned.items():
            got = relation(2, 0.25, z)
            assert all(type(v) is float for v in got)
            assert got == sides


@pytest.mark.parametrize("relation", [cn.blaschke_s_relation, cn.scaled_F_via_blaschke])
@pytest.mark.parametrize("z", ["0.1", None, [0.1, 0.2], b"0.1", 10**400, np.array(["0.1"]), np.array([0.1], dtype=object)],
                         ids=["str", "None", "list", "bytes", "10**400", "str array", "object array"])
def test_a_point_that_is_neither_a_number_nor_an_array_is_a_domain_error(relation, z):
    # the rule of UnimodularRational.__call__: complex() would parse the string "0.1"
    with pytest.raises(DomainError, match="a number or an ndarray"):
        relation(2, 0.25, z)


def test_array_point_whose_image_leaves_the_unit_interval():
    # x = sqrt(kappa)(z - 1)/(z + 1) = -1.33 at z = -0.6: no unit-circle w; off the real line at z = i
    with pytest.raises(BranchError, match=r"Moebius image \(-1\.33"):
        cn.blaschke_s_relation(2, 0.25, np.array([0.1, -0.6, 0.2]))
    with pytest.raises(BranchError, match="leaves"):
        cn.blaschke_s_relation(2, 0.25, np.array([0.1, 1j]))
    with pytest.raises(BranchError, match="is not real"):
        cn.scaled_F_via_blaschke(2, 0.25, np.array([0.1, 1j]))


def exact_denominator(n, z):
    """sum_j C(2n+1, 2j+1) z^j, the unnormalized Pade denominator, in exact arithmetic."""
    return sum(math.comb(2 * n + 1, 2 * j + 1) * z**j for j in range(n + 1))


class TestPade:
    def test_degree_zero(self):
        p = cn.pade_p(0)
        assert p.numerator == (1.0,)
        assert p.denominator == (1.0,)
        assert p(5.3) == 1.0
        assert p.poles == ()

    def test_degree_one(self):
        p = cn.pade_p(1)
        # (1 + 3z)/(3 + z) after clearing the 1/3 normalization
        assert p(2.0) == pytest.approx(7.0 / 5.0, rel=1e-15)
        assert p.poles == (pytest.approx(-3.0, abs=1e-12),)
        assert -math.tan(math.pi / 3) ** 2 == pytest.approx(-3.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_poles_are_tangent_squares(self, n):
        p = cn.pade_p(n)
        targets = sorted(-math.tan(j * math.pi / (2 * n + 1)) ** 2 for j in range(1, n + 1))
        assert len(p.poles) == n
        for got, want in zip(p.poles, targets):
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_poles_bracket_the_roots_of_the_exact_denominator(self, n):
        # the sign of the exact integer polynomial changes within (2n + 1) eps of each pole
        poles = cn.pade_p(n).poles
        assert len(poles) == n and list(poles) == sorted(poles)
        width = Fraction((2 * n + 1) * sys.float_info.epsilon)
        for j, p in enumerate(map(Fraction, poles)):
            below, above = (exact_denominator(n, p * (1 + s)) for s in (-width, width))
            assert below * above < 0, (n, j, float(p))

    def test_coefficient_overflow_raises_precision_error(self):
        assert len(cn.pade_p(519).poles) == 519
        with pytest.raises(PrecisionError, match="520"):
            cn.pade_p(520)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
    def test_value_one_at_one(self, n):
        assert cn.pade_p(n)(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_denominator_constant_term_normalized(self):
        for n in (1, 2, 5):
            assert cn.pade_p(n).denominator[0] == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            cn.pade_p(-1)


class TestPadeLimit:
    def test_degree_one_small_arc(self):
        devs = cn.pade_limit_check(1, [1e-3])
        assert devs[0] <= 1e-4  # |a_1 - 3| at Theta = 1e-3

    def test_deviations_decrease(self):
        devs = cn.pade_limit_check(2, [0.3, 0.1, 0.03, 0.01, 0.003])
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3

    def test_degree_zero(self):
        assert cn.pade_limit_check(0, [0.1, 0.01]) == [0.0, 0.0]

    @pytest.mark.parametrize("n", [0, 1])
    def test_theta_validated_at_every_degree(self, n):
        with pytest.raises(PrecisionError):
            cn.pade_limit_check(n, [0.1, 5.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_arc_deviation(self, n):
        assert cn.pade_limit_check(n, [1e-3])[0] <= 1e-4

    def test_quadratic_trend_logged(self, capsys):
        # convergence rate looks like Theta^2; recorded for information only
        thetas = [0.1, 0.05, 0.025]
        devs = cn.pade_limit_check(2, thetas)
        rates = [
            math.log(devs[i] / devs[i + 1]) / math.log(thetas[i] / thetas[i + 1])
            for i in range(len(devs) - 1)
        ]
        print(f"pade pole-set convergence exponents: {rates}")
        assert devs[-1] < devs[0]
