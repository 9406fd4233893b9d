"""Factored unimodular rational approximants on the unit circle.

The optimal approximant of sqrt(z) on the arc {e^{i t}: |t| <= 2 Theta} is
a product of n factors (1 + a_j z)/(z + a_j); the optimal approximant of
sign(z) on the symmetric arc pair of half-width Theta is a power of i
times a product of m factors (z - i b_j)/(1 + i b_j z).  Both parameter
families come from Jacobi elliptic functions at the complementary modulus
ell' = sin(Theta).  Nothing here ever expands to polynomial coefficients.

Every factor, including the Ng-Tsang factor (z - c)/(1 - c z) of the
Blaschke bridge, is one Moebius map (u z + v)/(conj(v) z + conj(u)), which
has modulus one on |z| = 1 by construction.  The family maps a parameter to
its pair (u, v): R gives (a, 1), S gives (1, -i b) with b = inf giving
(0, i), which is -1/z, and H gives (1, -c).  Evaluation, zeros -v/u, poles
-conj(u)/conj(v) and the exact type read only the pairs.

Also provided: evaluation of the underlying real pair (F_m, G_m) by the
direct elliptic formula and by the rational product identities, the
classical scaled sign approximant built from F_m, and the circle lift
s = F + i sign(Im z)^m G.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    DegreeReduction,
    EllipticModulus,
    _agm,
    _sncndn,
    inverse_sn,
    require_degree,
    require_theta,
    solve_lambda,
)
from .errors import DomainError, PoleError

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
_DEN_TINY = 1e-300


class Family(enum.Enum):
    R_FAMILY = "R"  # (1 + a z)/(z + a), a > 0
    S_FAMILY = "S"  # (z - i b)/(1 + i b z); b = 0 is z, b = inf is -1/z
    H_FAMILY = "H"  # (z - c)/(1 - c z), c in (-1, 1)

    def pair(self, p: float) -> tuple:
        """Coefficients (u, v) of the factor (u z + v)/(conj(v) z + conj(u))."""
        if self is Family.R_FAMILY:
            return p, 1.0
        if self is Family.S_FAMILY:
            # -(i b), not (-i) b: z + v then rounds exactly as z - i b does
            return (0.0, 1j) if math.isinf(p) else (1.0, -(1j * p))
        return 1.0, -p


@dataclass(frozen=True)
class UnimodularRational:
    """i^q * z^k * prod of one-parameter factors, |value| = 1 on |z| = 1.

    ``factors`` holds the family's real parameters (math.inf marks the
    -1/z factor of the S family); every operation reads the table of
    (u, v, conj(v), conj(u)) that ``Family.pair`` derives from them.
    """

    z_power: int
    quarter_turns: int
    factors: tuple[float, ...]
    family: Family
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple(self.family.pair(p) for p in self.factors)
        object.__setattr__(self, "_pairs", tuple((u, v, v.conjugate(), u.conjugate()) for u, v in pairs))

    def __call__(self, z):
        """Value at a Python scalar or an ndarray of points.

        A scalar raises PoleError at a vanishing denominator (the factor
        index, or -1 for z^k); an array yields inf/nan there instead.
        """
        unit = _I_POWERS[self.quarter_turns % 4]
        if isinstance(z, np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore"):
                return self._product(z, np.full(z.shape, unit, dtype=complex), False)
        return self._product(complex(z), unit, True)

    def _product(self, z, w, raise_poles: bool):
        if self.z_power:
            if raise_poles and self.z_power < 0 and abs(z) ** (-self.z_power) < _DEN_TINY:
                raise PoleError(f"pole of z^{self.z_power} at z={z!r}", -1)
            w = w * z**self.z_power
        for idx, (u, v, cv, cu) in enumerate(self._pairs):
            # unit multipliers are skipped: one array multiply less per factor
            num = (z if u == 1 else u * z) + v
            den = (z if cv == 1 else cv * z) + cu
            if raise_poles and abs(den) < _DEN_TINY:
                raise PoleError(f"pole of factor {idx} at z={z!r}", idx)
            w = w * (num / den)
        return w

    def reciprocal(self) -> "UnimodularRational":
        """Factored form of 1/R.

        R factors invert inside the family, (1+az)/(z+a) -> parameter 1/a;
        S factors invert up to a half turn, 1/S(b) = -S(1/b) with 0 <-> inf,
        so each contributes two quarter turns.  H factors do not invert
        inside the family.
        """
        if self.family is Family.H_FAMILY:
            raise DomainError("reciprocal of an H-family product is not factored")
        inv = tuple(math.inf if p == 0.0 else 0.0 if math.isinf(p) else 1.0 / p for p in self.factors)
        turns = 2 * len(inv) if self.family is Family.S_FAMILY else 0
        return UnimodularRational(-self.z_power, (turns - self.quarter_turns) % 4, inv, self.family)

    def _regular(self):
        """Pairs with a zero and a pole off the origin (u != 0 and v != 0)."""
        return [pair for pair in self._pairs if pair[0] != 0 and pair[1] != 0]

    def _origin_order(self) -> int:
        """Net zero order at z = 0: a v = 0 factor is z, a u = 0 factor is 1/z."""
        return self.z_power + sum((v == 0) - (u == 0) for u, v, _, _ in self._pairs)

    def exact_type(self) -> tuple[int, int]:
        """(numerator degree, denominator degree) after cancelling at z = 0."""
        regular, order = len(self._regular()), self._origin_order()
        return regular + max(order, 0), regular + max(-order, 0)

    def zeros(self) -> tuple[complex, ...]:
        """Finite zeros -v/u, with the net multiplicity at z = 0."""
        out = [complex(-v if u == 1 else -v / u) for u, v, _, _ in self._regular()]
        return tuple([0j] * max(self._origin_order(), 0) + out)

    def poles(self) -> tuple[complex, ...]:
        """Finite poles -conj(u)/conj(v), with the net multiplicity at z = 0."""
        out = [complex(-cu if cv == 1 else -cu / cv) for _, _, cv, cu in self._regular()]
        return tuple([0j] * max(-self._origin_order(), 0) + out)


def _node_sncndn(num: int, den: int, theta: float):
    """sn/cn/dn at (num/den) K(ell') with modulus ell' = sin(theta)."""
    ell, ell_comp = math.cos(theta), math.sin(theta)
    K_comp = 0.5 * math.pi / _agm(1.0, ell)
    v = num * K_comp / den
    return ell, _sncndn(v, ell_comp, ell)


def coeff_a(j: int, n: int, theta: float) -> float:
    """Parameter a_j > 0 of the j-th sqrt-approximant factor (1 + a_j z)/(z + a_j)."""
    n = require_degree(n, 1, "n")
    j = require_degree(j, 1, "j", n)
    require_theta(theta)
    ell, (sn, cn, dn) = _node_sncndn(2 * j - 1, 2 * n + 1, theta)
    base = (ell * sn + dn) / cn
    return base**2 if (j + n) % 2 == 0 else base**-2


def build_r(n: int, theta: float) -> UnimodularRational:
    """Optimal unimodular approximant of sqrt(z) on the arc of half-width 2 Theta."""
    n = require_degree(n, 0)
    require_theta(theta)
    params = tuple(coeff_a(j, n, theta) for j in range(1, n + 1))
    return UnimodularRational(0, 0, params, Family.R_FAMILY)


def coeff_b(j: int, m: int, theta: float) -> float:
    """Parameter b_j of the j-th sign-approximant factor (z - i b_j)/(1 + i b_j z).

    Returns math.inf exactly at the node where cn vanishes (2j - 1 = m)
    with positive exponent, and 0.0 there with negative exponent; the
    (-1)^{mj} prefactor is folded into the sign.
    """
    m = require_degree(m, 1, "m")
    j = require_degree(j, 1, "j", m)
    require_theta(theta)
    sign = -1.0 if (m * j) % 2 else 1.0
    if 2 * j - 1 == m:
        # cn((2j-1)/m K', ell') = cn(K', ell') = 0: the ratio degenerates.
        return math.inf if j % 2 == 0 else 0.0
    ell, (sn, cn, dn) = _node_sncndn(2 * j - 1, m, theta)
    base = (ell * sn + dn) / cn
    return sign * (base if j % 2 == 0 else 1.0 / base)


def build_s(m: int, theta: float) -> UnimodularRational:
    """Optimal unimodular approximant of sign(z) on the arc pair of half-width Theta."""
    m = require_degree(m, 0)
    require_theta(theta)
    params = []
    for j in range(1, m + 1):
        b = coeff_b(j, m, theta)
        if math.isfinite(b) and b != 0.0:
            # sign consistency with the closed form: prefactor (-1)^{mj}
            # times the sign of cn at the node raised to (-1)^j.
            cn_neg = 2 * j - 1 > m
            expect = (-1.0 if (m * j) % 2 else 1.0) * (-1.0 if cn_neg else 1.0)
            if math.copysign(1.0, b) != expect:
                raise AssertionError(f"factor sign pattern broken at j={j}, m={m}")
        params.append(b)
    return UnimodularRational(0, (1 - m) % 4, tuple(params), Family.S_FAMILY)


@dataclass(frozen=True)
class ZolotarevFraction:
    """F_m/G_m evaluation data at a modulus: F = lam sn(u/M, lam), G = dn(u/M, lam).

    The node constants feed the rational product identities: cot2_* are
    cn^2/sn^2 at the even/odd Landen nodes, dn2_odd is dn^2 at the odd
    nodes, all at modulus ell' = complement of ell.
    """

    m: int
    modulus: EllipticModulus
    reduction: DegreeReduction
    cot2_even: tuple[float, ...]
    cot2_odd: tuple[float, ...]
    dn2_odd: tuple[float, ...]

    @classmethod
    def from_ell(cls, m: int, ell: float, ell_comp: float | None = None) -> "ZolotarevFraction":
        m = require_degree(m, 0)
        modulus = EllipticModulus.from_ell(ell, ell_comp)
        reduction = solve_lambda(modulus.ell, m, modulus.ell_comp)
        n = (m - 1) // 2 if m % 2 else m // 2
        even_count = n if m % 2 else max(n - 1, 0)
        cot2_even, cot2_odd, dn2_odd = [], [], []
        if m >= 1:
            for k in range(1, even_count + 1):
                v = 2 * k * modulus.K_comp / m
                sn, cn, _ = _sncndn(v, modulus.ell_comp, modulus.ell)
                cot2_even.append((cn / sn) ** 2)
            for k in range(1, n + 1):
                v = (2 * k - 1) * modulus.K_comp / m
                sn, cn, dn = _sncndn(v, modulus.ell_comp, modulus.ell)
                cot2_odd.append((cn / sn) ** 2)
                dn2_odd.append(dn**2)
        return cls(m, modulus, reduction, tuple(cot2_even), tuple(cot2_odd), tuple(dn2_odd))

    @classmethod
    def from_theta(cls, m: int, theta: float) -> "ZolotarevFraction":
        require_theta(theta)
        return cls.from_ell(m, math.cos(theta), math.sin(theta))


def eval_F_product(zf: ZolotarevFraction, x: float) -> tuple[float, float]:
    """(F_m(x), G_m(x)) through the rational product identities.

    F is a rational function of x and is defined for every real x; the
    G component of odd m carries a sqrt(1 - x^2) factor and therefore
    requires |x| <= 1.
    """
    if zf.m == 0:
        return 0.0, 1.0
    red = zf.reduction
    s = x / zf.modulus.ell
    s2 = s * s
    fden = 1.0
    for c in zf.cot2_odd:
        fden *= 1.0 + s2 * c
    fnum = 1.0
    for c in zf.cot2_even:
        fnum *= 1.0 + s2 * c
    F = red.lam * (s / red.M) * fnum / fden
    gnum = 1.0
    for d in zf.dn2_odd:
        gnum *= 1.0 - s2 * d
    if zf.m % 2:
        if abs(x) > 1.0:
            raise DomainError(f"odd-degree G needs |x| <= 1, got {x!r}")
        gnum *= math.sqrt((1.0 - x) * (1.0 + x))
    return F, gnum / fden


def eval_F_direct(zf: ZolotarevFraction, x: float) -> tuple[float, float]:
    """(F_m(x), G_m(x)) = (lam sn(u/M, lam), dn(u/M, lam)), u = sn^{-1}(x/ell, ell).

    The real elliptic branch covers |x| <= ell; for |x| in (ell, 1] the
    value is reached through the product identities, which continue the
    same composed map without complex arguments.
    """
    if not abs(x) <= 1.0:
        raise DomainError(f"eval_F_direct requires |x| <= 1, got {x!r}")
    if zf.m == 0:
        return 0.0, 1.0
    red = zf.reduction
    if abs(x) <= zf.modulus.ell:
        u = inverse_sn(x / zf.modulus.ell, zf.modulus.ell)
        sn, _, dn = _sncndn(u / red.M, red.lam, red.lam_comp)
        return red.lam * sn, dn
    return eval_F_product(zf, x)


@dataclass(frozen=True)
class Z4Approximant:
    """Zolotarev's scaled sign approximant (2/(1+lam)) F_m(x; ell) on [-1,1]."""

    m: int
    ell: float
    fraction: ZolotarevFraction
    scale: float
    deviation: float  # max |approx - sign| on [-1,-ell] u [ell,1] = (1-lam)/(1+lam)

    def __call__(self, x: float) -> float:
        return self.scale * eval_F_product(self.fraction, x)[0]


def z4_solution(m: int, ell: float) -> Z4Approximant:
    m = require_degree(m, 1)
    zf = ZolotarevFraction.from_ell(m, ell)
    red = zf.reduction
    one_plus = 1.0 + red.lam
    # (1 - lam)/(1 + lam) without cancellation: 1 - lam = lam'^2/(1 + lam)
    deviation = red.lam_comp**2 / (one_plus * one_plus)
    return Z4Approximant(m, zf.modulus.ell, zf, 2.0 / one_plus, deviation)


def eval_s_via_FG(m: int, theta: float, z: complex) -> complex:
    """Circle lift F(x) + i sign(Im z)^m G(x), x = (z + 1/z)/2 = Re z on |z| = 1.

    sign(0) is taken as +1; the points +-i are rejected for odd m, where
    only the factored form defines the value.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise DomainError(f"eval_s_via_FG requires |z| = 1, got |z|={abs(z)!r}")
    if m % 2 and abs(z.real) < 1e-12:
        raise DomainError("the F/G lift is not defined at z = +-i for odd degree")
    zf = ZolotarevFraction.from_theta(m, theta)
    x = ((z + 1.0 / z) / 2.0).real
    x = max(-1.0, min(1.0, x))
    sigma = -1.0 if z.imag < 0.0 else 1.0
    F, G = eval_F_product(zf, x)
    return complex(F, sigma**m * G)
