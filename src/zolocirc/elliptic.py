"""Real-argument elliptic special functions.

Everything here is double precision and self-contained, and reads one
representation: four-term theta series (_theta) in the nome of the
smaller of ell, ell', so q <= e^{-pi}, derived once from a modulus pair
(_nome) or a mu value (_mu_inverse_pair) and passed on.  They give the
complete integral K, Jacobi sn/cn/dn, the Groetzsch ring function

    mu(ell) = (pi/2) * K(ell') / K(ell),      ell' = sqrt(1 - ell^2),

its closed-form inverse (ell = (theta_2/theta_3)^2 at q = exp(-2 mu),
DLMF 22.2.2, for whichever of ell, ell' is small, completed by an
accurate complement), and the M = K(ell)/K(lam) of the degree equation

    K(ell)/K(ell') = K(lam) / (m * K(lam'))

that links a modulus ell, a degree m, and the reduced modulus lam.  lam
approaches 1 rapidly as m grows, so quantities derived from lam'
(predicted phase errors, K(lam)) stay fully accurate even when lam
rounds to within a few ulp of 1.  The inverse sn is a Carlson integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError, PrecisionError, _between, require_degree

_QUARTER_PI_SQ = (0.5 * math.pi) ** 2  # (pi/2)^2, the mu(x)*mu(x') product

# Moduli accepted at the public entry points of higher modules: the window
# in which tests/test_accuracy_map.py holds nodes, K and mu to 16 eps of a
# 50-digit reference.  The kernel has no iteration that loses digits past it.
ELL_MIN = 1e-8
ELL_MAX = 1.0 - 1e-8
THETA_MIN = math.acos(ELL_MAX)
THETA_MAX = 0.5 * math.pi - 1e-8


def complement(x: float) -> float:
    """sqrt(1 - x^2) evaluated without cancellation for x near 1."""
    return math.sqrt((1.0 - x) * (1.0 + x))


def require_modulus(ell: float, name: str = "ell") -> float:
    """A modulus inside the precision window as a plain float; PrecisionError outside, DomainError if not real."""
    if not (ELL_MIN < ell < ELL_MAX if type(ell) is float else _between(ell, ELL_MIN, ELL_MAX, name)):
        raise PrecisionError(f"{name}={ell!r} outside supported range ({ELL_MIN}, {ELL_MAX})")
    return float(ell)


def require_theta(theta: float, name: str = "theta") -> tuple[float, float]:
    """The modulus pair (cos theta, sin theta) of an arc half-width, or PrecisionError (DomainError if not real).

    theta must lie in (THETA_MIN, THETA_MAX), cos(theta) below ELL_MAX (on
    the bottom 3.9e-13 of the window it rounds to ELL_MAX) and sin(theta),
    the modulus of every node, below 1 (on the top 5.4e-10 it rounds to 1.0).
    """
    if not (THETA_MIN < theta < THETA_MAX if type(theta) is float else _between(theta, THETA_MIN, THETA_MAX, name)):
        raise PrecisionError(f"{name}={theta!r} outside supported range ({THETA_MIN:.6e}, {THETA_MAX!r})")
    ell, ell_comp = math.cos(theta), math.sin(theta)
    if ell >= ELL_MAX or ell_comp == 1.0:
        edge = "cos(theta) rounds to ELL_MAX" if ell >= ELL_MAX else "sin(theta) rounds to 1"
        raise PrecisionError(f"{name}={theta!r}: {edge} in double precision")
    return ell, ell_comp


def _nome(ell: float, ell_comp: float) -> tuple[float, float, float, float, float]:
    """(q, -log q, theta_2/(2 q^{1/4}), theta_3, theta_4) at z = 0, q the nome of min(ell, ell_comp).

    A&S 17.3.21 in e = (1 - sqrt k')/(2 (1 + sqrt k')) = k^2/(2 (1 + k') (1 + sqrt k')^2),
    free of cancellation; q <= e^{-pi}.  -log q is taken from log k, so it stays finite
    when q underflows.  The pair (0, 1) gives (0, inf, 1, 1, 1).
    """
    k, kc = (ell, ell_comp) if ell <= ell_comp else (ell_comp, ell)
    scale = 2.0 * (1.0 + kc) * (1.0 + math.sqrt(kc)) ** 2  # e = k^2 / scale
    e = k * k / scale
    e4 = e**4
    tail = e4 * (2.0 + e4 * (15.0 + e4 * (150.0 + 1707.0 * e4)))
    q = e * (1.0 + tail)
    L = math.log(scale) - 2.0 * math.log(k) - math.log1p(tail) if k else math.inf
    return (q, L) + _theta(q, 0.0)[1:]


def _theta(q: float, z: float, f=math.sin, g=math.cos) -> tuple[float, float, float, float]:
    """(theta_1/(2 q^{1/4}), theta_2/(2 q^{1/4}), theta_3, theta_4) at (z, q), DLMF 20.2.1-4.

    Four terms each, for 0 <= z <= -log(q)/4: what is left out is below q^14 < 1e-19
    of the leading term.  With f, g = sinh, cosh, the values at i z (theta_1 over i).
    Terms whose q-power underflows to 0 are skipped, so no sinh/cosh runs past 710.
    """
    t1 = t2 = even = odd = 0.0  # theta_3 = 1 + 2 (even + odd), theta_4 = 1 + 2 (even - odd)
    if q != 0.0:
        odd = q * g(2.0 * z)
        q2 = q * q
        if q2 != 0.0:
            q6 = q2 * q2 * q2
            t1 = q6 * f(5.0 * z) - q2 * f(3.0 * z) - q6 * q6 * f(7.0 * z)
            t2 = q2 * g(3.0 * z) + q6 * g(5.0 * z) + q6 * q6 * g(7.0 * z)
            even = q2 * q2 * g(4.0 * z)
            odd += q6 * q2 * q * g(6.0 * z)
    return f(z) + t1, g(z) + t2, 1.0 + 2.0 * (even + odd), 1.0 + 2.0 * (even - odd)


def _mu_pair(ell: float, ell_comp: float) -> tuple[float, float, float, tuple]:
    """(mu(ell), K(ell), K(ell'), nome) of an exact pair, from the nome q = e^{-L} of its smaller member.

    K(small) = (pi/2) theta_3(q)^2 and K(large) = K(small) L/pi (q = e^{-pi K'/K}, DLMF
    22.2.2), so mu is L/2, or pi^2/(2L) when ell is the larger member.
    """
    nome = _nome(ell, ell_comp)
    _, L, _, t3, _ = nome
    small = 0.5 * math.pi * t3**2
    large = small * L / math.pi
    if ell <= ell_comp:
        return 0.5 * L, small, large, nome
    return 0.5 * math.pi**2 / L, large, small, nome


def complete_K(ell: float) -> float:
    """Complete elliptic integral of the first kind, K(ell), 0 <= ell < 1."""
    if not (_between(ell, 0.0, 1.0, "ell") or ell == 0.0):
        raise DomainError(f"complete_K requires 0 <= ell < 1, got {ell!r}")
    return _mu_pair(ell, complement(ell))[1]


def _sncndn(u: float, quarter: float, ell: float, ell_comp: float, nome: tuple) -> tuple[float, float, float]:
    """(sn, cn, dn)(K(ell) u / quarter, ell) from the pair's nome tuple (_nome); num/den reduce exactly.

    At r in [0, quarter/2]: DLMF 22.2.4-6 at z = (pi/2) r/quarter if ell <= ell_comp, else
    Jacobi's imaginary transformation (DLMF 22.6(iv)), theta_2 and theta_4 swapped, at
    y = -log(q') r/(2 quarter) in the nome q' of ell_comp.  ell_comp = 0 is refused.
    """
    if ell_comp == 0.0:
        raise PrecisionError(f"sn/cn/dn at modulus {ell!r} need a complement above 0")
    # Periods, then the quarter-period reflection, which keeps dn (and cn near
    # K) accurate instead of dissolving into sqrt(1 - ell^2 sn^2) cancellation.
    sign_sn, sign_cn = -1.0 if u < 0.0 else 1.0, 1.0
    r = math.fmod(abs(u), 4 * quarter)
    if r >= 2 * quarter:
        r -= 2 * quarter
        sign_sn, sign_cn = -sign_sn, -sign_cn
    if r > quarter:
        r = 2 * quarter - r
        sign_cn = -sign_cn
    reflect = r > 0.5 * quarter
    if reflect:
        r = quarter - r
    q, L, b2, b3, b4 = nome
    if ell <= ell_comp:
        t1, t2, t3, t4 = _theta(q, 0.5 * math.pi * r / quarter)
    else:
        b2, b4 = b4, b2
        t1, t4, t3, t2 = _theta(q, L * r / (2 * quarter), math.sinh, math.cosh)
    w = b4 / t4  # each ratio is 1 at r = 0, so the origin gives exactly (0, 1, 1)
    sn, cn, dn = t1 / b2 * (b3 / t4), t2 / b2 * w, t3 / b3 * w
    if reflect:
        sn, cn, dn = cn / dn, ell_comp * sn / dn, ell_comp / dn
    return sign_sn * sn, sign_cn * cn, dn


def _quarter_nodes(M: int, ell: float, ell_comp: float, nome: tuple) -> list:
    """(sn, cn, dn)(k K(ell)/M, ell), k = 0..M, ``_sncndn``'s bit for bit: past M/2, node M - k reflected."""
    nodes = [_sncndn(k, M, ell, ell_comp, nome) for k in range(M // 2 + 1)]
    return nodes + [(cn / dn, ell_comp * sn / dn, ell_comp / dn) for sn, cn, dn in nodes[M - M // 2 - 1 :: -1]]


def jacobi_sncndn(u: float, ell: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn, cn, dn) at real argument u, modulus ell."""
    if not (_between(ell, 0.0, 1.0, "ell") or ell == 0.0):
        raise DomainError(f"jacobi modulus must lie in [0, 1), got {ell!r}")
    if not _between(u, -math.inf, math.inf, "u"):
        raise DomainError(f"jacobi argument must be finite, got {u!r}")
    ell_comp = complement(ell)
    _, K, _, nome = _mu_pair(ell, ell_comp)
    return _sncndn(u, K, ell, ell_comp, nome)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F by duplication (Numerical Recipes form)."""
    errtol = 0.0025
    for _ in range(100):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        ave = (x + y + z) / 3.0
        dx, dy, dz = (ave - x) / ave, (ave - y) / ave, (ave - z) / ave
        if max(abs(dx), abs(dy), abs(dz)) < errtol:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(ave)


def inverse_sn(x: float, ell: float) -> float:
    """u in [-K, K] with sn(u, ell) = x, for |x| <= 1.

    Evaluated as x * R_F(1 - x^2, 1 - ell^2 x^2, 1); the symmetric integral
    keeps uniform accuracy over the whole interval.
    """
    if not (_between(ell, 0.0, 1.0, "ell") or ell == 0.0):
        raise DomainError(f"inverse_sn modulus must lie in [0, 1), got {ell!r}")
    if not (_between(x, -1.0, 1.0, "x") or abs(x) == 1.0):
        raise DomainError(f"inverse_sn requires |x| <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    p = (1.0 - x) * (1.0 + x)
    q = (1.0 - ell * x) * (1.0 + ell * x)
    return x * _carlson_rf(p, q, 1.0)


def groetzsch_mu(ell: float) -> float:
    """Groetzsch ring function mu(ell) = (pi/2) K(ell')/K(ell), 0 < ell < 1."""
    if not _between(ell, 0.0, 1.0, "ell"):
        raise DomainError(f"groetzsch_mu requires 0 < ell < 1, got {ell!r}")
    return _mu_pair(ell, complement(ell))[0]


def _mu_inverse_pair(v: float) -> tuple[float, float, float, tuple]:
    """(ell, ell', K(ell), nome) with mu(ell) = v, v > 0, from the theta quotient of the nome.

    The member whose mu value is V = max(v, (pi/2)^2 / v) >= pi/2 is
    (theta_2/theta_3)^2 = 4 e^{-V} (theta_2/(2 q^{1/4}))^2 / theta_3^2 at q = e^{-2V},
    accurate to a few eps (1 + V) relative; the other member is its complement.
    Past V ~ 745 it underflows to 0.  K is read from the same nome as in _mu_pair (L = 2V).
    nome is the pair's _nome tuple, whose -log q = 2V is exact even where the small member is not.
    """
    V = max(v, _QUARTER_PI_SQ / v)
    x = math.exp(-V)
    _, t2, t3, t4 = _theta(x * x, 0.0)
    nome = (x * x, 2.0 * V, t2, t3, t4)
    small = 4.0 * x * (t2 / t3) ** 2
    large = complement(small)
    if v >= 0.5 * math.pi:
        return small, large, 0.5 * math.pi * t3 * t3, nome
    return large, small, V * t3 * t3, nome


def mu_inverse(v: float) -> float:
    """The modulus ell in (0, 1) with groetzsch_mu(ell) = v, in closed form (_mu_inverse_pair).

    Solutions for v < 1 crowd against 1; callers needing full relative accuracy
    there work with the complement (solve_lambda does).  PrecisionError is raised
    when ell rounds to 1 (v < 0.087) or is subnormal (v > 709.78).
    """
    if not _between(v, 0.0, math.inf, "v"):
        raise DomainError(f"mu_inverse requires v > 0, got {v!r}")
    ell = _mu_inverse_pair(v)[0]
    if not sys.float_info.min <= ell < 1.0:
        raise PrecisionError(
            f"mu_inverse({v!r}) is not representable in (0, 1) in double precision"
        )
    return ell


@dataclass(frozen=True)
class EllipticModulus:
    """A modulus with its complement, quarter periods, and derived rates.

    rho = exp(pi K / K') > 1 is the geometric rate governing how fast the
    optimal errors decay with degree.  nome, left out of == and repr, is the
    pair's _nome tuple, which every sn/cn/dn at ell or ell' reads.
    """

    ell: float
    ell_comp: float
    K: float
    K_comp: float
    mu: float
    rho: float
    nome: tuple = field(repr=False, compare=False)

    @classmethod
    def from_ell(cls, ell: float, ell_comp: float | None = None) -> "EllipticModulus":
        """ell_comp defaults to complement(ell); a pair off the unit circle is refused."""
        if not _between(ell, 0.0, 1.0, "ell"):
            raise DomainError(f"modulus must lie in (0, 1), got {ell!r}")
        if ell_comp is None:
            ell_comp = complement(ell)
        elif not ((_between(ell_comp, 0.0, 1.0, "ell_comp") or ell_comp == 1.0)
                  and abs(ell * ell + ell_comp * ell_comp - 1.0) <= 4.0 * sys.float_info.epsilon):
            raise DomainError(f"ell={ell!r} and ell_comp={ell_comp!r} are not complementary")
        ell_comp = float(ell_comp)
        mu, K, K_comp, nome = _mu_pair(ell, ell_comp)
        return cls(ell, ell_comp, K, K_comp, mu, math.exp(math.pi * K / K_comp), nome)


@dataclass(frozen=True)
class DegreeReduction:
    """Solution data of the degree equation at (ell, m).

    lam is the reduced modulus, lam_comp its complement (the quantity that
    stays informative when lam -> 1) and M = K(ell)/K(lam).  Left out of ==
    and repr: nome, lam's _nome tuple, exact from the degree equation at
    m >= 2, and modulus, the EllipticModulus of ell the equation was solved at.
    """

    m: int
    lam: float
    lam_comp: float
    M: float
    nome: tuple = field(repr=False, compare=False)
    modulus: EllipticModulus = field(repr=False, compare=False)


def solve_lambda(ell: float, m: int, ell_comp: float | None = None) -> DegreeReduction:
    """Solve K(ell)/K(ell') = K(lam)/(m K(lam')) for lam; lam := 0 at m = 0.

    That is mu(lam) = mu(ell)/m, solved by the nome series of mu_inverse,
    which returns lam' with full relative accuracy when lam is near 1.
    Past m (pi/2)^2 / mu(ell) ~ 745, lam' underflows to 0 and lam is 1;
    nothing is raised.  M = K(ell)/K(lam) takes K(lam) from the nome of lam.
    """
    m = require_degree(m, 0)
    ell = require_modulus(ell)
    mod = EllipticModulus.from_ell(ell, ell_comp)
    if m <= 1:
        lam, lam_comp, nome = (ell, mod.ell_comp, mod.nome) if m else (0.0, 1.0, _nome(0.0, 1.0))
        return DegreeReduction(m, lam, lam_comp, 1.0, nome, mod)
    lam, lam_comp, K_lam, nome = _mu_inverse_pair(mod.mu / m)
    return DegreeReduction(m, lam, lam_comp, mod.K / K_lam, nome, mod)
