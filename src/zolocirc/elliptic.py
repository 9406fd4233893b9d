"""Real-argument elliptic special functions.

Everything here is double precision and self-contained.  One descending
Landen (AGM) recursion, _landen, gives the complete integral K, Jacobi
sn/cn/dn, the Groetzsch ring function

    mu(ell) = (pi/2) * K(ell') / K(ell),      ell' = sqrt(1 - ell^2),

and the M = K(ell)/K(lam) of the degree-reduction equation

    K(ell)/K(ell') = K(lam) / (m * K(lam'))

that links a modulus ell, a degree m, and the reduced modulus lam.  The
incomplete inverse sn is a Carlson symmetric integral.

mu is inverted in closed form through the nome q = exp(-2 mu) and
ell = (theta_2/theta_3)^2 (DLMF 22.2.2), applied to whichever of ell,
ell' is small and completed by an accurate complement.  The reduced
modulus approaches 1 rapidly as m grows, so quantities derived from lam'
(predicted phase errors, K(lam)) stay fully accurate even when lam
rounds to within a few ulp of 1.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import DomainError, PrecisionError

_EPS = 2.220446049250313e-16
_QUARTER_PI_SQ = (0.5 * math.pi) ** 2  # (pi/2)^2, the mu(x)*mu(x') product
_LANDEN_DEPTH = 24

# Moduli accepted at the public entry points of higher modules.  K(ell')
# grows only logarithmically outside this window but the Landen recursion
# loses digits there.
ELL_MIN = 1e-8
ELL_MAX = 1.0 - 1e-8
THETA_MIN = math.acos(ELL_MAX)
THETA_MAX = 0.5 * math.pi - 1e-8


def complement(x: float) -> float:
    """sqrt(1 - x^2) evaluated without cancellation for x near 1."""
    return math.sqrt((1.0 - x) * (1.0 + x))


def _complement_of(ell: float, ell_comp: float | None) -> float:
    """ell_comp, or complement(ell) when it is None; rejects a pair off the unit circle."""
    if ell_comp is None:
        return complement(ell)
    if not (ell_comp > 0.0 and abs(ell * ell + ell_comp * ell_comp - 1.0) <= 4.0 * _EPS):
        raise DomainError(f"ell={ell!r} and ell_comp={ell_comp!r} are not complementary")
    return ell_comp


def require_modulus(ell: float, name: str = "ell") -> None:
    """Reject moduli outside the supported precision window."""
    if not (ELL_MIN < ell < ELL_MAX):
        raise PrecisionError(
            f"{name}={ell!r} outside supported range ({ELL_MIN}, {ELL_MAX})"
        )


def require_theta(theta: float, name: str = "theta") -> tuple[float, float]:
    """The modulus pair (cos theta, sin theta) of an arc half-width, or PrecisionError.

    theta must lie in (THETA_MIN, THETA_MAX), and sin(theta), the modulus
    of every node, must stay below 1: above 1.5707963162581844 (the top
    5.4e-10 of the window) it rounds to 1.0.
    """
    if not (THETA_MIN < theta < THETA_MAX):
        raise PrecisionError(
            f"{name}={theta!r} outside supported range ({THETA_MIN:.6e}, {THETA_MAX!r})"
        )
    ell, ell_comp = math.cos(theta), math.sin(theta)
    if ell_comp == 1.0:
        raise PrecisionError(f"{name}={theta!r}: sin({name}) rounds to 1 in double precision")
    return ell, ell_comp


def require_degree(value, minimum: int, name: str = "degree", maximum: int | None = None) -> int:
    """Return a degree or index as a plain int, or raise DomainError.

    Python and numpy integers are accepted; bools, floats and values
    outside [minimum, maximum] are not.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum or (maximum is not None and n > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return n


def _landen(ell: float, ell_comp: float) -> tuple[list, list]:
    """Descending Landen scales ([a_0..a_N], [c_0..c_N]) of the AGM of (1, ell_comp), c_0 = ell.

    Stops at c_N <= eps a_N or N = _LANDEN_DEPTH; a_N = agm(1, ell_comp) and K(ell) = (pi/2)/a_N.
    The one AGM loop: K, mu, the M of solve_lambda and every sn/cn/dn read it (A&S 16.4, 17.6).
    """
    a_seq, c_seq = [1.0], [ell]
    a, b = 1.0, ell_comp
    while c_seq[-1] > _EPS * a and len(a_seq) <= _LANDEN_DEPTH:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
    return a_seq, c_seq


def complete_K(ell: float) -> float:
    """Complete elliptic integral of the first kind, K(ell), 0 <= ell < 1."""
    if not 0.0 <= ell < 1.0:
        raise DomainError(f"complete_K requires 0 <= ell < 1, got {ell!r}")
    return 0.5 * math.pi / _landen(ell, complement(ell))[0][-1]


def _sncndn(u: float, ell: float, ell_comp: float, scales: tuple[list, list]) -> tuple[float, float, float]:
    """sn/cn/dn with explicit complementary modulus, from the scales _landen(ell, ell_comp)."""
    if not 0.0 <= ell < 1.0:
        raise DomainError(f"jacobi modulus must lie in [0, 1), got {ell!r}")
    if not math.isfinite(u):
        raise DomainError(f"jacobi argument must be finite, got {u!r}")
    if ell == 0.0:
        return math.sin(u), math.cos(u), 1.0
    a_seq, c_seq = scales
    depth = len(a_seq) - 1
    quarter = 0.5 * math.pi / a_seq[depth]  # K(ell)

    # Reduce to [0, K/2] using periods and quarter-period reflection; the
    # reflection keeps dn (and hence cn near the quarter period) fully
    # accurate instead of dissolving into sqrt(1 - ell^2 sn^2) cancellation.
    sign_sn = -1.0 if u < 0.0 else 1.0
    r = math.fmod(abs(u), 4.0 * quarter)
    sign_cn = 1.0
    if r >= 2.0 * quarter:
        r -= 2.0 * quarter
        sign_sn, sign_cn = -sign_sn, -sign_cn
    if r > quarter:
        r = 2.0 * quarter - r
        sign_cn = -sign_cn
    reflect = r > 0.5 * quarter
    if reflect:
        r = quarter - r

    phi = float(2**depth) * a_seq[depth] * r
    for n in range(depth, 0, -1):
        t = c_seq[n] / a_seq[n] * math.sin(phi)
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, t))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt((1.0 - ell * sn) * (1.0 + ell * sn))
    if reflect:
        sn, cn, dn = cn / dn, ell_comp * sn / dn, ell_comp / dn
    return sign_sn * sn, sign_cn * cn, dn


def _nodes(nums, den: int, ell: float, ell_comp: float) -> list:
    """[(sn, cn, dn)(num K / den, ell) for num in nums]; K and every node read one _landen.

    The node table of r_n, s_m, F_m (modulus sin Theta) and h_m (modulus ell).
    """
    scales = _landen(ell, ell_comp)
    K = 0.5 * math.pi / scales[0][-1]
    out = []
    for num in nums:  # a plain loop: no comprehension frame on one-node calls
        out.append(_sncndn(num * K / den, ell, ell_comp, scales))
    return out


def jacobi_sncndn(u: float, ell: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn, cn, dn) at real argument u, modulus ell."""
    ell_comp = complement(ell)
    return _sncndn(u, ell, ell_comp, _landen(ell, ell_comp))


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
    if not 0.0 <= ell < 1.0:
        raise DomainError(f"inverse_sn modulus must lie in [0, 1), got {ell!r}")
    if not abs(x) <= 1.0:
        raise DomainError(f"inverse_sn requires |x| <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    p = (1.0 - x) * (1.0 + x)
    q = (1.0 - ell * x) * (1.0 + ell * x)
    return x * _carlson_rf(p, q, 1.0)


def _mu_pair(ell: float, ell_comp: float) -> float:
    """Groetzsch value from an exactly known complementary pair."""
    return 0.5 * math.pi * _landen(ell, ell_comp)[0][-1] / _landen(ell_comp, ell)[0][-1]


def groetzsch_mu(ell: float) -> float:
    """Groetzsch ring function mu(ell) = (pi/2) K(ell')/K(ell), 0 < ell < 1."""
    if not 0.0 < ell < 1.0:
        raise DomainError(f"groetzsch_mu requires 0 < ell < 1, got {ell!r}")
    return _mu_pair(ell, complement(ell))


def _mu_inverse_pair(v: float) -> tuple[float, float]:
    """(ell, ell') with mu(ell) = v, v > 0, from the theta quotient of the nome.

    The member whose mu value is V = max(v, (pi/2)^2 / v) >= pi/2 is

        (theta_2/theta_3)^2 = 4 e^{-V} (sum_{n>=0} q^{n(n+1)})^2 / theta_3(q)^2

    at q = e^{-2V} <= e^{-pi}, where the last terms kept, q^16 and q^20,
    are below 1e-21.  It is accurate to a few eps (1 + V) relative, and
    the other member is its complement.  Past V ~ 745 it underflows to 0.
    """
    V = max(v, _QUARTER_PI_SQ / v)
    x = math.exp(-V)
    q = x * x
    theta3 = 1.0 + 2.0 * (q + q**4 + q**9 + q**16)
    sum2 = 1.0 + q**2 + q**6 + q**12 + q**20  # theta_2 / (2 q^(1/4))
    small = 4.0 * x * (sum2 / theta3) ** 2
    large = complement(small)
    return (small, large) if v >= 0.5 * math.pi else (large, small)


def mu_inverse(v: float) -> float:
    """The modulus ell in (0, 1) with groetzsch_mu(ell) = v.

    Closed form through the nome q = e^{-2v}: ell = (theta_2/theta_3)^2
    (DLMF 22.2.2), or, when v < pi/2, the complement of that quotient at
    the complementary nome e^{-pi^2/(2v)}.  Solutions for v < 1 crowd
    against 1; callers needing full relative accuracy there work with the
    complement (solve_lambda does).  PrecisionError is raised when ell
    rounds to 1 (v < 0.087) or is subnormal (v > 709.78).
    """
    if not (math.isfinite(v) and v > 0.0):
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
    optimal errors decay with degree.
    """

    ell: float
    ell_comp: float
    K: float
    K_comp: float
    mu: float
    rho: float

    @classmethod
    def from_ell(cls, ell: float, ell_comp: float | None = None) -> "EllipticModulus":
        if not 0.0 < ell < 1.0:
            raise DomainError(f"modulus must lie in (0, 1), got {ell!r}")
        ell_comp = _complement_of(ell, ell_comp)
        K = 0.5 * math.pi / _landen(ell, ell_comp)[0][-1]
        K_comp = 0.5 * math.pi / _landen(ell_comp, ell)[0][-1]
        return cls(ell, ell_comp, K, K_comp, 0.5 * math.pi * K_comp / K, math.exp(math.pi * K / K_comp))

    @classmethod
    def from_theta(cls, theta: float) -> "EllipticModulus":
        """Modulus ell = cos(theta); the complement sin(theta) is exact."""
        if not 0.0 < theta < 0.5 * math.pi:
            raise DomainError(f"theta must lie in (0, pi/2), got {theta!r}")
        return cls.from_ell(math.cos(theta), math.sin(theta))


@dataclass(frozen=True)
class DegreeReduction:
    """Solution data of the degree equation at (ell, m).

    lam is the reduced modulus, lam_comp its complement (the quantity that
    stays informative when lam -> 1) and M = K(ell)/K(lam).
    """

    m: int
    lam: float
    lam_comp: float
    M: float


def solve_lambda(ell: float, m: int, ell_comp: float | None = None) -> DegreeReduction:
    """Solve K(ell)/K(ell') = K(lam)/(m K(lam')) for lam; lam := 0 at m = 0.

    That is mu(lam) = mu(ell)/m, solved by the nome series of mu_inverse,
    which returns lam' with full relative accuracy when lam is near 1.
    Past m (pi/2)^2 / mu(ell) ~ 745, lam' underflows to 0 and lam is 1;
    nothing is raised.  M = K(ell)/K(lam) uses the degree equation
    K(lam) = (pi/2) K(lam') / (mu(ell)/m), so no AGM runs on lam'.
    """
    m = require_degree(m, 0)
    require_modulus(ell)
    ell_comp = _complement_of(ell, ell_comp)
    if m == 0:
        return DegreeReduction(0, 0.0, 1.0, 1.0)
    if m == 1:
        return DegreeReduction(1, ell, ell_comp, 1.0)
    mu = _mu_pair(ell, ell_comp)
    lam, lam_comp = _mu_inverse_pair(mu / m)
    M = (mu / m) * _landen(lam_comp, lam)[0][-1] / (0.5 * math.pi * _landen(ell, ell_comp)[0][-1])
    return DegreeReduction(m, lam, lam_comp, M)
