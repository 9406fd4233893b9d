"""Real-argument elliptic special functions.

Everything here is double precision and self-contained: the complete
integral K via the arithmetic-geometric mean, Jacobi sn/cn/dn via the
descending Landen (AGM) recursion, the incomplete inverse sn via a
Carlson symmetric integral, the Groetzsch ring function

    mu(ell) = (pi/2) * K(ell') / K(ell),      ell' = sqrt(1 - ell^2),

its inverse, and the degree-reduction equation

    K(ell)/K(ell') = K(lam) / (m * K(lam'))

that links a modulus ell, a degree m, and the reduced modulus lam.

The reduced modulus approaches 1 rapidly as m grows, so the solver works
in the complement lam' = sqrt(1 - lam^2) throughout; quantities derived
from it (predicted phase errors, K(lam)) stay fully accurate even when
lam rounds to within a few ulp of 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PrecisionError

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


def require_modulus(ell: float, name: str = "ell") -> None:
    """Reject moduli outside the supported precision window."""
    if not (ELL_MIN < ell < ELL_MAX):
        raise PrecisionError(
            f"{name}={ell!r} outside supported range ({ELL_MIN}, {ELL_MAX})"
        )


def require_theta(theta: float, name: str = "theta") -> None:
    """Reject arc half-widths whose modulus cos(theta) leaves the window."""
    if not (THETA_MIN < theta < THETA_MAX):
        raise PrecisionError(
            f"{name}={theta!r} outside supported range ({THETA_MIN:.6e}, {THETA_MAX!r})"
        )


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


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; terminates at |a - b| <= 4 eps a."""
    for _ in range(64):
        if abs(a - b) <= 4.0 * _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def complete_K(ell: float) -> float:
    """Complete elliptic integral of the first kind, K(ell), 0 <= ell < 1."""
    if not 0.0 <= ell < 1.0:
        raise DomainError(f"complete_K requires 0 <= ell < 1, got {ell!r}")
    if ell == 0.0:
        return 0.5 * math.pi
    return 0.5 * math.pi / _agm(1.0, complement(ell))


def _sncndn(u: float, ell: float, ell_comp: float) -> tuple[float, float, float]:
    """sn/cn/dn with explicit complementary modulus (no cancellation)."""
    if not 0.0 <= ell < 1.0:
        raise DomainError(f"jacobi modulus must lie in [0, 1), got {ell!r}")
    if not math.isfinite(u):
        raise DomainError(f"jacobi argument must be finite, got {u!r}")
    if ell == 0.0:
        return math.sin(u), math.cos(u), 1.0

    # Descending Landen scales, recorded for the amplitude recursion.
    a_seq = [1.0]
    c_seq = [ell]
    a, b = 1.0, ell_comp
    depth = 0
    while abs(c_seq[depth]) > _EPS * a_seq[depth] and depth < _LANDEN_DEPTH:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        depth += 1
        a_seq.append(a)
        c_seq.append(c)
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


def jacobi_sncndn(u: float, ell: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn, cn, dn) at real argument u, modulus ell."""
    return _sncndn(u, ell, complement(ell))


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
    return 0.5 * math.pi * _agm(1.0, ell_comp) / _agm(1.0, ell)


def groetzsch_mu(ell: float) -> float:
    """Groetzsch ring function mu(ell) = (pi/2) K(ell')/K(ell), 0 < ell < 1."""
    if not 0.0 < ell < 1.0:
        raise DomainError(f"groetzsch_mu requires 0 < ell < 1, got {ell!r}")
    return _mu_pair(ell, complement(ell))


# For targets this large the solution is within the small-modulus regime
# where mu(x) = log(4/x) - x^2/4 - O(x^4) inverts directly.
_MU_ASYMPTOTIC = 12.0


def mu_inverse(v: float) -> float:
    """The modulus ell in (0, 1) with groetzsch_mu(ell) = v.

    mu is strictly decreasing from +inf to 0, so the equation always has a
    unique solution.  Mid-range targets are bracketed by bisection (to a
    1e-15 bracket) and polished with two central-difference Newton steps;
    extreme targets use the small-modulus series on ell or on its
    complement, which is the only representable description there.

    For v < 1 the solution sits so close to 1 that adjacent doubles change
    mu by more than 1e-13; the returned value is then the correctly
    rounded complement construction, and callers needing full relative
    accuracy should work with the complement directly (solve_lambda does).
    """
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"mu_inverse requires v > 0, got {v!r}")
    if v >= _MU_ASYMPTOTIC:
        x0 = 4.0 * math.exp(-v)
        return x0 * (1.0 - 0.25 * x0 * x0)
    if v < 1.0:
        # Solve for the complement instead: solutions crowd against 1 where
        # doubles cannot resolve them, while mu(ell') = (pi/2)^2 / v is
        # comfortably mid-range or asymptotic.
        ell = complement(mu_inverse(_QUARTER_PI_SQ / v))
        if ell >= 1.0:
            raise PrecisionError(
                f"mu_inverse({v!r}) is not representable below 1 in double precision"
            )
        return ell

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(60):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if groetzsch_mu(mid) > v:
            lo = mid
        else:
            hi = mid
    ell = 0.5 * (lo + hi)
    for _ in range(2):
        h = 1e-5 * min(ell, 1.0 - ell)
        d = (groetzsch_mu(ell + h) - groetzsch_mu(ell - h)) / (2.0 * h)
        ell = min(max(ell - (groetzsch_mu(ell) - v) / d, 1e-12), 1.0 - 1e-12)
    if abs(groetzsch_mu(ell) - v) > max(1e-13, 64.0 * _EPS * v):
        raise ConvergenceError(f"mu_inverse failed to reach tolerance at v={v!r}")
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
        if ell_comp is None:
            ell_comp = complement(ell)
        K = 0.5 * math.pi / _agm(1.0, ell_comp)
        K_comp = 0.5 * math.pi / _agm(1.0, ell)
        mu = 0.5 * math.pi * K_comp / K
        return cls(ell, ell_comp, K, K_comp, mu, math.exp(math.pi * K / K_comp))

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
    stays informative when lam -> 1), M = K(ell)/K(lam) and nu = 1/mu(ell).
    """

    m: int
    lam: float
    lam_comp: float
    M: float
    nu: float


def solve_lambda(ell: float, m: int, ell_comp: float | None = None) -> DegreeReduction:
    """Solve K(ell)/K(ell') = K(lam)/(m K(lam')) for lam; lam := 0 at m = 0.

    Equivalent to lam = mu_inverse(mu(ell)/m), but solved through the
    complement lam' = mu_inverse(m (pi/2)^2 / mu(ell)) so that lam near 1
    is produced with full relative accuracy in 1 - lam.
    """
    m = require_degree(m, 0)
    require_modulus(ell)
    if ell_comp is None:
        ell_comp = complement(ell)
    mu = _mu_pair(ell, ell_comp)
    nu = 1.0 / mu
    if m == 0:
        return DegreeReduction(0, 0.0, 1.0, 1.0, nu)
    if m == 1:
        lam, lam_comp, M = ell, ell_comp, 1.0
    else:
        # Whichever of lam, lam' is small gets solved for directly (its
        # mu-target is then > pi/2, safely in the well-conditioned branch);
        # the other follows by an accurate complement.
        if mu / m >= 0.5 * math.pi:
            lam = mu_inverse(mu / m)
            lam_comp = complement(lam)
        else:
            lam_comp = mu_inverse(m * _QUARTER_PI_SQ / mu)
            lam = complement(lam_comp)
        M = _agm(1.0, lam_comp) / _agm(1.0, ell_comp)
    return DegreeReduction(m, lam, lam_comp, M, nu)
