"""Bridges to neighbouring constructions.

Two families connect to the circle approximants: the Ng-Tsang finite
Blaschke products h_m, which solve the Zolotarev ratio problem for the
set pair [-sqrt(ell), sqrt(ell)] versus the outer rays beyond
+-1/sqrt(ell), and the Pade approximant p_n of sqrt(z) at z = 1, which
the sqrt approximant converges to coefficientwise as the arc shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approximants import Family, UnimodularRational, _nodes, _point, build_s, coeff_a, z4_solution
from .elliptic import _mu_inverse_pair, complement, groetzsch_mu
from .elliptic import require_modulus, require_theta, solve_lambda
from .errors import BranchError, DomainError, PrecisionError, require_degree


@dataclass(frozen=True)
class BlaschkeProduct:
    """h_m(z; ell) = prod (z - c_j)/(1 - c_j z) with real c_j in (-1, 1)."""

    m: int
    ell: float
    params: tuple[float, ...]
    _rational: UnimodularRational = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rational", UnimodularRational(0, tuple(self.params), Family.H_FAMILY))

    def as_rational(self) -> UnimodularRational:
        return self._rational

    def __call__(self, z):
        return self._rational(z)


def blaschke_h(m: int, ell: float) -> BlaschkeProduct:
    """Ng-Tsang product with c_j = sqrt(ell) cn(v_j, ell)/dn(v_j, ell), v_j = (2j-1)K(ell)/m.

    |cn| <= dn at a real argument, so |c_j| <= sqrt(ell) < 1 in the modulus window.
    """
    m = require_degree(m, 1)
    ell = require_modulus(ell)
    root, ell_comp = math.sqrt(ell), complement(ell)
    return BlaschkeProduct(m, ell, tuple(root * cn / dn for _, cn, dn in _nodes(m, ell_comp, ell)[1::2]))


def _kappa(ell: float) -> float:
    return ((1.0 - ell) / (1.0 + math.sqrt(ell)) ** 2) ** 2  # 1 - sqrt(ell) without cancellation


def blaschke_composition_modulus(m: int, ell: float) -> float:
    """The modulus ell-tilde with h_mtilde(h_m(z; ell); ell-tilde) = h_{mtilde m}.

    This is the Zolotarev number of the Ng-Tsang set pair, which a Moebius
    map carries onto the symmetric pair of modulus kappa = ((1 - sqrt(ell))
    / (1 + sqrt(ell)))^2, where mu(kappa) = pi^2 / mu(ell).  So Z_m(kappa)
    = mu^{-1}(m pi^2 / mu(kappa)) is the modulus with mu(ell-tilde) = m mu(ell).
    """
    m = require_degree(m, 1)
    ell = require_modulus(ell)
    return _mu_inverse_pair(m * groetzsch_mu(ell))[0]


def _refuse(bad, error, message: str, z) -> None:
    """Raise error(message) at the first point of z (a complex or an ndarray) where the mask ``bad`` holds."""
    if np.any(bad):
        raise error(message.format(complex(np.ravel(z)[np.ravel(bad)][0])))


def _moebius_image(m: int, ell: float, z):
    """Validated (m, kappa, z) and the image x = sqrt(kappa) (z - 1)/(z + 1), at a complex z or an ndarray."""
    m = require_degree(m, 1)
    ell = require_modulus(ell)
    kappa = _kappa(ell)
    z = _point(z).astype(complex) if isinstance(z, np.ndarray) else _point(z)  # DomainError as at a circle call
    _refuse(~np.isfinite(z), DomainError, "z must be finite, got {!r}", z)
    if np.any(np.abs(z + 1.0) < 1e-12):
        raise BranchError("z = -1 is the Moebius pole")
    return m, kappa, z, math.sqrt(kappa) * (z - 1.0) / (z + 1.0)


def _h_side(m: int, ell: float, z):
    """(1 - ell-tilde)/(1 + ell-tilde) (h_m(z) - 1)/(h_m(z) + 1), the left side of both identities."""
    ell_tilde = blaschke_composition_modulus(m, ell)
    h = blaschke_h(m, ell)(z)
    return ((1.0 - ell_tilde) / (1.0 + ell_tilde) * (h - 1.0) / (h + 1.0)).real


def blaschke_s_relation(m: int, ell: float, z):
    """Both sides of the identity tying h_m to the sign approximant s_m.

    Left: (1 - ell-tilde)/(1 + ell-tilde) (h_m(z) - 1)/(h_m(z) + 1).
    Right: (s_m(w; Phi) + s_m(w; Phi)^{-1}) / (1 + F_m(kappa; kappa)) where
    cos(Phi) = kappa and w is the unit-circle solution of (w + 1/w)/2 =
    sqrt(kappa) (z - 1)/(z + 1), taking the root with Im w >= 0.  A
    BranchError signals that the Moebius image left [-1, 1], where no
    unit-circle w exists; as s_m is built at acos(kappa), PrecisionError
    is raised once kappa < 1e-8 (ell above about 0.9996).  z is a complex
    number (two floats back) or an ndarray (two float arrays, h_m and s_m
    built once); any bad point raises for the whole array.
    """
    m, kappa, z, x = _moebius_image(m, ell, z)
    off = (np.abs(x.imag) > 1e-9) | (np.abs(x.real) > 1.0)
    _refuse(off, BranchError, "Moebius image {!r} leaves [-1, 1]; no unit-circle w", x)
    w = x.real + 1j * np.sqrt((1.0 - x.real) * (1.0 + x.real))
    require_modulus(kappa, "kappa")  # s_m is built at acos(kappa)
    lhs = _h_side(m, ell, z)
    lam_kappa = solve_lambda(kappa, m).lam
    phi = math.acos(kappa)
    sv = build_s(m, phi)(w)
    rhs = (sv + 1.0 / sv) / (1.0 + lam_kappa)
    return lhs, rhs.real


def scaled_F_via_blaschke(m: int, ell: float, z):
    """Both sides of the F-form of the same identity (through F_m(x; kappa)).

    Left as in blaschke_s_relation; right is (2/(1 + F_m(kappa; kappa)))
    F_m(x; kappa) at x = sqrt(kappa)(z - 1)/(z + 1).  z is a complex number
    or an ndarray, as there.
    """
    m, kappa, z, x = _moebius_image(m, ell, z)
    _refuse(np.abs(x.imag) > 1e-9, BranchError, "Moebius image {!r} is not real", x)
    return _h_side(m, ell, z), z4_solution(m, kappa)(x.real)


@dataclass(frozen=True)
class PadeApproximant:
    """Type-(n, n) Pade approximant of sqrt(z) at z = 1.

    Coefficients are ascending in z, integer binomial sums normalized so the
    denominator constant term is 1 (past n = 519 they overflow: PrecisionError);
    the poles are taken in closed form, -tan^2(j pi/(2n+1)), ascending.
    """

    n: int
    numerator: tuple[float, ...]
    denominator: tuple[float, ...]
    poles: tuple[float, ...]

    def __call__(self, z):
        _point(z)  # DomainError for what a built optimum refuses; z itself is evaluated
        num = sum(c * z**k for k, c in enumerate(self.numerator))
        den = sum(c * z**k for k, c in enumerate(self.denominator))
        return num / den


def pade_p(n: int) -> PadeApproximant:
    """Expand sqrt(z) ((1+sqrt z)^{2n+1} + (1-sqrt z)^{2n+1}) / (...difference...)."""
    n = require_degree(n, 0)
    scale = 2 * n + 1  # denominator constant term before normalization
    try:
        num = tuple(math.comb(scale, 2 * j) / scale for j in range(n + 1))
        den = tuple(math.comb(scale, 2 * j + 1) / scale for j in range(n + 1))
    except OverflowError:
        raise PrecisionError(f"pade_p({n}): binomial coefficients overflow double precision") from None
    poles = tuple(-math.tan(j * math.pi / scale) ** 2 for j in range(n, 0, -1))
    return PadeApproximant(n, num, den, poles)


def pade_limit_check(n: int, theta_seq) -> list[float]:
    """Pole-set deviation of the sqrt approximant from p_n along shrinking arcs.

    For each Theta, the sorted poles {-a_j(Theta)} are compared with the
    sorted poles of p_n; the proposition says the deviations tend to 0.
    """
    n = require_degree(n, 0)
    try:
        thetas = iter(theta_seq)
    except TypeError:
        raise DomainError(f"theta_seq must be an iterable of thetas, got a {type(theta_seq).__name__}") from None
    target = pade_p(n).poles
    out = []
    for theta in thetas:
        require_theta(theta)
        ours = sorted(-coeff_a(j, n, theta) for j in range(1, n + 1))
        out.append(max((abs(a - b) for a, b in zip(ours, target)), default=0.0))
    return out
