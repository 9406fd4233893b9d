"""Composition laws for the optimal approximants.

Feeding one optimal sign approximant into another of arc half-width
Theta-tilde = arccos(lam) reproduces the optimal approximant of the
product degree; the same holds for the real Zolotarev fraction F and,
after a change of variables, for the sqrt approximants.  Each operation
here evaluates both sides of its law so callers can check the residual.
"""

from __future__ import annotations

import math

from .approximants import ZolotarevFraction, build_r, build_s, eval_F_product
from .elliptic import require_degree, require_modulus, require_theta, solve_lambda
from .errors import DomainError


def theta_tilde(m: int, theta: float) -> float:
    """Arc half-width seen by an outer approximant: |arg s_m(e^{i Theta})|.

    Produced through the closed chain arccos(lam(m, cos Theta)) rather
    than by evaluating the product at the arc endpoint, so downstream
    constructions do not inherit endpoint arg roundoff; evaluating the
    product there agrees to the stated tolerance (checked in tests).  It
    equals theta exactly at m = 1 (the identity map) and is strictly
    smaller for m >= 2.
    """
    m = require_degree(m, 0)
    if m == 0:
        return 0.5 * math.pi  # s_0 = i everywhere
    require_theta(theta)
    red = solve_lambda(math.cos(theta), m, math.sin(theta))
    return math.asin(min(1.0, red.lam_comp))


def compose_s(m_tilde: int, m: int, theta: float, z):
    """Both sides of s_mtilde(s_m(z; Theta); Theta-tilde) = s_{mtilde m}(z; Theta)."""
    if m < 1 or m_tilde < 1:
        raise DomainError("composition requires positive degrees")
    tt = theta_tilde(m, theta)
    inner = build_s(m, theta)
    outer = build_s(m_tilde, tt)
    direct = build_s(m_tilde * m, theta)
    return outer(inner(z)), direct(z)


def _s_tilde(m_odd: int, theta: float):
    """s_tilde of odd degree 2n+1: s^((-1)^n)."""
    n = (m_odd - 1) // 2
    s = build_s(m_odd, theta)
    return s.reciprocal() if n % 2 else s


def compose_s_tilde(n_tilde: int, n: int, theta: float, z):
    """Both sides of the composition law for s_tilde = s_{2n+1}^((-1)^n)."""
    if n < 0 or n_tilde < 0:
        raise DomainError("composition requires nonnegative n")
    m, m_tilde = 2 * n + 1, 2 * n_tilde + 1
    tt = theta_tilde(m, theta)
    inner = _s_tilde(m, theta)
    outer = _s_tilde(m_tilde, tt)
    direct = _s_tilde(m_tilde * m, theta)
    return outer(inner(z)), direct(z)


def compose_r(n_tilde: int, n: int, theta: float, z):
    """Both sides of r_n(z) r_ntilde(z / r_n(z)^2; Theta-tilde) = r_{2 ntilde n + ntilde + n}(z)."""
    if n < 0 or n_tilde < 0:
        raise DomainError("composition requires nonnegative n")
    tt = theta_tilde(2 * n + 1, theta)
    inner = build_r(n, theta)
    outer = build_r(n_tilde, tt)
    direct = build_r(2 * n_tilde * n + n_tilde + n, theta)
    rv = inner(z)
    return rv * outer(z / (rv * rv)), direct(z)


def compose_F(m_tilde: int, m: int, ell: float, x: float):
    """Both sides of F_mtilde(F_m(x; ell); lam) = F_{mtilde m}(x; ell) on [-1, 1]."""
    if m < 1 or m_tilde < 1:
        raise DomainError("composition requires positive degrees")
    require_modulus(ell)
    if not abs(x) <= 1.0:
        raise DomainError(f"compose_F requires |x| <= 1, got {x!r}")
    inner = ZolotarevFraction.from_ell(m, ell)
    red = inner.reduction
    outer = ZolotarevFraction.from_ell(m_tilde, red.lam, red.lam_comp)
    direct = ZolotarevFraction.from_ell(m_tilde * m, ell)
    y = eval_F_product(inner, x)[0]
    left = eval_F_product(outer, y)[0]
    right = eval_F_product(direct, x)[0]
    return left, right
