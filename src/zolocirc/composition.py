"""Composition laws for the optimal approximants.

Feeding one optimal sign approximant into another of arc half-width
Theta-tilde = arccos(lam) reproduces the optimal approximant of the
product degree; the same holds for the real Zolotarev fraction F and,
after a change of variables, for the sqrt approximants.  Each operation
here evaluates both sides of its law so callers can check the residual.
"""

from __future__ import annotations

import numpy as np

from .analysis import theta_tilde
from .approximants import ZolotarevFraction, _real, build_r, build_s
from .elliptic import require_modulus, require_theta
from .errors import DomainError, require_degree


def _law_factors(build, m_tilde: int, m: int, effective: int, product: int, theta: float):
    """(inner, outer, direct) = build(m; Theta), build(m_tilde; Theta-tilde), build(product; Theta).

    Theta-tilde = theta_tilde(effective, Theta) at the inner's effective degree.  The
    caller's Theta is refused first; a Theta-tilde out of the window under its own name.
    """
    tt = theta_tilde(effective, theta)
    require_theta(tt, f"theta_tilde(m={effective}, theta={theta!r})")
    return build(m, theta), build(m_tilde, tt), build(product, theta)


def compose_s(m_tilde: int, m: int, theta: float, z):
    """Both sides of s_mtilde(s_m(z; Theta); Theta-tilde) = s_{mtilde m}(z; Theta)."""
    m, m_tilde = require_degree(m, 1, "m"), require_degree(m_tilde, 1, "m_tilde")
    inner, outer, direct = _law_factors(build_s, m_tilde, m, m, m_tilde * m, theta)
    return outer(inner(z)), direct(z)


def _s_tilde(m_odd: int, theta: float):
    """s_tilde of odd degree 2n+1: s^((-1)^n)."""
    s = build_s(m_odd, theta)
    return s if m_odd % 4 == 1 else s.reciprocal()


def compose_s_tilde(n_tilde: int, n: int, theta: float, z):
    """Both sides of the composition law for s_tilde = s_{2n+1}^((-1)^n), at degrees 2n + 1."""
    n, n_tilde = require_degree(n, 0, "n"), require_degree(n_tilde, 0, "n_tilde")
    m, m_tilde = 2 * n + 1, 2 * n_tilde + 1
    inner, outer, direct = _law_factors(_s_tilde, m_tilde, m, m, m_tilde * m, theta)
    return outer(inner(z)), direct(z)


def compose_r(n_tilde: int, n: int, theta: float, z):
    """Both sides of r_n(z) r_ntilde(z / r_n(z)^2; Theta-tilde) = r_{2 ntilde n + ntilde + n}(z)."""
    n, n_tilde = require_degree(n, 0, "n"), require_degree(n_tilde, 0, "n_tilde")
    inner, outer, direct = _law_factors(build_r, n_tilde, n, 2 * n + 1, 2 * n_tilde * n + n_tilde + n, theta)
    rv = inner(z)
    return rv * outer(z / (rv * rv)), direct(z)


def compose_F(m_tilde: int, m: int, ell: float, x):
    """Both sides of F_mtilde(F_m(x; ell); lam) = F_{mtilde m}(x; ell) on [-1, 1].

    Takes a real number (returns floats) or a real ndarray (returns arrays),
    as ``approximants._real`` reads them; the fractions are built once per call.
    """
    m, m_tilde = require_degree(m, 1, "m"), require_degree(m_tilde, 1, "m_tilde")
    ell = require_modulus(ell)
    x = _real(x)
    if not np.all(np.abs(x) <= 1.0):
        raise DomainError(f"compose_F requires |x| <= 1, got {x!r}")
    inner = ZolotarevFraction.from_ell(m, ell)
    red = inner.reduction
    require_modulus(red.lam, f"lam(m={m}, ell={ell!r})")  # the derived outer modulus, under its own name
    outer = ZolotarevFraction.from_ell(m_tilde, red.lam, red.lam_comp)
    direct = ZolotarevFraction.from_ell(m_tilde * m, ell)
    return outer.F(inner.F(x)), direct.F(x)
