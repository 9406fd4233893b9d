"""Independent references for the benchmark's checks, computed with mpmath.

Nothing here imports zolocirc.  The optimal phase error comes from the
nome relation q(lam) = q(ell)^(1/m) of the degree equation, with lam'
read off theta-function quotients; the factor parameters come from the
paper's closed forms evaluated with mpmath's Jacobi functions.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

DPS = 30


def _lam_comp(ell_sq, ell_comp_sq, m: int):
    """lam' of the degree equation K(ell)/K(ell') = K(lam)/(m K(lam')).

    log q(lam) = log q(ell) / m.  Small nomes use lam' = (theta_4/theta_3)^2;
    nomes near 1 switch to the complementary nome, where
    lam' = (theta_2/theta_3)^2, so both series converge fast.
    """
    log_q = -mp.pi * mp.ellipk(ell_comp_sq) / (m * mp.ellipk(ell_sq))
    if log_q < -mp.pi:
        q = mp.exp(log_q)
        return (mp.jtheta(4, 0, q) / mp.jtheta(3, 0, q)) ** 2
    q_comp = mp.exp(mp.pi**2 / log_q)
    return (mp.jtheta(2, 0, q_comp) / mp.jtheta(3, 0, q_comp)) ** 2


def sign_error(theta: float, m: int) -> float:
    """Optimal phase error arccos(lam) of s_m on the arc pair of half-width theta."""
    if m == 0:
        return 0.5 * math.pi
    with mp.workdps(DPS):
        t = mpf(theta)
        return float(mp.asin(_lam_comp(mp.cos(t) ** 2, mp.sin(t) ** 2, m)))


def sqrt_error(theta: float, n: int) -> float:
    """Optimal phase error of r_n on the arc of half-width 2 theta."""
    return sign_error(theta, 2 * n + 1)


def z4_deviation(ell: float, m: int) -> float:
    """max |(2/(1+lam)) F_m - sign| on [-1, -ell] u [ell, 1], i.e. (1-lam)/(1+lam)."""
    with mp.workdps(DPS):
        e = mpf(ell)
        lam_comp = _lam_comp(e**2, (1 - e) * (1 + e), m)
        lam = mp.sqrt((1 - lam_comp) * (1 + lam_comp))
        return float(lam_comp**2 / (1 + lam) ** 2)


def _node_base(num: int, den: int, theta: float):
    """(ell sn + dn)/cn at (num/den) K(ell'), modulus ell' = sin(theta)."""
    t = mpf(theta)
    param = mp.sin(t) ** 2
    v = num * mp.ellipk(param) / den
    sn = mp.ellipfun("sn", v, m=param)
    cn = mp.ellipfun("cn", v, m=param)
    dn = mp.ellipfun("dn", v, m=param)
    return (mp.cos(t) * sn + dn) / cn


class SignApproximant:
    """s_m(z) = i^(1-m) prod (z - i b_j)/(1 + i b_j z) at DPS digits."""

    def __init__(self, m: int, theta: float):
        with mp.workdps(DPS):
            self.params = []
            for j in range(1, m + 1):
                if 2 * j - 1 == m:
                    self.params.append(math.inf if j % 2 == 0 else 0.0)
                    continue
                base = _node_base(2 * j - 1, m, theta)
                sign = -1 if (m * j) % 2 else 1
                self.params.append(sign * (base if j % 2 == 0 else 1 / base))
        self.quarter_turns = (1 - m) % 4

    def __call__(self, z: complex):
        with mp.workdps(DPS):
            zz = mpc(z)
            w = mpc(0, 1) ** self.quarter_turns
            for b in self.params:
                if b == math.inf:
                    w *= -1 / zz
                elif b == 0.0:
                    w *= zz
                else:
                    w *= (zz - mpc(0, b)) / (1 + mpc(0, b) * zz)
            return w


class SqrtApproximant:
    """r_n(z) = prod (1 + a_j z)/(z + a_j) at DPS digits."""

    def __init__(self, n: int, theta: float):
        with mp.workdps(DPS):
            self.params = []
            for j in range(1, n + 1):
                base = _node_base(2 * j - 1, 2 * n + 1, theta)
                self.params.append(base**2 if (j + n) % 2 == 0 else base**-2)

    def __call__(self, z: complex):
        with mp.workdps(DPS):
            zz = mpc(z)
            w = mpc(1)
            for a in self.params:
                w *= (1 + a * zz) / (zz + a)
            return w


def contour_value(problem: str, approx, z: complex) -> float:
    """|approximant(z) - target(z)|: principal sqrt for z5, z/sqrt(z^2) for z6."""
    with mp.workdps(DPS):
        zz = mpc(z)
        target = mp.sqrt(zz) if problem == "z5" else zz / mp.sqrt(zz * zz)
        return float(abs(approx(z) - target))
