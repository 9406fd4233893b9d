"""A 50-digit mpmath reference for the elliptic data that zolocirc computes.

Only ``mpmath.ellipk``, ``mpmath.ellipf`` and ``mpmath.ellipfun`` (and
``findroot`` on ``ellipk``) are used, never ``jtheta``, so the reference
shares no formula with the theta series in ``zolocirc.elliptic``; nothing here imports
``zolocirc.elliptic`` or ``zolocirc.approximants``.  A modulus is passed as
the exact pair of squares (ell^2, ell'^2): for an arc half-width these are
cos^2 and sin^2 of the mp value of Theta, not of the rounded cosine and
sine, and for a float modulus ell they are ell^2 and 1 - ell^2 of that
float.  Zolotarev's number is the paper's infinite product, at 60 digits.
"""

import sys

import mpmath as mp

EPS = sys.float_info.epsilon
DPS = 50


def theta_squares(theta):
    """(cos^2 Theta, sin^2 Theta) at the exact value of the double theta."""
    with mp.workdps(DPS):
        t = mp.mpf(theta)
        return mp.cos(t) ** 2, mp.sin(t) ** 2


def ell_squares(ell):
    """(ell^2, 1 - ell^2) of the double ell."""
    with mp.workdps(DPS):
        ell_sq = mp.mpf(ell) ** 2
        return ell_sq, 1 - ell_sq


def complete_K(ell_sq):
    with mp.workdps(DPS):
        return mp.ellipk(ell_sq)


def groetzsch_mu(ell_sq, ell_comp_sq):
    with mp.workdps(DPS):
        return mp.pi / 2 * mp.ellipk(ell_comp_sq) / mp.ellipk(ell_sq)


def node(num, den, ell_sq):
    """(sn, cn, dn)(num K / den) at modulus^2 ell_sq, num in [0, 2 den]."""
    with mp.workdps(DPS):
        if num % den == 0:  # exact, where ellipfun leaves residues of 1e-50
            return (0, 1 - num // den, 1) if num != den else (1, 0, mp.sqrt(1 - ell_sq))
        sn = mp.ellipfun("sn", num * mp.ellipk(ell_sq) / den, m=ell_sq)
        # at 50 digits the square roots lose nothing a double can see
        cn = mp.sqrt(1 - sn * sn) * (-1 if num > den else 1)
        dn = mp.sqrt(1 - ell_sq * sn * sn)
        return sn, cn, dn


def _base(num, den, theta):
    """(ell sn + dn)/cn at num K(ell')/den, ell = cos Theta: the base of a_j and b_j."""
    ell_sq, ell_comp_sq = theta_squares(theta)
    sn, cn, dn = node(num, den, ell_comp_sq)
    with mp.workdps(DPS):
        return (mp.sqrt(ell_sq) * sn + dn) / cn


def coeff_a(j, n, theta):
    """a_j of r_n at theta: base^{2 (-1)^{j+n}}, base at (2j - 1) K(ell')/(2n + 1)."""
    base = _base(2 * j - 1, 2 * n + 1, theta)
    with mp.workdps(DPS):
        return base**2 if (j + n) % 2 == 0 else base**-2


def coeff_b(j, m, theta):
    """b_j of s_m at theta: (-1)^{mj} base^{(-1)^j}, base at (2j - 1) K(ell')/m."""
    base = _base(2 * j - 1, m, theta)
    with mp.workdps(DPS):
        return (-1) ** (m * j) * (base if j % 2 == 0 else 1 / base)


def optimum_values(problem, degree, theta, points):
    """Values of the optimum at z/|z| for each complex double z of ``points``, from the parameters above.

    z6: i^(1 - m) prod (z - i b_j)/(1 + i b_j z), where the middle node 2j - 1 = m
    gives the factor -1/z (j even, b = inf) or z (j odd, b = 0); z5: prod (1 + a_j z)/(z + a_j).
    """
    with mp.workdps(DPS):
        if problem == "z6":
            params = [None if 2 * j - 1 == degree else coeff_b(j, degree, theta) for j in range(1, degree + 1)]
            unit = (1, 1j, -1, -1j)[(1 - degree) % 4]
        else:
            params = [coeff_a(j, degree, theta) for j in range(1, degree + 1)]
            unit = 1
        out = []
        for z in points:
            z = mp.mpc(z.real, z.imag)
            z /= abs(z)
            value = mp.mpc(unit)
            for j, p in enumerate(params, start=1):
                if problem == "z5":
                    value *= (1 + p * z) / (z + p)
                elif p is None:
                    value *= -1 / z if j % 2 == 0 else z
                else:
                    value *= (z - 1j * p) / (1 + 1j * p * z)
            out.append(value)
        return out


def _big_target(v):
    return max(v, (mp.pi / 2) ** 2 / v)


def mp_pair(v):
    """(ell, ell') with mu(ell) = v, v an mpf.

    mu(ell) = v is the same equation as (pi/2) K(ell)/K(ell') = (pi/2)^2 / v;
    the form whose right side V is >= pi/2 is solved for its small modulus,
    with mpmath.findroot on mpmath.ellipk in y = -log of the small modulus,
    at a working precision that grows with V so that 1 - ell^2 resolves.
    The residual is mu(e^{-y}) - V, and mu(x) < log(4/x) puts its root in
    the bracket [V - log 4, V + 1 - log 4], which the Anderson-Bjorck solver
    keeps: a secant from V - log 4 alone can step off once the residual is
    down to the rounding of 1 - x^2, and never return.  The bracket ends are
    taken at the working precision: the residual at V - log 4 is only about
    -x^2/4, which a double's rounding of that end can outweigh, putting both
    ends past the root (Theta = 0.0001414213571029879 at m = 4 did).
    """
    V = _big_target(v)
    with mp.workdps(int(0.87 * V) + 30):
        V = _big_target(mp.mpf(v))

        def residual(y):
            x2 = mp.exp(-2 * y)
            return mp.pi / 2 * mp.ellipk(1 - x2) / mp.ellipk(x2) - V

        y = V - mp.log(4)
        small = mp.exp(-mp.findroot(residual, (y, y + 1), solver="anderson", tol=mp.mpf(10) ** -60))
        large = mp.sqrt(1 - small**2)
    return (small, large) if v >= mp.pi / 2 else (large, small)


def mp_reduction(ell_sq, ell_comp_sq, m):
    """(lam, lam', M = K(ell)/K(lam), V) of the degree equation at (ell, m)."""
    with mp.workdps(40):
        K = mp.ellipk(ell_sq)
        v = mp.pi / 2 * mp.ellipk(ell_comp_sq) / K / m
    lam, lam_comp = mp_pair(v)
    V = _big_target(v)
    with mp.workdps(int(0.87 * V) + 30):
        M = K / mp.ellipk(1 - lam_comp**2)
    return lam, lam_comp, M, float(V)


def direct_G(ell, m, xs):
    """([G_m(x) for x in xs], V), G_m(x) = dn(u/M, lam), u = F(asin(x/ell), ell), |x| <= ell.

    ell is a double; lam and M come from mp_reduction, so G is resolved wherever
    lam' is, subnormal included.
    """
    ell_sq, ell_comp_sq = ell_squares(ell)
    _, lam_comp, M, V = mp_reduction(ell_sq, ell_comp_sq, m)
    with mp.workdps(int(0.87 * V) + 30):
        lam_sq = 1 - lam_comp**2
        us = [mp.ellipf(mp.asin(mp.mpf(x) / mp.mpf(ell)), ell_sq) for x in xs]
        return [mp.ellipfun("dn", u / M, m=lam_sq) for u in us], V


def zolotarev_product(theta, m):
    """(Z_m, V) at ell = cos Theta by the paper's product, in 60 digits, V = 2 m log rho.

    Z_m = 4 rho^{-2m} prod_j ((1 + p^{2j}) / (1 + p^{2j-1}))^4 with p = rho^{-4m} and
    rho = exp(pi K/K'), multiplied out until a factor is 1 to the working precision.
    """
    with mp.workdps(60):
        t = mp.mpf(theta)
        V = 2 * m * mp.pi * mp.ellipk(mp.cos(t) ** 2) / mp.ellipk(mp.sin(t) ** 2)
        p = mp.exp(-2 * V)
        z = 4 * mp.exp(-V)
        j = 1
        while True:
            factor = ((1 + p ** (2 * j)) / (1 + p ** (2 * j - 1))) ** 4
            z *= factor
            if abs(factor - 1) < mp.eps:
                return z, float(V)
            j += 1


def rel_err(x, ref):
    """|x - ref| / |ref|, or |x| when ref is 0, measured at 50 digits."""
    with mp.workdps(DPS):
        ref = mp.mpf(ref)
        return float(abs(mp.mpf(x) - ref) / abs(ref)) if ref else abs(float(x))
