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
its pair (u, v): R gives (a, 1) and S (1, -i b), with a = inf giving (1, 0),
which is z, and b = inf (0, i), which is -1/z; H gives (1, -c).  Evaluation,
zeros -v/u, poles -conj(u)/conj(v) and the exact type read only the pairs.

Also provided: evaluation of the underlying real pair (F_m, G_m) by the
direct elliptic formula and by the rational product identities, the
classical scaled sign approximant built from F_m, and the circle lift
s = F + i sign(Im z)^m G, through which the optima that ``build_s`` and
``build_r`` return are evaluated on the unit circle.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    DegreeReduction,
    _nome,
    _quarter_nodes,
    _sncndn,
    inverse_sn,
    require_theta,
    solve_lambda,
)
from .errors import DomainError, PoleError, _between, _instance, require_degree

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
_DEN_TINY = 1e-300
_ON_CIRCLE = 8.0 * sys.float_info.epsilon  # |x^2 + y^2 - 1| at a circle point x + i y
# ``_lift`` takes an array's odd nodes in (nodes x points) blocks, of at most _BLOCK_CELLS cells, when it
# has at most _BLOCK_POINTS points and at least _BLOCK_NODES odd nodes: where the crossover table in
# CHANGES.md puts the blocks ahead of the sweep (README's two-copy recipe times a change to either)
_BLOCK_POINTS = 1024
_BLOCK_NODES = 8
_BLOCK_CELLS = 1 << 15


class Family(enum.Enum):
    R_FAMILY = "R"  # (1 + a z)/(z + a), a > 0; a = 0 is 1/z, a = inf is z
    S_FAMILY = "S"  # (z - i b)/(1 + i b z); b = 0 is z, b = inf is -1/z
    H_FAMILY = "H"  # (z - c)/(1 - c z), c in (-1, 1)

    def pair(self, p: float) -> tuple:
        """Coefficients (u, v) of the factor (u z + v)/(conj(v) z + conj(u))."""
        if self is Family.R_FAMILY:
            return (1.0, 0.0) if math.isinf(p) else (p, 1.0)
        if self is Family.S_FAMILY:
            # -(i b), not (-i) b: z + v then rounds exactly as z - i b does
            return (0.0, 1j) if math.isinf(p) else (1.0, -(1j * p))
        return 1.0, -p


@dataclass(frozen=True)
class UnimodularRational:
    """i^q * prod of one-parameter factors, |value| = 1 on |z| = 1.

    ``factors`` holds the family's real parameters; a zero or pole at z = 0
    is an S factor, b = 0 for z and b = math.inf for -1/z.  Every operation
    reads the table of (u, v, conj(v), conj(u)) that ``Family.pair``
    derives from them.

    ``build_s`` and ``build_r`` record on their output the optimum it is,
    (M, ell, ell', orientation, problem), in a private ``_optimum`` field,
    and the reciprocal of ``build_s``'s output keeps it with orientation -1.
    The record alone makes an optimum, to circle calls and phase reports:
    a value-equal copy (the constructor, ``dataclasses.replace``, 1/(1/s_m))
    has none, as quarter turns, compositions and 1/r_n have none, and
    equality, hashing and repr never read it.
    """

    quarter_turns: int
    factors: tuple[float, ...]
    family: Family
    _pairs: tuple = field(init=False, repr=False, compare=False)
    _optimum: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _fraction: ZolotarevFraction | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        pairs = tuple(self.family.pair(p) for p in self.factors)
        object.__setattr__(self, "_pairs", tuple((u, v, v.conjugate(), u.conjugate()) for u, v in pairs))

    def __call__(self, z):
        """Value at a Python scalar or an ndarray of points.

        A recorded optimum with factors whose points all lie on the unit
        circle, each z = x + i y with |x^2 + y^2 - 1| <= 8 eps, is read
        through the F/G lift of ``_optimum_fraction()``: its value there is
        the optimum's at z/|z|.  A scalar enters the lift as a one-point
        array and leaves as a complex, bit for bit the array's value.  Any
        other rational or point set, and the constants s_0 = i and r_0 = 1
        (which the lift would round), takes the product of the factors: a
        scalar raises PoleError at a vanishing denominator (with the
        factor's index), an array yields inf/nan there.  An ndarray gives an
        ndarray of its shape, a 0-d one with its one-point call's value.  A
        list, None, a string, an int past the doubles and a string or object
        ndarray raise DomainError.
        """
        array = isinstance(z, np.ndarray)
        z = _point(z)
        if self._optimum is not None and self.factors:
            x, y = z.real, z.imag
            near = abs(x * x + y * y - 1.0) <= _ON_CIRCLE
            if near.all() if array else near:  # a scalar, or a 0-d array, enters the lift as one point
                _, _, _, orientation, problem = self._optimum
                w = _lifted(self._optimum_fraction(), np.atleast_1d(x), np.atleast_1d(y), orientation, problem == "z5")
                return w.reshape(z.shape) if array else complex(w[0])
        unit = _I_POWERS[self.quarter_turns % 4]
        if array:
            w = np.atleast_1d(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                return self._product(w, np.full(w.shape, unit, dtype=complex), False).reshape(z.shape)
        return self._product(z, unit, True)

    def _optimum_fraction(self) -> ZolotarevFraction:
        """The recorded optimum's ``ZolotarevFraction`` at M, built on first use and kept in ``_fraction``."""
        if self._fraction is None:
            object.__setattr__(self, "_fraction", ZolotarevFraction.from_ell(*self._optimum[:3]))
        return self._fraction

    def _product(self, z, w, raise_poles: bool):
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
        inside the family.  The reciprocal of ``build_s``'s output is the
        second optimum, the conjugate lift, and keeps the record with
        orientation -1 and the fraction built so far, which has the same nodes.
        """
        if self.family is Family.H_FAMILY:
            raise DomainError("reciprocal of an H-family product is not factored")
        inv = tuple(math.inf if p == 0.0 else 0.0 if math.isinf(p) else 1.0 / p for p in self.factors)
        turns = 2 * len(inv) if self.family is Family.S_FAMILY else 0
        out = UnimodularRational((turns - self.quarter_turns) % 4, inv, self.family)
        if self._optimum is not None and self._optimum[3:] == (1, "z6"):
            object.__setattr__(out, "_optimum", (*self._optimum[:3], -1, "z6"))
            object.__setattr__(out, "_fraction", self._fraction)
        return out

    def _regular(self):
        """Pairs with a zero and a pole off the origin (u != 0 and v != 0)."""
        return [pair for pair in self._pairs if pair[0] != 0 and pair[1] != 0]

    def _origin_order(self) -> int:
        """Net zero order at z = 0: a v = 0 factor is z, a u = 0 factor is 1/z."""
        return sum((v == 0) - (u == 0) for u, v, _, _ in self._pairs)

    def exact_type(self) -> tuple[int, int]:
        """(numerator degree, denominator degree) after cancelling at z = 0."""
        return len(self.zeros()), len(self.poles())

    def zeros(self) -> tuple[complex, ...]:
        """Finite zeros -v/u, with the net multiplicity at z = 0."""
        out = [complex(-v / u) for u, v, _, _ in self._regular()]
        return tuple([0j] * max(self._origin_order(), 0) + out)

    def poles(self) -> tuple[complex, ...]:
        """Finite poles -conj(u)/conj(v), with the net multiplicity at z = 0."""
        out = [complex(-cu / cv) for _, _, cv, cu in self._regular()]
        return tuple([0j] * max(-self._origin_order(), 0) + out)


def _point(z):
    """complex(z) of a number, float64 of a real ndarray (zeros keep their signs), complex128 of a complex one."""
    if isinstance(z, np.ndarray) and z.dtype.kind in "biufc":
        with np.errstate(over="ignore"):  # an extended-precision value past the doubles is inf, as complex() makes it
            return z.astype(complex if z.dtype.kind == "c" else float, copy=False)
    try:
        return complex(None if isinstance(z, (str, np.ndarray)) else z)  # complex() would parse a string
    except (TypeError, OverflowError):  # an int past the doubles overflows, and may have no repr
        raise DomainError(f"an evaluation point is a number or an ndarray, got a {type(z).__name__}") from None


@functools.lru_cache(maxsize=1)
def _nodes(M: int, ell: float, ell_comp: float) -> tuple:
    """(sn, cn, dn)(k K(ell')/M, ell'), k = 0..2M-1: ``_quarter_nodes`` to M, then node 2M - k with cn negated.

    One table is kept: a build's m coefficient reads and its first circle call share it.
    """
    nodes = _quarter_nodes(M, ell_comp, ell, _nome(ell, ell_comp))
    return tuple(nodes + [(sn, -cn, dn) for sn, cn, dn in nodes[M - 1 : 0 : -1]])


def _base(k: int, M: int, ell: float, ell_comp: float) -> float:
    """(ell sn + dn)/cn at node k of ``_nodes``, the root of both a_j and b_j."""
    sn, cn, dn = _nodes(M, ell, ell_comp)[k]
    return (ell * sn + dn) / cn


def coeff_a(j: int, n: int, theta: float) -> float:
    """Parameter a_j > 0 of the j-th sqrt-approximant factor (1 + a_j z)/(z + a_j)."""
    n = require_degree(n, 1, "n")
    j = require_degree(j, 1, "j", n)
    base = _base(2 * j - 1, 2 * n + 1, *require_theta(theta))
    return base**2 if (j + n) % 2 == 0 else base**-2


def build_r(n: int, theta: float) -> UnimodularRational:
    """Optimal unimodular approximant of sqrt(z) on the arc of half-width 2 Theta."""
    n = require_degree(n, 0)
    ell, ell_comp = require_theta(theta)
    params = tuple(coeff_a(j, n, theta) for j in range(1, n + 1))
    r = UnimodularRational(0, params, Family.R_FAMILY)
    # r_n(z^2) = z s_M(z)^{-(-1)^n}, M = 2n + 1
    object.__setattr__(r, "_optimum", (2 * n + 1, ell, ell_comp, -(-1) ** n, "z5"))
    return r


def coeff_b(j: int, m: int, theta: float) -> float:
    """Parameter b_j of the j-th sign-approximant factor (z - i b_j)/(1 + i b_j z).

    Returns math.inf exactly at the node where cn vanishes (2j - 1 = m)
    with positive exponent, and 0.0 there with negative exponent; the
    (-1)^{mj} prefactor is folded into the sign.
    """
    m = require_degree(m, 1, "m")
    j = require_degree(j, 1, "j", m)
    ell, ell_comp = require_theta(theta)
    sign = -1.0 if (m * j) % 2 else 1.0
    if 2 * j - 1 == m:
        # cn((2j-1)/m K', ell') = cn(K', ell') = 0: the ratio degenerates.
        return math.inf if j % 2 == 0 else 0.0
    base = _base(2 * j - 1, m, ell, ell_comp)
    return sign * (base if j % 2 == 0 else 1.0 / base)


def build_s(m: int, theta: float) -> UnimodularRational:
    """Optimal unimodular approximant of sign(z) on the arc pair of half-width Theta."""
    m = require_degree(m, 0)
    ell, ell_comp = require_theta(theta)
    params = tuple(coeff_b(j, m, theta) for j in range(1, m + 1))
    s = UnimodularRational((1 - m) % 4, params, Family.S_FAMILY)
    object.__setattr__(s, "_optimum", (m, ell, ell_comp, 1, "z6"))
    return s


@dataclass(frozen=True)
class ZolotarevFraction:
    """F_m/G_m evaluation data at a modulus: F = lam sn(u/M, lam), G = dn(u/M, lam).

    The node constants feed the rational product identities: cot2_* are
    cn^2/sn^2 at the even/odd nodes k K(ell')/m, k = 1..m-1, and dn2_odd
    is dn^2 at the odd ones, all at modulus ell' = complement of ell.
    Each object builds the table its F/G kernel reads once, in a private
    ``_kernel`` field left out of ``__eq__`` and ``repr``: (ell, lam, M,
    (cot2_even, cot2_odd) pairs, the trailing odd node of even m or None,
    the far-field limit (1 - 8 eps) sqrt(DBL_MAX / max(c, 1)) for the largest
    node c, below which rounding cannot carry s * s * c past DBL_MAX,
    (cot2_even or None, cot2_odd, dn2_odd) per odd node, None at the
    trailing one, F's scale 1.0).  F's float branch alone reads the pairs and
    the scale, all else ``_lift``'s triples.  Its node blocks (``_node_block``)
    read the same constants as arrays, ``_columns``, built on the first block
    and kept: a fraction that never takes one (a scalar, a small degree, a
    large batch) pays nothing.
    """

    reduction: DegreeReduction
    cot2_even: tuple[float, ...]
    cot2_odd: tuple[float, ...]
    dn2_odd: tuple[float, ...]
    _kernel: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        odd, even = self.cot2_odd, self.cot2_even
        tail = odd[-1] if len(odd) > len(even) else None
        top = max(odd[0], 1.0) if odd else 1.0  # cot^2 falls with k: the first odd node is the largest
        table = (
            self.reduction.modulus.ell,
            self.reduction.lam,
            self.reduction.M,
            tuple(zip(even, odd)),
            tail,
            (1.0 - 8.0 * sys.float_info.epsilon) * math.sqrt(sys.float_info.max / top),
            tuple(itertools.zip_longest(even, odd, self.dn2_odd)),
            1.0,  # F times 1.0 is F, bit for bit
        )
        object.__setattr__(self, "_kernel", table)

    @functools.cached_property
    def _columns(self) -> tuple:
        """(cot2_even, cot2_odd, dn2_odd) as arrays, the node columns of ``_node_block``."""
        return np.array(self.cot2_even), np.array(self.cot2_odd), np.array(self.dn2_odd)

    @classmethod
    def from_ell(cls, m: int, ell: float, ell_comp: float | None = None) -> "ZolotarevFraction":
        # degree, window, then complement: a modulus that rounds to 1.0 is past ELL_MAX like any other
        reduction = solve_lambda(ell, m, ell_comp)
        m, modulus = reduction.m, reduction.modulus
        nodes = _nodes(m, modulus.ell, modulus.ell_comp)[1:m] if m else ()
        cot2 = tuple((cn / sn) ** 2 for sn, cn, _ in nodes)
        dn2_odd = tuple(dn**2 for _, _, dn in nodes[::2])
        return cls(reduction, cot2[1::2], cot2[::2], dn2_odd)

    def F(self, x):
        """F_m(x) alone, at a float or an ndarray, for any real x (F is rational in x).

        F = lam (s/M) prod (1 + s^2 c_e)/(1 + s^2 c_o), s = x/ell, with the
        trailing odd node of even m dividing last.  Every ratio pairs the even
        node 2k with the odd node 2k - 1 below it, so it lies in (c_e/c_o, 1]
        and the running product stays finite at any degree.  x passes
        ``_real``, and the table's scale multiplies last.  A float below the
        kernel's far-field limit on |s| takes a branch of its own, in one
        frame; an ndarray, a far float and a NaN (as a one-point array) take
        ``_lift`` on the real line, which holds the far-field rule.  Both do
        the same operations in the same order, and numpy's float64 + * / round
        as Python's do, so a float and an ndarray agree bit for bit.
        """
        ell, lam, M, ratios, tail, limit, _, scale = self._kernel
        if type(x) is float or type(x := _real(x)) is float:
            s = x / ell
            if abs(s) <= limit:  # False at a NaN
                s2 = s * s
                f = lam * (s / M)
                for ce, co in ratios:
                    f *= (1.0 + s2 * ce) / (1.0 + s2 * co)
                if tail is not None:
                    f /= 1.0 + s2 * tail
                return scale * f
        with np.errstate(over="ignore"):  # an array overflows to inf as a float does: without a warning
            f = scale * _lift(getattr(self, "fraction", self), np.array([x]) if type(x) is float else x, None)[0]
        return f.item() if type(x) is float else f


def _real(x):
    """float(x) of a real number, float64 of a real ndarray: the real line's entry rule, with DomainError otherwise."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "biuf":
        with np.errstate(over="ignore"):  # an extended-precision value past the doubles is inf, as float() makes it
            return x.astype(float, copy=False)
    if isinstance(x, (float, np.floating, np.integer, np.bool_)) or isinstance(x, int) and abs(x) <= sys.float_info.max:
        return float(x)
    raise DomainError(f"a point of the real line is a real number or a real ndarray, got a {type(x).__name__}")


def eval_F_product(zf: ZolotarevFraction, x):
    """(F_m(x), G_m(x)) through the rational product identities, at a float or an ndarray.

    This is the circle lift ``_lift`` at y = sqrt(1 - x^2): F is rational in
    x and defined for every real x, and G is prod (1 - s^2 d)/(1 + s^2 c_o)
    over the odd nodes, s = x/ell, times y for odd m, which therefore
    requires |x| <= 1 (DomainError otherwise, for any point of an array).
    x passes ``_real``.  A float (as a one-point array) gives floats, an ndarray arrays, bitwise equal.
    """
    x = _real(x)
    odd, xs = _instance(zf, ZolotarevFraction, "zf").reduction.m % 2, np.array([x]) if type(x) is float else x
    if odd and not np.all(np.abs(xs) <= 1.0):
        raise DomainError(f"odd-degree G needs |x| <= 1, got |x| = {float(np.max(np.abs(xs)))!r}")
    with np.errstate(over="ignore"):  # an array overflows to inf as a float does, as in F
        F, G = _lift(zf, xs, np.sqrt((1.0 - xs) * (1.0 + xs)) if odd else None)
    return (F, G) if xs is x else (F.item(), G.item())


def eval_F_direct(zf: ZolotarevFraction, x: float) -> tuple[float, float]:
    """(F_m(x), G_m(x)) = (lam sn(u/M, lam), dn(u/M, lam)), u = sn^{-1}(x/ell, ell).

    The real elliptic branch covers |x| <= ell; for |x| in (ell, 1] the
    value is reached through the product identities, which continue the
    same composed map without complex arguments.  u/M in units of K(lam) is u in units
    of K(ell), so lam = 1.0 works; lam' = 0 raises PrecisionError (m > 606 at ell 0.5).
    """
    if not (_between(x, -1.0, 1.0, "x") or abs(x) == 1.0):
        raise DomainError(f"eval_F_direct requires |x| <= 1, got {x!r}")
    red = _instance(zf, ZolotarevFraction, "zf").reduction
    mod = red.modulus
    if abs(x) <= mod.ell:
        u = inverse_sn(x / mod.ell, mod.ell)
        sn, _, dn = _sncndn(u, mod.K, red.lam, red.lam_comp, red.nome)
        return red.lam * sn, dn
    return eval_F_product(zf, x)


@dataclass(frozen=True)
class Z4Approximant:
    """Zolotarev's scaled sign approximant (2/(1+lam)) F_m(x; ell) on [-1,1].

    Calling it evaluates F alone, at a float or an ndarray, for any real x
    (F is rational, so |x| > 1 is accepted at either parity).  The call is
    ``ZolotarevFraction.F`` on the fraction's table with ``scale`` last: one frame.
    """

    fraction: ZolotarevFraction
    scale: float
    deviation: float  # max |approx - sign| on [-1,-ell] u [ell,1] = (1-lam)/(1+lam)
    _kernel: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_kernel", self.fraction._kernel[:-1] + (self.scale,))

    __call__ = ZolotarevFraction.F


def z4_solution(m: int, ell: float) -> Z4Approximant:
    m = require_degree(m, 1)
    zf = ZolotarevFraction.from_ell(m, ell)
    red = zf.reduction
    one_plus = 1.0 + red.lam
    # (1 - lam)/(1 + lam) without cancellation: 1 - lam = lam'^2/(1 + lam)
    deviation = red.lam_comp**2 / (one_plus * one_plus)
    return Z4Approximant(zf, 2.0 / one_plus, deviation)


def eval_s_via_FG(m: int, theta: float, z):
    """s_m at points z within 1e-9 of the unit circle, ``build_s(m, theta)(z)``: DomainError at any other or NaN z.

    The built optimum's one circle rule applies: z that all count as on the
    circle take the lift F(x) + i sign(Im z)^m G(x), any other z the product.
    """
    s = build_s(m, theta)  # validates m and theta before the points
    z = _point(z)
    off = np.abs(np.abs(z) - 1.0)
    if not np.all(off <= 1e-9):
        raise DomainError(f"eval_s_via_FG requires |z| = 1, got ||z| - 1| = {float(np.max(off))!r}")
    return s(z)


def _lifted(zf: ZolotarevFraction, x, y, orientation: int, root: bool):
    """s_M (orientation +1) or 1/s_M (-1) at circle points x + i y, or with ``root`` r_n = z s_M(z)^orientation.

    The root is the principal z = sqrt(x + i y), in a real form without
    cancellation: a = sqrt((1 + |x|)/2) and b = y/(2a) give z = a + i b for
    x >= 0 and |b| + i copysign(a, y) otherwise.  x and y are float arrays
    of one shape, and the value a complex array of that shape.
    """
    if root:
        a = np.sqrt((1.0 + abs(x)) / 2.0)
        b = y / (2.0 * a)
        right = x >= 0.0
        x, y = np.where(right, a, abs(b)), np.where(right, b, np.copysign(a, y))
    F, G = _lift(zf, x, y)
    G = orientation * G
    re, im = (x * F - y * G, y * F + x * G) if root else (F, G)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _lift(zf: ZolotarevFraction, x, y):
    """(F(x), sign(y)^m G(x)), the real and imaginary parts of s_m at circle points x + i y.

    On the circle sign(y) sqrt(1 - x^2) = y, so odd m multiplies G's odd-node
    product by y itself: no square root loses digits near x = +-1.  y None is
    the real line, any real x at either parity, and G is then without odd m's
    y.  F and G share the denominators 1 + s^2 c_o, and F multiplies in the
    order of ``ZolotarevFraction.F``'s float branch, bit for bit.  Past the
    far-field limit on |s| the ratios are taken in 1/s^2: even m leads with
    1/s, and odd m takes P lam / M x / ell for the product P of its ratios,
    x last, which overflows only where F does.  Circle points, |x| <= 1 +
    1e-9, have |s| < 1.0e8 since ell > ELL_MIN, while the limit is about
    1.3e154 K(ell')/m (7.0e152 at m = 40, Theta = 1.0), so the test is
    skipped there.  x and y are ndarrays (a scalar comes as a one-point
    array).  A nonempty array of at most ``_BLOCK_POINTS`` points with at
    least ``_BLOCK_NODES`` odd nodes takes them as blocks (``_node_block``),
    any other array sweeps them in preallocated buffers: both orders do the
    same operations in the same order, so they agree bit for bit.
    """
    ell, lam, M, _, tail, limit, nodes, _ = zf._kernel
    s = x / ell
    one, lead = 1.0, s
    # the mask of the points past the limit, None where there is none (always on the circle)
    far = mask if y is None and (mask := np.abs(s) > limit).any() else None
    if far is not None:  # ratios in 1/s^2: even m leads with 1/s, odd m with 1, to take lam x/(M ell) last
        u = 1.0 / np.where(far, s, 1.0)
        lead, one, s = np.where(far, u, s), np.where(far, u * u, 1.0), np.where(far, 1.0, s)
    s2 = s * s
    f = lam * (lead / M)
    if far is not None and tail is None:
        f = np.where(far, 1.0, f)
    g = 1.0 + 0.0 * s2  # 1 in the shape of x, NaN at a NaN x; m = 0 has no odd node
    if 0 < s2.size <= _BLOCK_POINTS and len(nodes) >= _BLOCK_NODES:
        f, g = _node_block(f, g, one, s2, tail is not None, zf._columns)
    else:
        den, num = np.empty_like(s2), np.empty_like(s2)
        for ce, co, d in nodes:
            np.add(one, np.multiply(s2, co, out=den), out=den)
            if ce is None:
                f /= den
            else:
                f *= np.divide(np.add(one, np.multiply(s2, ce, out=num), out=num), den, out=num)
            g *= np.divide(np.subtract(one, np.multiply(s2, d, out=num), out=num), den, out=num)
    if far is not None and tail is None:  # F_0 = 0: lam = 0 takes x's sign alone, so that +-inf gives +-0.0
        f = np.where(far, f * lam / M * (x if lam else np.sign(x)) / ell, f)
    if y is not None and zf.reduction.m % 2:
        g *= y
    return f, g


def _node_block(f, g, one, s2, tail: bool, columns):
    """``_lift``'s node sweep on an array s2, up to ``_BLOCK_CELLS // s2.size`` odd nodes per block.

    Each block forms its factors 1 + s^2 c_o, 1 + s^2 c_e and 1 - s^2 d as
    (nodes x points) arrays against the node columns of ``columns`` and takes
    the ratios in place.  ``np.multiply.reduce`` over the rows [f, ratio_1,
    ..., ratio_k] multiplies in row order, so F and G take the sweep's
    products bit for bit, and each block carries them into the next; the
    trailing odd node of even m (``tail``) divides F last.
    """
    ce, co, d = (c.reshape((-1,) + (1,) * s2.ndim) for c in columns)
    step = max(_BLOCK_CELLS // s2.size, 1)
    rows = np.empty((min(step, len(co)) + 1,) + s2.shape)
    dens = np.empty_like(rows[1:])
    for a in range(0, len(co), step):
        k = len(co[a : a + step])
        den = np.add(one, np.multiply(co[a : a + step], s2, out=dens[:k]), out=dens[:k])
        ratios = rows[1 : k + 1]
        np.divide(np.subtract(one, np.multiply(d[a : a + step], s2, out=ratios), out=ratios), den, out=ratios)
        rows[0] = g
        g = np.multiply.reduce(rows[: k + 1], axis=0)
        k = len(ce[a : a + step])  # the trailing odd node has no even partner
        ratios = rows[1 : k + 1]
        np.divide(np.add(one, np.multiply(ce[a : a + step], s2, out=ratios), out=ratios), den[:k], out=ratios)
        rows[0] = f
        f = np.multiply.reduce(rows[: k + 1], axis=0)
    if tail:
        f /= den[-1]
    return f, g
