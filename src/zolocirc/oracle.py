"""Independent verification oracles, in numpy alone.

These deliberately avoid the elliptic and approximants modules: K comes
from the trapezoid rule on its periodic integrand, the Jacobi amplitude
from Newton's method on the incomplete integral F(phi, ell) = u, and the
degree-1 optimality check from a brute-force scan over the factor family.
The amplitude takes a float or an ndarray of u at one modulus: an array
runs Newton on all its points at once, each bit for bit its float call.
The scan reads the error as twice the argument of P(t) = a e^{it/4} +
e^{-3it/4} (on the circle the factor times e^{-it/2} is P^2/|P|^2), a
real-arithmetic form independent of the complex path it checks.  The
search is a coarse scan of SCAN_SIZE log-spaced candidates at 2048 samples
each, then nested zooms: 100 linear candidates per level at 8192 samples,
over the four steps around the previous argmin, until the step is no
coarser than the coarse bracket over SCAN_SIZE - 1 (three levels).  Each
level finds its argmin with one bound pass first: every 128th sample of
every candidate, cells of the full scan bit for bit, bounds its error from
below; the least bound candidate is scanned in full, and then only the
candidates whose bound does not exceed that error.  The argmin is the full
scan's, unchanged.  A search builds one trig grid per sample count and
passes it down; no grid outlives the call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError


@dataclass(frozen=True)
class OracleResult:
    value: float
    estimated_error: float
    evaluations: int


def _integrand(t, ell):
    """(1 - ell^2 sin^2 t)^(-1/2), as (cos^2 t + (1 - ell^2) sin^2 t)^(-1/2) to keep digits near ell = 1."""
    return 1.0 / np.sqrt(np.cos(t) ** 2 + (1.0 - ell) * (1.0 + ell) * np.sin(t) ** 2)


def _slope(phi, ell):
    """_integrand at Newton's iterates phi, squared by pow() as a float's ** 2 is (np.square rounds x * x)."""
    return 1.0 / np.sqrt(np.float_power(np.cos(phi), 2) + (1.0 - ell) * (1.0 + ell) * np.float_power(np.sin(phi), 2))


def oracle_K(ell: float) -> OracleResult:
    """K(ell) by the trapezoid rule on the pi-periodic integrand (1 - ell^2 sin^2 t)^(-1/2).

    The rule converges geometrically (Trefethen & Weideman, SIAM Review 56, 2014): averaging
    in the midpoint rule doubles the nodes until K changes by at most 4e-16 relative, the
    estimated error.  Past 2^15 nodes it raises ConvergenceError.
    """
    if not 0.0 <= ell <= 1.0 - 1e-6:
        raise DomainError(f"oracle_K requires 0 <= ell <= 1 - 1e-6, got {ell!r}")
    n, value = 4, 0.5 * math.pi * float(np.mean(_integrand(np.arange(4) * (0.25 * math.pi), ell)))
    while n < 1 << 15:  # ell = 1 - 1e-6 converges at 2^15
        midpoint = 0.5 * math.pi * float(np.mean(_integrand((np.arange(n) + 0.5) * (math.pi / n), ell)))
        n, previous, value = 2 * n, value, 0.5 * (value + midpoint)
        if abs(value - previous) <= 4e-16 * value:
            return OracleResult(value, abs(value - previous), n)
    raise ConvergenceError(f"trapezoid rule unconverged at {n} nodes for ell={ell!r}")


# Gauss-Legendre panels, 8 per quarter period shrinking by 4 toward the peak at pi/2
# (uniform ones stall Newton above ell = 0.99), then one past pi for |u| a rounding over
# 2K; the 48-point rule is taken on first use, so import leaves numpy.polynomial unloaded.
_EDGES = 0.5 * math.pi * np.r_[1.0 - 0.25 ** np.arange(8), 1.0, 1.0 + 0.25 ** np.arange(7, -1, -1), math.inf]
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(48))


def oracle_amplitude(u: float, ell: float) -> OracleResult:
    """The Jacobi amplitude phi(u), |u| <= 2 K(ell), by Newton's method on F(phi, ell) = u.

    F is odd, convex on [0, pi/2] and concave on [pi/2, pi], so Newton on F(phi) = |u| from
    pi/2 moves monotonically to the root; a step below 1e-12, the estimated error, leaves
    the next iterate at rounding level.  Past 32 steps it raises ConvergenceError.
    """
    if not 0.0 <= ell <= 1.0 - 1e-6:
        raise DomainError(f"oracle_amplitude requires 0 <= ell <= 1 - 1e-6, got {ell!r}")
    return _amplitude(u, ell, oracle_K(ell).value)


def _amplitude(u, ell: float, K: float) -> OracleResult:
    """oracle_amplitude's Newton body at a modulus already checked, its K = oracle_K(ell).value given.

    u is a float or an ndarray.  An ndarray runs Newton on all its points at once, each
    dropping out after its own last step, so each field is an array of u's shape whose
    entries are the float call's bit for bit.
    """
    x = np.asarray(u, dtype=float).ravel()
    target = np.abs(x)
    inside = target <= 2.0 * K + 1e-9  # written so that a NaN u is refused too
    if not inside.all():
        raise DomainError(f"|u| must not exceed 2K = {2 * K!r}, got {float(x[np.argmin(inside)])!r}")
    nodes, weights = _gauss_legendre()
    cells = (len(_EDGES) - 1) * nodes.size
    phi, step, steps = np.where(target == 0.0, 0.0, 0.5 * math.pi), np.zeros(x.size), np.zeros(x.size, int)
    live = np.flatnonzero(target)  # u = 0 is 0 at once
    for n in range(1, 33):
        if not live.size:
            break
        p = phi[live] if n > 1 else phi[live[:1]]  # every point starts at pi/2: one row of cells serves all
        edges = np.minimum(_EDGES, p[:, None])
        half = 0.5 * np.diff(edges)[..., None]
        cell = half * weights * _integrand(edges[:, :-1, None] + half * (1.0 + nodes), ell)
        # F per point: the pairwise sum over its contiguous cells, as np.sum took of one point's block
        delta = (np.sum(cell.reshape(len(p), cells), axis=1) - target[live]) / _slope(p, ell)
        phi[live], step[live], steps[live] = p - delta, np.abs(delta), n
        live = live[~(np.abs(delta) <= 1e-12)]
    if live.size:
        raise ConvergenceError(f"amplitude Newton iteration unconverged at u={float(x[live[0]])!r}, ell={ell!r}")
    fields = np.copysign(phi, x) + 0.0, step, steps * cells  # + 0.0 turns the -0.0 of u = -0.0 into 0.0
    return OracleResult(*(f.reshape(u.shape) if isinstance(u, np.ndarray) else f.item() for f in fields))


def oracle_sn(u: float, ell: float) -> OracleResult:
    """sn(u, ell) = sin(phi(u)) through the amplitude oracle."""
    res = oracle_amplitude(u, ell)
    return replace(res, value=math.sin(res.value))


# Candidate x sample cells per block of the scan; two float64 buffers of
# this size stay resident.  Larger blocks scan slightly faster but raise
# the peak RSS of a selftest sweep.
_BLOCK_CELLS = 1 << 14
# The argmin's bound pass reads every _BOUND_STRIDE-th sample and the last:
# a finer stride bounds closer but costs more cells.  Of 32, 64, 128 and 256,
# 128 is the fastest, within 1%, at Theta = 1.0 (where criterion 8 searches)
# and at 1.5707; 256 is faster at 0.3, 0.5 and 1.4 but over 25% slower at
# 1.5707 (tests/data/oracle_strides.py, table in CHANGES.md).
_BOUND_STRIDE = 128
# The minimax search: SCAN_SIZE log-spaced candidates a over SCAN_RANGE, then
# nested zooms of _ZOOM_SIZE linear ones over the four steps around the last
# argmin until the step is at most the coarse bracket / (SCAN_SIZE - 1); each
# level divides the step by 99/4 or more, so three levels stop, 6 times finer.
SCAN_RANGE = (1e-4, 1e6)
SCAN_SIZE = 10_000
_ZOOM_SIZE = 100


def _require_theta(theta: float) -> None:
    if not 0.0 < theta < 0.5 * math.pi:  # written so that a NaN theta is refused too
        raise DomainError(f"theta must lie in (0, pi/2), got {theta!r}")


def _sqrt_arc(theta: float, samples: int):
    """cos and sin of t/4 and 3t/4 at the scan's samples t of [-2 theta, 2 theta]."""
    ts = np.linspace(-2.0 * theta, 2.0 * theta, samples)
    return np.cos(0.25 * ts), np.sin(0.25 * ts), np.cos(0.75 * ts), np.sin(0.75 * ts)


def _reduce_ratios(a, c1, s1, c3, s3, reduce, dtype) -> np.ndarray:
    """reduce(|Im P|/|Re P|, axis=1) of every candidate a, _BLOCK_CELLS cells at a time."""
    samples = len(c1)
    rows = max(1, min(len(a), _BLOCK_CELLS // samples))
    re = np.empty((rows, samples))
    im = np.empty((rows, samples))
    out = np.empty(len(a), dtype=dtype)
    with np.errstate(divide="ignore"):
        for lo in range(0, len(a), rows):
            block = a[lo:lo + rows, None]
            r, q = re[: len(block)], im[: len(block)]
            np.multiply(block, c1, out=r)
            r += c3
            np.multiply(block, s1, out=q)
            q -= s3
            np.divide(q, r, out=q)
            np.abs(q, out=q)
            out[lo:lo + len(block)] = reduce(q, axis=1)
    return out


def _scan_max_phase_errors(a: np.ndarray, arc) -> np.ndarray:
    """Refined max phase error of every candidate a on the dense sqrt-arc grid arc = _sqrt_arc(...).

    With P(t) = a e^{it/4} + e^{-3it/4}, the error factor on z = e^{it}
    is (1 + a z)/(z + a) e^{-it/2} = P^2/|P|^2, so the wrapped |error| is
    2 atan2(|Im P|, |Re P|).  The peak sample of each candidate is the
    argmax of the monotone ratio |Im P|/|Re P|, found block by block
    without any transcendental call; atan2 runs only at the peak and its
    two neighbours, which feed the parabolic refinement.
    """
    c1, s1, c3, s3 = arc
    samples = len(c1)
    peak = _reduce_ratios(a, c1, s1, c3, s3, np.argmax, np.intp)

    def error_at(i):
        return 2.0 * np.arctan2(np.abs(a * s1[i] - s3[i]), np.abs(a * c1[i] + c3[i]))

    inner = np.clip(peak, 1, samples - 2)
    y0, y1, y2 = error_at(inner - 1), error_at(inner), error_at(inner + 1)
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = np.where(denom == 0.0, y1, y1 - 0.125 * (y2 - y0) ** 2 / denom)
    edge = (peak == 0) | (peak == samples - 1)
    return np.where(edge, error_at(peak), refined)


def _argmin_max_phase_error(a: np.ndarray, arc) -> int:
    """int(np.argmin(_scan_max_phase_errors(a, arc))), with few candidates scanned in full.

    The bound pass reads each candidate's ratio at every _BOUND_STRIDE-th
    sample and the last, indexed from the full grid's arrays, so each is a
    cell of its full scan bit for bit; 2 atan of their max is then at most
    the candidate's refined error, up to a few ulps (the parabola through
    the peak only raises it).  The least bound candidate is scanned in full
    for `best`; any candidate whose bound exceeds best by more than 1e-12
    relative has a larger error and cannot be the argmin.  The rest, NaN
    bounds among them, are scanned in full, and the first argmin among them
    in their original order is returned.
    """
    sub = np.append(np.arange(0, len(arc[0]), _BOUND_STRIDE), len(arc[0]) - 1)
    bound = 2.0 * np.arctan(_reduce_ratios(a, *(part[sub] for part in arc), np.max, float))
    i = int(np.argmin(bound))
    best = _scan_max_phase_errors(a[i:i + 1], arc)[0]
    kept = np.flatnonzero(~(bound > best + 1e-12 * abs(best)))
    return int(kept[np.argmin(_scan_max_phase_errors(a[kept], arc))])


def degree1_max_phase_error(a: float, theta: float, samples: int = 8192) -> float:
    """Max over the sqrt arc of |arg((1 + a e^{it})/(e^{it} + a) e^{-it/2})|.

    Dense sampling with a parabolic refinement of the peak; self-contained
    on purpose (this is the measuring stick of the brute-force oracle).
    theta must lie in (0, pi/2), a be positive and finite, and samples be
    an integer of at least 3; anything else is a DomainError.
    """
    _require_theta(theta)
    if not 0.0 < a < math.inf:  # written so that a NaN a is refused too
        raise DomainError(f"a must be positive and finite, got {a!r}")
    if not isinstance(samples, (int, np.integer)) or samples < 3:  # a bool is an int below 3
        raise DomainError(f"samples must be an integer of at least 3, got {samples!r}")
    return float(_scan_max_phase_errors(np.array([a], dtype=float), _sqrt_arc(theta, samples))[0])


def oracle_minimax_degree1(theta: float) -> float:
    """Brute-force argmin over a > 0 of the degree-1 sqrt phase error.

    A log-spaced scan over SCAN_RANGE (2048 samples per a), then nested
    zooms of 100 linear candidates (8192 samples per a) over the four steps
    around the previous argmin, clipped at the ends, until the step is no
    coarser than the coarse bracket over SCAN_SIZE - 1 (three levels);
    returns the last argmin.  It relies on the error curve being unimodal
    near the coarse minimum.  Each level's argmin comes from
    _argmin_max_phase_error: a bound pass over every 128th sample of every
    candidate, then full scans of only the candidates the bound cannot rule
    out; the argmin, and so the result, is that of the full scan, bit for
    bit.  The trig grids are built once, at 2048 and at 8192 samples, and
    passed to every level.
    """
    _require_theta(theta)
    grid = np.exp(np.linspace(math.log(SCAN_RANGE[0]), math.log(SCAN_RANGE[1]), SCAN_SIZE))
    i = _argmin_max_phase_error(grid, _sqrt_arc(theta, 2048))
    finest = (grid[min(i + 2, SCAN_SIZE - 1)] - grid[max(i - 2, 0)]) / (SCAN_SIZE - 1)
    arc = _sqrt_arc(theta, 8192)
    while True:
        grid = np.linspace(grid[max(i - 2, 0)], grid[min(i + 2, len(grid) - 1)], _ZOOM_SIZE)
        i = _argmin_max_phase_error(grid, arc)
        if grid[1] - grid[0] <= finest:
            return float(grid[i])
