"""Independent verification oracles, in numpy alone.

These deliberately avoid the elliptic and approximants modules: K comes
from the trapezoid rule on its periodic integrand, the Jacobi amplitude
from Newton's method on the incomplete integral F(phi, ell) = u, and the
degree-1 optimality check from a brute-force scan over the factor family.
The scan reads the error as twice the argument of P(t) = a e^{it/4} +
e^{-3it/4} (on the circle the factor times e^{-it/2} is P^2/|P|^2), a
real-arithmetic form independent of the complex path it checks.  The
search is a coarse scan of SCAN_SIZE log-spaced candidates at 2048 samples
each, then nested zooms: 100 linear candidates per level at 8192 samples,
over the four steps around the previous argmin, until the step is no
coarser than the coarse bracket over SCAN_SIZE - 1 (three levels).
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
    K = oracle_K(ell).value
    if not abs(u) <= 2.0 * K + 1e-9:  # written so that a NaN u is refused too
        raise DomainError(f"|u| must not exceed 2K = {2 * K!r}, got {u!r}")
    if u == 0.0:
        return OracleResult(0.0, 0.0, 0)
    (nodes, weights), phi = _gauss_legendre(), 0.5 * math.pi
    for steps in range(1, 33):
        edges = np.minimum(_EDGES, phi)
        half = 0.5 * np.diff(edges)[:, None]
        F = float(np.sum(half * weights * _integrand(edges[:-1, None] + half * (1.0 + nodes), ell)))
        step = (F - abs(u)) / float(_integrand(phi, ell))
        phi -= step
        if abs(step) <= 1e-12:
            return OracleResult(math.copysign(phi, u), abs(step), steps * half.size * nodes.size)
    raise ConvergenceError(f"amplitude Newton iteration unconverged at u={u!r}, ell={ell!r}")


def oracle_sn(u: float, ell: float) -> OracleResult:
    """sn(u, ell) = sin(phi(u)) through the amplitude oracle."""
    res = oracle_amplitude(u, ell)
    return replace(res, value=math.sin(res.value))


# Candidate x sample cells per block of the scan; two float64 buffers of
# this size stay resident.  Larger blocks scan slightly faster but raise
# the peak RSS of a selftest sweep.
_BLOCK_CELLS = 1 << 14
# The minimax search: SCAN_SIZE log-spaced candidates a over SCAN_RANGE, then
# nested zooms of _ZOOM_SIZE linear ones over the four steps around the last
# argmin until the step is at most the coarse bracket / (SCAN_SIZE - 1); each
# level divides the step by 99/4 or more, so three levels stop, 6 times finer.
SCAN_RANGE = (1e-4, 1e6)
SCAN_SIZE = 10_000
_ZOOM_SIZE = 100


def _scan_max_phase_errors(a: np.ndarray, theta: float, samples: int) -> np.ndarray:
    """Refined max phase error of every candidate a on the dense sqrt-arc grid.

    With P(t) = a e^{it/4} + e^{-3it/4}, the error factor on z = e^{it}
    is (1 + a z)/(z + a) e^{-it/2} = P^2/|P|^2, so the wrapped |error| is
    2 atan2(|Im P|, |Re P|).  The peak sample of each candidate is the
    argmax of the monotone ratio |Im P|/|Re P|, found block by block
    without any transcendental call; atan2 runs only at the peak and its
    two neighbours, which feed the parabolic refinement.
    """
    ts = np.linspace(-2.0 * theta, 2.0 * theta, samples)
    c1, s1 = np.cos(0.25 * ts), np.sin(0.25 * ts)
    c3, s3 = np.cos(0.75 * ts), np.sin(0.75 * ts)
    rows = max(1, min(len(a), _BLOCK_CELLS // samples))
    re = np.empty((rows, samples))
    im = np.empty((rows, samples))
    peak = np.empty(len(a), dtype=np.intp)
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
            peak[lo:lo + len(block)] = np.argmax(q, axis=1)

    def error_at(i):
        return 2.0 * np.arctan2(np.abs(a * s1[i] - s3[i]), np.abs(a * c1[i] + c3[i]))

    inner = np.clip(peak, 1, samples - 2)
    y0, y1, y2 = error_at(inner - 1), error_at(inner), error_at(inner + 1)
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = np.where(denom == 0.0, y1, y1 - 0.125 * (y2 - y0) ** 2 / denom)
    edge = (peak == 0) | (peak == samples - 1)
    return np.where(edge, error_at(peak), refined)


def degree1_max_phase_error(a: float, theta: float, samples: int = 8192) -> float:
    """Max over the sqrt arc of |arg((1 + a e^{it})/(e^{it} + a) e^{-it/2})|.

    Dense sampling with a parabolic refinement of the peak; self-contained
    on purpose (this is the measuring stick of the brute-force oracle).
    """
    if samples < 3:
        raise DomainError(f"samples must be at least 3, got {samples!r}")
    return float(_scan_max_phase_errors(np.array([a], dtype=float), theta, samples)[0])


def oracle_minimax_degree1(theta: float) -> float:
    """Brute-force argmin over a > 0 of the degree-1 sqrt phase error.

    A log-spaced scan over SCAN_RANGE (2048 samples per a), then nested
    zooms of 100 linear candidates (8192 samples per a) over the four steps
    around the previous argmin, clipped at the ends, until the step is no
    coarser than the coarse bracket over SCAN_SIZE - 1 (three levels);
    returns the last argmin.  It relies on the error curve being unimodal
    near the coarse minimum.
    """
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta!r}")
    grid = np.exp(np.linspace(math.log(SCAN_RANGE[0]), math.log(SCAN_RANGE[1]), SCAN_SIZE))
    i = int(np.argmin(_scan_max_phase_errors(grid, theta, 2048)))
    finest = (grid[min(i + 2, SCAN_SIZE - 1)] - grid[max(i - 2, 0)]) / (SCAN_SIZE - 1)
    while True:
        grid = np.linspace(grid[max(i - 2, 0)], grid[min(i + 2, len(grid) - 1)], _ZOOM_SIZE)
        i = int(np.argmin(_scan_max_phase_errors(grid, theta, 8192)))
        if grid[1] - grid[0] <= finest:
            return float(grid[i])
