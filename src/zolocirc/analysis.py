"""Phase-error measurement, equioscillation counts, Zolotarev numbers, bounds.

The phase error of an approximant R against sqrt or sign is the wrapped
argument of R(e^{i t}) / target(e^{i t}) over the arc domain, computed by
one kernel (``_phase_error``) for both problems and both arcs.  Each arc's
sample grid is evaluated as one array; the grid only brackets the local
extrema of the signed error, and golden-section refinement on the scalar
path computes every reported value.  For the optimal approximants the
extrema alternate in sign and all sit at the common amplitude
arccos(lam), which is also predicted analytically from the degree
reduction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .approximants import UnimodularRational
from .elliptic import EllipticModulus, require_degree, require_theta, solve_lambda
from .errors import DomainError, ResolutionError

_TWO_PI = 2.0 * math.pi
_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PhaseErrorReport:
    """Measured equioscillation data over one arc domain."""

    max_error: float
    predicted: float
    extrema: tuple[tuple[float, float], ...]  # (angle, signed error), arc by arc
    arcs: tuple[int, ...]  # alternation count per arc
    grid_size: int


@dataclass(frozen=True)
class GridField:
    """Rectangular grid of error magnitudes (poles carry +inf)."""

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    resolution: int
    values: np.ndarray  # shape (resolution, resolution), rows follow im_range


def _wrap(x: float) -> float:
    """Reduce an angle difference to (-pi, pi]."""
    y = math.remainder(x, _TWO_PI)
    return y if y != -math.pi else math.pi


def _phase_error(r: UnimodularRational, offset: float, half_t: float):
    """Signed error t -> wrap(arg r(e^{i t}) - offset - half_t t).

    An ndarray of angles is evaluated with one array call of r; a float
    takes the scalar path.  On the arcs the unwrapped difference lies in
    [-2 pi, 3 pi/2], where one exact shift by 2 pi gives ``_wrap``'s value.
    """

    def err(t):
        if isinstance(t, np.ndarray):
            w = r(np.exp(1j * t))
            x = np.arctan2(w.imag, w.real) - (offset + half_t * t)
            x = np.where(x > math.pi, x - _TWO_PI, x)
            return np.where(x <= -math.pi, x + _TWO_PI, x)
        w = r(complex(math.cos(t), math.sin(t)))
        return _wrap(math.atan2(w.imag, w.real) - (offset + half_t * t))

    return err


def _arc_jobs(r: UnimodularRational, theta: float, problem: str):
    """(error kernel, lo, hi) of each arc of the z5 or z6 domain."""
    key = problem.lower()
    if key == "z5":
        return [(_phase_error(r, 0.0, 0.5), -2.0 * theta, 2.0 * theta)]
    if key == "z6":
        return [
            (_phase_error(r, 0.0, 0.0), -theta, theta),
            (_phase_error(r, math.pi, 0.0), math.pi - theta, math.pi + theta),
        ]
    raise DomainError(f"problem must be 'z5' or 'z6', got {problem!r}")


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section maximizer of f on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_GOLD * (b - a)
    d = a + _INV_GOLD * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLD * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _arc_extrema(err_fn, lo: float, hi: float, n: int):
    """Locate and refine all local extrema of the signed error on [lo, hi].

    ``err_fn`` takes an array of angles (the grid, evaluated at once) or a
    float (the refinement).  Endpoints always enter as candidates.  Returns
    the refined list sorted by angle; a flat curve (degree-0 approximants)
    collapses to its midpoint.
    """
    ths = np.linspace(lo, hi, n)
    e = err_fn(ths)
    if float(e.max() - e.min()) < 1e-13:
        mid = 0.5 * (lo + hi)
        return [(mid, err_fn(mid))]
    last = n - 1
    inner = e[1:-1]
    peak = np.ones(n, dtype=bool)  # endpoints always enter
    peak[1:-1] = ((inner >= e[:-2]) & (inner >= e[2:])) | ((inner <= e[:-2]) & (inner <= e[2:]))
    out = []
    for i in np.flatnonzero(peak).tolist():
        left, right = max(i - 1, 0), min(i + 1, last)
        a, b = ths[left], ths[right]
        sign = 1.0 if e[i] >= e[left] and e[i] >= e[right] else -1.0
        x, v = _golden_max(lambda t: sign * err_fn(t), a, b)
        if i == 0 or i == last:
            # arc endpoints are candidate extrema in their own right
            end = ths[i]
            ve = sign * err_fn(end)
            if ve >= v:
                x, v = end, ve
        out.append((x, sign * v))
    out.sort(key=lambda p: p[0])
    # collapse refinements that converged to the same point
    merged = []
    gap = (hi - lo) * 1e-8
    for x, v in out:
        if merged and abs(x - merged[-1][0]) < gap:
            if abs(v) > abs(merged[-1][1]):
                merged[-1] = (x, v)
        else:
            merged.append((x, v))
    return merged


def _alternating(extrema, amplitude: float):
    """Keep amplitude-attaining extrema and collapse same-sign neighbours."""
    kept = [(x, v) for x, v in extrema if abs(v) >= amplitude * (1.0 - 1e-3)]
    seq = []
    for x, v in kept:
        if seq and (v >= 0.0) == (seq[-1][1] >= 0.0):
            if abs(v) > abs(seq[-1][1]):
                seq[-1] = (x, v)
        else:
            seq.append((x, v))
    return seq


def _measure(arc_jobs, grid_n: int):
    """Run extrema detection over each (err_fn, lo, hi) triple."""
    per_arc = [_arc_extrema(fn, lo, hi, grid_n) for fn, lo, hi in arc_jobs]
    amplitude = max(abs(v) for ext in per_arc for _, v in ext)
    reports = [_alternating(ext, amplitude) for ext in per_arc]
    counts = tuple(len(seq) for seq in reports)
    extrema = tuple((x, v) for seq in reports for x, v in seq)
    return amplitude, extrema, counts


def _certified_measure(arc_jobs, grid_n: int, expected: int):
    """Measure, re-measuring on a doubled grid if the count falls short.

    A doubled grid that reaches the expected count certifies the original
    grid as merely marginal; a doubled grid that still falls short is
    accepted only when it reproduces the first count (a real deficiency,
    e.g. a tampered approximant), and anything else is unresolvable.
    """
    amplitude, extrema, counts = _measure(arc_jobs, grid_n)
    if any(c < expected for c in counts):
        amp2, ext2, counts2 = _measure(arc_jobs, 2 * grid_n)
        if any(c < expected for c in counts2) and counts2 != counts:
            raise ResolutionError(
                f"alternation count not grid-stable: {counts} vs {counts2} "
                f"(expected {expected} per arc)"
            )
        amplitude, extrema, counts = amp2, ext2, counts2
    return amplitude, extrema, counts


def phase_error_sqrt(r: UnimodularRational, theta: float, grid_n: int) -> PhaseErrorReport:
    """Equioscillation report of arg(r(e^{i t}) e^{-i t/2}) over [-2 Theta, 2 Theta]."""
    require_theta(theta)
    n = len(r.factors)
    grid_n = require_degree(grid_n, 8 * (n + 1), "grid_n")
    red = solve_lambda(math.cos(theta), 2 * n + 1, math.sin(theta))
    predicted = math.asin(red.lam_comp)  # arccos(lam), stable near lam = 1
    amplitude, extrema, counts = _certified_measure(_arc_jobs(r, theta, "z5"), grid_n, 2 * n + 2)
    return PhaseErrorReport(amplitude, predicted, extrema, counts, grid_n)


def phase_error_sign(s: UnimodularRational, theta: float, grid_n: int) -> PhaseErrorReport:
    """Equioscillation report of arg(s/sign) over both arcs of the T domain."""
    require_theta(theta)
    m = len(s.factors)
    grid_n = require_degree(grid_n, 8 * (m + 1), "grid_n")
    red = solve_lambda(math.cos(theta), m, math.sin(theta))
    predicted = math.asin(red.lam_comp)
    amplitude, extrema, counts = _certified_measure(_arc_jobs(s, theta, "z6"), grid_n, m + 1)
    return PhaseErrorReport(amplitude, predicted, extrema, counts, grid_n)


def max_phase_error(r: UnimodularRational, theta: float, problem: str, grid_n: int = 512) -> float:
    """Max wrapped phase error over the arc domain, without equioscillation
    bookkeeping.

    Suitable for bounds tables at degrees where the error sits at the
    rounding floor and extremum counting is meaningless.
    """
    require_theta(theta)
    grid_n = require_degree(grid_n, 2, "grid_n")
    best = 0.0
    for fn, lo, hi in _arc_jobs(r, theta, problem):
        ths = np.linspace(lo, hi, grid_n)
        i = int(np.argmax(np.abs(fn(ths))))
        a, b = ths[max(i - 1, 0)], ths[min(i + 1, grid_n - 1)]
        _, v = _golden_max(lambda t: abs(fn(t)), a, b)
        # the grid only picks the bracket: its peak is re-evaluated on the
        # scalar path, like every other reported value
        best = max(best, abs(fn(ths[i])), v)
    return best


def zolotarev_number(m: int, theta: float) -> float:
    """Z_m of the interval pair [-1, -ell], [ell, 1] with ell = cos(Theta).

    Evaluated by the explicit product 4 rho^{-2m} prod_j ((1 + p^{2j}) /
    (1 + p^{2j-1}))^4 with p = rho^{-4m}; the product is truncated once a
    multiplicand is within 1e-17 of 1 (at most 64 terms).
    """
    m = require_degree(m, 0)
    require_theta(theta)
    mod = EllipticModulus.from_theta(theta)
    p = mod.rho ** (-4.0 * m)
    z = 4.0 * mod.rho ** (-2.0 * m)
    for j in range(1, 65):
        term = ((1.0 + p ** (2 * j)) / (1.0 + p ** (2 * j - 1))) ** 4
        z *= term
        if abs(term - 1.0) < 1e-17:
            break
    return z


def lambda_from_Z(zm: float) -> float:
    """Invert (1 - lam)/(1 + lam) = 2 sqrt(Z)/(1 + Z) for lam in (0, 1]."""
    if not 0.0 <= zm < 1.0:
        raise DomainError(f"lambda_from_Z requires 0 <= Z < 1, got {zm!r}")
    root = math.sqrt(zm)
    return ((1.0 - root) / (1.0 + root)) ** 2


def phase_error_from_Z(zm: float) -> float:
    """arccos(lambda_from_Z(zm)) evaluated without the near-1 arccos loss.

    With s = sqrt(Z), the complement of lam = ((1-s)/(1+s))^2 satisfies
    lam'^2 = 8 s (1 + s^2)/(1 + s)^4, so the error angle is the arcsine
    of that root; for tiny Z this preserves full relative accuracy where
    acos(lam) would lose six digits to rounding of lam.
    """
    if not 0.0 <= zm < 1.0:
        raise DomainError(f"phase_error_from_Z requires 0 <= Z < 1, got {zm!r}")
    s = math.sqrt(zm)
    lam_comp = math.sqrt(8.0 * s * (1.0 + s * s)) / ((1.0 + s) * (1.0 + s))
    return math.asin(min(1.0, lam_comp))


def error_bounds(m_or_n: int, theta: float, problem: str) -> tuple[float, float]:
    """(rho-form bound, sec-form bound) on the optimal phase error.

    For the sign problem at degree m: 4 rho^{-m/2} <= 4 exp(-pi^2 m /
    (4 log(4 sec Theta))); for the sqrt problem at degree n the exponents
    carry n + 1/2 and the doubled rate.
    """
    require_theta(theta)
    m_or_n = require_degree(m_or_n, 0)
    mod = EllipticModulus.from_theta(theta)
    log4sec = math.log(4.0 / mod.ell)
    key = problem.lower()
    if key == "z6":
        return (
            4.0 * mod.rho ** (-0.5 * m_or_n),
            4.0 * math.exp(-math.pi**2 * m_or_n / (4.0 * log4sec)),
        )
    if key == "z5":
        half = m_or_n + 0.5
        return (
            4.0 * mod.rho ** (-half),
            4.0 * math.exp(-math.pi**2 * half / (2.0 * log4sec)),
        )
    raise DomainError(f"problem must be 'z5' or 'z6', got {problem!r}")


def contour_grid(
    r: UnimodularRational,
    target: str,
    window: tuple[float, float, float, float],
    resolution: int,
) -> GridField:
    """|r(z) - target(z)| on a rectangular grid; pole cells become +inf.

    target 'sqrt' uses the principal branch; 'sign' uses z/sqrt(z^2),
    which is +-1 off the imaginary axis (the convention at Re z = 0
    follows sign(Im z), and sign(0) = +1).
    """
    resolution = require_degree(resolution, 16, "resolution", 4096)
    if len(window) != 4 or not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in window):
        raise DomainError(f"window must be four finite reals, got {window!r}")
    re_min, re_max, im_min, im_max = window
    if not (re_min < re_max and im_min < im_max):
        raise DomainError(f"degenerate window {window!r}")
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    zz = res[None, :] + 1j * ims[:, None]
    vals = r(zz)
    with np.errstate(divide="ignore", invalid="ignore"):
        if target == "sqrt":
            goal = np.sqrt(zz)
        elif target == "sign":
            goal = zz / np.sqrt(zz * zz)
            goal[~np.isfinite(goal)] = 1.0  # only z = 0
        else:
            raise DomainError(f"target must be 'sqrt' or 'sign', got {target!r}")
        err = np.abs(vals - goal)
    err[~np.isfinite(err)] = np.inf
    return GridField((re_min, re_max), (im_min, im_max), resolution, err)
