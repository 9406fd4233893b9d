"""Phase-error measurement, equioscillation counts, Zolotarev numbers, bounds.

The phase error of an approximant R against sqrt or sign is the wrapped
argument of R(e^{i t}) / target(e^{i t}) over the arc domain.  The extrema
of the optimal approximants alternate in sign at the common amplitude
arccos(lam), ``theta_tilde`` of the degree reduction at ``effective_degree``:
the sqrt problem at degree n is the sign problem at 2n + 1.  ``_arcs`` is
the one table of the domain, a (centre, scale) pair per arc whose angles
are centre + scale t, |t| <= Theta: z6 has arcs at 0 and pi, z5 one at 0
of scale 2.  ``_tally`` turns per-arc (angle, error) candidates into the
amplitude, the largest |error|, and each arc's alternating extrema and
their count.  A report reads both and names its route in ``method``:

- ``"nodes"``, for an optimum: R whose private ``_optimum`` record, which
  ``approximants`` sets on the s_m and r_n it builds and on 1/s_m (the
  second optimum of z6), names the report's problem and Theta.  Its M + 1
  alternation points per arc are known in closed form, from the even nodes
  of the optimum's ``ZolotarevFraction`` at M; the errors there are read in
  relative precision through the lift F +- i sign(Im z)^M G.  The same lift
  call, one for all arcs, reads each arc's ``grid_n``-point grid and checks
  that no point exceeds the amplitude by more than ``node_bound``;
  ``grid_size`` is ``grid_n``, and nothing is refined or doubled.  The
  ``predicted`` arccos(lam) is read from the fraction's own reduction.  A
  short count, a failed check or an amplitude below the normal doubles
  raises PrecisionError.
- ``"grid"``, for every other rational (a copy equal in value to an optimum,
  an optimum reported at another Theta or problem): per arc, the roots of
  the error's slope, a sum of the Poisson kernels of the factors' zeros
  (``_phase_slope``), are bracketed on the grid and bisected as arrays,
  and one array call of ``_phase_error`` reads the error there, at the
  arc ends and along the grid, unwrapped along the arc from its centre.
  No scalar call is made.  A short count is measured again on the
  doubled grid, and ``grid_size`` names the grid the counts came from.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import approximants
from .approximants import UnimodularRational, ZolotarevFraction, _lift
from .elliptic import EllipticModulus, _between, _mu_inverse_pair, _mu_pair, require_degree, require_theta, solve_lambda
from .errors import DomainError, PrecisionError, ResolutionError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseErrorReport:
    """Measured equioscillation data over one arc domain."""

    max_error: float
    predicted: float
    extrema: tuple[tuple[float, float], ...]  # (angle, signed error), arc by arc
    arcs: tuple[int, ...]  # alternation count per arc
    grid_size: int
    expected: int  # the count an optimum reaches on each arc: M + 1 at the effective degree M
    method: str  # "nodes" (closed-form alternation points) or "grid" (roots of the phase slope)


@dataclass(frozen=True)
class GridField:
    """Rectangular grid of error magnitudes (poles carry +inf) on the axes it was evaluated at."""

    re: np.ndarray  # the real parts, one per column
    im: np.ndarray  # the imaginary parts, one per row
    values: np.ndarray  # shape (len(im), len(re))


def _phase_error(r: UnimodularRational, offset: float, half_t: float):
    """Signed error t -> arg r(e^{i t}) - offset - half_t t at an ndarray of angles, wrapped to (-pi, pi].

    One array call of r.  On the arcs the unwrapped difference lies in
    [-2 pi, 3 pi/2]: x - k 2 pi, k in {-1, 0, 1}, wraps it exactly (k = 0
    keeps x, -0.0 included).
    """

    def err(t):
        w = r(np.exp(1j * t))
        x = np.arctan2(w.imag, w.real) - (offset + half_t * t)
        return x - _TWO_PI * (1.0 * (x > math.pi) - (x <= -math.pi))

    return err


def _phase_slope(r: UnimodularRational, half_t: float):
    """The error's slope t -> d/dt arg r(e^{i t}) - half_t at an ndarray of angles.

    A factor (u z + v)/(conj(v) z + conj(u)) is a unimodular constant times
    (z - a)/(1 - conj(a) z), a = -v/u, whose phase grows at the Poisson
    kernel (1 - |a|^2)/|e^{i t} - a|^2, written without cancellation; a
    u = 0 factor (-1/z) turns at -1, and one with |a| = 1 is constant.
    Points are summed in blocks of at most ``approximants._BLOCK_CELLS`` (point, zero) cells, each as a whole.
    """
    zeros = np.array([-v / u for u, v, _, _ in r._pairs if u != 0], dtype=complex)
    m, phi = np.abs(zeros), np.angle(zeros)
    m, phi, base = m[m != 1.0], phi[m != 1.0], len(zeros) - len(r._pairs) - half_t
    step = max(approximants._BLOCK_CELLS // max(m.size, 1), 1)

    def slope(t):
        out = np.empty(t.size)
        for i in range(0, t.size, step):
            s = np.sin(0.5 * (t[i : i + step, None] - phi))
            out[i : i + step] = ((1.0 - m) * (1.0 + m) / ((1.0 - m) ** 2 + 4.0 * m * s * s)).sum(axis=1) + base
        return out

    return slope


def theta_tilde(m: int, theta: float) -> float:
    """The optimal phase error arccos(lam) at degree m, read as atan2(lam', lam): accurate at both ends.

    It is also |arg s_m(e^{i Theta})|, the arc half-width an outer
    approximant sees under composition; the closed chain spares downstream
    constructions the endpoint arg roundoff (the two agree in tests).  It
    equals theta at m = 1 (the identity map) and is smaller for m >= 2.
    """
    m = require_degree(m, 0)
    ell, ell_comp = require_theta(theta)
    red = solve_lambda(ell, m, ell_comp)  # m = 0: lam = 0, lam' = 1 gives pi/2 (s_0 = i)
    return math.atan2(red.lam_comp, red.lam)


def effective_degree(problem: str, degree: int) -> int:
    """Degree of the sign problem (z6) that a z5 or z6 approximant measures as.

    The structural identity s_{2n+1}(z)^{(-1)^n} r_n(z^2) = z makes r_n (z5)
    share the optimal error arccos(lam), the alternation count 2n + 2 and
    the decay bounds of s_{2n+1}, so z5 maps n to 2n + 1; z6 keeps m.
    """
    key = problem.lower() if isinstance(problem, str) else problem
    if key == "z5":
        return 2 * degree + 1
    if key == "z6":
        return degree
    raise DomainError(f"problem must be 'z5' or 'z6', got {problem!r}")


def _problem_fns(problem: str):
    """(builder, equioscillation report) of z5 or z6; DomainError otherwise.

    Read from the module attributes at each call, so that wrappers
    installed on them (a layer tracer) see the calls.
    """
    if effective_degree(problem, 0):  # z5 maps degree 0 to 1, z6 keeps 0
        return approximants.build_r, phase_error_sqrt
    return approximants.build_s, phase_error_sign


def _arcs(problem: str):
    """(centre, scale) of each arc of the z5 or z6 domain: the angles centre + scale t, |t| <= Theta."""
    return ((0.0, 2.0),) if effective_degree(problem, 0) else ((0.0, 1.0), (math.pi, 1.0))


def _arc_jobs(r: UnimodularRational, theta: float, problem: str):
    """(error kernel, slope kernel, lo, hi) of each arc of the z5 or z6 domain."""
    half_t = 0.5 if effective_degree(problem, 0) else 0.0  # the target sqrt turns at half the angle
    slope = _phase_slope(r, half_t)
    return [(_phase_error(r, mid, half_t), slope, mid - w * theta, mid + w * theta) for mid, w in _arcs(problem)]


def _arc_extrema(err, slope, lo: float, hi: float, n: int):
    """(angle, error) at both ends of [lo, hi] and at each root of the error's slope between them, by angle.

    The slope's sign changes on the n-point grid are bisected all at once
    down to adjacent doubles, a fixed point of the step.  One array call of
    ``err`` reads the grid, the roots and the centre; the values are
    unwrapped along the arc, so that a crossing of +-pi is a value and not
    an extremum, from the centre's in (-pi, pi].
    """
    grid = np.linspace(lo, hi, n)
    up = slope(grid) > 0.0
    cell = np.flatnonzero(up[1:] != up[:-1])
    a, b, rising = grid[cell], grid[cell + 1], up[cell]
    mid = 0.5 * (a + b)
    while ((a < mid) & (mid < b)).any():
        left = (slope(mid) > 0.0) == rising  # mid lies on a's side of the root
        a, b = np.where(left, mid, a), np.where(left, b, mid)
        mid = 0.5 * (a + b)
    t = np.concatenate((grid, a, [0.5 * (lo + hi)]))
    e, order = err(t), np.argsort(t, kind="stable")
    turns = np.empty(t.size)
    turns[order] = np.cumsum(np.rint(np.diff(e[order], prepend=e[order[0]]) / _TWO_PI))
    e = e - _TWO_PI * (turns - turns[-1])
    keep = np.r_[0, n : t.size - 1, n - 1]
    return list(zip(t[keep].tolist(), e[keep].tolist()))


def _alternating(extrema, amplitude: float, rel: float = 1e-3):
    """The extrema within ``rel`` of the amplitude, of each run of same-sign neighbours the first largest."""
    out = []
    for x, v in [(x, v) for x, v in extrema if abs(v) >= amplitude * (1.0 - rel)]:
        if out and (v >= 0.0) == (out[-1][1] >= 0.0):
            out[-1] = (x, v) if abs(v) > abs(out[-1][1]) else out[-1]
        else:
            out.append((x, v))
    return out


def _tally(per_arc, rel: float = 1e-3):
    """(amplitude, extrema, counts) of per-arc (angle, error) candidates, kept by ``_alternating`` at ``rel``."""
    amplitude = max(abs(v) for ext in per_arc for _, v in ext)
    reports = [_alternating(ext, amplitude, rel) for ext in per_arc]
    return amplitude, tuple(p for seq in reports for p in seq), tuple(len(seq) for seq in reports)


def _certified_measure(r: UnimodularRational, theta: float, problem: str, grid_n: int, effective: int):
    """The grid route: (amplitude, theta_tilde, extrema, counts, grid size) on grid_n, or 2 grid_n if a count is short.

    A doubled grid that reaches the expected count certifies the original
    grid as merely marginal; a doubled grid that still falls short is
    accepted only when it reproduces the first count (a real deficiency,
    e.g. a tampered approximant), and anything else is unresolvable.
    """
    arc_jobs, expected, counts = _arc_jobs(r, theta, problem), effective + 1, None
    for n in (grid_n, 2 * grid_n):
        first = counts
        amplitude, extrema, counts = _tally([_arc_extrema(*job, n) for job in arc_jobs])
        if min(counts) >= expected or counts == first:
            return amplitude, theta_tilde(effective, theta), extrema, counts, n
    raise ResolutionError(f"alternation count not grid-stable: {first} vs {counts} (expected {expected} per arc)")


def node_bound(m: int, theta: float) -> float:
    """Relative bound 4 eps ((m + 1)/sin Theta)^2 on the lift's phase error of the optimum of degree m.

    G's factors 1 - (x/ell)^2 dn^2 each round to eps over their distance to
    a zero, which near an extremum is of order (sin Theta/(m + 1))^2 in
    (x/ell)^2.  A scan of the window against mpmath put the node errors
    within 1.6 of the 4 eps of arccos(lam); tests/test_node_route.py holds
    them to the bound at both window ends.  Wherever arccos(lam) is a
    normal double the bound is below 2.2e-4 (its largest, at the bottom
    of the window and m = 69).
    """
    return 4.0 * sys.float_info.epsilon * ((m + 1) / math.sin(theta)) ** 2


def _node_measure(zf: ZolotarevFraction, orientation: int, theta: float, problem: str, grid_n: int):
    """The node route: (amplitude, arccos(lam), extrema, counts, grid_n) of the optimum with fraction zf.

    On each arc the error of s_M alternates at the M + 1 values of t with cos t = ell sqrt((1 + c)/(ell^2 + c)),
    sin t = ell' sqrt(c/(ell^2 + c)), for c in the fraction's ``cot2_even``, c = inf (the arc ends)
    and, for even M, c = 0 (the centre).  The record's orientation is the sign of every error: -(-1)^n for
    r_n, read through s_{2n+1}(z)^{(-1)^n} r_n(z^2) = z, and -1 for 1/s_M, the conjugate lift.
    arccos(lam) is read from zf's reduction: theta_tilde would repeat its solve_lambda(ell, M, ell').
    PrecisionError if an arc counts fewer than M + 1, a grid point tops the amplitude by ``node_bound``
    or the amplitude is below the normal doubles: the grid route could read only rounding noise there.
    """
    red = zf.reduction
    effective, ell, ell_comp = red.m, red.modulus.ell, red.modulus.ell_comp
    centre = 1 - effective % 2
    c = np.array((0.0,) * centre + zf.cot2_even[::-1])  # ascending in t
    one_c, ell2_c = 1.0 + c, ell * ell + c
    half = np.empty((3, c.size + 1))  # rows t, cos t and sin t; the last column is the arc end
    half[:, -1] = theta, ell, ell_comp
    half[:, :-1] = (np.arctan2(ell_comp * np.sqrt(c), ell * np.sqrt(one_c)),
                    np.minimum(ell * np.sqrt(one_c / ell2_c), 1.0), ell_comp * np.sqrt(c / ell2_c))
    mirror = half[:, centre:][:, ::-1] * [[-1.0], [1.0], [-1.0]]  # the nodes at -t, the centre once
    t, x, y = np.concatenate([mirror, half], axis=1)
    arcs, xs, ys = _arcs(problem), [], []
    for mid, scale in arcs:  # per arc the nodes, then the grid with Re z kept on the arc; at pi, z -> -z
        w = np.linspace(mid - scale * theta, mid + scale * theta, grid_n) / scale  # the grid's z = e^{i w}
        cos_w = np.cos(w)
        xs += [-x, -np.maximum(-cos_w, ell)] if mid else [x, np.maximum(cos_w, ell)]
        ys += [-y if mid else y, np.sin(w)]
    F, G = (v.reshape(len(arcs), -1) for v in _lift(zf, np.concatenate(xs), np.concatenate(ys)))  # a row per arc
    if len(arcs) > 1:  # the target -1 of the arc at pi divides out as atan2(-G, -F)
        F[1], G[1] = -F[1], -G[1]
    e = np.arctan2(G, F) if orientation > 0 else -np.arctan2(G, F)
    per_arc = [list(zip((mid + scale * t).tolist(), row[: t.size].tolist())) for (mid, scale), row in zip(arcs, e)]
    peak = float(np.abs(e[:, t.size :]).max())
    bound = node_bound(effective, theta)
    amplitude, extrema, counts = _tally(per_arc, bound)
    if not sys.float_info.min <= amplitude:
        raise PrecisionError(f"optimal error {amplitude!r} at effective degree {effective} is below the normal doubles")
    if peak > amplitude * (1.0 + bound) or min(counts) <= effective:
        raise PrecisionError(f"unresolved nodes at effective degree {effective}: counts {counts}, grid peak {peak!r}")
    return amplitude, math.atan2(red.lam_comp, red.lam), extrema, counts, grid_n


def _phase_report(r: UnimodularRational, theta: float, grid_n: int, problem: str) -> PhaseErrorReport:
    """Report on the arcs of ``problem``: arccos(lam), M + 1 extrema per arc at the effective degree M.

    R whose ``_optimum`` record names ``problem`` at this Theta goes to the nodes, anything else to the grid;
    each route measures the report's first five fields.
    """
    modulus = require_theta(theta)
    if not isinstance(r, UnimodularRational):
        raise DomainError(f"r must be a UnimodularRational (BlaschkeProduct.as_rational()), got {type(r).__name__}")
    degree = len(r.factors)
    effective = effective_degree(problem, degree)
    grid_n = require_degree(grid_n, 8 * (degree + 1), "grid_n")
    optimum = r._optimum  # (M, ell, ell', orientation, problem): read here alone in this module
    if optimum and optimum[1:3] == modulus and optimum[4] == problem:
        measured, method = _node_measure(r._optimum_fraction(), optimum[3], theta, problem, grid_n), "nodes"
    else:
        measured, method = _certified_measure(r, theta, problem, grid_n, effective), "grid"
    return PhaseErrorReport(*measured, effective + 1, method)


def phase_error_sqrt(r: UnimodularRational, theta: float, grid_n: int) -> PhaseErrorReport:
    """Equioscillation report of arg(r(e^{i t}) e^{-i t/2}) over [-2 Theta, 2 Theta]."""
    return _phase_report(r, theta, grid_n, "z5")


def phase_error_sign(s: UnimodularRational, theta: float, grid_n: int) -> PhaseErrorReport:
    """Equioscillation report of arg(s/sign) over both arcs of the T domain."""
    return _phase_report(s, theta, grid_n, "z6")


def max_phase_error(r: UnimodularRational, theta: float, problem: str, grid_n: int = 512) -> float:
    """The grid route's amplitude: the largest |error| of ``_arc_extrema`` on grid_n points per arc.

    No count, doubling or route: an optimum reads like any other rational.
    """
    require_theta(theta)
    if not isinstance(r, UnimodularRational):
        raise DomainError(f"r must be a UnimodularRational (BlaschkeProduct.as_rational()), got {type(r).__name__}")
    grid_n = require_degree(grid_n, 2, "grid_n")
    return _tally([_arc_extrema(*job, grid_n) for job in _arc_jobs(r, theta, problem)])[0]


def zolotarev_number(m: int, theta: float) -> float:
    """Z_m of the interval pair [-1, -ell], [ell, 1] with ell = cos(Theta).

    The paper's product 4 rho^{-2m} prod_j ((1 + p^{2j}) / (1 + p^{2j-1}))^4,
    p = rho^{-4m}, is (theta_2/theta_3)^2 at the nome p = e^{-2V}, V = 2m log rho
    = m pi^2 / mu(ell): the modulus whose mu is V (DLMF 22.2.2).  m = 0 gives 4.
    """
    m = require_degree(m, 0)
    mu = _mu_pair(*require_theta(theta))[0]
    return _mu_inverse_pair(m * math.pi**2 / mu)[0] if m else 4.0


def lambda_from_Z(zm: float) -> float:
    """Invert (1 - lam)/(1 + lam) = 2 sqrt(Z)/(1 + Z) for lam in (0, 1]."""
    if not (_between(zm, 0.0, 1.0, "Z") or zm == 0.0):
        raise DomainError(f"lambda_from_Z requires 0 <= Z < 1, got {zm!r}")
    root = math.sqrt(zm)
    return ((1.0 - root) / (1.0 + root)) ** 2


def phase_error_from_Z(zm: float) -> float:
    """arccos(lambda_from_Z(zm)) evaluated without the near-1 arccos loss.

    With s = sqrt(Z), the complement of lam = ((1-s)/(1+s))^2 satisfies
    lam'^2 = 8 s (1 + s^2)/(1 + s)^4, and the angle is atan2(lam', lam): full
    relative accuracy for tiny Z, where acos(lam) would lose six digits to the
    rounding of lam, and none of asin(lam')'s loss as lam' -> 1.
    """
    if not (_between(zm, 0.0, 1.0, "Z") or zm == 0.0):
        raise DomainError(f"phase_error_from_Z requires 0 <= Z < 1, got {zm!r}")
    s = math.sqrt(zm)
    lam_comp = math.sqrt(8.0 * s * (1.0 + s * s)) / ((1.0 + s) * (1.0 + s))
    return math.atan2(lam_comp, ((1.0 - s) / (1.0 + s)) ** 2)


def error_bounds(m_or_n: int, theta: float, problem: str) -> tuple[float, float]:
    """(rho-form bound, sec-form bound) on the optimal phase error.

    At the effective degree M (m for z6, 2n + 1 for z5): 4 rho^{-M/2} <=
    4 exp(-pi^2 M / (4 log(4 sec Theta))).
    """
    mod = EllipticModulus.from_ell(*require_theta(theta))
    M = effective_degree(problem, require_degree(m_or_n, 0))
    return (
        4.0 * mod.rho ** (-0.5 * M),
        4.0 * math.exp(-math.pi**2 * M / (4.0 * math.log(4.0 / mod.ell))),
    )


def contour_grid(
    r: UnimodularRational,
    problem: str,
    window: tuple[float, float, float, float],
    resolution: int,
) -> GridField:
    """|r(z) - target(z)| on a rectangular grid; pole cells become +inf.

    The target of z5 is sqrt on its principal branch; that of z6 is
    z/sqrt(z^2), which is +-1 off the imaginary axis (the convention at
    Re z = 0 follows sign(Im z), and sign(0) = +1).
    """
    resolution = require_degree(resolution, 16, "resolution", 4096)
    if len(window) != 4 or not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in window):
        raise DomainError(f"window must be four finite reals, got {window!r}")
    re_min, re_max, im_min, im_max = window
    if not (re_min < re_max and im_min < im_max):
        raise DomainError(f"degenerate window {window!r}")
    sqrt_target = effective_degree(problem, 0)  # z5 maps degree 0 to 1, z6 keeps 0
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    zz = res[None, :] + 1j * ims[:, None]
    vals = r(zz)
    with np.errstate(divide="ignore", invalid="ignore"):
        if sqrt_target:
            goal = np.sqrt(zz)
        else:
            goal = zz / np.sqrt(zz * zz)
            goal[~np.isfinite(goal)] = 1.0  # only z = 0
        err = np.abs(vals - goal)
    err[~np.isfinite(err)] = np.inf
    return GridField(res, ims, err)
