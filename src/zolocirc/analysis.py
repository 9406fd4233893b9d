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
  an optimum reported at another Theta or problem): one kernel
  (``_phase_error``, one exact 2 pi shift wrapping scalars and arrays
  alike) serves both problems and both arcs; each arc's grid is one array
  call that only brackets the extrema of the signed error, and golden
  refinement on the scalar path computes every reported value.  A short
  count is measured again on the doubled grid, and ``grid_size`` names the
  grid the counts came from.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import approximants
from .approximants import UnimodularRational, _lift
from .elliptic import EllipticModulus, _mu_inverse_pair, _mu_pair, require_degree, require_theta, solve_lambda
from .errors import DomainError, PrecisionError, ResolutionError

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
    expected: int  # the count an optimum reaches on each arc: M + 1 at the effective degree M
    method: str  # "nodes" (closed-form alternation points) or "grid" (grid search and refinement)


@dataclass(frozen=True)
class GridField:
    """Rectangular grid of error magnitudes (poles carry +inf) on the axes it was evaluated at."""

    re: np.ndarray  # the real parts, one per column
    im: np.ndarray  # the imaginary parts, one per row
    values: np.ndarray  # shape (len(im), len(re))


def _phase_error(r: UnimodularRational, offset: float, half_t: float):
    """Signed error t -> arg r(e^{i t}) - offset - half_t t, wrapped to (-pi, pi].

    An ndarray of angles takes one array call of r; a float, the scalar path.
    On the arcs the unwrapped difference lies in [-2 pi, 3 pi/2]: x - k 2 pi,
    k in {-1, 0, 1}, wraps both exactly (k = 0 keeps x, -0.0 included).
    """

    def err(t):
        if isinstance(t, np.ndarray):
            w = r(np.exp(1j * t))
            x = np.arctan2(w.imag, w.real) - (offset + half_t * t)
        else:
            w = r(complex(math.cos(t), math.sin(t)))
            x = math.atan2(w.imag, w.real) - float(offset + half_t * t)
        return x - _TWO_PI * (1.0 * (x > math.pi) - (x <= -math.pi))

    return err


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
    """(error kernel, lo, hi) of each arc of the z5 or z6 domain."""
    half_t = 0.5 if effective_degree(problem, 0) else 0.0  # the target sqrt turns at half the angle
    return [(_phase_error(r, mid, half_t), mid - scale * theta, mid + scale * theta) for mid, scale in _arcs(problem)]


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximizer of f on [lo, hi] to a bracket of 1e-12; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_GOLD * (b - a)
    d = a + _INV_GOLD * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
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
    the refined list sorted by angle; a flat curve collapses to its midpoint.
    """
    ths = np.linspace(lo, hi, n)
    e, grid = err_fn(ths), ths.tolist()  # angles are read as Python floats
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
        a, b = grid[left], grid[right]
        sign = 1.0 if e[i] >= e[left] and e[i] >= e[right] else -1.0
        x, v = _golden_max(lambda t: sign * err_fn(t), a, b)
        if i == 0 or i == last:
            # arc endpoints are candidate extrema in their own right
            end = grid[i]
            ve = sign * err_fn(end)
            if ve >= v:
                x, v = end, ve
        out.append((x, sign * v))
    out.sort(key=lambda p: p[0])
    # collapse refinements that converged to the same point
    gap = (hi - lo) * 1e-8
    return _collapse(out, lambda last, p: abs(p[0] - last[0]) < gap)


def _collapse(points, joined):
    """Keep the larger |v| of each run of (x, v) points; ``joined(last, p)`` adds p to last's run."""
    out = []
    for x, v in points:
        if out and joined(out[-1], (x, v)):
            if abs(v) > abs(out[-1][1]):
                out[-1] = (x, v)
        else:
            out.append((x, v))
    return out


def _alternating(extrema, amplitude: float, rel: float = 1e-3):
    """Keep the extrema within ``rel`` of the amplitude and collapse same-sign neighbours."""
    kept = [(x, v) for x, v in extrema if abs(v) >= amplitude * (1.0 - rel)]
    return _collapse(kept, lambda last, p: (p[1] >= 0.0) == (last[1] >= 0.0))


def _tally(per_arc, rel: float = 1e-3):
    """(amplitude, extrema, counts) of per-arc (angle, error) candidates, kept by ``_alternating`` at ``rel``."""
    amplitude = max(abs(v) for ext in per_arc for _, v in ext)
    reports = [_alternating(ext, amplitude, rel) for ext in per_arc]
    return amplitude, tuple(p for seq in reports for p in seq), tuple(len(seq) for seq in reports)


def _certified_measure(arc_jobs, grid_n: int, expected: int):
    """(amplitude, extrema, counts, grid size) measured on grid_n or, if a count falls short, on 2 grid_n.

    A doubled grid that reaches the expected count certifies the original
    grid as merely marginal; a doubled grid that still falls short is
    accepted only when it reproduces the first count (a real deficiency,
    e.g. a tampered approximant), and anything else is unresolvable.
    """
    counts = None
    for n in (grid_n, 2 * grid_n):
        first = counts
        amplitude, extrema, counts = _tally([_arc_extrema(fn, lo, hi, n) for fn, lo, hi in arc_jobs])
        if min(counts) >= expected or counts == first:
            return amplitude, extrema, counts, n
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


def _node_measure(r: UnimodularRational, theta: float, problem: str, grid_n: int):
    """(amplitude, extrema, counts, grid_n) of the optimum r at its alternation points, read from its record.

    On each arc the error of s_M alternates at the M + 1 values of t with cos t = ell sqrt((1 + c)/(ell^2 + c)),
    sin t = ell' sqrt(c/(ell^2 + c)), for c in the fraction's ``cot2_even``, c = inf (the arc ends)
    and, for even M, c = 0 (the centre).  The record's orientation is the sign of every error: -(-1)^n for
    r_n, read through s_{2n+1}(z)^{(-1)^n} r_n(z^2) = z, and -1 for 1/s_M, the conjugate lift.
    PrecisionError if an arc counts fewer than M + 1, a grid point tops the amplitude by ``node_bound``
    or the amplitude is below the normal doubles: the grid route could read only rounding noise there.
    """
    effective, ell, ell_comp, sign, _ = r._optimum
    zf = r._optimum_fraction()
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
    e = np.arctan2(G, F) if sign > 0 else -np.arctan2(G, F)  # the record's orientation
    per_arc = [list(zip((mid + scale * t).tolist(), row[: t.size].tolist())) for (mid, scale), row in zip(arcs, e)]
    peak = float(np.abs(e[:, t.size :]).max())
    bound = node_bound(effective, theta)
    amplitude, extrema, counts = _tally(per_arc, bound)
    if not sys.float_info.min <= amplitude:
        raise PrecisionError(f"optimal error {amplitude!r} at effective degree {effective} is below the normal doubles")
    if peak > amplitude * (1.0 + bound) or min(counts) <= effective:
        raise PrecisionError(f"unresolved nodes at effective degree {effective}: counts {counts}, grid peak {peak!r}")
    return amplitude, extrema, counts, grid_n


def _phase_report(r: UnimodularRational, theta: float, grid_n: int, problem: str) -> PhaseErrorReport:
    """Report on the arcs of ``problem``: arccos(lam), M + 1 extrema per arc at the effective degree M.

    R whose ``_optimum`` record names ``problem`` at this Theta goes to the nodes, anything else to the grid.
    """
    modulus = require_theta(theta)
    degree = len(r.factors)
    effective = effective_degree(problem, degree)
    grid_n = require_degree(grid_n, 8 * (degree + 1), "grid_n")
    expected = effective + 1
    optimum = r._optimum
    nodes = optimum and optimum[1:3] == modulus and optimum[4] == problem and _node_measure(r, theta, problem, grid_n)
    amplitude, extrema, counts, grid_size = nodes or _certified_measure(_arc_jobs(r, theta, problem), grid_n, expected)
    if nodes:  # arccos(lam) from the optimum's fraction: theta_tilde would repeat its solve_lambda(ell, M, ell')
        red = r._optimum_fraction().reduction
        predicted, method = math.atan2(red.lam_comp, red.lam), "nodes"
    else:
        predicted, method = theta_tilde(effective, theta), "grid"
    return PhaseErrorReport(amplitude, predicted, extrema, counts, grid_size, expected, method)


def phase_error_sqrt(r: UnimodularRational, theta: float, grid_n: int) -> PhaseErrorReport:
    """Equioscillation report of arg(r(e^{i t}) e^{-i t/2}) over [-2 Theta, 2 Theta]."""
    return _phase_report(r, theta, grid_n, "z5")


def phase_error_sign(s: UnimodularRational, theta: float, grid_n: int) -> PhaseErrorReport:
    """Equioscillation report of arg(s/sign) over both arcs of the T domain."""
    return _phase_report(s, theta, grid_n, "z6")


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

    The paper's product 4 rho^{-2m} prod_j ((1 + p^{2j}) / (1 + p^{2j-1}))^4,
    p = rho^{-4m}, is (theta_2/theta_3)^2 at the nome p = e^{-2V}, V = 2m log rho
    = m pi^2 / mu(ell): the modulus whose mu is V (DLMF 22.2.2).  m = 0 gives 4.
    """
    m = require_degree(m, 0)
    mu = _mu_pair(*require_theta(theta))[0]
    return _mu_inverse_pair(m * math.pi**2 / mu)[0] if m else 4.0


def lambda_from_Z(zm: float) -> float:
    """Invert (1 - lam)/(1 + lam) = 2 sqrt(Z)/(1 + Z) for lam in (0, 1]."""
    if not 0.0 <= zm < 1.0:
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
    if not 0.0 <= zm < 1.0:
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
