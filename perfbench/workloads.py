"""The benchmark's seeded workloads: ``apply``, ``cli`` and ``selftest``.

A workload is an endless sequence of blocks.  Every block holds the same
mix of operation kinds, in an order shuffled by the seed, so a run of
whole blocks always measures the stated mix.  A selftest block is one
sweep: the eight criteria in order.  The window positions and
sizes follow a low-discrepancy sequence (``block_specs``).  The sizes are
the same for every seed; the seed jitters the arc widths and moduli and
draws the points, the other choices and the order.

Each operation goes through three stages.  ``spec`` is a plain dict made
from the seed alone.  ``prepare`` (untimed) builds the input arrays and the
mpmath references of ``reference.py``.  The returned ``call`` is the timed
library call and ``check`` verifies its output, returning None or a
``Failure``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from zolocirc import approximants, cli, elliptic, selftest

import reference

TOL = 1e-9  # absolute tolerance of every phase-error / modulus comparison
EDGE_BAND = 1e-2  # width of the bands at either end of a parameter window
EDGE_SHARE = 0.25  # share of draws placed in those two bands


# Labels of the failures that an open ROADMAP item explains.
ITEM_3 = "ROADMAP item 3: precision loss near THETA_MAX"
ITEM_4 = "ROADMAP item 4: false equioscillation-deficiency verdict"
EDGE_DEFECT_WIDTH = 1e-3  # item 3 applies within this distance of pi/2


@dataclass(frozen=True)
class Failure:
    """A failed operation.

    ``known`` is the label of the open ROADMAP item that explains it, set
    only where the check has verified that explanation.  Every other
    failure (a raise, a non-zero exit, a wrong value) makes the run
    incorrect.
    """

    reason: str
    known: str | None = None


def item_3(theta: float, got: float, best: float):
    """ITEM_3 if a z5/z6 phase error ``got`` above the optimum ``best`` is near pi/2, else None.

    Near THETA_MAX the coefficients lose precision (ROADMAP item 3), which
    shows as error above the optimum; any other miss is unexplained.
    """
    return ITEM_3 if got > best and 0.5 * math.pi - theta < EDGE_DEFECT_WIDTH else None


class Context:
    """Run-wide state: the scratch directory and the optional tracer."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.tracer = None


# -- input generation --------------------------------------------------------


def in_window(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) into the open window (lo, hi).

    A share EDGE_SHARE lands within EDGE_BAND of either end (half at each
    end), the rest uniformly over the whole window.
    """
    half = 0.5 * EDGE_SHARE
    if u < half:
        x = lo + EDGE_BAND * (u / half)
    elif u < EDGE_SHARE:
        x = hi - EDGE_BAND * ((u - half) / half)
    else:
        x = lo + (hi - lo) * (u - EDGE_SHARE) / (1.0 - EDGE_SHARE)
    return min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def log_int(u: float, lo: int, hi: int) -> int:
    """Log-uniform integer in [lo, hi]."""
    return min(hi, int(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))))


def uniform_int(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


def theta_in_window(u: float) -> float:
    return in_window(u, elliptic.THETA_MIN, elliptic.THETA_MAX)


@functools.lru_cache(maxsize=None)
def compose_theta_floor(m: int) -> float:
    """Smallest theta whose inner arc width theta_tilde(m, theta) stays in the window.

    ``compose`` builds its outer approximant at theta_tilde, so below this
    floor the command is outside its accepted range (it exits 3).  Found by
    bisection on the mpmath reference.
    """
    lo, hi = elliptic.THETA_MIN, elliptic.THETA_MAX
    if reference.sign_error(lo, m) > elliptic.THETA_MIN * (1.0 + 1e-9):
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if reference.sign_error(mid, m) > elliptic.THETA_MIN * (1.0 + 1e-9):
            hi = mid
        else:
            lo = mid
    return hi


# How many operations of each kind one block holds; a kind is a command
# and, where it takes one, a problem.  An operation draws u[0] (window
# position), u[1] and u[2] (sizes) and u[3] (any other choice).
BLOCKS = {
    "apply": {"apply_z6": 2, "apply_z5": 2, "apply_z4": 2},
    "cli": {"build_z6": 2, "build_z5": 2, "build_z4": 2, "compose": 2, "error_z6": 4, "error_z5": 4,
            "bounds_z6": 1, "bounds_z5": 1, "contour_z6": 1, "contour_z5": 1},
}


def operation_size(workload: str) -> int:
    """Timed calls per user-visible operation.

    A selftest operation is one sweep: the calls of its eight criteria, in
    order, each timed on its own.  Every other operation is one call.
    """
    return len(selftest.CRITERIA) if workload == "selftest" else 1


# Roberts' R3 sequence: the points frac(shift + i * ALPHA) cover the unit
# cube evenly, in all three coordinates jointly and for every prefix, and a
# shift keeps that.  G is the real root above 1 of x^4 = x + 1.
_G = 1.2207440846057596
ALPHA = (1.0 / _G, 1.0 / _G**2, 1.0 / _G**3)
# The seed moves an operation's window coordinate by at most this share of
# the window.  A redraw over the whole window would change the mix itself:
# the cost of a `cli` operation changes up to seven times with theta, and
# with full redraws the seed-to-seed spread of p90 over five seeds was 0.22
# (0.08 with this jitter).
WINDOW_JITTER = 0.02


def block_specs(workload: str, seed: int, k: int) -> list[dict]:
    """The operation specs of block k: a function of (workload, seed, k) only.

    The window position (theta or ell) and the two sizes of the n
    operations of one kind in block k are points k n .. k n + n - 1 of the
    R3 sequence, shifted by a constant, so every seed runs the same sizes
    and about the same window positions; the seed adds a jitter of at most
    WINDOW_JITTER to the window coordinate.  Over a run, each kind thus
    meets every part of the window at every size, whatever the seed, which
    keeps the run-to-run spread of the latency percentiles small.  The
    other choice of each operation and the order of the block come from
    the seed.
    """
    if workload == "selftest":  # one sweep, fixed inputs and order
        return [{"kind": "selftest", "criterion": i, "stream": [seed, k, i - 1]}
                for i in range(1, len(selftest.CRITERIA) + 1)]
    rng = random.Random(f"{workload}:block:{seed}:{k}")
    specs = []
    for kind, n in BLOCKS[workload].items():
        command, _, problem = kind.partition("_")
        sizes = random.Random(f"{workload}:{kind}:sizes")
        shift = (sizes.random() + WINDOW_JITTER * random.Random(f"{workload}:{kind}:{seed}").random(),
                 sizes.random(), sizes.random())
        for i in range(k * n, (k + 1) * n):
            u = [(s + (i + 1) * a) % 1.0 for s, a in zip(shift, ALPHA)] + [rng.random()]
            specs.append({"kind": kind, **_SPEC_MAKERS[command](u, problem)})
    rng.shuffle(specs)
    for pos, spec in enumerate(specs):
        spec["stream"] = [seed, k, pos]
    return specs


def _ulps(x: float, steps: int, toward: float) -> float:
    for _ in range(steps):
        x = math.nextafter(x, toward)
    return x


def nudged(spec: dict, steps: int) -> dict:
    """The same operation with theta (or ell) moved ``steps`` ulps into its window.

    Repeat passes run nudged operations, so no cache keyed on exact inputs
    can serve them; their cost and their expected results stay the same.
    """
    out = dict(spec)
    for key, toward in (("theta", 1.0), ("ell", 0.5)):
        if key in out:
            out[key] = _ulps(out[key], steps, toward)
        flag = f"--{key}"
        if flag in out.get("argv", ()):
            argv = list(out["argv"])
            i = argv.index(flag) + 1
            argv[i] = repr(_ulps(float(argv[i]), steps, toward))
            out["argv"] = argv
    return out


def _pick(u: float, choices):
    return choices[min(len(choices) - 1, int(u * len(choices)))]


def _apply_spec(u, problem):
    if problem == "z4":
        return {"problem": problem, "ell": in_window(u[0], elliptic.ELL_MIN, elliptic.ELL_MAX),
                "degree": log_int(u[1], 1, 64), "points": log_int(u[2], 64, 65536)}
    return {"problem": problem, "theta": theta_in_window(u[0]), "degree": log_int(u[1], 1, 256),
            "points": log_int(u[2], 64, 65536)}


def _build_spec(u, problem):
    degree = log_int(u[1], 1, 256)
    if problem == "z4":
        ell = in_window(u[0], elliptic.ELL_MIN, elliptic.ELL_MAX)
        return {"argv": ["build", "--problem", "z4", "--degree", str(degree), "--ell", repr(ell)]}
    return {"argv": ["build", "--problem", problem, "--degree", str(degree), "--theta", repr(theta_in_window(u[0]))]}


def _error_spec(u, problem):
    degree = log_int(u[1], 1, 32)
    grid = log_int(u[2], max(64, 8 * (degree + 1)), 1024)
    return {"argv": ["error", "--problem", problem, "--degree", str(degree),
                     "--theta", repr(theta_in_window(u[0])), "--grid", str(grid)]}


def _bounds_spec(u, problem):
    return {"argv": ["bounds", "--problem", problem, "--max-degree", str(log_int(u[1], 1, 64)),
                     "--theta", repr(theta_in_window(u[0])), "--format", _pick(u[3], ("csv", "json"))]}


def _compose_spec(u, _problem):
    m, m_tilde = uniform_int(u[1], 1, 8), uniform_int(u[2], 1, 8)
    theta = in_window(u[0], compose_theta_floor(m), elliptic.THETA_MAX)
    return {"argv": ["compose", "--degree", str(m), "--degree-tilde", str(m_tilde), "--theta", repr(theta)]}


def _contour_spec(u, problem):
    half = 1.0 + 2.0 * u[3]
    return {"argv": ["contour", "--problem", problem, "--degree", str(log_int(u[1], 1, 32)),
                     "--theta", repr(theta_in_window(u[0])), f"--window=-{half!r},{half!r},-{half!r},{half!r}",
                     "--resolution", str(log_int(u[2], 64, 512))]}


_SPEC_MAKERS = {
    "apply": _apply_spec,
    "build": _build_spec,
    "error": _error_spec,
    "bounds": _bounds_spec,
    "compose": _compose_spec,
    "contour": _contour_spec,
}


def _rng(spec) -> np.random.Generator:
    return np.random.default_rng([abs(x) for x in spec["stream"]])


def apply_inputs(spec) -> np.ndarray:
    """Arc angles (z5, z6) or real points (z4) of an apply operation, endpoints included."""
    rng = _rng(spec)
    n = spec["points"]
    if spec["problem"] == "z4":
        ell = spec["ell"]
        x = ell + (1.0 - ell) * rng.random(n)
        x[:4] = (ell, ell, 1.0, 1.0)
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return sign * x
    theta = spec["theta"]
    if spec["problem"] == "z5":
        t = 2.0 * theta * (2.0 * rng.random(n) - 1.0)
        t[:2] = (-2.0 * theta, 2.0 * theta)
        return t
    t = theta * (2.0 * rng.random(n) - 1.0)
    t[: n // 2] += math.pi  # first half on the left arc, the rest on the right arc
    t[:2] = (math.pi - theta, math.pi + theta)
    t[-2:] = (-theta, theta)
    return t


# -- operations --------------------------------------------------------------


def _exceeds(value: float, limit: float) -> bool:
    return not value <= limit  # NaN exceeds every limit


def _prepare_apply(spec, _ctx):
    problem, m = spec["problem"], spec["degree"]
    pts = apply_inputs(spec)
    if problem == "z4":
        ell = spec["ell"]
        xs = pts.tolist()
        best = reference.z4_deviation(ell, m)

        def call():
            approx = approximants.z4_solution(m, ell)
            red = elliptic.solve_lambda(ell, m)
            promised = red.lam_comp**2 / (1.0 + red.lam) ** 2
            return promised, np.array([approx(x) for x in xs])

        def check(result):
            promised, w = result
            err = float(np.max(np.abs(w - np.sign(pts))))
            if _exceeds(abs(promised - best), TOL):
                return Failure(f"promised deviation {promised!r} vs reference {best!r}")
            if _exceeds(err, best + TOL):
                return Failure(f"max deviation {err!r} above reference optimum {best!r}")
            return None

        return call, check

    theta = spec["theta"]
    z = np.exp(1j * pts)
    if problem == "z5":
        best = reference.sqrt_error(theta, m)
        target = np.exp(0.5j * pts)
        build, effective = approximants.build_r, 2 * m + 1
    else:
        best = reference.sign_error(theta, m)
        target = np.where(np.cos(pts) < 0.0, -1.0, 1.0)
        build, effective = approximants.build_s, m

    def call():
        approx = build(m, theta)
        red = elliptic.solve_lambda(math.cos(theta), effective, math.sin(theta))
        return math.asin(min(1.0, red.lam_comp)), approx(z)

    def check(result):
        promised, w = result
        err = float(np.max(np.abs(np.angle(w / target))))
        modulus = float(np.max(np.abs(np.abs(w) - 1.0)))
        if _exceeds(abs(promised - best), TOL):
            return Failure(f"promised error {promised!r} vs reference {best!r}")
        if _exceeds(err, best + TOL):
            return Failure(f"max phase error {err!r} above reference optimum {best!r}", item_3(theta, err, best))
        if _exceeds(modulus, TOL):
            return Failure(f"max ||s| - 1| = {modulus!r}")
        return None

    return call, check


def run_cli(argv):
    """zolocirc.cli.main(argv) in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


ENVELOPE_KEYS = ["command", "inputs", "results", "tool_version"]
RESULT_KEYS = {
    "build": ["problem", "degree", "theta", "ell", "lambda", "lambda_comp", "predicted_max_error",
              "z_power", "quarter_turns", "factors", "zeros", "poles", "exact_type"],
    "build_z4": ["problem", "degree", "ell", "lambda", "lambda_comp", "predicted_max_error", "scale",
                 "z_power", "quarter_turns", "factors", "zeros", "poles", "exact_type"],
    "error": ["problem", "degree", "theta", "measured_max_error", "predicted_max_error",
              "alternation_counts", "expected_per_arc", "grid_size", "extrema"],
    "compose": ["theta_tilde", "target_degree", "max_residual", "tolerance", "passed"],
    "bounds": ["rows"],
}
BOUNDS_HEADER = "degree,measured,bound_rho,bound_secant"
CONTOUR_SAMPLES = 8


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _envelope(stdout, keys):
    doc = json.loads(stdout)
    if list(doc) != ENVELOPE_KEYS or list(doc["results"]) != keys:
        raise ValueError(f"keys {list(doc)} / {list(doc['results'])}")
    return doc["results"]


def _prepare_cli(spec, ctx):
    argv = list(spec["argv"])
    command = argv[0]
    problem = _flag(argv, "--problem") if "--problem" in argv else "z6"
    path = None
    if command == "contour":
        path = os.path.join(ctx.scratch, f"contour-{os.getpid()}-{'-'.join(map(str, spec['stream']))}.csv")
        argv += ["--out", path]
    degree = int(_flag(argv, "--max-degree" if command == "bounds" else "--degree"))
    theta = float(_flag(argv, "--theta")) if "--theta" in argv else None
    if command == "build" and problem == "z4":
        best = reference.z4_deviation(float(_flag(argv, "--ell")), degree)
    elif command == "bounds":
        ref_fn = reference.sqrt_error if problem == "z5" else reference.sign_error
        best = [ref_fn(theta, d) for d in range(degree + 1)]
    elif command == "contour":
        best = (reference.SqrtApproximant if problem == "z5" else reference.SignApproximant)(degree, theta)
    else:
        best = (reference.sqrt_error if problem == "z5" else reference.sign_error)(theta, degree)

    def call():
        if ctx.tracer is not None:
            return ctx.tracer.span(f"cli.{command}", run_cli, argv)
        return run_cli(argv)

    def check(result):
        code, stdout, stderr = result
        try:
            if code != 0:
                return _check_cli_exit(command, problem, degree, code, stdout, stderr, theta, best)
            data = open(path, "rb").read() if path else b""
            if ctx.tracer is not None:
                ctx.tracer.counters["bytes_out"] += len(stdout.encode()) + len(data)
            return _check_cli_output(command, problem, argv, stdout, data, degree, theta, best, spec)
        finally:
            if path and os.path.exists(path):
                os.remove(path)

    return call, check


def _check_cli_exit(command, problem, degree, code, stdout, stderr, theta, best):
    """The failure of a non-zero exit.

    Only an ``error`` exit 4 for an approximant verified to be the optimal
    one is the false deficiency verdict of ROADMAP item 4.  If the report
    was printed, its measured and predicted errors must sit at the
    reference optimum; if the certifier raised instead (a count that is
    not grid-stable), the approximant must match the mpmath one.
    """
    detail = stderr.strip().splitlines()[-1] if stderr.strip() else stdout[-200:]
    if command != "error" or code != 4:
        return Failure(f"exit {code}: {detail}")
    if not stdout:
        return Failure(f"exit 4: {detail}", ITEM_4 if _matches_reference(problem, degree, theta) else None)
    res = _envelope(stdout, RESULT_KEYS["error"])
    measured, predicted = res["measured_max_error"], res["predicted_max_error"]
    if _exceeds(abs(predicted - best), TOL):
        return Failure(f"exit 4: predicted {predicted!r} vs reference {best!r}")
    if _exceeds(abs(measured - best), TOL):
        return Failure(f"exit 4: measured {measured!r} vs reference {best!r}", item_3(theta, measured, best))
    return Failure(f"exit 4: counts {res['alternation_counts']} vs expected {res['expected_per_arc']} "
                   f"at the optimal error {best!r}", ITEM_4)


ARC_SAMPLES = 16


def _matches_reference(problem, degree, theta) -> bool:
    """Whether zolocirc's approximant equals the mpmath one within TOL at points of its arcs.

    The mpmath approximant is built from the paper's closed forms, so one
    that matches it is the optimal approximant.
    """
    if problem == "z5":
        approx, ref = approximants.build_r(degree, theta), reference.SqrtApproximant(degree, theta)
        angles = np.linspace(-2.0 * theta, 2.0 * theta, ARC_SAMPLES)
    else:
        approx, ref = approximants.build_s(degree, theta), reference.SignApproximant(degree, theta)
        angles = np.linspace(-theta, theta, ARC_SAMPLES // 2)
        angles = np.concatenate([angles, angles + math.pi])
    return all(not _exceeds(abs(complex(approx(z)) - complex(ref(z))), TOL) for z in np.exp(1j * angles).tolist())


def _check_cli_output(command, problem, argv, stdout, data, degree, theta, best, spec):
    if command == "build":
        res = _envelope(stdout, RESULT_KEYS["build_z4" if problem == "z4" else "build"])
        if problem != "z4" and len(res["factors"]) != degree:
            return Failure(f"{len(res['factors'])} factors for degree {degree}")
        if _exceeds(abs(res["predicted_max_error"] - best), TOL):
            return Failure(f"predicted {res['predicted_max_error']!r} vs reference {best!r}")
    elif command == "error":
        res = _envelope(stdout, RESULT_KEYS["error"])
        expected = 2 * degree + 2 if problem == "z5" else degree + 1
        if res["expected_per_arc"] != expected or any(c < expected for c in res["alternation_counts"]):
            return Failure(f"counts {res['alternation_counts']} vs expected {expected} with exit 0")
        for key in ("measured_max_error", "predicted_max_error"):
            if _exceeds(abs(res[key] - best), TOL):
                known = item_3(theta, res[key], best) if key == "measured_max_error" else None
                return Failure(f"{key} {res[key]!r} vs reference {best!r}", known)
    elif command == "compose":
        res = _envelope(stdout, RESULT_KEYS["compose"])
        if res["passed"] is not True or res["target_degree"] != degree * int(_flag(argv, "--degree-tilde")):
            return Failure(f"compose results {res}")
        if _exceeds(abs(res["theta_tilde"] - best), TOL):
            return Failure(f"theta_tilde {res['theta_tilde']!r} vs reference {best!r}")
    elif command == "bounds":
        if _flag(argv, "--format") == "csv":
            lines = stdout.split("\n")
            if lines[0] != BOUNDS_HEADER or lines[-1] != "" or "\r" in stdout:
                return Failure("bounds CSV header or line endings")
            measured = [float(line.split(",")[1]) for line in lines[1:-1]]
        else:
            measured = [row["measured"] for row in _envelope(stdout, RESULT_KEYS["bounds"])["rows"]]
        if len(measured) != degree + 1:
            return Failure(f"{len(measured)} bounds rows for max degree {degree}")
        for d, (got, want) in enumerate(zip(measured, best)):
            if _exceeds(abs(got - want), TOL):
                return Failure(f"bounds row {d}: measured {got!r} vs reference {want!r}", item_3(theta, got, want))
    elif command == "contour":
        return _check_contour(problem, argv, data, best, spec)
    return None


def _check_contour(problem, argv, data, approx, spec):
    res = int(_flag(argv, "--resolution"))
    lines = data.split(b"\n")
    if lines[0] != b"re,im,value" or lines[-1] != b"" or b"\r" in data or len(lines) - 1 != res * res + 1:
        return Failure(f"contour CSV layout: {len(lines) - 1} lines for resolution {res}")
    rng = _rng(spec)
    checked = 0
    while checked < CONTOUR_SAMPLES:
        re_s, im_s, value_s = lines[1 + int(rng.integers(res * res))].decode().split(",")
        z = complex(float(re_s), float(im_s))
        if z.real == 0.0 or z.imag == 0.0:
            continue  # branch conventions of the targets differ on the axes
        want = reference.contour_value(problem, approx, z)
        got = float(value_s)
        if _exceeds(abs(got - want), 1e-8 * max(1.0, want)):
            return Failure(f"contour cell {z!r}: {got!r} vs reference {want!r}")
        checked += 1
    return None


def _prepare_selftest(spec, _ctx):
    index = spec["criterion"]

    def call():
        # Looked up at call time, so that a traced run calls the wrapper.
        return selftest.CRITERIA[index - 1]()

    def check(result):
        name, ok, detail = result
        return None if ok else Failure(f"criterion-{index} {name}: {detail}")

    return call, check


def prepare(spec, ctx):
    """(call, check) of one operation; all untimed work happens here."""
    kind = spec["kind"]
    if kind.startswith("apply"):
        return _prepare_apply(spec, ctx)
    if kind == "selftest":
        return _prepare_selftest(spec, ctx)
    return _prepare_cli(spec, ctx)
