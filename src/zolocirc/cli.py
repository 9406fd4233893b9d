"""Command-line front end.

Commands: build | error | bounds | compose | contour | selftest.
All structured output goes through a deterministic serializer: fixed key
order, floats at 17 significant digits (infinite factor parameters become
the string "inf", which strict JSON cannot carry as a number), LF line
endings.  The contour CSV holds ``format(v, ".17g")`` of each cell, made in
certified numpy blocks (``_g17``) with ``format`` itself as the fallback.
A build reports its power of z as 0 for z5/z6 (z = 0 is a factor) and 1
for z4.  Exit codes: 0 ok, 1 contour cannot write --out or a selftest
criterion failed, 2 usage (a negative --degree, or a size or window flag out
of range, included: each is checked before anything is built), 3 numeric
domain (every --theta that elliptic.require_theta refuses among them), 4
equioscillation deficiency, 5 composition residual breach.
"""

from __future__ import annotations

import argparse
import fractions
import functools
import math
import sys

import numpy as np

from . import __version__, analysis, approximants, composition, selftest
from .elliptic import require_theta, solve_lambda
from .errors import DomainError, ResolutionError

COMPOSE_TOLERANCE = 1e-9
SIZE_FLAG_MAX = 2**20  # --grid and --samples: far above any useful size, far below a memory error
_CSV_BLOCK = 4096  # contour cells per write: larger blocks are little faster and raise the peak memory


def _fmt(value) -> str:
    """Serialize to deterministic JSON text."""
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return format(x, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, dict):
        inner = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


@functools.cache
def _g17_tables() -> tuple:
    """_g17's tables: 10^p as (hi, lo) for p in [-199, 300], ASCII and trailing zeros of 0000-9999, text layouts.

    A layout row gives each output byte's place in _g17's 28-byte source row: 0-15 digits 2-17, 16 digit 1,
    17 ".", 18 "0", 19 NUL, 20-23 the exponent's four digits, 24 "e", 25 its sign, 26 "-".  Rows run over
    (kind, significant digits 1-17, minus sign); kinds 0-20 are fixed notation at exponents -4..16, 21-22 d.de+XX(X).
    """
    exact = [fractions.Fraction(10) ** p for p in range(-199, 301)]
    hi = [float(e) for e in exact]  # both correctly rounded
    lo = [float(e - fractions.Fraction(h)) for e, h in zip(exact, hi)]
    chunks = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    zeros = (chunks[:, ::-1] == ord("0")).cumprod(axis=1).sum(axis=1)
    lead = np.frombuffer(b"".join(b"%d.0\0" % k for k in range(10)), np.uint32)
    d, layouts = [16] + list(range(16)), []  # d: the places of digits 1-17 in the source row
    for kind in range(23):
        whole = 1 if kind > 20 else kind - 3  # digits before the point, or minus the zeros after it
        for nsig in range(1, 18):
            head = d[:whole] if whole > 0 else [18, 17] + [18] * -whole
            src = head + ([17] if 0 < whole < nsig else []) + d[max(whole, 0) : nsig]
            src += [24, 25] + [21, 22, 23][22 - kind :] if kind > 20 else []
            layouts += [src + [19] * (24 - len(src)), [26] + src + [19] * (23 - len(src))]
    return np.array(hi), np.array(lo), chunks.view(np.uint32).ravel(), zeros, lead, np.array(layouts, np.intp)


def _split(y: np.ndarray) -> tuple:
    """Veltkamp's split of doubles into halves of 26 bits, whose products are exact."""
    t = y * 134217729.0  # 2**27 + 1
    high = t - (t - y)
    return high, y - high


def _g17(v: np.ndarray) -> tuple:
    """format(x, ".17g") of each double of a 1-D array as NUL-padded ASCII rows, and the mask of those format wrote.

    X = floor(log10 |x|) and the digits D = round(|x| 10^(16 - X)) come from |x| times the double-double
    10^(16 - X) by Dekker's exact product, to an error below 1e-14.  A cell is certified when that product's
    fraction lies more than 1e-9 from 1/2, its floor and D lie in [10^16, 10^17) and |x| in [1e-284, 1e216),
    where the split and the tables stay finite and normal.  Zeros, infinities, NaNs, ties and carries fall back.
    """
    ten_hi, ten_lo, chunks, zeros, lead, layouts = _g17_tables()
    a = np.abs(v)
    certified = (a >= 1e-284) & (a < 1e216)
    a = np.where(certified, a, 1.0)
    x = np.clip(np.floor(np.log10(a)).astype(np.intp), -284, 215)  # may be off by one: then D leaves the decade
    hi, lo = ten_hi[215 - x], ten_lo[215 - x]
    product = a * hi
    (ah, al), (hh, hl) = _split(a), _split(hi)
    c = ((ah * hh - product) + ah * hl + al * hh) + al * hl + a * lo  # the rest of |x| 10^(16 - X), below 20
    floor = np.floor(c)
    fraction = c - floor
    d = product.astype(np.int64) + floor.astype(np.int64)
    certified &= (np.abs(fraction - 0.5) > 1e-9) & (d >= 10**16)
    d += fraction > 0.5
    certified &= d < 10**17
    top, low = np.divmod(np.where(certified, d, 10**16), 10**8)
    first, top = np.divmod(top, 10**8)
    parts = np.divmod(top, 10**4) + np.divmod(low, 10**4)
    source = np.empty((len(v), 7), np.uint32)
    trailing = np.zeros(len(v), np.intp)
    for k, part in enumerate(parts):
        source[:, k] = chunks[part]
        trailing += zeros[parts[3 - k]] * (trailing == 4 * k)  # counted while the later chunks are 0000
    source[:, 4], source[:, 5] = lead[first], chunks[np.abs(x)]
    source[:, 6] = np.where(x < 0, *np.frombuffer(b"e--\0e+-\0", np.uint32))
    kind = np.where((x >= -4) & (x <= 16), x + 4, 21 + (np.abs(x) >= 100))
    index = np.take(layouts, (kind * 17 + 16 - trailing) * 2 + (v < 0), axis=0)
    index += 28 * np.arange(len(v))[:, None]
    out = np.take(source.view(np.uint8), index)
    for i in np.flatnonzero(~certified):
        out[i] = np.frombuffer(format(float(v[i]), ".17g").encode().ljust(24, b"\0"), np.uint8)
    return out[:, : np.flatnonzero(out.any(axis=0))[-1] + 1], ~certified


def _csv_rows(re_text: np.ndarray, im_text: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The bytes of the lines "re,im,value" of whole grid rows, from _g17's rows of each axis."""
    value_text = _g17(values.ravel())[0].reshape(values.shape + (-1,))
    fields = (re_text[None], im_text[:, None], value_text)
    ends = np.cumsum([f.shape[2] + 1 for f in fields])
    line = np.empty(values.shape + (ends[-1],), np.uint8)
    for field, end in zip(fields, ends):
        line[:, :, end - 1 - field.shape[2] : end - 1] = field
        line[:, :, end - 1] = ord(",")
    line[:, :, -1] = ord("\n")
    return line[line != 0]


def _envelope(args, results: dict) -> str:
    """The command's JSON document; ``inputs`` echoes the parsed flags in parser order."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return _fmt(
        {
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "tool_version": __version__,
        }
    )


def _check_degree_flag(degree: int) -> None:
    if degree < 0:
        raise _UsageError(f"--degree must be >= 0, got {degree!r}")


def _check_range(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise _UsageError(f"{flag} must lie in [{lo}, {hi}], got {value!r}")


class _UsageError(Exception):
    pass


def _factor_block(z_power: int, quarter_turns: int, factors, zeros, poles) -> dict:
    """The six keys that end every build payload; ``zeros`` and ``poles`` are complex numbers."""
    return {
        "z_power": z_power,
        "quarter_turns": quarter_turns,
        "factors": list(factors),
        "zeros": [[w.real, w.imag] for w in zeros],
        "poles": [[w.real, w.imag] for w in poles],
        "exact_type": [len(zeros), len(poles)],
    }


def _cmd_build(args) -> int:
    if args.problem in ("z5", "z6"):
        if args.theta is None:
            raise _UsageError(f"--theta is required for {args.problem}")
        _check_degree_flag(args.degree)
        ell, ell_comp = require_theta(args.theta)
        build = analysis._problem_fns(args.problem)[0]
        r = build(args.degree, args.theta)
        effective = analysis.effective_degree(args.problem, args.degree)
        red = solve_lambda(ell, effective, ell_comp)
        results = {
            "problem": args.problem,
            "degree": args.degree,
            "theta": args.theta,
            "ell": ell,
            "lambda": red.lam,
            "lambda_comp": red.lam_comp,
            "predicted_max_error": math.atan2(red.lam_comp, red.lam),  # analysis.theta_tilde, without its second solve
            **_factor_block(0, r.quarter_turns, r.factors, r.zeros(), r.poles()),
        }
    else:  # z4 takes --ell
        if args.ell is None:
            raise _UsageError("--ell is required for z4")
        if args.degree < 1:
            raise _UsageError("z4 needs --degree >= 1")
        approx = approximants.z4_solution(args.degree, args.ell)
        zf = approx.fraction
        red = zf.reduction
        # per-factor constants of the product form (1 + (x/ell)^2 c):
        # odd nodes carry the pole factors, even nodes the zero factors,
        # so the zeros/poles sit at +-i ell/sqrt(c), after F_m's zero at 0
        zeros = [0j] + [complex(0.0, s * args.ell / math.sqrt(c)) for c in zf.cot2_even for s in (1.0, -1.0)]
        poles = [complex(0.0, s * args.ell / math.sqrt(c)) for c in zf.cot2_odd for s in (1.0, -1.0)]
        results = {
            "problem": "z4",
            "degree": args.degree,
            "ell": args.ell,
            "lambda": red.lam,
            "lambda_comp": red.lam_comp,
            "predicted_max_error": approx.deviation,
            "scale": approx.scale,
            **_factor_block(1, 0, zf.cot2_odd, zeros, poles),
        }
    print(_envelope(args, results))
    return 0


def _cmd_error(args) -> int:
    _check_degree_flag(args.degree)
    # checked before the build: the phase report refuses fewer than 8 (degree + 1) points
    _check_range("--grid", args.grid, max(64, 8 * (args.degree + 1)), SIZE_FLAG_MAX)
    build, phase_report = analysis._problem_fns(args.problem)
    r = build(args.degree, args.theta)
    report = phase_report(r, args.theta, args.grid)
    results = {
        "problem": args.problem,
        "degree": args.degree,
        "theta": args.theta,
        "measured_max_error": report.max_error,
        "predicted_max_error": report.predicted,
        "alternation_counts": list(report.arcs),
        "expected_per_arc": report.expected,
        "grid_size": report.grid_size,
        "extrema": [[t, e] for t, e in report.extrema],
    }
    print(_envelope(args, results))
    if any(c < report.expected for c in report.arcs):
        return 4
    return 0


def _cmd_bounds(args) -> int:
    _check_range("--max-degree", args.max_degree, 0, 64)
    build, phase_report = analysis._problem_fns(args.problem)
    rows = []
    for degree in range(args.max_degree + 1):
        measured = analysis.theta_tilde(analysis.effective_degree(args.problem, degree), args.theta)
        if measured >= sys.float_info.min:  # else theta_tilde: the nodes refuse a subnormal optimum
            measured = phase_report(build(degree, args.theta), args.theta, max(128, 8 * (degree + 1))).max_error
        b_rho, b_sec = analysis.error_bounds(degree, args.theta, args.problem)
        rows.append((degree, measured, b_rho, b_sec))
    columns = ("degree", "measured", "bound_rho", "bound_secant")
    if args.format == "csv":
        lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        print(_envelope(args, {"rows": [dict(zip(columns, row)) for row in rows]}))
    return 0


def _compose_samples(count: int) -> np.ndarray:
    """Deterministic circle samples: Chebyshev-spaced plus 64 seeded points."""
    k = np.arange(count)
    cheb = math.pi * (2.0 * k + 1.0) / (2.0 * count)
    rng = np.random.default_rng(0x5EED)
    extra = 2.0 * math.pi * rng.random(64)
    return np.exp(1j * np.concatenate([cheb, extra]))


def _cmd_compose(args) -> int:
    if args.degree < 1 or args.degree_tilde < 1:
        raise _UsageError("compose needs positive --degree and --degree-tilde")
    _check_range("--samples", args.samples, 1, SIZE_FLAG_MAX)
    z = _compose_samples(args.samples)
    left, right = composition.compose_s(args.degree_tilde, args.degree, args.theta, z)
    residual = float(np.max(np.abs(left - right)))
    results = {
        "theta_tilde": composition.theta_tilde(args.degree, args.theta),
        "target_degree": args.degree_tilde * args.degree,
        "max_residual": residual,
        "tolerance": COMPOSE_TOLERANCE,
        "passed": residual <= COMPOSE_TOLERANCE,
    }
    print(_envelope(args, results))
    return 0 if residual <= COMPOSE_TOLERANCE else 5


def _cmd_contour(args) -> int:
    _check_degree_flag(args.degree)
    try:
        parts = [float(v) for v in args.window.split(",")]
    except ValueError:
        raise _UsageError(f"--window must be four comma-separated reals, got {args.window!r}")
    if len(parts) != 4 or not all(map(math.isfinite, parts)):
        raise _UsageError(f"--window must be four comma-separated finite reals, got {args.window!r}")
    window = (parts[0], parts[1], parts[2], parts[3])
    if not (window[0] < window[1] and window[2] < window[3]):
        raise _UsageError(f"--window must have re_min < re_max and im_min < im_max, got {args.window!r}")
    _check_range("--resolution", args.resolution, 16, 4096)
    build = analysis._problem_fns(args.problem)[0]
    grid = analysis.contour_grid(build(args.degree, args.theta), args.problem, window, args.resolution)
    re_text, im_text = _g17(grid.re)[0], _g17(grid.im)[0]
    rows = max(1, _CSV_BLOCK // args.resolution)
    try:
        with open(args.out, "wb") as fh:
            fh.write(b"re,im,value\n")
            for r in range(0, args.resolution, rows):
                fh.write(_csv_rows(re_text, im_text[r : r + rows], grid.values[r : r + rows]))
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_selftest(_args) -> int:
    results = selftest.run_all()
    failures = 0
    for index, name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} criterion-{index} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} criterion(s) failed")
        return 1
    print("all criteria passed")
    return 0


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zolocirc",
        description="Optimal unimodular rational approximants of sqrt(z) and sign(z) on circle arcs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an approximant and print its JSON description")
    p.add_argument("--problem", required=True, choices=("z4", "z5", "z6"))
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--ell", type=float)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("error", help="measure the equioscillating phase error")
    p.add_argument("--problem", required=True, choices=("z5", "z6"))
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--theta", required=True, type=float)
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser("bounds", help="tabulate measured errors against the decay bounds")
    p.add_argument("--problem", required=True, choices=("z5", "z6"))
    p.add_argument("--max-degree", required=True, type=int)
    p.add_argument("--theta", required=True, type=float)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("compose", help="verify the sign-approximant composition law")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--degree-tilde", required=True, type=int)
    p.add_argument("--theta", required=True, type=float)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("contour", help="emit |approximant - target| on a grid as CSV")
    p.add_argument("--problem", required=True, choices=("z5", "z6"))
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--theta", required=True, type=float)
    p.add_argument("--window", default="-2,2,-2,2")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("selftest", help="run the acceptance sweep (criteria 1-8)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3
    except ResolutionError as exc:
        print(f"equioscillation deficiency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
