"""Selftest, z4 and contour times of two source trees, side by side.

    python tests/data/ab_times.py SRC_A SRC_B [ROUNDS]

Each round starts one fresh process per tree, A first in odd rounds and
B first in even ones.  Each imports ``zolocirc`` from its tree and this
file from its own directory, and measures every entry of TABLES in order:

- each criterion of ``selftest.CRITERIA`` (the median of CRITERION_CALLS
  calls, ms) and the sum of the medians;
- ``z4_solution(m, ELL)`` at POINTS floats in [-1, 1], as ``[approx(x) for
  x in xs]`` (ns per call): ``apply``'s z4 calls, which the layer tracer
  does not time; and at arrays of ARRAY_SIZES points (µs per call);
- ``build_s(m, 1.0)`` at SCALAR_POINTS complexes on the unit circle, and
  ``z4_solution(m, ELL)`` at SCALAR_POINTS floats of either sign in
  [1e200, 2e200] (ns per call): scalars that reach the lift ``_lift`` as
  one-point arrays, a cost that no benchmark workload pays;
- ``cli.main`` on ``contour --problem P --degree DEGREE --theta THETA
  --window=-2,2,-2,2 --resolution N --out FILE`` (ms per call): the grid
  and the CSV text, as the ``cli`` workload pays them.

The z4 times are the best of Z4_REPEATS, the contour times the best of
CONTOUR_REPEATS, each but the float calls after one untimed call.  After
ROUNDS rounds (default 5, at least 5) it prints one table per entry, a
row per case: each tree's median over the rounds and, in brackets, the
least and the largest round.  pytest does not collect this file.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import timeit

import numpy as np

CRITERION_CALLS = 15
DEGREES = (1, 2, 4, 8, 16, 32, 64)
ARRAY_DEGREES = (2, 8, 33, 64)
ARRAY_SIZES = (101, 1024, 4096, 65536)
SCALAR_DEGREES = (4, 32, 128)
ELL = 0.3
POINTS, SCALAR_POINTS = 20_000, 2_000
Z4_REPEATS = 7
PROBLEMS, RESOLUTIONS = ("z5", "z6"), (64, 256, 512)
DEGREE, THETA = 8, 1.0
CONTOUR_REPEATS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
# run in each fresh process, argv SRC HERE: every table's rows as one JSON list
CHILD = "import json, sys; sys.path[:0] = sys.argv[1:]; import ab_times; print(json.dumps(ab_times.measure()))"


def best(fn, repeats: int) -> float:
    """The least of ``repeats`` one-call timings of fn, in seconds."""
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def criteria(z):
    medians = [statistics.median(timeit.repeat(fn, number=1, repeat=CRITERION_CALLS)) for fn in z.selftest.CRITERIA]
    yield from ((i, 1e3 * t) for i, t in enumerate(medians, start=1))
    yield "sum", 1e3 * sum(medians)


def float_calls(z):
    xs = np.linspace(-1.0, 1.0, POINTS).tolist()
    for m in DEGREES:
        approx = z.z4_solution(m, ELL)
        yield m, 1e9 * best(lambda: [approx(x) for x in xs], Z4_REPEATS) / POINTS


def array_calls(z):
    for m in ARRAY_DEGREES:
        approx = z.z4_solution(m, ELL)
        for size in ARRAY_SIZES:
            batch = np.linspace(-1.0, 1.0, size)
            approx(batch)
            yield f"{m} {size}", 1e6 * best(lambda: approx(batch), Z4_REPEATS)


def scalar_calls(make, points):
    for m in SCALAR_DEGREES:
        approx = make(m)
        approx(points[0])
        yield m, 1e9 * best(lambda: [approx(p) for p in points], Z4_REPEATS) / len(points)


def circle_calls(z):
    return scalar_calls(lambda m: z.build_s(m, 1.0), np.exp(1j * np.linspace(-3.1, 3.1, SCALAR_POINTS)).tolist())


def far_calls(z):
    far = [(-1.0) ** k * 1e200 * (1.0 + k / SCALAR_POINTS) for k in range(SCALAR_POINTS)]
    return scalar_calls(lambda m: z.z4_solution(m, ELL), far)


def contour_calls(z):
    with tempfile.TemporaryDirectory() as tmp:
        for problem in PROBLEMS:
            for res in RESOLUTIONS:
                argv = ["contour", "--problem", problem, "--degree", str(DEGREE), "--theta", repr(THETA),
                        "--window=-2,2,-2,2", "--resolution", str(res), "--out", os.path.join(tmp, "contour.csv")]
                if z.cli.main(argv) != 0:
                    raise RuntimeError(f"contour failed: {argv}")
                yield f"{problem} {res}", 1e3 * best(lambda: z.cli.main(argv), CONTOUR_REPEATS)


# (title, digits, rows): the header up to its unit, the digits of each time, and the (label, time) rows
TABLES = [
    ("criterion (ms", 2, criteria),
    (f"m (ns per float call at ell = {ELL}", 0, float_calls),
    (f"m points (µs per array call at ell = {ELL}", 0, array_calls),
    ("m (ns per scalar circle call of build_s(m, 1.0)", 0, circle_calls),
    (f"m (ns per far float call at ell = {ELL}", 0, far_calls),
    (f"problem resolution (ms per contour call at degree {DEGREE}, theta {THETA}", 1, contour_calls),
]


def measure() -> list:
    """One process's rows of every table, in the order of TABLES, with ``zolocirc`` from the path."""
    import zolocirc.cli
    import zolocirc.selftest

    return [list(rows(zolocirc)) for _, _, rows in TABLES]


def main(trees: list, rounds: int) -> None:
    if rounds < 5:
        raise SystemExit(f"at least 5 rounds, got {rounds}")
    runs = [[] for _ in trees]  # per tree, per round: every table's rows
    for k in range(rounds):
        for j in (0, 1) if k % 2 == 0 else (1, 0):
            out = subprocess.run([sys.executable, "-c", CHILD, trees[j], HERE], capture_output=True, text=True,
                                 check=True)
            runs[j].append(json.loads(out.stdout))
    for t, (title, digits, _) in enumerate(TABLES):
        print(f"{title}, median [least, largest] of {rounds} rounds) " + " | ".join(trees))
        for i, (label, _) in enumerate(runs[0][0][t]):
            cells = []
            for per_round in runs:
                col = [tables[t][i][1] for tables in per_round]
                cells.append(f"{statistics.median(col):.{digits}f} [{min(col):.{digits}f}, {max(col):.{digits}f}]")
            print(label, " | ".join(cells), flush=True)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        raise SystemExit(__doc__)
    main(sys.argv[1:3], int(sys.argv[3]) if len(sys.argv) == 4 else 5)
