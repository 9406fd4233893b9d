"""Per-call times of ``z4_solution(m, 0.3)`` at floats and arrays, and of circle scalars, in two trees side by side.

    python tests/data/z4_float_times.py SRC_A SRC_B [ROUNDS]

Each round starts one fresh process per tree, A first in odd rounds and
B first in even ones, as ``criterion_times.py`` does.  Each process, with
``zolocirc`` imported from its tree, times four things, best of REPEATS:

- float calls: ``z4_solution(m, 0.3)`` for every m of DEGREES, timed as
  ``[approx(x) for x in xs]`` over POINTS floats spread over [-1, 1], in
  nanoseconds per call (the list comprehension's own cost included).
  These are the float calls of ``apply``'s z4 operations, which the layer
  tracer does not time;
- array calls: ``approx(xs)`` for every m of ARRAY_DEGREES and every size
  of ARRAY_SIZES, xs spread over [-1, 1], in microseconds per call;
- scalar circle calls: ``build_s(m, 1.0)(z)`` for every m of
  SCALAR_DEGREES, over SCALAR_POINTS Python complexes on the unit circle,
  in nanoseconds per call;
- far float calls: ``z4_solution(m, 0.3)(x)`` for every m of
  SCALAR_DEGREES, over SCALAR_POINTS floats of either sign in [1e200,
  2e200], past the far-field limit, in nanoseconds per call.

The last two time scalars that reach the lift ``_lift``, which takes
them as one-point arrays: a cost that no benchmark workload pays, since
none makes such a call.
After ROUNDS rounds (default 5, at least 5) it prints one table for each:
a row per degree (and size), with each tree's median over the rounds and,
in brackets, the least and the largest round.  pytest does not collect
this file.
"""

import json
import statistics
import subprocess
import sys

DEGREES = (1, 2, 4, 8, 16, 32, 64)
ARRAY_DEGREES = (2, 8, 33, 64)
ARRAY_SIZES = (101, 1024, 4096, 65536)
SCALAR_DEGREES = (4, 32, 128)
ELL = 0.3
POINTS = 20_000
SCALAR_POINTS = 2_000
REPEATS = 7
# run in the child: the best time per float call at each degree, in nanoseconds, then the best time
# per array call at each (degree, size), in microseconds, then per scalar circle call and per far float
# call at each degree, in nanoseconds, as one JSON list
CHILD = """
import json, sys, timeit
import numpy as np
sys.path.insert(0, sys.argv[1])
from zolocirc import build_s, z4_solution
ell, points, repeats = float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
xs = np.linspace(-1.0, 1.0, points).tolist()
out = []
for m in json.loads(sys.argv[5]):
    approx = z4_solution(m, ell)
    best = min(timeit.repeat(lambda: [approx(x) for x in xs], number=1, repeat=repeats))
    out.append(1e9 * best / points)
for m in json.loads(sys.argv[6]):
    approx = z4_solution(m, ell)
    for size in json.loads(sys.argv[7]):
        batch = np.linspace(-1.0, 1.0, size)
        approx(batch)  # any first-call work happens before the count
        out.append(1e6 * min(timeit.repeat(lambda: approx(batch), number=1, repeat=repeats)))
count = int(sys.argv[9])
circle = np.exp(1j * np.linspace(-3.1, 3.1, count)).tolist()
far = [(-1.0) ** k * 1e200 * (1.0 + k / count) for k in range(count)]
for make, points in ((lambda m: build_s(m, 1.0), circle), (lambda m: z4_solution(m, ell), far)):
    for m in json.loads(sys.argv[8]):
        approx = make(m)
        approx(points[0])  # any first-call work happens before the count
        best = min(timeit.repeat(lambda: [approx(p) for p in points], number=1, repeat=repeats))
        out.append(1e9 * best / count)
print(json.dumps(out))
"""


def per_call(src: str) -> list:
    """One process's best times: per float call (ns), per array call (µs), per circle and per far float call (ns)."""
    argv = [sys.executable, "-c", CHILD, src, repr(ELL), str(POINTS), str(REPEATS), json.dumps(DEGREES),
            json.dumps(ARRAY_DEGREES), json.dumps(ARRAY_SIZES), json.dumps(SCALAR_DEGREES), str(SCALAR_POINTS)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(trees: list, rounds: int) -> None:
    if rounds < 5:
        raise SystemExit(f"at least 5 rounds, got {rounds}")
    runs = [[] for _ in trees]  # per tree, per round: the float, array, circle and far float times
    for k in range(rounds):
        for j in (0, 1) if k % 2 == 0 else (1, 0):
            runs[j].append(per_call(trees[j]))
    tables = [(f"m (ns per float call at ell = {ELL}", [(m,) for m in DEGREES]),
              (f"m points (µs per array call at ell = {ELL}", [(m, n) for m in ARRAY_DEGREES for n in ARRAY_SIZES]),
              ("m (ns per scalar circle call of build_s(m, 1.0)", [(m,) for m in SCALAR_DEGREES]),
              (f"m (ns per far float call at ell = {ELL}", [(m,) for m in SCALAR_DEGREES])]
    rows, titles = [], {}
    for title, table in tables:
        titles[len(rows)] = title
        rows += table
    for i, row in enumerate(rows):
        if i in titles:
            print(f"{titles[i]}, median [least, largest] of {rounds} rounds) " + " | ".join(trees))
        cells = []
        for per_round in runs:
            col = [times[i] for times in per_round]
            cells.append(f"{statistics.median(col):.0f} [{min(col):.0f}, {max(col):.0f}]")
        print(*row, " | ".join(cells), flush=True)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        raise SystemExit(__doc__)
    main(sys.argv[1:3], int(sys.argv[3]) if len(sys.argv) == 4 else 5)
