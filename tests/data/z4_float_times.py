"""Per-call time of a float call of ``z4_solution(m, 0.3)`` in two source trees, side by side.

    python tests/data/z4_float_times.py SRC_A SRC_B [ROUNDS]

Each round starts one fresh process per tree, A first in odd rounds and
B first in even ones, as ``criterion_times.py`` does.  Each process builds
``z4_solution(m, 0.3)`` for every m of DEGREES, with ``zolocirc``
imported from its tree, and times ``[approx(x) for x in xs]`` over POINTS
floats spread over [-1, 1], best of REPEATS, in nanoseconds per call (the
list comprehension's own cost included).  After ROUNDS rounds (default 5,
at least 5) it prints one row per degree: each tree's median over the
rounds and, in brackets, the least and the largest round.  These are the
float calls of ``apply``'s z4 operations, which the layer tracer does not
time.  pytest does not collect this file.
"""

import json
import statistics
import subprocess
import sys

DEGREES = (1, 2, 4, 8, 16, 32, 64)
ELL = 0.3
POINTS = 20_000
REPEATS = 7
# run in the child: the best time per float call at each degree, in nanoseconds, as a JSON list
CHILD = """
import json, sys, timeit
import numpy as np
sys.path.insert(0, sys.argv[1])
from zolocirc import z4_solution
ell, points, repeats = float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
xs = np.linspace(-1.0, 1.0, points).tolist()
out = []
for m in json.loads(sys.argv[5]):
    approx = z4_solution(m, ell)
    best = min(timeit.repeat(lambda: [approx(x) for x in xs], number=1, repeat=repeats))
    out.append(1e9 * best / points)
print(json.dumps(out))
"""


def per_call(src: str) -> list:
    """One process's best time per float call at each degree of DEGREES, in nanoseconds."""
    argv = [sys.executable, "-c", CHILD, src, repr(ELL), str(POINTS), str(REPEATS), json.dumps(DEGREES)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(trees: list, rounds: int) -> None:
    if rounds < 5:
        raise SystemExit(f"at least 5 rounds, got {rounds}")
    runs = [[] for _ in trees]  # per tree, per round: the time per call at each degree
    for k in range(rounds):
        for j in (0, 1) if k % 2 == 0 else (1, 0):
            runs[j].append(per_call(trees[j]))
    print(f"m (ns per float call at ell = {ELL}, median [least, largest] of {rounds} rounds) " + " | ".join(trees))
    for i, m in enumerate(DEGREES):
        cells = []
        for per_round in runs:
            col = [row[i] for row in per_round]
            cells.append(f"{statistics.median(col):.0f} [{min(col):.0f}, {max(col):.0f}]")
        print(m, " | ".join(cells), flush=True)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        raise SystemExit(__doc__)
    main(sys.argv[1:3], int(sys.argv[3]) if len(sys.argv) == 4 else 5)
