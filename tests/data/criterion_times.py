"""Per-criterion selftest times of two source trees, side by side.

    python tests/data/criterion_times.py SRC_A SRC_B [ROUNDS]

Each round starts one fresh process per tree, A first in odd rounds and
B first in even ones, and each process times every criterion of
``selftest.CRITERIA`` 15 times (one call each) with ``zolocirc``
imported from its tree, and keeps the median.  After ROUNDS rounds
(default 5, at least 5) it prints one row per criterion and one for the
sum of the medians: each tree's median over the rounds and, in
brackets, the least and the largest round, in milliseconds.  One
benchmark run of the ``selftest`` workload times only a few sweeps, so a
change that moves one criterion by a few percent is resolved here.
pytest does not collect this file.
"""

import json
import statistics
import subprocess
import sys

CALLS = 15
# run in the child: the median of CALLS one-call timings of each criterion, in seconds, as a JSON list
CHILD = """
import json, statistics, sys, timeit
sys.path.insert(0, sys.argv[1])
from zolocirc import selftest
print(json.dumps([statistics.median(timeit.repeat(fn, number=1, repeat=int(sys.argv[2])))
                  for fn in selftest.CRITERIA]))
"""


def medians(src: str) -> list:
    """One process's median time of each criterion over CALLS calls, in seconds."""
    out = subprocess.run([sys.executable, "-c", CHILD, src, str(CALLS)], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(trees: list, rounds: int) -> None:
    if rounds < 5:
        raise SystemExit(f"at least 5 rounds, got {rounds}")
    runs = [[] for _ in trees]  # per tree, per round: the criterion medians and their sum
    for k in range(rounds):
        for j in (0, 1) if k % 2 == 0 else (1, 0):
            row = medians(trees[j])
            runs[j].append(row + [sum(row)])
    print(f"criterion (ms, median [least, largest] of {rounds} rounds) " + " | ".join(trees))
    rows = len(runs[0][0])
    for i in range(rows):
        cells = []
        for per_round in runs:
            col = [1e3 * row[i] for row in per_round]
            cells.append(f"{statistics.median(col):.2f} [{min(col):.2f}, {max(col):.2f}]")
        print("sum" if i == rows - 1 else i + 1, " | ".join(cells), flush=True)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        raise SystemExit(__doc__)
    main(sys.argv[1:3], int(sys.argv[3]) if len(sys.argv) == 4 else 5)
