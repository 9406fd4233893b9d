"""Per-call times of the ``contour`` command for z5 and z6, in two trees side by side.

    python tests/data/contour_times.py SRC_A SRC_B [ROUNDS]

Each round starts one fresh process per tree, A first in odd rounds and
B first in even ones, as ``criterion_times.py`` does.  Each process, with
``zolocirc`` imported from its tree, runs ``zolocirc.cli.main`` on

    contour --problem P --degree DEGREE --theta THETA --window=-2,2,-2,2
            --resolution N --out FILE

for every problem P of PROBLEMS and resolution N of RESOLUTIONS, FILE in
a temporary directory, and keeps each call's best time of REPEATS in
milliseconds: the grid (``analysis.contour_grid``) and the CSV text
together, as the benchmark's ``cli`` workload pays them.  After ROUNDS
rounds (default 5, at least 5) it prints a row per (problem, resolution)
with each tree's median over the rounds and, in brackets, the least and
the largest round.  pytest does not collect this file.
"""

import json
import statistics
import subprocess
import sys

PROBLEMS = ("z5", "z6")
RESOLUTIONS = (64, 256, 512)
DEGREE = 8
THETA = 1.0
REPEATS = 5
# run in the child: the best time per contour call at each (problem, resolution), in milliseconds, as one JSON list
CHILD = """
import json, os, sys, tempfile, timeit
sys.path.insert(0, sys.argv[1])
from zolocirc import cli
degree, theta, repeats = sys.argv[2], sys.argv[3], int(sys.argv[4])
out = []
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "contour.csv")
    for problem in json.loads(sys.argv[5]):
        for res in json.loads(sys.argv[6]):
            argv = ["contour", "--problem", problem, "--degree", degree, "--theta", theta,
                    "--window=-2,2,-2,2", "--resolution", str(res), "--out", path]
            assert cli.main(argv) == 0  # any first-call work happens before the count
            out.append(1e3 * min(timeit.repeat(lambda: cli.main(argv), number=1, repeat=repeats)))
print(json.dumps(out))
"""


def per_call(src: str) -> list:
    """One process's best time per contour call (ms) at each (problem, resolution)."""
    argv = [sys.executable, "-c", CHILD, src, str(DEGREE), repr(THETA), str(REPEATS), json.dumps(PROBLEMS),
            json.dumps(RESOLUTIONS)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(trees: list, rounds: int) -> None:
    if rounds < 5:
        raise SystemExit(f"at least 5 rounds, got {rounds}")
    runs = [[] for _ in trees]  # per tree, per round: the times of every (problem, resolution)
    for k in range(rounds):
        for j in (0, 1) if k % 2 == 0 else (1, 0):
            runs[j].append(per_call(trees[j]))
    print(f"problem resolution (ms per contour call at degree {DEGREE}, theta {THETA}, "
          f"median [least, largest] of {rounds} rounds) " + " | ".join(trees))
    for i, (problem, res) in enumerate((p, n) for p in PROBLEMS for n in RESOLUTIONS):
        cells = []
        for per_round in runs:
            col = [times[i] for times in per_round]
            cells.append(f"{statistics.median(col):.1f} [{min(col):.1f}, {max(col):.1f}]")
        print(problem, res, " | ".join(cells), flush=True)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        raise SystemExit(__doc__)
    main(sys.argv[1:3], int(sys.argv[3]) if len(sys.argv) == 4 else 5)
