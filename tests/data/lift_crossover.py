"""The crossover table behind ``approximants._lift``'s two array orders.

    python tests/data/lift_crossover.py [SRC]

Times ``_lift`` on the circle at Theta = 1.0 over a grid of degrees M and
batch sizes, once per order: the node sweep (``_BLOCK_NODES`` raised past
every M) and the node blocks (``_BLOCK_POINTS`` raised past every batch,
``_BLOCK_NODES`` set to 1).  Each cell is the best of 7 rounds that
alternate the two orders, in microseconds per call, with ``zolocirc``
imported from SRC (default: the ``src`` of this checkout).  Both orders are
first checked to give the same bits.  It prints one row per M, as
``M K sweep/block ...`` with K the number of odd nodes, and pytest does not
collect this file.
"""

import math
import os
import sys
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEGREES = (5, 9, 15, 16, 33, 65, 129, 257, 513)
POINTS = (64, 256, 512, 1024, 2048, 4096, 16384, 65536)


def order(ap, block: bool):
    ap._BLOCK_POINTS, ap._BLOCK_NODES = (1 << 62, 1) if block else (0, 1 << 62)


def main(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from zolocirc import approximants as ap

    rng = np.random.default_rng(1)
    print("M K " + " ".join(f"{n}:sweep/block" for n in POINTS))
    for m in DEGREES:
        zf = ap.ZolotarevFraction.from_ell(m, math.cos(1.0))
        cells = []
        for n in POINTS:
            t = rng.uniform(-math.pi, math.pi, n)
            x, y = np.cos(t), np.sin(t)
            results, best = [], [math.inf, math.inf]
            number = max(1, 20000 // (m * (1 + n // 64)))
            for rounds in range(7):
                for block in (False, True):
                    order(ap, block)
                    if not rounds:
                        results.append(np.concatenate(ap._lift(zf, x, y)).view(np.uint64))
                    best[block] = min(best[block], timeit.timeit(lambda: ap._lift(zf, x, y), number=number) / number)
            if not np.array_equal(*results):
                raise SystemExit(f"the orders disagree at M = {m}, {n} points")
            cells.append(f"{1e6 * best[0]:.1f}/{1e6 * best[1]:.1f}")
        print(m, len(zf.cot2_odd), " ".join(cells), flush=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"))
