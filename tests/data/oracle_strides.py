"""The stride table behind ``oracle._BOUND_STRIDE``.

    python tests/data/oracle_strides.py [SRC]

Times ``oracle_minimax_degree1`` at each Theta of THETAS, first as SRC
builds it and then with ``_BOUND_STRIDE`` set to each of STRIDES.  Each
cell is the best of 7 rounds that alternate the settings, in milliseconds
per call, with ``zolocirc`` imported from SRC (default: the ``src`` of
this checkout).  Every setting is first checked to give the same bits.
It prints one row per setting, as ``setting ms ...``, and pytest does not
collect this file.
"""

import math
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
THETAS = (0.3, 0.5, 1.0, 1.4, 1.5707)
STRIDES = (32, 64, 128, 256)


def main(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from zolocirc import oracle as orc

    settings = (orc._BOUND_STRIDE,) + STRIDES
    best, built = [[math.inf] * len(THETAS) for _ in settings], None
    for rounds in range(7):
        for row, stride in zip(best, settings):
            orc._BOUND_STRIDE = stride
            if not rounds:
                bits = [orc.oracle_minimax_degree1(theta).hex() for theta in THETAS]
                built = built or bits
                if bits != built:
                    raise SystemExit(f"stride {stride} moves the argmin: {bits} != {built}")
            for k, theta in enumerate(THETAS):
                row[k] = min(row[k], timeit.timeit(lambda: orc.oracle_minimax_degree1(theta), number=3) / 3)
    print("setting " + " ".join(f"{theta}:ms" for theta in THETAS))
    for k, (stride, row) in enumerate(zip(settings, best)):
        name = f"built({stride})" if not k else f"stride={stride}"
        print(name, " ".join(f"{1e3 * t:.2f}" for t in row), flush=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"))
