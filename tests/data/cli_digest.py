"""One line that changes whenever the bytes the CLI writes change.

    python tests/data/cli_digest.py [SRC]

Runs ``zolocirc.cli.main`` in-process on the 1,200 argvs of the
benchmark's ``cli`` workload, ``perfbench/workloads.block_specs("cli",
seed, block)`` for seeds 1-10 and blocks 0-5, with ``zolocirc`` imported
from SRC (default: the ``src`` of this checkout), and prints

    count {exit code: n} sha256

where the hash runs over each command's exit code, stdout, stderr and
contour-file bytes, every field prefixed with its length.  Run it on two
trees to check that a refactor kept the CLI's bytes.  It only reads
perfbench, and pytest does not collect this file.
"""

import collections
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def digest(src: str) -> str:
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    import workloads  # imports zolocirc, so only after src is on the path

    codes, h = collections.Counter(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "contour.csv")
        for seed in range(1, 11):
            for block in range(6):
                for spec in workloads.block_specs("cli", seed, block):
                    argv = spec["argv"] + (["--out", path] if spec["argv"][0] == "contour" else [])
                    code, out, err = workloads.run_cli(argv)
                    data = b""
                    if os.path.exists(path):
                        with open(path, "rb") as fh:
                            data = fh.read()
                        os.remove(path)
                    for field in (str(code).encode(), out.encode(), err.encode(), data):
                        h.update(b"%d:" % len(field) + field)
                    codes[code] += 1
    return f"{sum(codes.values())} {dict(sorted(codes.items()))} {h.hexdigest()}"


if __name__ == "__main__":
    print(digest(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src")))
