"""One row of a ``BENCH_<workload>.json`` file, measured by the benchmark as it stands.

    python tests/data/bench_row.py WORKLOAD SECONDS SEEDS [CHECKOUT[,PR,KIND] ...]

Runs ``python3 perfbench/run.py --workload WORKLOAD --seed N --seconds
SECONDS`` at every seed N of SEEDS (``1-10`` or ``1,3,5``) in each git
CHECKOUT (default: the checkout holding this file), each with its own
``perfbench/`` on its own ``src/``.  At each seed every checkout runs
once, the first checkout first at odd seeds and last at even ones, so
that a slow phase of the machine does not land on one side.  It then
prints one JSON row per checkout, in the order given, to append to
``BENCH_<workload>.json`` at the repository root:

- ``commit``: the checkout's HEAD, with ``+`` when its ``src/`` or
  ``perfbench/`` differs from it (a change measured before its commit);
- ``pr`` and ``kind``: PR and KIND of the argument, ``"merge"`` for a
  PR's own row and ``"re-run"`` for an earlier commit measured again
  (``null`` when not given); ``date``: the day of the run (UTC);
- ``workload``, ``seeds``, ``seconds`` and ``runs``;
- ``python``, ``numpy`` and ``machine``: the interpreter that ran it;
- ``metrics``: for each end-to-end metric of ``BENCHMARK.json``, its
  ``median``, ``q1`` and ``q3`` over the runs (inclusive quartiles), and
  ``values``, the runs in seed order;
- ``attempted`` and ``failed``: summed over the runs.

pytest does not collect this file.
"""

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
METRICS = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")


def parse_seeds(text: str) -> list:
    """The seeds of ``1-10`` or ``1,3,5``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def commit_of(checkout: str) -> str:
    """The checkout's short HEAD, with ``+`` when its ``src/`` or ``perfbench/`` differs from it."""
    git = ["git", "-C", checkout]
    head = subprocess.run(git + ["rev-parse", "--short=7", "HEAD"], capture_output=True, text=True, check=True)
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src", "perfbench"],
                           capture_output=True, text=True, check=True)
    return head.stdout.strip() + ("+" if dirty.stdout.strip() else "")


def run_once(checkout: str, workload: str, seed: int, seconds: str) -> dict:
    """The JSON line of one benchmark run in the checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", seconds]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    """Median and inclusive quartiles of the runs, and the runs themselves."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(workload: str, seconds: str, seeds: list, targets: list) -> None:
    sides = []
    for target in targets:
        checkout, *label = target.split(",")
        pr, kind = (int(label[0]), label[1]) if label else (None, None)
        sides.append((os.path.abspath(checkout), pr, kind, []))
    for seed in seeds:
        for checkout, _, _, runs in sides if seed % 2 else sides[::-1]:
            runs.append(run_once(checkout, workload, seed, seconds))
    for checkout, pr, kind, runs in sides:
        row = {
            "commit": commit_of(checkout),
            "pr": pr,
            "kind": kind,
            "date": datetime.datetime.now(datetime.timezone.utc).date().isoformat(),
            "workload": workload,
            "seeds": seeds,
            "seconds": float(seconds),
            "runs": len(runs),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
            "metrics": {name: summary([run["metrics"][name]["value"] for run in runs]) for name in METRICS},
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
        }
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    if len(sys.argv) < 4:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2], parse_seeds(sys.argv[3]), sys.argv[4:] or [ROOT])
