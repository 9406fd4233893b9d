"""zolocirc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload apply|cli|selftest --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the run measures set-up time (median
of several fresh interpreters) and then about S seconds of library calls
in a fresh worker process (one caller, closed loop, each operation timed
as the median of several passes and scaled to a reference machine speed
measured along with it; see worker.py), and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of blocks untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
Every operation's output is checked against an mpmath reference.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Spans, failing inputs and contour scratch files go to
``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("apply", "cli", "selftest")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run time limit reached")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(out["library"]).startswith(SRC + os.sep):
        raise RuntimeError(f"imported zolocirc from {out['library']}, not from {SRC}")
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "zolocirc", "__init__.py")):
        print(f"error: no zolocirc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--scratch", OUT]
    try:
        if args.trace:
            run = _worker(["measure", *common, "--trace", "1"], deadline)
            metrics = run["metrics"]
        else:
            setups = [_worker(["setup", "--workload", args.workload], deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
            run = _worker(["measure", *common, "--trace", "0"], deadline)
            lat = run["latencies_s"]
            values = {
                "ops_per_s": len(lat) / run["busy_s"],
                "latency_p50_ms": 1e3 * percentile(lat, 50),
                "latency_p90_ms": 1e3 * percentile(lat, 90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": run["peak_rss_kib"] / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempts"], len(run["failures"])
    known = sum(1 for f in run["failures"] if f["known"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  attempted {attempted}  "
          f"failed {failed} (known defects {known})  failed_ratio {failed / attempted:.4g}  "
          f"unexplained failures {run['unexplained']}  worker wall {run['wall_s']:.1f} s")
    if run.get("calibrations_s"):
        cal = sorted(run["calibrations_s"])
        print(f"  calibration kernel: median {1e3 * statistics.median(cal):.4g} ms, "
              f"range {1e3 * cal[0]:.4g} to {1e3 * cal[-1]:.4g} ms over {len(cal)} calibrations")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if run["failures"]:
        path = os.path.join(OUT, f"failures-{args.workload}-{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(run["failures"], fh, indent=1)
        for f in run["failures"][:5]:
            print(f"  failed: {f['spec']} -> {f['reason'][:200]} [{f['known'] or 'unexplained'}]")
        print(f"  all failing inputs: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": run["unexplained"] == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
