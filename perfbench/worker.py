"""Worker process of the benchmark; run.py starts it in a fresh interpreter.

    worker.py setup   --workload W
        Import zolocirc, finish the workload's first operation, and print the
        elapsed time since the interpreter started running this file, scaled
        by a calibration taken just after it.
    worker.py measure --workload W --seed N --seconds S --trace 0|1 --scratch DIR
        One caller, closed loop: each operation starts when the previous one
        has returned.  A run is a fixed number of whole blocks, sized to take
        about S seconds in all.  With trace 0 the blocks run in several
        passes (PASSES), each repeat with theta or ell nudged by an ulp per
        pass.  Every time is scaled to a reference machine speed measured
        along with it (``calibration``), and a timed call's latency is its
        median over the passes.  A selftest sweep is eight timed calls, and
        its latency is the sum of theirs.  With trace 1 the blocks run once
        untraced and once traced.
        Prints one JSON line with latencies, failures and peak RSS (trace 0)
        or per-layer metrics (trace 1).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start before any import)
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# Seconds per block of each workload on a shared 2-core x86 machine.
NOMINAL_BLOCK_S = {"apply": 0.08, "cli": 1.0, "selftest": 7.5}
# Passes of an untraced run; a timed call's latency is its median over
# them.  A selftest block is one sweep, so its run is a single block.
PASSES = 3
# A cli block holds 20 operations.  The cost of an `error` operation
# depends steeply on theta, so its p90 needs many distinct operations to
# be steady from seed to seed: 120 rather than the 100 that put ten
# beyond it.
MIN_BLOCKS = {"apply": 1, "cli": 6, "selftest": 1}

# Speed calibration.  The shared machine this was built on runs up to
# twice as fast or as slow in phases that last from a second to minutes,
# and such a phase speeds or slows the interpreter and numpy about alike.
# So a fixed kernel, unrelated to zolocirc, is timed between the
# operations, and each operation's time is scaled by CALIB_REF_S over the
# mean of the kernel's times just before and just after it: times are
# reported at the speed of a machine on which the kernel takes
# CALIB_REF_S.  A change to zolocirc moves the operations and not the
# kernel, so it shows in full.  Timing four fixed operations and the
# kernel in turn for three minutes, this scaling cut the spread (IQR over
# median) of medians of ten samples from 0.16-0.22 to 0.04-0.08.
CALIB_REF_S = 3.3e-3  # the kernel's usual time on a shared 2-core x86 machine
CALIB_REPEATS = 3  # a calibration is the kernel's fastest of this many runs
CALIB_EVERY_S = 0.2  # recalibrate before an operation once this long has passed


def _kernel() -> float:
    """Fixed interpreter and array work, none of it zolocirc's."""
    acc = 0.0
    for i in range(3000):
        acc += math.sin(i * 1e-3) * math.cos(i * 2e-3)
    t = np.linspace(-1.0, 1.0, 4096)
    for _ in range(8):
        z = np.exp(1j * t)
        e = np.angle((1.0 + 0.3 * z) / (z + 0.3)) - 0.5 * t
        acc += float(np.max(np.abs(np.remainder(e + math.pi, 2.0 * math.pi) - math.pi)))
    return acc


def calibration() -> float:
    """Seconds the fixed kernel takes now: the fastest of CALIB_REPEATS runs."""
    best = math.inf
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def block_count(workload: str, seconds: float, passes: int) -> int:
    """Blocks for ``passes`` passes to take about ``seconds`` in all.

    Sizes do not depend on the seed, so a given count runs the same sizes
    for every seed.
    """
    return max(MIN_BLOCKS[workload], round(seconds / (passes * NOMINAL_BLOCK_S[workload])))


def setup_op(workload: str) -> None:
    """The fixed first operation whose completion ends the set-up time."""
    if workload == "apply":
        import numpy as np
        from zolocirc import build_s, solve_lambda

        s = build_s(16, 1.0)
        solve_lambda(math.cos(1.0), 16, math.sin(1.0))
        s(np.exp(1j * np.linspace(-1.0, 1.0, 1024)))
    elif workload == "cli":
        import io

        from zolocirc import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["build", "--problem", "z6", "--degree", "5", "--theta", "1.0"])
    else:
        from zolocirc import selftest

        selftest.criterion_4()


def _run_ops(ops, tracer=None, calibrate=False):
    """Run prepared (spec, call, check) triples, given as one list per block.

    ``unexplained`` counts the failures that no known defect explains: a
    raise, a non-zero exit or a wrong value.  Any of them makes the run
    incorrect.  With ``calibrate``, a calibration runs before an operation
    once CALIB_EVERY_S have passed since the last one, and once at the end,
    and each latency is scaled by CALIB_REF_S over the mean of the
    calibrations just before and just after it.
    """
    import workloads

    latencies, failures, unexplained = [], [], 0
    calibrations, marks = [], []  # marks[i]: the calibration just before operation i
    last = -math.inf
    for block in ops:
        for spec, call, check in block:
            if calibrate and time.perf_counter() - last >= CALIB_EVERY_S:
                calibrations.append(calibration())
                last = time.perf_counter()
            marks.append(len(calibrations) - 1)
            t0 = time.perf_counter()
            result, failure = None, None
            try:
                result = call()
            except Exception as exc:  # every library error counts as a failed operation
                failure = workloads.Failure(f"raised {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if failure is None:
                try:
                    with tracer.pause() if tracer else contextlib.nullcontext():
                        failure = check(result)
                except Exception as exc:  # malformed output, e.g. unparsable JSON
                    failure = workloads.Failure(f"check raised {type(exc).__name__}: {exc}")
            latencies.append(dt)
            if failure is not None:
                unexplained += failure.known is None
                failures.append({"spec": spec, "reason": failure.reason, "known": failure.known})
    if calibrate:
        calibrations.append(calibration())
        latencies = [dt * 2.0 * CALIB_REF_S / (calibrations[i] + calibrations[i + 1])
                     for dt, i in zip(latencies, marks)]
    return {"latencies_s": latencies, "failures": failures, "unexplained": unexplained,
            "busy_s": sum(latencies), "calibrations_s": calibrations}


def measure(args) -> dict:
    import workloads

    ctx = workloads.Context(args.scratch)
    size = workloads.operation_size(args.workload)
    setup_op(args.workload)  # warm-up: lazy set-up finishes before timing

    def blocks(count, steps=0):
        """Prepared blocks; each is prepared just before it runs, untimed."""
        for k in range(count):
            specs = [workloads.nudged(spec, steps) for spec in workloads.block_specs(args.workload, args.seed, k)]
            yield [(spec, *workloads.prepare(spec, ctx)) for spec in specs]

    if not args.trace:
        count = block_count(args.workload, args.seconds, PASSES)
        passes = [_run_ops(blocks(count, steps), calibrate=True) for steps in range(PASSES)]
        typical = [statistics.median(times) for times in zip(*(p["latencies_s"] for p in passes))]
        typical = [sum(typical[i:i + size]) for i in range(0, len(typical), size)]
        return {
            "latencies_s": typical,
            "busy_s": sum(typical),
            "attempts": sum(len(p["latencies_s"]) for p in passes),
            "failures": [f for p in passes for f in p["failures"]],
            "unexplained": sum(p["unexplained"] for p in passes),
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calibrations_s": [c for p in passes for c in p["calibrations_s"]],
        }

    import layers

    count = block_count(args.workload, args.seconds, 2)
    untraced = _run_ops(blocks(count))
    tracer = layers.Tracer()
    ctx.tracer = tracer
    with tracer:
        traced = _run_ops(blocks(count), tracer)
    ctx.tracer = None
    tracer.dump(os.path.join(args.scratch, f"trace-{args.workload}-{args.seed}.json"))
    values = tracer.metrics()
    rate_untraced = len(untraced["latencies_s"]) / size / untraced["busy_s"]
    rate_traced = len(traced["latencies_s"]) / size / traced["busy_s"]
    values["trace.ops_per_s_untraced"] = rate_untraced
    values["trace.ops_per_s_traced"] = rate_traced
    values["trace.overhead_ops_per_s"] = rate_untraced - rate_traced
    return {
        "latencies_s": traced["latencies_s"],
        "attempts": len(untraced["latencies_s"]) + len(traced["latencies_s"]),
        "failures": untraced["failures"] + traced["failures"],
        "unexplained": traced["unexplained"] + untraced["unexplained"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in layers.METRICS.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_BLOCK_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=".")
    args = parser.parse_args()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.mode == "setup":
        import zolocirc

        setup_op(args.workload)
        setup_s = (time.perf_counter() - _START) * CALIB_REF_S / calibration()
        out = {"setup_s": setup_s, "library": zolocirc.__file__}
    else:
        import zolocirc

        started = time.perf_counter()
        out = measure(args)
        out["wall_s"] = time.perf_counter() - started
        out["library"] = zolocirc.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
