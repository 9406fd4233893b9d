"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the CLI `zolocirc selftest` executes the same criteria 1-8 sweep.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from zolocirc import analysis, approximants, selftest
from zolocirc.approximants import UnimodularRational


@pytest.mark.parametrize(
    "index,criterion",
    [(i, fn) for i, fn in enumerate(selftest.CRITERIA, start=1)],
    ids=[f"criterion-{i}" for i in range(1, len(selftest.CRITERIA) + 1)],
)
def test_criteria_1_to_8(index, criterion):
    name, ok, detail = criterion()
    print(f"CRITERION {index} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"


class TestCriterion9:
    def test_selftest_exits_clean_within_budget(self):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "zolocirc.cli", "selftest"],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - t0
        ok = proc.returncode == 0 and elapsed < 60.0
        print(f"CRITERION 9a [selftest end-to-end]: {'PASS' if ok else 'FAIL'} - "
              f"exit {proc.returncode} in {elapsed:.1f} s")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 60.0
        for i in range(1, 9):
            assert f"PASS criterion-{i}" in proc.stdout

    @pytest.mark.parametrize("problem,degree", [("z5", 11), ("z6", 17)])
    def test_contour_showcase_grids(self, problem, degree, tmp_path):
        theta = 0.5 * math.pi - 0.15
        out = tmp_path / f"{problem}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "zolocirc.cli", "contour",
                "--problem", problem, "--degree", str(degree),
                "--theta", repr(theta), "--window=-2,2,-2,2",
                "--resolution", "201", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "re,im,value"
        assert len(lines) == 1 + 201 * 201
        values = np.array(
            [float(v.split(",")[2]) for v in lines[1:]], dtype=float
        ).reshape(201, 201)
        coords = np.linspace(-2.0, 2.0, 201)

        if problem == "z5":
            r = approximants.build_r(degree, theta)
            finite_poles = [p for p in r.poles() if abs(p) < 2.0]
        else:
            r = approximants.build_s(degree, theta)
            finite_poles = [p for p in r.poles() if abs(p) < 2.0]
        assert finite_poles, "expected poles inside the window"
        for p in finite_poles:
            with np.errstate(divide="ignore", invalid="ignore"):
                at_pole = r(np.array([p]))[0]
            # a true pole up to the rounding of its float coordinates
            assert not np.isfinite(at_pole) or abs(at_pole) > 1e12
            i = int(np.argmin(np.abs(coords - p.imag)))
            j = int(np.argmin(np.abs(coords - p.real)))
            cell = values[i, j]
            neighborhood = values[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
            assert cell == neighborhood.max(), f"pole {p} cell not locally dominant"

        # zeros of the error sit on the unit circle: between consecutive
        # equioscillation extrema the signed phase error crosses zero
        if problem == "z5":
            rep = analysis.phase_error_sqrt(r, theta, 8 * (degree + 2))

            def signed_err(t):
                w = r(complex(math.cos(t), math.sin(t)))
                return math.remainder(math.atan2(w.imag, w.real) - 0.5 * t, 2 * math.pi)

            def abs_err(t):
                z = complex(math.cos(t), math.sin(t))
                return abs(r(z) - complex(math.cos(t / 2), math.sin(t / 2)))

            points = sorted(rep.extrema, key=lambda q: q[0])
        else:
            rep = analysis.phase_error_sign(r, theta, 8 * (degree + 2))

            def signed_err(t):
                w = r(complex(math.cos(t), math.sin(t)))
                return math.remainder(math.atan2(w.imag, w.real), 2 * math.pi)

            def abs_err(t):
                z = complex(math.cos(t), math.sin(t))
                return abs(r(z) - 1.0)

            points = sorted((q for q in rep.extrema if abs(q[0]) <= theta),
                            key=lambda q: q[0])
        zero_count = 0
        for (a, ea), (b, eb) in zip(points, points[1:]):
            if ea * eb >= 0.0:
                continue
            lo, hi, flo = a, b, signed_err(a)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = signed_err(mid)
                if (fm >= 0.0) == (flo >= 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            assert abs_err(0.5 * (lo + hi)) <= 1e-12
            zero_count += 1
        assert zero_count >= (2 * degree + 1 if problem == "z5" else degree)
        print(f"CRITERION 9b [{problem} contour n/m={degree}]: PASS - "
              f"{len(finite_poles)} pole cells, {zero_count} circle zeros")


class TestFaultInjection:
    def test_tampered_factor_breaks_the_amplitude_identity(self):
        theta = 1.0
        n = 3
        r = approximants.build_r(n, theta)
        params = list(r.factors)
        params[0] = params[0] + 1e-6
        tampered = UnimodularRational(0, 0, tuple(params), r.family)
        good = analysis.phase_error_sqrt(r, theta, 256)
        bad = analysis.phase_error_sqrt(tampered, theta, 256)
        assert abs(good.max_error - good.predicted) <= 1e-9
        assert abs(bad.max_error - bad.predicted) > 1e-9

    def test_runtime_of_first_criterion(self):
        t0 = time.perf_counter()
        name, ok, detail = selftest.criterion_1()
        elapsed = time.perf_counter() - t0
        assert ok, detail
        assert elapsed <= 5.0
