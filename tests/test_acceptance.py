"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the CLI `zolocirc selftest` executes the same criteria 1-8 sweep.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from zolocirc import analysis, approximants, connections, elliptic, oracle, selftest
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
        tampered = UnimodularRational(0, tuple(params), r.family)
        good = analysis.phase_error_sqrt(r, theta, 256)
        bad = analysis.phase_error_sqrt(tampered, theta, 256)
        assert abs(good.max_error - good.predicted) <= 1e-9
        assert abs(bad.max_error - bad.predicted) > 1e-9

    def test_criterion_2_reports_a_deficient_count(self, monkeypatch):
        build_s = approximants.build_s

        def tampered_s6(m, theta):
            s = build_s(m, theta)
            if m != 6 or theta != 1.0:
                return s
            return UnimodularRational(s.quarter_turns, (1.05 * s.factors[0],) + s.factors[1:], s.family)

        monkeypatch.setattr(approximants, "build_s", tampered_s6)
        _, ok, detail = selftest.criterion_2()
        assert not ok
        assert detail == "z6 m=6 theta=1.000: (1, 1)/(1, 1)"

    def test_criterion_2_takes_one_report_per_optimum_on_the_finer_grid(self, monkeypatch):
        calls = []
        for name in ("phase_error_sqrt", "phase_error_sign"):
            def recorded(r, theta, grid_n, report=getattr(analysis, name)):
                calls.append((theta, r._optimum[4], len(r.factors), grid_n))
                return report(r, theta, grid_n)

            monkeypatch.setattr(analysis, name, recorded)
        assert selftest.criterion_2()[1]
        assert calls == [(theta, problem, degree, 2 * selftest._grid_for(problem, degree))
                         for theta, problem, _, degree in selftest._SWEEP]

    def test_criterion_2_reports_an_endpoint_not_attained(self, monkeypatch):
        report = analysis.phase_error_sign

        def halved_angles(s, theta, grid_n):
            rep = report(s, theta, grid_n)
            return dataclasses.replace(rep, extrema=tuple((0.5 * t, e) for t, e in rep.extrema))

        monkeypatch.setattr(analysis, "phase_error_sign", halved_angles)
        _, ok, detail = selftest.criterion_2()
        assert not ok
        labels = detail.split("; ")
        assert len(labels) == len(selftest.THETA_SWEEP) * len(selftest.M_SWEEP)
        assert all(label.startswith("z6 ") and label.endswith(": endpoint not attained") for label in labels)

    def test_criterion_3_reports_a_bound_below_the_error(self, monkeypatch):
        monkeypatch.setattr(analysis, "error_bounds", lambda degree, theta, problem: (0.0, 0.0))
        _, ok, detail = selftest.criterion_3()
        assert not ok
        assert detail.count("theta=") == len(selftest._SWEEP)


class TestOneSetupPerItem:
    @pytest.mark.parametrize("part", [0, 1])
    def test_criterion_5_fails_on_a_scaled_product(self, monkeypatch, part):
        product = approximants.eval_F_product

        def scaled(zf, x):
            pair = list(product(zf, x))
            pair[part] = pair[part] * (1.0 + 1e-9)
            return tuple(pair)

        monkeypatch.setattr(approximants, "eval_F_product", scaled)
        _, ok, detail = selftest.criterion_5()
        assert not ok
        assert float(detail.rpartition("direct-vs-product = ")[2]) > 1e-10

    def test_criterion_5_reflected_u_grid_is_the_direct_one(self):
        # the 27 grids of a sweep: each Theta's modulus and its 8 reductions
        for theta in (0.5, 1.0, 1.4):
            ell, ell_comp = elliptic.require_theta(theta)
            pairs = [elliptic.EllipticModulus.from_ell(ell, ell_comp)]
            pairs += [elliptic.solve_lambda(ell, m, ell_comp) for m in selftest.M_SWEEP]
            for pair in pairs:
                args = (pair.ell, pair.ell_comp) if pair is pairs[0] else (pair.lam, pair.lam_comp)
                direct = np.array([elliptic._sncndn(k, 64, *args, pair.nome) for k in range(65)]).T
                reflected = np.array(elliptic._quarter_nodes(64, *args, pair.nome)).T
                assert reflected.shape == (3, 65) and reflected.tobytes() == direct.tobytes()

    def test_criterion_5_builds_each_fraction_once_through_its_optima(self, monkeypatch):
        build_s, from_ell, optima, calls = approximants.build_s, approximants.ZolotarevFraction.from_ell, [], []

        def recorded(m, theta):
            optima.append(build_s(m, theta))
            return optima[-1]

        def counted(cls, *args):
            calls.append(args)
            return from_ell(*args)

        monkeypatch.setattr(approximants, "build_s", recorded)
        monkeypatch.setattr(approximants.ZolotarevFraction, "from_ell", classmethod(counted))
        assert selftest.criterion_5()[1]
        # the 32 optima of the lift check, each reading its own fraction; the direct check builds none
        assert len(optima) == len(selftest.THETA_SWEEP) * len(selftest.M_SWEEP) == 32
        assert calls == [s._optimum[:3] for s in optima]

    def test_criterion_7_fails_on_a_moved_blaschke_parameter(self, monkeypatch):
        blaschke_h = connections.blaschke_h

        def moved(m, ell):  # h_2 at ell = 0.5 feeds only the s <-> h bridges
            h = blaschke_h(m, ell)
            if (m, ell) != (2, 0.5):
                return h
            return connections.BlaschkeProduct(m, ell, (h.params[0] + 1e-8,) + h.params[1:])

        monkeypatch.setattr(connections, "blaschke_h", moved)
        _, ok, detail = selftest.criterion_7()
        assert not ok
        assert float(detail.rpartition("s<->h = ")[2]) > 1e-9

    def test_criterion_8_amplitudes_are_the_public_ones(self, monkeypatch):
        calls, body = [], oracle.oracle_amplitude

        def recorded(u, ell):
            calls.append((u, ell, body(u, ell)))
            return calls[-1][2]

        monkeypatch.setattr(oracle, "oracle_amplitude", recorded)
        assert selftest.criterion_8()[1]
        monkeypatch.undo()
        # one array call per modulus, 9 u each: 63 amplitudes, each the public float call's bit for bit
        assert [(type(u), u.shape, ell) for u, ell, _ in calls] == [
            (np.ndarray, (9,), ell) for ell in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)]
        for us, ell, result in calls:
            for u, value, error, evaluations in zip(us.tolist(), *(f.tolist() for f in dataclasses.astuple(result))):
                assert oracle.oracle_amplitude(u, ell) == oracle.OracleResult(value, error, evaluations)

    def test_one_sweep_does_each_setup_once(self, monkeypatch):
        counts = {}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
            return counted

        monkeypatch.setattr(approximants, "inverse_sn", count(elliptic, "inverse_sn"))
        for module, name in ((approximants, "eval_F_direct"), (elliptic, "_carlson_rf"),
                             (connections, "blaschke_h"), (oracle, "oracle_K")):
            count(module, name)
        assert all(ok for _, _, ok, _ in selftest.run_all())
        # no sn is inverted; criterion 7 builds h 9 times for its composition law and once per bridge
        # call, criterion 8 runs the trapezoid rule at 20 moduli and once more in each of its 7 amplitude calls
        limits = {"inverse_sn": 0, "eval_F_direct": 0, "_carlson_rf": 0, "blaschke_h": 13, "oracle_K": 27}
        assert all(counts.get(name, 0) <= limit for name, limit in limits.items()), counts
