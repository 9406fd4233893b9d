import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from zolocirc import approximants as ap
from zolocirc import elliptic as el
from zolocirc import oracle as orc
from zolocirc.errors import ConvergenceError, DomainError


class TestOracleK:
    def test_zero(self):
        res = orc.oracle_K(0.0)
        assert res.value == pytest.approx(math.pi / 2, abs=1e-13)
        assert res.estimated_error <= 1e-12
        assert res.evaluations > 0

    @pytest.mark.parametrize("ell", [i / 20 for i in range(20)])
    def test_agrees_with_agm(self, ell):
        # against the theta-series complete_K (the name predates it); worst 6.7e-16 over this grid
        assert abs(orc.oracle_K(ell).value - el.complete_K(ell)) <= 1e-14

    def test_converges_at_the_top_of_its_range(self):
        res = orc.oracle_K(1.0 - 1e-6)
        assert res.value == pytest.approx(7.947479773547967, rel=1e-15)  # mpmath ellipk(m = ell^2)
        assert res.estimated_error <= 4e-16 * res.value and res.evaluations == 1 << 15

    def test_rejects_near_one(self):
        with pytest.raises(DomainError):
            orc.oracle_K(1.0 - 1e-8)

    def test_an_unconverged_rule_raises_at_its_node_cap(self, monkeypatch):
        # a non-periodic integrand: the rule converges only like 1/n, far from 4e-16 at 2^15 nodes
        monkeypatch.setattr(orc, "_integrand", lambda t, ell: t)
        with pytest.raises(ConvergenceError, match="unconverged at 32768 nodes"):
            orc.oracle_K(0.5)


class TestOracleSn:
    def test_zero(self):
        assert orc.oracle_sn(0.0, 0.5).value == 0.0

    def test_zero_amplitude_takes_no_evaluations(self):
        res = orc.oracle_amplitude(0.0, 0.5)
        assert (res.value, res.evaluations) == (0.0, 0)

    def test_modulus_range(self):
        with pytest.raises(DomainError, match="oracle_amplitude requires"):
            orc.oracle_amplitude(0.5, 1.0)

    @pytest.mark.parametrize("ell", [0.1, 0.5, 0.9])
    def test_quarter_period(self, ell):
        K = orc.oracle_K(ell).value
        assert orc.oracle_sn(K, ell).value == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("ell", [0.2, 0.5, 0.8])
    def test_grid_agreement_with_jacobi_sncndn(self, ell):
        # worst 5.0e-16 over this grid
        K = el.complete_K(ell)
        for frac in (-1.8, -1.0, -0.4, 0.3, 0.7, 1.2, 1.9):
            u = frac * K
            phi = orc.oracle_amplitude(u, ell).value
            sn, cn, dn = el.jacobi_sncndn(u, ell)
            assert abs(sn - math.sin(phi)) <= 1e-14
            assert abs(cn - math.cos(phi)) <= 1e-14
            assert abs(dn - math.sqrt(1.0 - (ell * math.sin(phi)) ** 2)) <= 1e-14

    def test_argument_range(self):
        with pytest.raises(DomainError):
            orc.oracle_amplitude(10.0 * el.complete_K(0.5), 0.5)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_argument_is_a_domain_error(self, u):
        # a NaN used to pass the range check and run out the Newton budget
        with pytest.raises(DomainError, match="must not exceed 2K"):
            orc.oracle_amplitude(u, 0.5)

    def test_an_unconverged_newton_iteration_raises_at_its_step_cap(self, monkeypatch):
        # a NaN integrand: no Newton step falls below 1e-12; K is kept, or the range check would refuse u
        monkeypatch.setattr(orc, "oracle_K", lambda ell: orc.OracleResult(el.complete_K(ell), 0.0, 0))
        monkeypatch.setattr(orc, "_integrand", lambda t, ell: np.full(np.shape(t), math.nan))
        with pytest.raises(ConvergenceError, match="amplitude Newton iteration unconverged"):
            orc.oracle_amplitude(1.0, 0.5)


def float_amplitude(u, ell, K):
    """The amplitude's Newton body as it was on floats alone, kept as the reference of the array body.

    Its slope reads _integrand at a float phi, whose ** 2 calls C's pow(x, 2); np.square on an array
    rounds x * x, which differs from it by an ulp at some phi (u = -1.81300786161215, ell = 0.95).
    """
    if u == 0.0:
        return orc.OracleResult(0.0, 0.0, 0)
    (nodes, weights), phi = orc._gauss_legendre(), 0.5 * math.pi
    for steps in range(1, 33):
        edges = np.minimum(orc._EDGES, phi)
        half = 0.5 * np.diff(edges)[:, None]
        F = float(np.sum(half * weights * orc._integrand(edges[:-1, None] + half * (1.0 + nodes), ell)))
        step = (F - abs(u)) / float(orc._integrand(phi, ell))
        phi -= step
        if abs(step) <= 1e-12:
            return orc.OracleResult(math.copysign(phi, u), abs(step), steps * half.size * nodes.size)
    raise AssertionError(f"unconverged at u={u!r}")


class TestArrayAmplitude:
    @pytest.mark.parametrize("ell", [0.0, 0.05, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-6])
    def test_equals_the_float_body_bit_for_bit(self, ell):
        K = orc.oracle_K(ell).value
        rng = np.random.default_rng(round(ell * 1e6))
        us = np.r_[rng.uniform(-2.0 * K, 2.0 * K, 40), 0.0, -0.0, 2.0 * K, -2.0 * K, 1e-300, -1.81300786161215]
        us = us.reshape(2, 23)
        res = orc._amplitude(us, ell, K)
        assert all(field.shape == us.shape for field in (res.value, res.estimated_error, res.evaluations))
        for u, value, error, evaluations in zip(
                us.ravel().tolist(), res.value.ravel().tolist(), res.estimated_error.ravel().tolist(),
                res.evaluations.ravel().tolist()):
            ref, one = float_amplitude(u, ell, K), orc._amplitude(u, ell, K)
            assert (value.hex(), error.hex(), evaluations) == (
                ref.value.hex(), ref.estimated_error.hex(), ref.evaluations)
            assert (one.value.hex(), one.estimated_error.hex(), one.evaluations) == (
                value.hex(), error.hex(), evaluations)

    def test_the_first_step_integrates_one_row_for_all_points(self, monkeypatch):
        integrand, rows, K = orc._integrand, [], orc.oracle_K(0.5).value

        def recorded(t, ell):
            rows.append(np.shape(t)[0])
            return integrand(t, ell)

        monkeypatch.setattr(orc, "_integrand", recorded)
        res = orc._amplitude(np.array([0.0, 0.3, -1.2, 2.0, 0.7]), 0.5, K)
        # every live point starts at pi/2: one row of cells serves the first step, then one row per live point
        cells = (len(orc._EDGES) - 1) * orc._gauss_legendre()[0].size
        assert rows[:2] == [1, 4] and len(rows) == res.evaluations.max() // cells
        assert rows[1:] == sorted(rows[1:], reverse=True)  # points only drop out

    def test_zero_is_zero_at_no_evaluations(self):
        res = orc._amplitude(np.array([0.0, -0.0, 1.0]), 0.5, orc.oracle_K(0.5).value)
        assert [v.hex() for v in res.value[:2].tolist()] == [(0.0).hex()] * 2  # no -0.0
        assert res.estimated_error[:2].tolist() == [0.0, 0.0] and res.evaluations[:2].tolist() == [0, 0]
        assert res.value[2] > 0.0 and res.evaluations[2] > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0 * el.complete_K(0.5) + 1e-6])
    def test_refuses_a_nan_or_a_u_past_2K(self, bad):
        K = orc.oracle_K(0.5).value
        with pytest.raises(DomainError, match="must not exceed 2K"):
            orc._amplitude(np.array([0.5, bad, -0.5]), 0.5, K)
        with pytest.raises(DomainError, match="must not exceed 2K"):
            orc._amplitude(-bad, 0.5, K)

    def test_an_unconverged_array_raises_at_its_step_cap(self, monkeypatch):
        monkeypatch.setattr(orc, "_integrand", lambda t, ell: np.full(np.shape(t), math.nan))
        with pytest.raises(ConvergenceError, match=r"unconverged at u=1\.0, ell=0\.5"):
            orc._amplitude(np.array([0.0, 1.0, 2.0]), 0.5, el.complete_K(0.5))


KERNEL_THETAS = [1e-3, 0.3, 1.0, 1.4, 0.5 * math.pi - 1e-3]


def literal_max_phase_error(a, theta, samples):
    """The scan's error in its literal complex form, wrapped and refined as the scan does."""
    ts = np.linspace(-2.0 * theta, 2.0 * theta, samples)
    z = np.exp(1j * ts)
    e = np.angle((1.0 + a * z) / (z + a)) - 0.5 * ts
    e = np.abs(np.remainder(e + math.pi, 2.0 * math.pi) - math.pi)
    i = int(np.argmax(e))
    if i in (0, samples - 1):
        return e[i]
    y0, y1, y2 = e[i - 1], e[i], e[i + 1]
    denom = y0 - 2.0 * y1 + y2
    return y1 if denom == 0.0 else y1 - 0.125 * (y2 - y0) ** 2 / denom


class TestDegreeOneScan:
    @pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, -1.0])
    def test_theta_validation(self, theta):
        with pytest.raises(DomainError):
            orc.oracle_minimax_degree1(theta)

    def test_samples_validation(self):
        # the parabolic refinement needs the peak and two neighbours
        with pytest.raises(DomainError):
            orc.degree1_max_phase_error(1.0, 1.0, 2)

    @pytest.mark.parametrize("samples", [2048.0, np.float64(64), True, "2048"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(DomainError, match="samples must be an integer"):
            orc.degree1_max_phase_error(1.0, 1.0, samples)

    def test_numpy_integer_samples_are_accepted(self):
        assert orc.degree1_max_phase_error(1.0, 1.0, np.int64(64)) == orc.degree1_max_phase_error(1.0, 1.0, 64)

    @pytest.mark.parametrize("theta", [math.nan, 2.0, 0.0, 0.5 * math.pi, -1.0])
    def test_measuring_stick_refuses_theta_outside_the_window(self, theta):
        # a NaN theta used to return NaN, and theta = 2.0 an error of 2.0
        with pytest.raises(DomainError, match="theta must lie in"):
            orc.degree1_max_phase_error(1.0, theta)

    @pytest.mark.parametrize("a", [-1.0, 0.0, math.inf, -math.inf, math.nan])
    def test_measuring_stick_refuses_a_not_positive_and_finite(self, a):
        # a = -1 used to return pi (a pole on the arc), a = inf an "invalid value" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="a must be positive and finite"):
                orc.degree1_max_phase_error(a, 1.0)

    def test_measuring_stick_on_known_case(self):
        # degree-0 behaviour: a -> infinity collapses the factor to a constant
        err = orc.degree1_max_phase_error(1e9, 0.8)
        assert err == pytest.approx(0.8, abs=1e-5)

    @pytest.mark.parametrize("samples", [2048, 8192])
    @pytest.mark.parametrize("theta", KERNEL_THETAS)
    def test_kernel_matches_the_literal_formula(self, theta, samples):
        worst = max(
            abs(orc.degree1_max_phase_error(a, theta, samples) - literal_max_phase_error(a, theta, samples))
            for a in list(np.exp(np.linspace(math.log(1e-4), math.log(1e6), 61))) + [1e9]
        )
        assert worst <= 1e-13

    @pytest.mark.parametrize("theta", KERNEL_THETAS)
    def test_blocked_curve_matches_the_literal_formula(self, theta):
        # 61 candidates fill several blocks at 2048 samples, the last one partial
        grid = np.exp(np.linspace(math.log(orc.SCAN_RANGE[0]), math.log(orc.SCAN_RANGE[1]), 61))
        errs = orc._scan_max_phase_errors(grid, orc._sqrt_arc(theta, 2048))
        literal = [literal_max_phase_error(a, theta, 2048) for a in grid]
        assert np.max(np.abs(errs - literal)) <= 1e-13

    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.5])
    def test_argmin_is_the_optimal_coefficient(self, theta):
        a_star = orc.oracle_minimax_degree1(theta)
        cell = (math.log(1e6) - math.log(1e-4)) / (10_000 - 1)
        assert abs(math.log(a_star) - math.log(ap.coeff_a(1, 1, theta))) <= cell
        optimum = math.asin(el.solve_lambda(math.cos(theta), 3, math.sin(theta)).lam_comp)
        # worst 1.54e-7, at Theta = 1.5
        assert abs(orc.degree1_max_phase_error(a_star, theta, 16384) - optimum) <= 4e-7

    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.5])
    def test_nested_zooms_scan_few_candidates_to_a_fine_step(self, monkeypatch, theta):
        levels, scans = [], []
        argmin, inner = orc._argmin_max_phase_error, orc._scan_max_phase_errors

        def level(a, arc):
            levels.append((a.copy(), len(arc[0])))
            return argmin(a, arc)

        def counted(a, arc):
            scans.append((len(a), len(arc[0])))
            return inner(a, arc)

        monkeypatch.setattr(orc, "_argmin_max_phase_error", level)
        monkeypatch.setattr(orc, "_scan_max_phase_errors", counted)
        orc.oracle_minimax_degree1(theta)
        (coarse, samples), *zooms = levels
        assert (len(coarse), samples) == (orc.SCAN_SIZE, 2048)
        assert {samples for _, samples in zooms} == {8192}
        assert sum(len(a) for a, _ in zooms) <= 400
        # the bound pass leaves at most 1% of the coarse candidates to full scans
        assert {samples for _, samples in scans} == {2048, 8192}
        assert sum(n for n, samples in scans if samples == 2048) <= orc.SCAN_SIZE // 100
        # no coarser than the step of one SCAN_SIZE-point zoom over the bracket of a full coarse scan
        i = int(np.argmin(inner(coarse, orc._sqrt_arc(theta, 2048))))
        single = (coarse[min(i + 2, len(coarse) - 1)] - coarse[max(i - 2, 0)]) / (orc.SCAN_SIZE - 1)
        assert np.all(np.diff(zooms[-1][0]) <= single)

    def test_error_curve_unimodal(self):
        grid = np.exp(np.linspace(math.log(orc.SCAN_RANGE[0]), math.log(orc.SCAN_RANGE[1]), 300))
        errs = orc._scan_max_phase_errors(grid, orc._sqrt_arc(1.0, 2048))
        d = np.diff(errs)
        d = d[d != 0.0]
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(d))) > 0))
        print(f"degree-1 scan: {sign_changes} sign change(s) in discrete differences")
        assert sign_changes == 1


ARGMIN_THETAS = [1e-6, 1e-3, 0.3, 0.7, 1.0, 1.4, 1.5707, 0.5 * math.pi - 1e-4]


def full_scan_argmin(a, theta, samples):
    return int(np.argmin(orc._scan_max_phase_errors(a, orc._sqrt_arc(theta, samples))))


def full_scan_minimax(theta):
    """The minimax search with each level's argmin taken from a full scan of all its candidates."""
    grid = np.exp(np.linspace(math.log(orc.SCAN_RANGE[0]), math.log(orc.SCAN_RANGE[1]), orc.SCAN_SIZE))
    i = int(np.argmin(orc._scan_max_phase_errors(grid, orc._sqrt_arc(theta, 2048))))
    finest = (grid[min(i + 2, orc.SCAN_SIZE - 1)] - grid[max(i - 2, 0)]) / (orc.SCAN_SIZE - 1)
    while True:
        grid = np.linspace(grid[max(i - 2, 0)], grid[min(i + 2, len(grid) - 1)], orc._ZOOM_SIZE)
        i = int(np.argmin(orc._scan_max_phase_errors(grid, orc._sqrt_arc(theta, 8192))))
        if grid[1] - grid[0] <= finest:
            return float(grid[i])


class TestBoundedArgmin:
    # 3, 17, 100 and 2049 samples are not multiples of the stride (17 and 2049 end on a strided sample)
    @pytest.mark.parametrize("samples", [3, 17, 64, 100, 2048, 2049, 8192])
    @pytest.mark.parametrize("theta", ARGMIN_THETAS)
    def test_is_the_argmin_of_the_full_scan(self, theta, samples):
        rng = np.random.default_rng([samples, round(theta * 1e6)])
        lo, hi = math.log(orc.SCAN_RANGE[0]), math.log(orc.SCAN_RANGE[1])
        # 1e9 and SCAN_RANGE[0] are near the degree-0 limits, whose error peaks at the arc's ends
        a = np.r_[np.exp(rng.uniform(lo, hi, 150)), 1e9, orc.SCAN_RANGE[0]]
        rng.shuffle(a)
        arc = orc._sqrt_arc(theta, samples)
        first = full_scan_argmin(a, theta, samples)
        assert orc._argmin_max_phase_error(a, arc) == first
        # a later copy of the argmin ties with it: the first index wins
        a = np.insert(a, rng.integers(first + 1, len(a) + 1), a[first])
        assert full_scan_argmin(a, theta, samples) == first
        assert orc._argmin_max_phase_error(a, arc) == first

    @pytest.mark.parametrize("theta", ARGMIN_THETAS)
    def test_an_edge_peak_candidate_can_win(self, theta):
        # near the degree-0 limits the error peaks at the arc's ends; of these a, 1e9 errs least
        a = np.array([5e9, 1e9, 2e9, orc.SCAN_RANGE[0]])
        ts = np.linspace(-2.0 * theta, 2.0 * theta, 2048)
        z = np.exp(1j * ts)
        assert np.argmax(np.abs(np.angle((1.0 + 1e9 * z) / (z + 1e9)) - 0.5 * ts)) in (0, 2047)
        assert orc._argmin_max_phase_error(a, orc._sqrt_arc(theta, 2048)) == full_scan_argmin(a, theta, 2048) == 1

    def test_a_nan_bound_is_kept(self):
        # inf and NaN candidates have NaN ratios, so NaN bounds; the NaN one errs NaN, which np.argmin returns
        a = np.array([2.0, math.inf, math.nan, 1.0])
        with np.errstate(invalid="ignore"):
            assert orc._argmin_max_phase_error(a, orc._sqrt_arc(1.0, 2048)) == full_scan_argmin(a, 1.0, 2048) == 2

    @pytest.mark.parametrize("theta", np.linspace(1e-6, 0.5 * math.pi - 1e-4, 12))
    def test_minimax_is_the_full_scan_search_bit_for_bit(self, theta):
        assert orc.oracle_minimax_degree1(theta) == full_scan_minimax(theta)


class TestBoundPass:
    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.5])
    def test_one_pass_leaves_few_candidates_to_full_scans(self, monkeypatch, theta):
        calls, reduce_ratios, inner = [], orc._reduce_ratios, orc._scan_max_phase_errors

        def bounded(a, c1, s1, c3, s3, reduce, dtype):
            if reduce is np.max:
                calls.append(("bound", len(a), len(c1)))
            return reduce_ratios(a, c1, s1, c3, s3, reduce, dtype)

        def scanned(a, arc):
            calls.append(("scan", len(a), len(arc[0])))
            return inner(a, arc)

        monkeypatch.setattr(orc, "_reduce_ratios", bounded)
        monkeypatch.setattr(orc, "_scan_max_phase_errors", scanned)
        a = np.exp(np.linspace(math.log(orc.SCAN_RANGE[0]), math.log(orc.SCAN_RANGE[1]), orc.SCAN_SIZE))
        index = orc._argmin_max_phase_error(a, orc._sqrt_arc(theta, 2048))
        # every 128th sample and the last of every candidate, then the least bound one in full, then the few kept
        assert [kind for kind, _, _ in calls] == ["bound", "scan", "scan"]
        (_, bounded, samples), (_, least, _), (_, kept, _) = calls
        assert (bounded, samples, least) == (orc.SCAN_SIZE, 2048 // 128 + 1, 1) and kept <= 10
        monkeypatch.undo()
        assert index == full_scan_argmin(a, theta, 2048)


class TestOneArcPerSampleCount:
    def test_a_minimax_search_builds_one_arc_per_sample_count(self, monkeypatch):
        built, sqrt_arc = [], orc._sqrt_arc

        def counted(theta, samples):
            built.append(samples)
            return sqrt_arc(theta, samples)

        monkeypatch.setattr(orc, "_sqrt_arc", counted)
        # the pinned argmin at Theta = 1, unchanged from the search that built its arc at every use
        assert orc.oracle_minimax_degree1(1.0).hex() == "0x1.2179814da0aadp+1"
        assert built == [2048, 8192]


def test_oracles_do_not_import_the_paths_they_check():
    import ast

    tree = ast.parse(pathlib.Path(orc.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    for forbidden in ("elliptic", "approximants", "analysis", "composition", "connections"):
        assert all(forbidden not in name for name in imported), (
            f"oracle module imports {forbidden}"
        )


def test_selftest_without_scipy_and_import_without_new_numpy_modules():
    # scipy is blocked.  import zolocirc plus a build loads no numpy module
    # that import numpy did not (numpy.polynomial among them: the
    # Gauss-Legendre rule is taken on first use, not at import), and the
    # selftest, whose criterion 8 takes the rule, passes.
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import zolocirc\n"
        "from zolocirc import cli, oracle\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    built = cli.main(['build', '--problem', 'z6', '--degree', '5', '--theta', '1.0'])\n"
        "    new = sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy')\n"
        "    taken = oracle._gauss_legendre.cache_info().currsize\n"
        "    selftest = cli.main(['selftest'])\n"
        "print(built, new, taken, selftest, oracle._gauss_legendre.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]", "0", "0", "1"]
