import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from zolocirc import approximants as ap
from zolocirc import elliptic as el
from zolocirc import oracle as orc
from zolocirc.errors import DomainError


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
        errs = orc._scan_max_phase_errors(grid, theta, 2048)
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
        calls, inner = [], orc._scan_max_phase_errors

        def counted(a, theta, samples):
            errs = inner(a, theta, samples)
            calls.append((a.copy(), samples, errs))
            return errs

        monkeypatch.setattr(orc, "_scan_max_phase_errors", counted)
        orc.oracle_minimax_degree1(theta)
        (coarse, samples, errs), *zooms = calls
        assert (len(coarse), samples) == (orc.SCAN_SIZE, 2048)
        assert {samples for _, samples, _ in zooms} == {8192}
        assert sum(len(a) for a, _, _ in zooms) <= 400
        # no coarser than the step of one SCAN_SIZE-point zoom over the coarse bracket
        i = int(np.argmin(errs))
        single = (coarse[min(i + 2, len(coarse) - 1)] - coarse[max(i - 2, 0)]) / (orc.SCAN_SIZE - 1)
        assert np.all(np.diff(zooms[-1][0]) <= single)

    def test_error_curve_unimodal(self):
        grid = np.exp(np.linspace(math.log(orc.SCAN_RANGE[0]), math.log(orc.SCAN_RANGE[1]), 300))
        errs = orc._scan_max_phase_errors(grid, 1.0, 2048)
        d = np.diff(errs)
        d = d[d != 0.0]
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(d))) > 0))
        print(f"degree-1 scan: {sign_changes} sign change(s) in discrete differences")
        assert sign_changes == 1


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
