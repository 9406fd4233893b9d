import cmath
import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import mpref
from zolocirc import analysis as an
from zolocirc import approximants as ap
from zolocirc import elliptic as el
from zolocirc.connections import blaschke_h
from zolocirc.errors import DomainError, ResolutionError


def predicted_error(m, theta):
    red = el.solve_lambda(math.cos(theta), m, math.sin(theta))
    return math.asin(red.lam_comp)


class TestPhaseErrorSqrt:
    def test_degree_zero(self):
        rep = an.phase_error_sqrt(ap.build_r(0, 0.8), 0.8, 64)
        assert rep.max_error == pytest.approx(0.8, abs=1e-12)
        assert rep.arcs == (2,)
        angles = sorted(t for t, _ in rep.extrema)
        assert angles[0] == pytest.approx(-1.6, abs=1e-9)
        assert angles[-1] == pytest.approx(1.6, abs=1e-9)

    def test_degree_three_amplitude(self):
        rep = an.phase_error_sqrt(ap.build_r(3, 1.2), 1.2, 256)
        assert abs(rep.max_error - predicted_error(7, 1.2)) <= 1e-9
        assert rep.arcs == (8,)

    def test_alternation_signs(self):
        rep = an.phase_error_sqrt(ap.build_r(2, 1.0), 1.0, 128)
        signs = [e >= 0 for _, e in rep.extrema]
        assert all(a != b for a, b in zip(signs, signs[1:]))

    def test_grid_precondition(self):
        with pytest.raises(DomainError):
            an.phase_error_sqrt(ap.build_r(3, 1.0), 1.0, 16)


class TestPhaseErrorSign:
    def test_degree_one(self):
        rep = an.phase_error_sign(ap.build_s(1, 0.9), 0.9, 64)
        assert rep.max_error == pytest.approx(0.9, abs=1e-12)
        assert rep.arcs == (2, 2)
        right = [t for t, _ in rep.extrema if abs(t) <= 1.0]
        assert sorted(right) == pytest.approx([-0.9, 0.9], abs=1e-9)

    def test_degree_zero_constant(self):
        rep = an.phase_error_sign(ap.build_s(0, 1.0), 1.0, 64)
        assert rep.max_error == pytest.approx(math.pi / 2, abs=1e-14)
        assert rep.predicted == pytest.approx(math.pi / 2, abs=1e-14)

    def test_reciprocal_has_same_error(self):
        s = ap.build_s(4, 1.1)
        a = an.phase_error_sign(s, 1.1, 128)
        b = an.phase_error_sign(s.reciprocal(), 1.1, 128)
        assert abs(a.max_error - b.max_error) <= 1e-13

    def test_near_right_angle_arc(self):
        theta = 0.5 * math.pi - 0.1
        rep = an.phase_error_sign(ap.build_s(4, theta), theta, 128)
        assert abs(rep.max_error - predicted_error(4, theta)) <= 1e-9
        assert rep.arcs == (5, 5)

    @pytest.mark.parametrize("m", [3, 5])
    def test_counts_stable_under_doubling(self, m):
        s = ap.build_s(m, 1.0)
        a = an.phase_error_sign(s, 1.0, 96)
        b = an.phase_error_sign(s, 1.0, 192)
        assert a.arcs == b.arcs == (m + 1, m + 1)


class TestExpectedCount:
    """A report carries the count an optimum reaches per arc: M + 1 at the effective degree M."""

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_sqrt_expects_2n_plus_2(self, n):
        assert an.phase_error_sqrt(ap.build_r(n, 1.0), 1.0, 128).expected == 2 * n + 2

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_sign_expects_m_plus_1(self, m):
        assert an.phase_error_sign(ap.build_s(m, 1.0), 1.0, 128).expected == m + 1

    def test_a_tampered_factor_keeps_the_count_it_falls_short_of(self):
        for build, report, degree, expected in ((ap.build_r, an.phase_error_sqrt, 3, 8),
                                                (ap.build_s, an.phase_error_sign, 4, 5)):
            r = build(degree, 1.0)
            params = list(r.factors)
            params[0] *= 1.2
            rep = report(ap.UnimodularRational(r.quarter_turns, tuple(params), r.family), 1.0, 256)
            assert rep.expected == expected
            assert any(c < rep.expected for c in rep.arcs)


class TestMaxPhaseError:
    def test_agrees_with_report(self):
        s = ap.build_s(3, 1.0)
        rep = an.phase_error_sign(s, 1.0, 128)
        assert an.max_phase_error(s, 1.0, "z6", 256) == pytest.approx(rep.max_error, abs=1e-12)

    def test_sqrt_side(self):
        r = ap.build_r(2, 0.9)
        rep = an.phase_error_sqrt(r, 0.9, 128)
        assert an.max_phase_error(r, 0.9, "z5", 256) == pytest.approx(rep.max_error, abs=1e-12)


class TestGridValidation:
    @staticmethod
    def _calls(grid_n):
        s, r = ap.build_s(3, 1.0), ap.build_r(1, 1.0)
        return (
            lambda: an.max_phase_error(s, 1.0, "z6", grid_n),
            lambda: an.phase_error_sign(s, 1.0, grid_n),
            lambda: an.phase_error_sqrt(r, 1.0, grid_n),
        )

    @pytest.mark.parametrize("grid_n", [0, 2.5, 256.0, True])
    def test_rejects_empty_non_integer_and_bool_grids(self, grid_n):
        for call in self._calls(grid_n):
            with pytest.raises(DomainError, match="grid_n"):
                call()

    def test_accepts_numpy_integers(self):
        for wide, plain in zip(self._calls(np.int64(256)), self._calls(256)):
            assert wide() == plain()
        s = ap.build_s(3, 1.0)
        assert type(an.phase_error_sign(s, 1.0, np.int64(256)).grid_size) is int


def tampered(r, first):
    """r with its first factor replaced by first(factor)."""
    return ap.UnimodularRational(r.quarter_turns, (first(r.factors[0]),) + r.factors[1:], r.family)


class TestReportedGrid:
    """grid_size is the grid the counts came from: a short count is measured again on the doubled grid."""

    @pytest.mark.parametrize("report, r", [
        (an.phase_error_sign, tampered(ap.build_s(6, 1.0), lambda a: 1.05 * a)),
        (an.phase_error_sqrt, tampered(ap.build_r(3, 1.0), lambda a: a + 1e-3)),
    ])
    def test_deficient_count_reports_the_doubled_grid(self, report, r):
        rep = report(r, 1.0, 256)
        assert all(c < rep.expected for c in rep.arcs)
        assert rep.grid_size == 512

    def test_a_short_count_that_moves_with_the_grid_is_unresolvable(self, monkeypatch):
        # 1/r_2 counts (2,) of 6 on both grids; a first grid that reads the arc's first end alone counts (1,)
        r, extrema = ap.build_r(2, 1.4).reciprocal(), an._arc_extrema
        assert an.phase_error_sqrt(r, 1.4, 256).arcs == (2,)
        monkeypatch.setattr(an, "_arc_extrema", lambda *job: extrema(*job)[: 1 if job[-1] == 256 else None])
        with pytest.raises(ResolutionError, match=r"not grid-stable: \(1,\) vs \(2,\) \(expected 6 per arc\)"):
            an.phase_error_sqrt(r, 1.4, 256)


class TestZolotarevNumber:
    def test_degree_zero_product_form(self):
        assert an.zolotarev_number(0, 1.0) == 4.0

    @pytest.mark.parametrize("m", range(1, 11))
    def test_upper_bound(self, m):
        theta = 1.0
        mod = el.EllipticModulus.from_ell(*el.require_theta(theta))
        assert an.zolotarev_number(m, theta) <= 4.0 * mod.rho ** (-2 * m) * (1 + 1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.4])
    def test_deviation_identity(self, theta):
        z3 = an.zolotarev_number(3, theta)
        red = el.solve_lambda(math.cos(theta), 3, math.sin(theta))
        lhs = (1.0 - red.lam) / (1.0 + red.lam)
        assert lhs == pytest.approx(2.0 * math.sqrt(z3) / (1.0 + z3), abs=1e-10)


class TestLambdaFromZ:
    def test_zero(self):
        assert an.lambda_from_Z(0.0) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_chain_matches_degree_reduction(self, m):
        theta = 1.0
        lam = an.lambda_from_Z(an.zolotarev_number(m, theta))
        red = el.solve_lambda(math.cos(theta), m, math.sin(theta))
        assert abs(lam - red.lam) <= 1e-10

    def test_monotone_decreasing(self):
        vals = [an.lambda_from_Z(z) for z in np.linspace(0.0, 0.99, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            an.lambda_from_Z(1.0)
        with pytest.raises(DomainError, match="phase_error_from_Z requires 0 <= Z < 1"):
            an.phase_error_from_Z(1.0)

    @pytest.mark.parametrize("m,theta", [(8, 0.5), (5, 1.0), (2, 1.4)])
    def test_stable_angle_form(self, m, theta):
        z = an.zolotarev_number(m, theta)
        assert an.phase_error_from_Z(z) == pytest.approx(predicted_error(m, theta), abs=1e-10)


class TestErrorBounds:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.4])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_sign_problem_ordering(self, theta, m):
        b_rho, b_sec = an.error_bounds(m, theta, "z6")
        assert predicted_error(m, theta) <= b_rho + 1e-12
        assert b_rho <= b_sec * (1 + 1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.4])
    @pytest.mark.parametrize("n", range(0, 5))
    def test_sqrt_problem_ordering(self, theta, n):
        b_rho, b_sec = an.error_bounds(n, theta, "z5")
        assert predicted_error(2 * n + 1, theta) <= b_rho + 1e-12
        assert b_rho <= b_sec * (1 + 1e-15)
        # the sqrt problem at n is the sign problem at 2n + 1, bit for bit
        assert (b_rho, b_sec) == an.error_bounds(2 * n + 1, theta, "z6")

    def test_sqrt_bounds_are_sign_bounds_across_the_window(self):
        for theta in np.linspace(el.THETA_MIN, el.THETA_MAX, 42)[1:-1].tolist():
            for n in range(0, 200, 3):
                assert an.error_bounds(n, theta, "z5") == an.error_bounds(2 * n + 1, theta, "z6")

    def test_arccos_root_bound(self):
        for x in np.linspace(0.0, 1.0, 101):
            f = math.acos(((1.0 - math.sqrt(x)) / (1.0 + math.sqrt(x))) ** 2)
            assert f <= 2.0 * math.sqrt(2.0) * x**0.25 + 1e-15

    def test_tightness_ratio(self):
        # soft check: the rho-form bound overestimates by at most 20x on the sweep
        for theta in (0.5, 1.0, 1.4):
            for m in range(0, 9):
                b_rho, _ = an.error_bounds(m, theta, "z6")
                ratio = predicted_error(m, theta) / b_rho
                assert 0.05 < ratio <= 1.0 + 1e-12

    def test_problem_validation(self):
        with pytest.raises(DomainError):
            an.error_bounds(3, 1.0, "z7")


class TestContourGrid:
    def test_zero_at_one_for_sqrt(self):
        r = ap.build_r(2, 1.0)
        grid = an.contour_grid(r, "z5", (0.0, 2.0, -1.0, 1.0), 17)
        res = np.linspace(0.0, 2.0, 17)
        ims = np.linspace(-1.0, 1.0, 17)
        i = int(np.argmin(np.abs(ims)))
        j = int(np.argmin(np.abs(res - 1.0)))
        assert grid.values[i, j] == 0.0

    def test_values_nonnegative_and_shape(self):
        s = ap.build_s(3, 1.0)
        grid = an.contour_grid(s, "z6", (-2.0, 2.0, -2.0, 2.0), 32)
        assert grid.values.shape == (32, 32)
        assert np.all(grid.values >= 0.0)

    def test_exact_pole_hit_is_inf(self):
        r = ap.build_r(1, 1.0)
        pole = -r.factors[0]
        # window centered so the middle grid node lands exactly on the pole
        grid = an.contour_grid(r, "z5", (pole - 1.0, pole + 1.0, -1.0, 1.0), 17)
        assert math.isinf(grid.values[8, 8])

    def test_circle_minima_interlace_extrema(self):
        theta = 1.0
        r = ap.build_r(2, theta)
        rep = an.phase_error_sqrt(r, theta, 128)
        points = sorted(rep.extrema, key=lambda p: p[0])

        def signed_err(t):
            w = r(complex(math.cos(t), math.sin(t)))
            return math.remainder(math.atan2(w.imag, w.real) - 0.5 * t, 2 * math.pi)

        def circle_err(t):
            z = complex(math.cos(t), math.sin(t))
            return abs(r(z) - (math.cos(t / 2) + 1j * math.sin(t / 2)))

        # between consecutive alternating extrema the signed error crosses 0,
        # and there the absolute error on the circle vanishes too
        for (a, ea), (b, eb) in zip(points, points[1:]):
            assert ea * eb < 0.0
            lo, hi = a, b
            flo = signed_err(lo)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = signed_err(mid)
                if (fm >= 0.0) == (flo >= 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            assert circle_err(0.5 * (lo + hi)) <= 1e-12

    def test_resolution_validation(self):
        r = ap.build_r(1, 1.0)
        with pytest.raises(DomainError):
            an.contour_grid(r, "z5", (-1, 1, -1, 1), 8)
        with pytest.raises(DomainError):
            an.contour_grid(r, "nope", (-1, 1, -1, 1), 32)

    @pytest.mark.parametrize("target", ["cube", "SQRT", None])
    def test_target_validated_before_the_grid_is_evaluated(self, target):
        def r(z):
            raise AssertionError("the grid was evaluated")

        with pytest.raises(DomainError, match="problem must be 'z5' or 'z6'"):
            an.contour_grid(r, target, (-1, 1, -1, 1), 4096)

    @pytest.mark.parametrize(
        "window",
        [
            (-1, 1, -1),
            (-1, 1, -1, 1, 0),
            (-math.inf, 1, -1, 1),
            (-1, 1, -1, math.inf),
            (-1, math.nan, -1, 1),
            (-1, 1, "-1", 1),
            (-1, 1, -1, 1j),
        ],
    )
    def test_window_must_be_four_finite_reals(self, window):
        with pytest.raises(DomainError, match="window"):
            an.contour_grid(ap.build_r(1, 1.0), "z5", window, 16)

    @pytest.mark.parametrize("window", [(1, -1, -1, 1), (-1, 1, 0, 0)])
    def test_degenerate_window(self, window):
        with pytest.raises(DomainError, match="degenerate window"):
            an.contour_grid(ap.build_r(1, 1.0), "z5", window, 16)

    def test_window_accepts_numpy_reals(self):
        window = (np.float64(-1.0), np.int64(1), -1, 1.0)
        grid = an.contour_grid(ap.build_r(1, 1.0), "z5", window, 16)
        assert np.isfinite(grid.values).any()

    def test_resolution_accepts_numpy_integers_not_bool(self):
        s = ap.build_s(5, 1.0)
        grid = an.contour_grid(s, "z6", (-2, 2, -2, 2), np.int64(64))
        assert grid.re.shape == grid.im.shape == (64,)
        assert grid.values.shape == (64, 64)
        with pytest.raises(DomainError):
            an.contour_grid(s, "z6", (-2, 2, -2, 2), True)


class TestPhaseErrorKernel:
    @staticmethod
    def grids(problem, degree, theta, quarter_turns=0):
        """(kernel, scalar path) on each arc's 1024-point grid: one array call, and r's scalar call point by point."""
        r = ap.build_r(degree, theta) if problem == "z5" else ap.build_s(degree, theta)
        r = dataclasses.replace(r, quarter_turns=r.quarter_turns + quarter_turns)
        jobs = an._arc_jobs(r, theta, problem)
        assert len(jobs) == (1 if problem == "z5" else 2)
        half_t = 0.5 if problem == "z5" else 0.0
        for (err, _, lo, hi), (mid, _) in zip(jobs, an._arcs(problem)):
            ths = np.linspace(lo, hi, 1024)
            ws = [r(cmath.exp(1j * t)) for t in ths.tolist()]
            scalar = [TestPhaseErrorKernel.literal_wrap(cmath.phase(w) - (mid + half_t * t)) for w, t in zip(ws, ths)]
            yield err(ths), np.array(scalar)

    @pytest.mark.parametrize("problem", ["z5", "z6"])
    @pytest.mark.parametrize("degree", [0, 1, 8, 32])
    @pytest.mark.parametrize("theta", [1e-3, 1.0, math.pi / 2 - 1e-3])
    def test_array_grid_matches_scalar_path(self, problem, degree, theta):
        # the kernel's one array call against the error written out at r's scalar values
        for grid, scalar in self.grids(problem, degree, theta):
            assert grid.shape == (1024,)
            assert np.max(np.abs(grid - scalar)) <= 4e-15

    @staticmethod
    def literal_wrap(x):
        """The wrap into (-pi, pi] written out: one conditional shift down, then one up."""
        x = x - 2.0 * math.pi if x > math.pi else x
        return x + 2.0 * math.pi if x <= -math.pi else x

    @pytest.mark.parametrize("offset", [0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi])
    def test_one_wrap_on_arrays(self, offset):
        # a constant r at w: the error atan2(w) - offset meets both edges of (-pi, pi] and -0.0
        for w in (complex(1.0, -0.0), complex(1.0, 0.0), complex(-1.0, 0.0), complex(-1.0, -0.0), -1j, 1j, 1 + 1j):
            err = an._phase_error(lambda z, w=w: np.full(z.shape, w), offset, 0.0)
            want = self.literal_wrap(math.atan2(w.imag, w.real) - offset)
            assert -math.pi < want <= math.pi
            got = err(np.zeros(2))
            assert np.array_equal(got.view(np.uint64), np.array([want, want]).view(np.uint64)), (w, offset)

    @pytest.mark.parametrize("problem", ["z5", "z6"])
    def test_reported_errors_are_python_floats(self, problem):
        # the grid route reads its values from arrays
        r = ap.build_r(2, 1.0) if problem == "z5" else ap.build_s(5, 1.0)
        report = (an.phase_error_sqrt if problem == "z5" else an.phase_error_sign)(r, 1.0, 128)
        values = [report.max_error, an.max_phase_error(r, 1.0, problem)] + [v for _, v in report.extrema]
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("problem", ["z5", "z6"])
    @pytest.mark.parametrize("degree", [1, 8])
    @pytest.mark.parametrize("theta", [1e-3, 1.0])
    def test_half_turn_wraps_into_range(self, problem, degree, theta):
        # a half turn puts the error at about +-pi, so both wrap branches
        # run; where rounding straddles pi the kernel and the scalar path differ by 2 pi
        for grid, scalar in self.grids(problem, degree, theta, quarter_turns=2):
            assert np.all((grid > -math.pi) & (grid <= math.pi))
            assert np.max(np.abs(np.remainder(grid - scalar + math.pi, 2 * math.pi) - math.pi)) <= 4e-15


class TestSlopeRoots:
    """The grid route reads each arc at the roots of the error's slope, on the branch through its centre."""

    def test_a_crossing_of_pi_is_a_value_not_an_extremum(self):
        # 1/r_1 turns through -pi on its way to -(2 Theta + arccos(lam)) at the arc end t = 2 Theta
        r, theta = ap.build_r(1, 1.4).reciprocal(), 1.4
        with mp.workdps(mpref.DPS):
            a, z = mpref.coeff_a(1, 1, theta), mp.expj(2 * mp.mpf(theta))
            amplitude = abs(mp.arg((z + a) / (1 + a * z)) - mp.mpf(theta))  # 3.17723439097452970...
        rep = an.phase_error_sqrt(r, theta, 256)
        assert rep.method == "grid" and abs(rep.max_error - amplitude) <= 4 * math.ulp(math.pi)
        assert an.max_phase_error(r, theta, "z5", 256) == rep.max_error

    def test_a_flat_optimum_reads_its_node_amplitude(self):
        r = ap.build_r(6, 0.3)
        node = an.phase_error_sqrt(r, 0.3, 128)
        assert node.method == "nodes" and 1.04e-14 < node.max_error < 1.06e-14
        assert abs(an.max_phase_error(r, 0.3, "z5", 128) - node.max_error) <= 2e-16

    def test_one_ulp_off_an_optimum_reads_its_amplitude(self):
        # 1/s_25 at Theta = 1.0, its first factor one ulp up: the amplitude is about 4.3e-14
        r = ap.build_s(25, 1.0).reciprocal()
        r = tampered(r, lambda b: math.nextafter(b, math.inf))
        assert an.max_phase_error(r, 1.0, "z6") >= 4e-14
        assert an.phase_error_sign(r, 1.0, 1024).max_error >= 4e-14

    # s_256 with its first factor moved by 1e-7 is no optimum: the grid route reads it on 8 (256 + 1) points
    S256 = tampered(ap.build_s(256, 1.0), lambda b: b * (1 + 1e-7))

    def test_a_high_degree_report_sums_the_slope_in_blocks(self):
        # the slope's kernels in one (points x zeros) array took a traced peak of 24.2 MiB
        tracemalloc.start()
        try:
            rep = an.phase_error_sign(self.S256, 1.0, 2056)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.method == "grid" and peak < 4 * 2**20

    @pytest.mark.parametrize("cells", [1, 1 << 40], ids=["a point per block", "one block"])
    def test_the_blocks_keep_every_bit_of_the_slope(self, monkeypatch, cells):
        t = np.linspace(-1.0, 1.0, 4112)
        blocked = an._phase_slope(self.S256, 0.5)(t)
        monkeypatch.setattr(ap, "_BLOCK_CELLS", cells)
        assert an._phase_slope(self.S256, 0.5)(t).tobytes() == blocked.tobytes()


class TestRationalInput:
    @pytest.mark.parametrize("r", [None, blaschke_h(3, 0.3), lambda z: z], ids=["None", "BlaschkeProduct", "lambda"])
    def test_what_is_not_a_unimodular_rational_is_a_domain_error(self, r):
        calls = (
            lambda: an.phase_error_sign(r, 1.0, 64),
            lambda: an.phase_error_sqrt(r, 1.0, 64),
            lambda: an.max_phase_error(r, 1.0, "z6", 64),
        )
        for call in calls:
            with pytest.raises(DomainError, match=r"BlaschkeProduct\.as_rational\(\)"):
                call()


class TestCrossProblemIdentity:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_sqrt_error_equals_sign_error_at_double_degree(self, n):
        theta = 1.1
        r_rep = an.phase_error_sqrt(ap.build_r(n, theta), theta, 160)
        s_rep = an.phase_error_sign(ap.build_s(2 * n + 1, theta), theta, 160)
        assert abs(r_rep.max_error - s_rep.max_error) <= 1e-10
        assert r_rep.predicted == s_rep.predicted
        assert r_rep.arcs == (2 * n + 2,) and s_rep.arcs == (2 * n + 2,) * 2


class TestEffectiveDegree:
    @pytest.mark.parametrize("degree", [0, 1, 7, 64])
    def test_sqrt_maps_to_odd_sign_degree(self, degree):
        assert an.effective_degree("z5", degree) == 2 * degree + 1
        assert an.effective_degree("Z5", degree) == 2 * degree + 1
        assert an.effective_degree("z6", degree) == degree

    def test_unknown_problem_raises_everywhere(self):
        s = ap.build_s(2, 1.0)
        calls = (
            lambda: an.effective_degree("z7", 1),
            lambda: an.error_bounds(1, 1.0, "z7"),
            lambda: an.max_phase_error(s, 1.0, "z7"),
            lambda: an._problem_fns("z7"),
        )
        for call in calls:
            with pytest.raises(DomainError, match="problem must be 'z5' or 'z6'"):
                call()

    @pytest.mark.parametrize("problem", [None, 5, b"z5"], ids=repr)
    def test_non_string_problem_is_a_domain_error(self, problem):
        s = ap.build_s(2, 1.0)
        calls = (
            lambda: an.effective_degree(problem, 1),
            lambda: an.max_phase_error(s, 1.0, problem),
            lambda: an.error_bounds(3, 1.0, problem),
            lambda: an.contour_grid(s, problem, (-1, 1, -1, 1), 16),
        )
        for call in calls:
            with pytest.raises(DomainError, match="problem must be 'z5' or 'z6'"):
                call()
