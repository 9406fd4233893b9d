import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from zolocirc import analysis as an
from zolocirc import approximants as ap
from zolocirc import cli
from zolocirc import elliptic as el
from zolocirc import selftest
from zolocirc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuild:
    def test_sign_degree_one(self, capsys):
        doc = run_json(capsys, "build", "--problem", "z6", "--degree", "1", "--theta", "1.0")
        res = doc["results"]
        assert res["factors"] == [0]
        assert res["predicted_max_error"] == pytest.approx(1.0, abs=1e-12)
        assert res["quarter_turns"] == 0
        assert doc["tool_version"] == "0.1.0"

    def test_sign_degree_zero(self, capsys):
        res = run_json(capsys, "build", "--problem", "z6", "--degree", "0", "--theta", "1.0")["results"]
        assert res["factors"] == []
        assert res["quarter_turns"] == 1  # the constant i
        assert res["predicted_max_error"] == pytest.approx(math.pi / 2, abs=1e-14)

    def test_sqrt_degree_three_lambda(self, capsys):
        res = run_json(capsys, "build", "--problem", "z5", "--degree", "3", "--theta", "1.2")["results"]
        red = el.solve_lambda(math.cos(1.2), 7, math.sin(1.2))
        assert res["lambda"] == pytest.approx(red.lam, abs=0.0)
        assert res["exact_type"] == [3, 3]
        assert len(res["factors"]) == 3
        assert all(a > 0 for a in res["factors"])

    @pytest.mark.parametrize("problem, degree, theta", [
        ("z6", 0, 1.0), ("z6", 5, 1.0), ("z6", 64, 1.5707963), ("z6", 85, 1e-3), ("z5", 3, 1.2), ("z5", 0, 0.3)])
    def test_one_degree_reduction_reads_theta_tilde_bit_for_bit(self, capsys, monkeypatch, problem, degree, theta):
        solves = []

        def counted(*args):
            solves.append(args)
            return el.solve_lambda(*args)

        def forbidden(*args):
            raise AssertionError("theta_tilde repeats the command's solve_lambda")

        for module in (cli, an):
            monkeypatch.setattr(module, "solve_lambda", counted)
        monkeypatch.setattr(an, "theta_tilde", forbidden)
        args = ("--problem", problem, "--degree", str(degree), "--theta", repr(theta))
        res = run_json(capsys, "build", *args)["results"]
        monkeypatch.undo()
        (ell, ell_comp), effective = el.require_theta(theta), an.effective_degree(problem, degree)
        assert solves == [(ell, effective, ell_comp)]
        assert res["predicted_max_error"].hex() == an.theta_tilde(effective, theta).hex()

    def test_sign_infinite_factor_serialized_as_string(self, capsys):
        res = run_json(capsys, "build", "--problem", "z6", "--degree", "3", "--theta", "1.0")["results"]
        assert "inf" in res["factors"]
        assert res["exact_type"] == [2, 3]

    def test_z4_payload(self, capsys):
        res = run_json(capsys, "build", "--problem", "z4", "--degree", "2", "--ell", "0.5")["results"]
        red = el.solve_lambda(0.5, 2)
        assert res["lambda"] == pytest.approx(red.lam, abs=0.0)
        dev = (1.0 - red.lam) / (1.0 + red.lam)
        assert res["predicted_max_error"] == pytest.approx(dev, rel=1e-12)
        assert res["scale"] == pytest.approx(2.0 / (1.0 + red.lam), rel=1e-15)
        assert res["exact_type"] == [1, 2]

    def test_z4_pole_locations(self, capsys):
        # imaginary poles at +-i ell sn(v, ell')/cn(v, ell') at the odd nodes
        ell = 0.5
        res = run_json(capsys, "build", "--problem", "z4", "--degree", "3", "--ell", "0.5")["results"]
        ell_comp = el.complement(ell)
        v = el.complete_K(ell_comp) / 3.0
        sn, cn, _ = el.jacobi_sncndn(v, ell_comp)
        expected = ell * sn / cn
        mags = sorted(abs(p[1]) for p in res["poles"])
        assert mags == pytest.approx([expected, expected], rel=1e-12)
        assert all(p[0] == 0 for p in res["poles"])

    @pytest.mark.parametrize("argv", [
        ["--problem", "z4", "--degree", str(m), "--ell", "0.5"] for m in range(1, 7)
    ] + [
        ["--problem", problem, "--degree", str(degree), "--theta", "1.0"]
        for problem in ("z5", "z6") for degree in (0, 1, 2, 3, 6)
    ])
    def test_zeros_and_poles_match_the_exact_type(self, capsys, argv):
        # z4 lists F_m's zero at the origin first, as z5/z6 do theirs
        res = run_json(capsys, "build", *argv)["results"]
        assert [len(res["zeros"]), len(res["poles"])] == res["exact_type"]
        if argv[1] == "z4":
            assert res["zeros"][0] == [0, 0]

    @pytest.mark.parametrize("argv, message", [
        (["--degree", "3"], "--ell is required for z4"),
        (["--degree", "0", "--ell", "0.5"], "z4 needs --degree >= 1"),
    ])
    def test_z4_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "build", "--problem", "z4", *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_missing_theta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2")
        assert code == 2
        assert "theta" in err

    def test_theta_flag_window(self, capsys):
        # the window is elliptic.require_theta's alone: its refusals exit 3 with its message
        window = f"outside supported range ({el.THETA_MIN:.6e}, {el.THETA_MAX!r})"
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", "1.8")
        assert code == 3
        assert err.strip().endswith(f"theta=1.8 {window}")
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", "0")
        assert code == 3
        assert err.strip().endswith(f"theta=0.0 {window}")
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", repr(el.THETA_MAX))
        assert code == 3
        assert err.strip().endswith(f"theta={el.THETA_MAX!r} {window}")
        below = math.nextafter(el.THETA_MAX, 0.0)
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", repr(below))
        assert code == 3
        assert err.strip().endswith(f"theta={below!r}: sin(theta) rounds to 1 in double precision")

    @pytest.mark.parametrize("problem", ["z5", "z6"])
    @pytest.mark.parametrize("command", ["build", "error", "contour"])
    def test_negative_degree_is_usage_error(self, capsys, tmp_path, command, problem):
        argv = [command, "--problem", problem, "--degree", "-1", "--theta", "1.0"]
        if command == "contour":
            argv += ["--resolution", "16", "--out", str(tmp_path / "out.csv")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "--degree" in err and out == ""

    def test_numeric_domain_exit(self, capsys):
        # passes flag validation but the modulus leaves the precision window
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", "1e-5")
        assert code == 3
        assert "theta" in err


class TestError:
    def test_report_fields(self, capsys):
        doc = run_json(capsys, "error", "--problem", "z6", "--degree", "4", "--theta", "1.0",
                       "--grid", "128")
        res = doc["results"]
        assert res["alternation_counts"] == [5, 5]
        assert res["expected_per_arc"] == 5
        assert abs(res["measured_max_error"] - res["predicted_max_error"]) <= 1e-9
        assert len(res["extrema"]) == 10

    def test_sqrt_problem(self, capsys):
        res = run_json(capsys, "error", "--problem", "z5", "--degree", "2", "--theta", "0.9",
                       "--grid", "96")["results"]
        assert res["alternation_counts"] == [6]

    def test_grid_minimum(self, capsys):
        code, _, _ = run(capsys, "error", "--problem", "z6", "--degree", "2", "--theta", "1.0",
                         "--grid", "32")
        assert code == 2

    def test_deficient_count_exits_4_after_the_report(self, capsys, monkeypatch):
        s = ap.build_s(6, 1.0)
        tampered = ap.UnimodularRational(s.quarter_turns, (1.05 * s.factors[0],) + s.factors[1:], s.family)
        monkeypatch.setattr(ap, "build_s", lambda m, theta: tampered)
        code, out, _ = run(capsys, "error", "--problem", "z6", "--degree", "6", "--theta", "1.0", "--grid", "256")
        res = json.loads(out)["results"]
        assert code == 4
        assert res["alternation_counts"] == [1, 1] and res["expected_per_arc"] == 7
        assert res["grid_size"] == 512  # both grids fell short, with the same counts

    def test_count_that_is_not_grid_stable_exits_4_without_a_report(self, capsys, monkeypatch):
        # a tampered s_2 takes the grid route, whose measurement this test replaces
        s = ap.build_s(2, 1.0)
        tampered = ap.UnimodularRational(s.quarter_turns, (1.05 * s.factors[0],) + s.factors[1:], s.family)
        monkeypatch.setattr(ap, "build_s", lambda m, theta: tampered)
        counts = iter([(1, 1), (2, 2)])  # the grid of 512 points, then the doubled grid
        monkeypatch.setattr(an, "_tally", lambda per_arc, rel=1e-3: (1.0, (), next(counts)))
        code, out, err = run(capsys, "error", "--problem", "z6", "--degree", "2", "--theta", "1.0")
        assert (code, out) == (4, "")
        assert "not grid-stable: (1, 1) vs (2, 2)" in err

    @pytest.mark.parametrize("problem, degree", [("z6", 24), ("z6", 25), ("z6", 30), ("z6", 64), ("z5", 12)])
    def test_built_optimum_reaches_the_full_count(self, capsys, problem, degree):
        # a grid search read these as short (or, at z6 degree 24, not grid-stable) and exited 4
        code, out, _ = run(capsys, "error", "--problem", problem, "--degree", str(degree), "--theta", "1.0",
                           "--grid", "1024")
        res = json.loads(out)["results"]
        M = an.effective_degree(problem, degree)
        assert code == 0
        assert res["alternation_counts"] == [M + 1] * (1 if problem == "z5" else 2)
        assert res["grid_size"] == 1024
        predicted = res["predicted_max_error"]
        assert abs(res["measured_max_error"] - predicted) <= an.node_bound(M, 1.0) * predicted

    @pytest.mark.parametrize("problem, degree, theta, grid", [("z6", "86", "1e-3", "1024"), ("z5", "64", "0.0002", "1040")])
    def test_optimal_error_below_the_normal_doubles_exits_3(self, capsys, problem, degree, theta, grid):
        # built optima whose arccos(lam) is subnormal (z6) or 0 (z5): no grid can resolve it, so the report is refused
        code, out, err = run(capsys, "error", "--problem", problem, "--degree", degree, "--theta", theta, "--grid", grid)
        assert (code, out) == (3, "")
        assert "numeric domain error" in err and "below the normal doubles" in err

    def test_unresolved_nodes_exit_3_without_a_report(self, capsys, monkeypatch):
        # a built optimum whose nodes fail the grid check is refused, not measured again on the grid
        monkeypatch.setattr(an, "node_bound", lambda m, theta: -1.0)
        code, out, err = run(capsys, "error", "--problem", "z6", "--degree", "5", "--theta", "1.0")
        assert (code, out) == (3, "")
        assert "numeric domain error" in err and "unresolved nodes at effective degree 5: counts" in err

    @pytest.mark.parametrize("problem", ["z5", "z6"])
    def test_grid_floor_is_inclusive(self, capsys, problem):
        res = run_json(capsys, "error", "--problem", problem, "--degree", "8", "--theta", "1.0",
                       "--grid", "72")["results"]
        assert res["grid_size"] == 72


class TestSizeFlags:
    @pytest.mark.parametrize("value", [2**20 + 1, 10**13])
    @pytest.mark.parametrize("argv, flag", [
        (["error", "--problem", "z6", "--degree", "2", "--theta", "1.0"], "--grid"),
        (["compose", "--degree", "2", "--degree-tilde", "3", "--theta", "1.0"], "--samples"),
    ])
    def test_above_two_to_the_twenty_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv, flag, str(value))
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {flag} must lie in [") and err.rstrip().endswith(str(value))


class TestFlagsCheckedBeforeBuild:
    """Size and window flags out of range are usage errors raised before any factor is built."""

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the flags were checked")

        monkeypatch.setattr(ap, "build_s", forbidden)
        monkeypatch.setattr(ap, "build_r", forbidden)

    @pytest.mark.parametrize("problem", ["z5", "z6"])
    @pytest.mark.parametrize("degree,grid", [(20000, 64), (20000, 160007), (8, 71), (200000, 2**20)])
    def test_grid_below_the_report_floor(self, capsys, problem, degree, grid):
        code, out, err = run(capsys, "error", "--problem", problem, "--degree", str(degree),
                             "--theta", "1.0", "--grid", str(grid))
        assert (code, out) == (2, "")
        floor = max(64, 8 * (degree + 1))
        assert err.strip() == f"usage error: --grid must lie in [{floor}, {2**20}], got {grid}"

    @pytest.mark.parametrize("resolution", [8, 15, 4097])
    def test_resolution_out_of_range(self, capsys, tmp_path, resolution):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "contour", "--problem", "z6", "--degree", "20000", "--theta", "1.0",
                             "--resolution", str(resolution), "--out", str(out_file))
        assert (code, out) == (2, "") and "--resolution must lie in [16, 4096]" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("window", ["1,0,0,1", "0,1,1,0", "0,0,0,1", "0,1,1,1"])
    def test_degenerate_window(self, capsys, tmp_path, window):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "contour", "--problem", "z5", "--degree", "20000", "--theta", "1.0",
                             f"--window={window}", "--resolution", "16", "--out", str(out_file))
        assert (code, out) == (2, "") and "--window must have re_min < re_max" in err
        assert not out_file.exists()


class TestBounds:
    def test_rows_ordered(self, capsys):
        code, out, _ = run(capsys, "bounds", "--problem", "z6", "--max-degree", "8",
                           "--theta", "1.0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "degree,measured,bound_rho,bound_secant"
        assert len(lines) == 10
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        for degree, measured, b_rho, b_sec in rows:
            assert measured <= b_rho + 1e-12
            assert b_rho <= b_sec * (1 + 1e-15)
        assert rows[0][1] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_decay_rate(self, capsys):
        _, out, _ = run(capsys, "bounds", "--problem", "z6", "--max-degree", "8",
                        "--theta", "1.0")
        rows = [tuple(float(v) for v in line.split(",")) for line in out.strip().split("\n")[1:]]
        degrees = np.array([r[0] for r in rows[1:]])
        logs = np.log([r[1] for r in rows[1:]])
        slope = np.polyfit(degrees, logs, 1)[0]
        rho = el.EllipticModulus.from_ell(math.cos(1.0), math.sin(1.0)).rho
        assert slope == pytest.approx(-0.5 * math.log(rho), rel=0.05)

    def test_json_format(self, capsys):
        doc = run_json(capsys, "bounds", "--problem", "z5", "--max-degree", "3",
                       "--theta", "1.0", "--format", "json")
        assert len(doc["results"]["rows"]) == 4

    def test_max_degree_cap(self, capsys):
        code, _, _ = run(capsys, "bounds", "--problem", "z6", "--max-degree", "65",
                         "--theta", "1.0")
        assert code == 2

    @pytest.mark.parametrize("theta", ["2e-4", "1e-3", "0.3", "1.0", "1.5707963"])
    @pytest.mark.parametrize("problem", ["z5", "z6"])
    def test_measured_is_the_node_amplitude_or_theta_tilde(self, capsys, problem, theta):
        # a normal optimum reads `error`'s amplitude, which tests/test_node_route.py holds to mpmath;
        # the nodes refuse a subnormal one, whose row prints theta_tilde (0 where it underflows)
        code, out, _ = run(capsys, "bounds", "--problem", problem, "--max-degree", "64", "--theta", theta)
        assert code == 0
        build, report = an._problem_fns(problem)
        kinds = set()
        for line in out.splitlines()[1:]:
            degree, measured = line.split(",")[:2]
            degree, measured = int(degree), float(measured)
            predicted = an.theta_tilde(an.effective_degree(problem, degree), float(theta))
            if predicted >= sys.float_info.min:
                r = build(degree, float(theta))
                assert measured == report(r, float(theta), max(128, 8 * (degree + 1))).max_error
                kinds.add("nodes")
            else:
                assert measured == predicted
                kinds.add("theta_tilde")
        assert degree == 64
        if (problem, theta) == ("z5", "1e-3"):
            assert kinds == {"nodes", "theta_tilde"}

    def test_a_table_makes_no_scalar_evaluation(self, capsys, monkeypatch):
        scalar, call = [], ap.UnimodularRational.__call__

        def counted(self, z):
            if not isinstance(z, np.ndarray):
                scalar.append(z)
            return call(self, z)

        monkeypatch.setattr(ap.UnimodularRational, "__call__", counted)
        for problem, theta in (("z5", "1e-3"), ("z6", "1.0")):
            code, _, _ = run(capsys, "bounds", "--problem", problem, "--max-degree", "16", "--theta", theta)
            assert code == 0
        assert scalar == []
        ap.build_s(3, 1.0)(1j)  # the wrapper sees a scalar call
        assert scalar == [1j]


class TestCompose:
    def test_pass(self, capsys):
        doc = run_json(capsys, "compose", "--degree", "3", "--degree-tilde", "2",
                       "--theta", "1.0", "--samples", "200")
        assert doc["results"]["passed"] is True
        assert doc["results"]["max_residual"] <= 1e-9
        assert doc["results"]["target_degree"] == 6

    def test_near_right_angle_arc(self, capsys):
        theta = repr(0.5 * math.pi - 0.01)
        doc = run_json(capsys, "compose", "--degree", "3", "--degree-tilde", "3",
                       "--theta", theta, "--samples", "200")
        assert doc["results"]["passed"] is True

    @pytest.mark.parametrize("degrees", [("0", "2"), ("2", "0")])
    def test_degree_zero_is_usage_error(self, capsys, degrees):
        code, out, err = run(capsys, "compose", "--degree", degrees[0], "--degree-tilde", degrees[1],
                             "--theta", "1.0")
        assert (code, out) == (2, "")
        assert "compose needs positive --degree and --degree-tilde" in err

    def test_derived_theta_tilde_out_of_the_window_exits_3(self, capsys):
        code, out, err = run(capsys, "compose", "--degree", "2", "--degree-tilde", "2", "--theta", "1e-3")
        assert (code, out) == (3, "")
        assert err == (
            "numeric domain error: theta_tilde(m=2, theta=0.001)=2.50000041666675e-07 "
            f"outside supported range ({el.THETA_MIN:.6e}, {el.THETA_MAX!r})\n"
        )

    def test_identity_case_tiny_residual(self, capsys):
        doc = run_json(capsys, "compose", "--degree", "4", "--degree-tilde", "1",
                       "--theta", "0.8", "--samples", "100")
        assert doc["results"]["max_residual"] <= 1e-13


class TestContour:
    def test_csv_shape_and_header(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "contour", "--problem", "z5", "--degree", "2",
                         "--theta", "1.0", "--window=-2,2,-2,2",
                         "--resolution", "32", "--out", str(out_file))
        assert code == 0
        data = out_file.read_bytes()
        assert b"\r" not in data
        lines = data.decode().strip().split("\n")
        assert lines[0] == "re,im,value"
        assert len(lines) == 1 + 32 * 32

    def test_value_at_one_for_sqrt(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        run(capsys, "contour", "--problem", "z5", "--degree", "2", "--theta", "1.0",
            "--window=0,2,-1,1", "--resolution", "17", "--out", str(out_file))
        rows = {}
        for line in out_file.read_text().strip().split("\n")[1:]:
            re_s, im_s, val_s = line.split(",")
            rows[(float(re_s), float(im_s))] = val_s
        assert float(rows[(1.0, 0.0)]) == 0.0

    def test_exact_pole_marked_inf(self, capsys, tmp_path):
        from zolocirc.approximants import build_r

        pole = -build_r(1, 1.0).factors[0]
        out_file = tmp_path / "grid.csv"
        window = f"--window={pole - 1.0!r},{pole + 1.0!r},-1,1"
        run(capsys, "contour", "--problem", "z5", "--degree", "1", "--theta", "1.0",
            window, "--resolution", "17", "--out", str(out_file))
        values = [line.split(",")[2] for line in out_file.read_text().strip().split("\n")[1:]]
        assert "inf" in values

    def test_csv_axes_are_the_grid_axes(self, capsys, tmp_path):
        window, resolution = (-1.5, 0.5, -0.25, 2.0), 24
        grid = an.contour_grid(ap.build_s(3, 1.0), "z6", window, resolution)
        assert np.array_equal(grid.re, np.linspace(window[0], window[1], resolution))
        assert np.array_equal(grid.im, np.linspace(window[2], window[3], resolution))
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "contour", "--problem", "z6", "--degree", "3", "--theta", "1.0",
                         "--window=-1.5,0.5,-0.25,2.0", "--resolution", str(resolution), "--out", str(path))
        assert code == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], np.tile(grid.re, resolution))
        assert np.array_equal(rows[:, 1], np.repeat(grid.im, resolution))
        assert np.array_equal(rows[:, 2], grid.values.ravel())

    def test_unwritable_path(self, capsys):
        code, _, _ = run(capsys, "contour", "--problem", "z5", "--degree", "1",
                         "--theta", "1.0", "--window=-1,1,-1,1",
                         "--resolution", "16", "--out", "/nonexistent/dir/out.csv")
        assert code == 1

    def test_bad_window(self, capsys):
        code, _, _ = run(capsys, "contour", "--problem", "z5", "--degree", "1",
                         "--theta", "1.0", "--window=1,2,3",
                         "--resolution", "16", "--out", "/tmp/x.csv")
        assert code == 2

    def test_non_numeric_window(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "contour", "--problem", "z5", "--degree", "1", "--theta", "1.0",
                             "--window=a,b,c,d", "--resolution", "16", "--out", str(out_file))
        assert (code, out) == (2, "") and "--window must be four comma-separated reals" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("window", ["-inf,2,-2,2", "-2,2,-2,nan"])
    def test_non_finite_window(self, capsys, tmp_path, window):
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "contour", "--problem", "z5", "--degree", "1",
                           "--theta", "1.0", f"--window={window}",
                           "--resolution", "16", "--out", str(out_file))
        assert code == 2 and "--window" in err
        assert not out_file.exists()


class TestInputsEcho:
    # ``inputs`` echoes every parsed flag in parser order, whatever the
    # order on the command line; a new flag changes these lists
    @pytest.mark.parametrize(
        "argv,keys",
        [
            (["build", "--problem", "z6", "--degree", "2", "--theta", "1.0"],
             ["problem", "degree", "theta", "ell", "format"]),
            (["build", "--ell", "0.5", "--degree", "2", "--problem", "z4"],
             ["problem", "degree", "theta", "ell", "format"]),
            (["error", "--theta", "1.0", "--problem", "z5", "--degree", "1"],
             ["problem", "degree", "theta", "grid"]),
            (["bounds", "--format", "json", "--problem", "z6", "--max-degree", "2", "--theta", "1.0"],
             ["problem", "max_degree", "theta", "format"]),
            (["compose", "--theta", "1.0", "--degree-tilde", "2", "--degree", "2", "--samples", "8"],
             ["degree", "degree_tilde", "theta", "samples"]),
        ],
    )
    def test_inputs_keys(self, capsys, argv, keys):
        doc = run_json(capsys, *argv)
        assert doc["command"] == argv[0]
        assert list(doc["inputs"]) == keys


class TestFmt:
    @pytest.mark.parametrize(
        "value,text",
        [
            (-0.0, "0"),
            (math.nan, '"nan"'),
            (math.inf, '"inf"'),
            (-math.inf, '"-inf"'),
            (0.1, "0.10000000000000001"),
            (np.float64(-1.5), "-1.5"),
            (np.float32(0.1), "0.10000000149011612"),
            (np.int64(-7), "-7"),
            (True, "true"),
            (False, "false"),
            (1, "1"),
            (None, "null"),
            (1e300, "1.0000000000000001e+300"),
            (((1, 2.5), (), [np.int32(3)]), "[[1, 2.5], [], [3]]"),
            ('a"b\\c', '"a\\"b\\\\c"'),
            ({"k": (None, False), 2: "v"}, '{"k": [null, false], "2": "v"}'),
        ],
    )
    def test_spelling(self, value, text):
        assert cli._fmt(value) == text

    def test_set_is_refused(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._fmt({1.0})


class TestSharedParser:
    """One parser serves every main call in a process; no call sees another's flags."""

    BUILD = ("build", "--problem", "z6", "--degree", "3", "--theta", "1.0")

    def test_absent_flag_echoes_null_after_a_call_that_set_it(self, capsys):
        run_json(capsys, *self.BUILD)
        doc = run_json(capsys, "build", "--problem", "z4", "--degree", "3", "--ell", "0.5")
        assert doc["inputs"] == {"problem": "z4", "degree": 3, "theta": None, "ell": 0.5, "format": "json"}

    def test_usage_errors_leave_the_next_call_unchanged(self, capsys):
        before = run(capsys, *self.BUILD)
        errors = []
        for argv in (["build", "--problem", "z9", "--degree", "1", "--theta", "1.0"],
                     ["error", "--problem", "z6", "--degree", "x", "--theta", "1.0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            errors.append((exc.value.code, capsys.readouterr().err))
        assert [code for code, _ in errors] == [2, 2]
        assert errors[0][1].startswith("usage: zolocirc build ")
        assert errors[1][1].startswith("usage: zolocirc error ")
        assert before[0] == 0 and run(capsys, *self.BUILD) == before

    def test_built_once_across_calls(self, capsys, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli._build_parser.cache_clear()
        for degree in range(5):
            assert run(capsys, "build", "--problem", "z6", "--degree", str(degree), "--theta", "1.0")[0] == 0
        assert builds == ["zolocirc"]


class TestDeterminism:
    def test_build_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "build", "--problem", "z6", "--degree", "5", "--theta", "0.9")
        _, out2, _ = run(capsys, "build", "--problem", "z6", "--degree", "5", "--theta", "0.9")
        assert out1 == out2

    def test_bounds_byte_identical(self, capsys):
        args = ("bounds", "--problem", "z6", "--max-degree", "5", "--theta", "1.1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_contour_byte_identical(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(capsys, "contour", "--problem", "z6", "--degree", "3", "--theta", "1.0",
                "--window=-1.5,1.5,-1.5,1.5", "--resolution", "24", "--out", str(path))
            files.append(path.read_bytes())
        assert files[0] == files[1]


class TestSelftest:
    def test_every_criterion_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        *criteria, last = out.splitlines()
        assert code == 0
        assert [line.split(" ", 2)[:2] for line in criteria] == [["PASS", f"criterion-{i}"] for i in range(1, 9)]
        assert last == "all criteria passed"

    def test_a_failing_criterion_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "CRITERIA", (lambda: ("stub", False, "always fails"),))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out.splitlines() == ["FAIL criterion-1 stub: always fails", "1 criterion(s) failed"]


def per_cell_contour_csv(problem, degree, theta, window, resolution):
    """The contour CSV as written one cell at a time."""
    if problem == "z5":
        grid = an.contour_grid(ap.build_r(degree, theta), "z5", window, resolution)
    else:
        grid = an.contour_grid(ap.build_s(degree, theta), "z6", window, resolution)
    res = np.linspace(window[0], window[1], resolution).tolist()
    ims = np.linspace(window[2], window[3], resolution).tolist()
    parts = ["re,im,value\n"]
    for y, row in zip(ims, grid.values.tolist()):
        for x, v in zip(res, row):
            parts.append(f"{x:.17g},{y:.17g},{v:.17g}\n")
    return "".join(parts).encode("utf-8")


# A window from 0 to 2 * pole puts its midpoint, 0 + 8 (2 pole)/16 on a
# 17-point grid, on the pole exactly, whatever the pole's last bits.
def _r_pole_window():
    pole = -ap.build_r(1, 1.0).factors[0]  # on the real axis
    return (2.0 * pole, 0.0, -1.0, 1.0)


def _s_pole_window():
    pole = 1.0 / ap.build_s(2, 1.0).factors[0]  # at i * pole
    return (-1.0, 1.0, 0.0, 2.0 * pole)


class TestContourBytes:
    # Odd resolutions put a grid line through each window's midpoint, which
    # is an exact pole (inf cells), an exact 0 coordinate, or both.
    @pytest.mark.parametrize(
        "problem,degree,window,resolution,has_pole",
        [
            ("z5", 1, _r_pole_window(), 17, True),
            ("z5", 2, (-2.0, 2.0, -1.5, 0.5), 33, False),
            ("z6", 2, _s_pole_window(), 17, True),
            ("z6", 3, (-1.0, 1.0, -1.0, 1.0), 33, True),  # the -1/z factor: pole at 0
        ],
    )
    def test_matches_per_cell_writer(self, capsys, tmp_path, problem, degree, window, resolution, has_pole):
        path = tmp_path / "grid.csv"
        spec = ",".join(repr(v) for v in window)
        code, _, _ = run(capsys, "contour", "--problem", problem, "--degree", str(degree),
                         "--theta", "1.0", f"--window={spec}", "--resolution", str(resolution),
                         "--out", str(path))
        assert code == 0
        expected = per_cell_contour_csv(problem, degree, 1.0, window, resolution)
        assert (b",inf\n" in expected) == has_pole
        assert b"\n0," in expected or b",0," in expected  # a coordinate that is exactly 0
        assert path.read_bytes() == expected


def g17_matches_format(values):
    """_g17's rows and fallback mask, after checking each row against format(v, ".17g")."""
    rows, fallback = cli._g17(values)
    expected = np.array([format(v, ".17g").encode() for v in values.tolist()])
    got = rows.view(f"S{rows.shape[1]}").ravel()  # an S item drops its trailing NULs
    bad = np.flatnonzero(got != expected)
    assert not len(bad), [(values[i], expected[i], got[i]) for i in bad[:5]]
    return rows, fallback


def g17_ties(rng):
    """Doubles whose 18th significant digit is an exact 5: m 2^-e of 18 - e integer digits, m odd."""
    ties = []
    for e in range(2, 11):
        lo, hi = 10 ** (17 - e), min(10 ** (18 - e), 2 ** (53 - e))
        ties += [(2 * k + 1) / 2**e for k in rng.integers(lo * 2 ** (e - 1), hi * 2 ** (e - 1), 20).tolist()]
    ties += [1000000000000000.25]
    for v in ties:  # checked exactly: the digits past the 17th are 1/2 of a unit of the 17th
        f = Fraction(v)
        x = math.floor(math.log10(v))
        x += (Fraction(10) ** (x + 1) <= f) - (Fraction(10) ** x > f)
        assert (f * Fraction(10) ** (16 - x)).denominator == 2, v
    return np.array(ties + [-v for v in ties])


class TestG17:
    """The contour CSV's %.17g kernel, cli._g17, against format(v, ".17g") itself."""

    def test_a_million_values(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
        subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        steps = np.arange(-2, 3)[:, None]
        around_powers = (powers[powers > 0].view(np.int64) + steps).view(np.float64).ravel()
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        around_edges = (edges.view(np.int64) + np.arange(-2000, 2001)[:, None]).view(np.float64).ravel()
        ints = rng.integers(0, 2**53, 15_000).astype(float)
        scaled = (ints[:, None] * 10.0 ** np.arange(-22, 23)).ravel()
        unit = 3.0 * rng.random(100_000)
        values = np.concatenate([bits, subnormal, -subnormal, around_powers, around_edges, scaled, unit])
        assert len(values) >= 10**6
        _, fallback = g17_matches_format(values)
        # out of range: a fifth of the bit patterns and all subnormals; ties: about 1% of the scaled integers
        assert fallback.mean() < 0.15
        assert not fallback[-len(unit):].any()

    def test_exact_ties_fall_back(self):
        ties = g17_ties(np.random.default_rng(5))
        assert g17_matches_format(ties)[1].all()

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_an_exponent_off_by_one_falls_back(self, monkeypatch, shift):
        # log10 may err next to a power of ten: D then leaves [10^16, 10^17), and format writes the cell
        values = 1e-3 + 3.0 * np.random.default_rng(3).random(1000)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        assert g17_matches_format(values)[1].all()

    def test_fallback_mask(self):
        values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e250, 1000000000000000.25,
                           0.1, -2.5, 2e-284, 2e215, 123456789.0])
        rows, fallback = g17_matches_format(values)
        assert fallback.tolist() == [True] * 8 + [False] * 5
        assert rows.shape == (len(values), max(len(format(v, ".17g")) for v in values.tolist()))

    def test_resolution_512_contour(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "contour", "--problem", "z6", "--degree", "5", "--theta", "1.0",
                         "--window=-2,2,-2,2", "--resolution", "512", "--out", str(path))
        assert code == 0
        assert path.read_bytes() == per_cell_contour_csv("z6", 5, 1.0, (-2.0, 2.0, -2.0, 2.0), 512)
