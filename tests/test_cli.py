import json
import math

import numpy as np
import pytest

from zolocirc import analysis as an
from zolocirc import approximants as ap
from zolocirc import elliptic as el
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

    def test_missing_theta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "build", "--problem", "z5", "--degree", "2")
        assert code == 2
        assert "theta" in err

    def test_theta_flag_window(self, capsys):
        code, _, _ = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", "1.8")
        assert code == 2
        code, _, _ = run(capsys, "build", "--problem", "z5", "--degree", "2", "--theta", "0")
        assert code == 2

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
        rho = el.EllipticModulus.from_theta(1.0).rho
        assert slope == pytest.approx(-0.5 * math.log(rho), rel=0.05)

    def test_json_format(self, capsys):
        doc = run_json(capsys, "bounds", "--problem", "z5", "--max-degree", "3",
                       "--theta", "1.0", "--format", "json")
        assert len(doc["results"]["rows"]) == 4

    def test_max_degree_cap(self, capsys):
        code, _, _ = run(capsys, "bounds", "--problem", "z6", "--max-degree", "65",
                         "--theta", "1.0")
        assert code == 2


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

    @pytest.mark.parametrize("window", ["-inf,2,-2,2", "-2,2,-2,nan"])
    def test_non_finite_window(self, capsys, tmp_path, window):
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "contour", "--problem", "z5", "--degree", "1",
                           "--theta", "1.0", f"--window={window}",
                           "--resolution", "16", "--out", str(out_file))
        assert code == 2 and "--window" in err
        assert not out_file.exists()


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


def per_cell_contour_csv(problem, degree, theta, window, resolution):
    """The contour CSV as written one cell at a time, three formats per cell."""
    if problem == "z5":
        grid = an.contour_grid(ap.build_r(degree, theta), "sqrt", window, resolution)
    else:
        grid = an.contour_grid(ap.build_s(degree, theta), "sign", window, resolution)
    res = np.linspace(window[0], window[1], resolution)
    ims = np.linspace(window[2], window[3], resolution)
    parts = ["re,im,value\n"]
    for i in range(resolution):
        for j in range(resolution):
            parts.append(
                f"{format(res[j], '.17g')},{format(ims[i], '.17g')},"
                f"{format(grid.values[i, j], '.17g')}\n"
            )
    return "".join(parts).encode("utf-8")


def _r_pole_window():
    pole = -ap.build_r(1, 1.0).factors[0]  # on the real axis
    return (pole - 1.0, pole + 1.0, -1.0, 1.0)


def _s_pole_window():
    pole = 1.0 / ap.build_s(2, 1.0).factors[0]  # at i * pole
    return (-1.0, 1.0, pole - 1.0, pole + 1.0)


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
