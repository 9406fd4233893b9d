"""The two ends of the Theta window, where cos(Theta) or sin(Theta) rounds
onto the edge of the modulus window.

Every node of r_n, s_m and F_m is taken at the modulus ell' = sin(Theta).
Between 1.5707963162581844, the largest double with sin < 1, and
THETA_MAX that modulus is 1.0.  At the bottom, between THETA_MIN and
FIRST_GOOD, cos(Theta) rounds to ELL_MAX, which the reduction behind
theta_tilde and every phase-error report refuses.  ``require_theta``, the
one place a Theta becomes a modulus pair, rejects both bands with
PrecisionError for every entry point alike, the CLI's --theta included.
"""

import math

import numpy as np
import pytest

from zolocirc import analysis, approximants, composition, connections, elliptic
from zolocirc.cli import main
from zolocirc.errors import DomainError, PrecisionError

LAST_GOOD = 1.5707963162581844
SLIVER = 1.5707963167948964  # the largest double below THETA_MAX
FIRST_GOOD = 0.0001414213571029879  # the smallest double with cos(Theta) < ELL_MAX
BOTTOM = math.nextafter(elliptic.THETA_MIN, 2.0)  # the smallest double above THETA_MIN

CALLS = {
    "build_s(0)": lambda th: approximants.build_s(0, th),
    "build_s(1)": lambda th: approximants.build_s(1, th),
    "build_s(2)": lambda th: approximants.build_s(2, th),
    "build_s(256)": lambda th: approximants.build_s(256, th),
    "build_r(0)": lambda th: approximants.build_r(0, th),
    "build_r(2)": lambda th: approximants.build_r(2, th),
    "build_r(256)": lambda th: approximants.build_r(256, th),
    "coeff_b(1, 3)": lambda th: approximants.coeff_b(1, 3, th),
    "coeff_a(1, 1)": lambda th: approximants.coeff_a(1, 1, th),
    "ZolotarevFraction(5)": lambda th: approximants.ZolotarevFraction.from_ell(5, *elliptic.require_theta(th)),
    "theta_tilde(0)": lambda th: composition.theta_tilde(0, th),
    "theta_tilde(3)": lambda th: composition.theta_tilde(3, th),
    "error_bounds z6": lambda th: analysis.error_bounds(3, th, "z6"),
    "error_bounds z5": lambda th: analysis.error_bounds(1, th, "z5"),
    "zolotarev_number": lambda th: analysis.zolotarev_number(3, th),
    "require_theta": elliptic.require_theta,
    "phase_error_sign(3)": lambda th: analysis.phase_error_sign(approximants.build_s(3, 1.0), th, 64),
    "phase_error_sqrt(2)": lambda th: analysis.phase_error_sqrt(approximants.build_r(2, 1.0), th, 64),
}


def test_the_sliver_bounds():
    assert math.sin(LAST_GOOD) < 1.0
    assert math.sin(math.nextafter(LAST_GOOD, 2.0)) == 1.0
    assert math.nextafter(SLIVER, 2.0) == elliptic.THETA_MAX


@pytest.mark.parametrize("theta", [2e-4, 1.0, LAST_GOOD])
def test_require_theta_returns_the_modulus_pair(theta):
    assert elliptic.require_theta(theta) == (math.cos(theta), math.sin(theta))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_sliver_raises_precision_error(name):
    with pytest.raises(PrecisionError, match=r"sin\(theta\) rounds to 1"):
        CALLS[name](SLIVER)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_last_good_theta_still_builds(name):
    CALLS[name](LAST_GOOD)


@pytest.mark.parametrize("problem,degree", [("z6", 3), ("z6", 1), ("z5", 0)])
def test_cli_build_exits_3(capsys, problem, degree):
    code = main(["build", "--problem", problem, "--degree", str(degree), "--theta", repr(SLIVER)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numeric domain error" in captured.err and "sin(theta) rounds to 1" in captured.err


def test_the_bottom_band_bounds():
    assert math.cos(FIRST_GOOD) < elliptic.ELL_MAX
    assert math.cos(math.nextafter(FIRST_GOOD, 0.0)) == elliptic.ELL_MAX == math.cos(BOTTOM)
    assert FIRST_GOOD - elliptic.THETA_MIN == pytest.approx(3.93e-13, rel=1e-3)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bottom_band_raises_one_precision_error(name):
    # the message names the Theta the caller passed, not the modulus it rounds to
    with pytest.raises(PrecisionError) as info:
        CALLS[name](BOTTOM)
    assert str(info.value) == f"theta={BOTTOM!r}: cos(theta) rounds to ELL_MAX in double precision"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_first_good_theta_still_builds(name):
    CALLS[name](FIRST_GOOD)


@pytest.mark.parametrize(
    "command", [["error", "--problem", "z6", "--degree", "3"], ["build", "--problem", "z5", "--degree", "2"]]
)
def test_cli_bottom_band_exits_3(capsys, command):
    code = main([*command, "--theta", repr(BOTTOM)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"numeric domain error: theta={BOTTOM!r}: cos(theta) rounds to ELL_MAX" in captured.err


REFUSED = [-1.0, 0.0, math.nan, 1e-9, 1e-5, BOTTOM, math.nextafter(LAST_GOOD, 2.0), elliptic.THETA_MAX, 1.8]
COMMANDS = {
    "build z5": ["build", "--problem", "z5", "--degree", "2"],
    "build z6": ["build", "--problem", "z6", "--degree", "3"],
    "error": ["error", "--problem", "z6", "--degree", "3"],
    "bounds": ["bounds", "--problem", "z5", "--max-degree", "2"],
    "compose": ["compose", "--degree", "2", "--degree-tilde", "2"],
    "contour": ["contour", "--problem", "z6", "--degree", "2", "--resolution", "16"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("theta", REFUSED, ids=repr)
def test_cli_theta_window_is_require_theta(capsys, tmp_path, command, theta):
    with pytest.raises(PrecisionError) as info:
        elliptic.require_theta(theta)
    out = tmp_path / "grid.csv"
    argv = [*COMMANDS[command], f"--theta={theta!r}"] + (["--out", str(out)] if command == "contour" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"numeric domain error: {info.value}\n"
    assert not out.exists()


NOT_REAL = {
    "str": "1.0", "None": None, "list": [1.0], "complex": 1 + 0j,
    # numpy orders its complex scalars by their real parts, and math.cos would drop the imaginary part
    "np.complex128(1+0.5j)": np.complex128(1 + 0.5j), "np.complex128(1)": np.complex128(1),
    "np.complex64(1)": np.complex64(1),
    # a comparison of an array is an array: numpy's ValueError at two or more points, a TypeError later at one
    "np.array([0.5, 0.7])": np.array([0.5, 0.7]), "np.array([1.0])": np.array([1.0]),
}
TAKES_A_REAL = {
    "build_s(3)": lambda v: approximants.build_s(3, v),
    "build_r(2)": lambda v: approximants.build_r(2, v),
    "theta_tilde(3)": lambda v: composition.theta_tilde(3, v),
    "pade_limit_check(2)": lambda v: connections.pade_limit_check(2, [v]),
    "z4_solution(3)": lambda v: approximants.z4_solution(3, v),
    "solve_lambda(3)": lambda v: elliptic.solve_lambda(v, 3),
    "blaschke_h(2)": lambda v: connections.blaschke_h(2, v),
    "blaschke_s_relation(2)": lambda v: connections.blaschke_s_relation(2, v, 0.1),
    "scaled_F_via_blaschke(2)": lambda v: connections.scaled_F_via_blaschke(2, v, 0.1),
}


@pytest.mark.parametrize("value", sorted(NOT_REAL))
@pytest.mark.parametrize("name", sorted(TAKES_A_REAL))
def test_a_theta_or_modulus_that_is_not_real_is_a_domain_error(name, value):
    # require_theta and require_modulus refuse a complex type and catch the comparison's TypeError
    with pytest.raises(DomainError, match=r"^(theta|ell) must be a real number, got "):
        TAKES_A_REAL[name](NOT_REAL[value])


# the entries that check a modulus, its complement, a mu value or a Zolotarev number Z themselves, each with a
# value outside its range: the real-number rule of require_theta and require_modulus (elliptic._between),
# and each range with its own message, for a float and a numpy float alike
BARE_CHECKS = {
    "complete_K": (elliptic.complete_K, "ell", 1.0, "complete_K requires 0 <= ell < 1, got "),
    "jacobi_sncndn": (lambda v: elliptic.jacobi_sncndn(0.3, v), "ell", 1.0, r"jacobi modulus must lie in \[0, 1\), got "),
    "groetzsch_mu": (elliptic.groetzsch_mu, "ell", 0.0, "groetzsch_mu requires 0 < ell < 1, got "),
    "EllipticModulus.from_ell": (elliptic.EllipticModulus.from_ell, "ell", 1.0, r"modulus must lie in \(0, 1\), got "),
    "EllipticModulus.from_ell(0.6, ell_comp)": (
        lambda v: elliptic.EllipticModulus.from_ell(0.6, v), "ell_comp", 0.0, r"ell=0\.6 and ell_comp=\S+ are not complementary"
    ),
    "mu_inverse": (elliptic.mu_inverse, "v", 0.0, "mu_inverse requires v > 0, got "),
    "lambda_from_Z": (analysis.lambda_from_Z, "Z", 1.0, "lambda_from_Z requires 0 <= Z < 1, got "),
    "phase_error_from_Z": (analysis.phase_error_from_Z, "Z", 1.0, "phase_error_from_Z requires 0 <= Z < 1, got "),
}


@pytest.mark.parametrize(
    "name, value",
    # None is ell_comp's default, complement(ell)
    [(n, v) for n in sorted(BARE_CHECKS) for v in sorted(NOT_REAL) if (BARE_CHECKS[n][1], v) != ("ell_comp", "None")],
)
def test_a_bare_check_refuses_what_is_not_real_and_keeps_its_range(name, value):
    # numpy's complex scalars passed these checks by their real parts, and a string, None or a list raised TypeError
    f, arg, outside, message = BARE_CHECKS[name]
    with pytest.raises(DomainError, match=rf"^{arg} must be a real number, got "):
        f(NOT_REAL[value])
    for v in (outside, np.float64(outside), math.nan):
        with pytest.raises(DomainError, match=f"^{message}"):
            f(v)
