"""The argument contract of the public entries and of the CLI.

Each entry that takes numbers, the calls of a built optimum, of a z4
approximant and of a Pade approximant among them, takes ten hostile values
in each of its arguments in turn (the rational or fraction it reads among
them), with warnings as errors: it must return, or raise one of the six
exception types of ``zolocirc.errors``.  Each CLI command that builds at
``--degree`` exits 3 on a degree past the doubles, with nothing on stdout
and no traceback; and ten hostile strings in each numeric flag of
``build``, ``error``, ``bounds``, ``compose`` and ``contour`` exit 0, 2 or
3, with no traceback, and a failing run prints nothing on stdout and writes
no ``--out`` file.

Finite ints above 2**20 as degrees and sizes are left out, and so is a
200-digit ``--degree`` where a command builds at it: they are accepted and
built, and the ceiling that the contract puts on a finite degree is not
derived yet.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import zolocirc
from zolocirc import cli, errors
from zolocirc.analysis import effective_degree
from zolocirc.oracle import degree1_max_phase_error, oracle_amplitude

HOSTILE = (
    "0.5", None, 0.5 + 0j, np.complex128(0.5), np.array([0.5, 0.6]), np.array([0.5]), [0.5], 10**400, math.nan, True,
)
DOCUMENTED = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
OPTIMUM = zolocirc.build_s(3, 1.0)
FRACTION = zolocirc.ZolotarevFraction.from_ell(3, 0.5)

# (entry, base arguments): every base call returns
ENTRIES = [
    (zolocirc.blaschke_composition_modulus, (3, 0.5)),
    (zolocirc.blaschke_h, (3, 0.5)),
    (zolocirc.blaschke_s_relation, (3, 0.5, 0.5)),
    (zolocirc.build_r, (3, 1.0)),
    (zolocirc.build_s, (3, 1.0)),
    (zolocirc.coeff_a, (1, 3, 1.0)),
    (zolocirc.coeff_b, (1, 3, 1.0)),
    (zolocirc.complete_K, (0.5,)),
    (zolocirc.compose_F, (2, 3, 0.5, 0.7)),
    (zolocirc.compose_r, (2, 3, 1.0, 1j)),
    (zolocirc.compose_s, (2, 3, 1.0, 1j)),
    (zolocirc.compose_s_tilde, (1, 1, 1.0, 1j)),
    (zolocirc.contour_grid, (OPTIMUM, "z6", (-1.5, 1.5, -1.5, 1.5), 16)),
    (zolocirc.error_bounds, (3, 1.0, "z6")),
    (zolocirc.eval_F_direct, (FRACTION, 0.3)),
    (zolocirc.eval_F_product, (FRACTION, 0.3)),
    (zolocirc.eval_s_via_FG, (3, 1.0, 1j)),
    (zolocirc.groetzsch_mu, (0.5,)),
    (zolocirc.inverse_sn, (0.3, 0.5)),
    (zolocirc.jacobi_sncndn, (0.3, 0.5)),
    (zolocirc.lambda_from_Z, (0.01,)),
    (zolocirc.max_phase_error, (OPTIMUM, 1.0, "z6", 64)),
    (zolocirc.mu_inverse, (1.0,)),
    (zolocirc.oracle_K, (0.5,)),
    (zolocirc.oracle_minimax_degree1, (1.0,)),
    (zolocirc.oracle_sn, (0.3, 0.5)),
    (zolocirc.pade_limit_check, (2, (0.1, 0.05))),
    (zolocirc.pade_p, (2,)),
    (zolocirc.phase_error_from_Z, (0.01,)),
    (zolocirc.phase_error_sign, (OPTIMUM, 1.0, 64)),
    (zolocirc.phase_error_sqrt, (zolocirc.build_r(2, 1.0), 1.0, 64)),
    (zolocirc.scaled_F_via_blaschke, (3, 0.5, 0.5)),
    (zolocirc.solve_lambda, (0.5, 3, None)),
    (zolocirc.theta_tilde, (3, 1.0)),
    (zolocirc.z4_solution, (3, 0.5)),
    (zolocirc.zolotarev_number, (3, 1.0)),
    (zolocirc.EllipticModulus.from_ell, (0.5, None)),
    (zolocirc.ZolotarevFraction.from_ell, (3, 0.5, None)),
    (OPTIMUM, (1j,)),
    (zolocirc.z4_solution(3, 0.5), (0.3,)),
    (zolocirc.pade_p(2), (0.3,)),
    (effective_degree, ("z6", 3)),
    (degree1_max_phase_error, (1.0, 1.0, 64)),
    (oracle_amplitude, (0.3, 0.5)),
]


def _pairs():
    for entry, base in ENTRIES:
        name = getattr(entry, "__qualname__", None) or f"{type(entry).__name__}.__call__"
        for i, arg in enumerate(inspect.signature(entry).parameters):
            yield pytest.param(entry, base, i, id=f"{name}-{arg}")


@pytest.mark.parametrize("entry, base, index", _pairs())
def test_hostile_values_return_or_raise_a_documented_type(entry, base, index):
    escaped = []
    for value in HOSTILE:
        args = list(base)
        args[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                entry(*args)
            except DOCUMENTED:
                pass
            except Exception as exc:  # every type outside the contract is reported
                escaped.append(f"{type(value).__name__}: {type(exc).__name__}: {exc}")
    assert not escaped, escaped


def test_a_degree_past_the_doubles_is_named_by_its_bit_length():
    with pytest.raises(errors.DomainError, match=r"^degree must be an integer >= 0, got an int of 1329 bits$"):
        zolocirc.build_s(10**400, 1.0)
    with pytest.raises(errors.DomainError, match="got an int of 16610 bits"):  # str() refuses its 5,001 digits
        zolocirc.build_s(-(10**5000), 1.0)


def test_the_checks_keep_their_values():
    # a _point check leaves the Pade call's float a float; an oracle u of a real dtype is read as before
    assert zolocirc.pade_p(2)(0.5) == 0.7073170731707318
    assert oracle_amplitude(np.array([1, 2]), 0.5).value.tolist() == [
        oracle_amplitude(1.0, 0.5).value, oracle_amplitude(2.0, 0.5).value]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--problem", "z6", "--theta", "1.0"],
        ["build", "--problem", "z4", "--ell", "0.5"],
        ["compose", "--degree-tilde", "2", "--theta", "1.0"],
        ["contour", "--problem", "z5", "--theta", "1.0", "--resolution", "16", "--out", "{out}"],
    ],
    ids=["build-z6", "build-z4", "compose", "contour"],
)
def test_cli_refuses_a_degree_past_the_doubles(argv, capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code = cli.main([a.format(out=out) for a in argv] + ["--degree", str(10**400)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("numeric domain error: ") and "Traceback" not in captured.err
    assert not out.exists()


BIG = "1" * 200  # within the doubles, so no check refuses it as a degree
ARGV_VALUES = ("nan", "inf", "-inf", "1e400", "-0", "0x10", "1_000", "", "abc", BIG)
# (command, argv that exits 0, its numeric flags, {flag: values left out because they build something heavy})
ARGV_COMMANDS = [
    ("build-z6", "build --problem z6 --degree 3 --theta 1.0", ("--degree", "--theta"), {"--degree": {BIG}}),
    ("build-z4", "build --problem z4 --degree 3 --ell 0.5", ("--degree", "--ell"), {"--degree": {BIG}}),
    ("error", "error --problem z6 --degree 3 --theta 1.0 --grid 64", ("--degree", "--theta", "--grid"), {}),
    ("bounds", "bounds --problem z6 --max-degree 3 --theta 1.0", ("--max-degree", "--theta"), {}),
    ("compose", "compose --degree 2 --degree-tilde 2 --theta 1.0 --samples 16",
     ("--degree", "--degree-tilde", "--theta", "--samples"), {"--degree-tilde": {BIG}}),
    ("contour", "contour --problem z6 --degree 3 --theta 1.0 --resolution 16 --out {out}",
     ("--degree", "--theta", "--resolution"), {"--degree": {BIG}, "--resolution": {"1_000"}}),
]


@pytest.mark.parametrize(
    "argv, flag, values",
    [pytest.param(argv, flag, [v for v in ARGV_VALUES if v not in heavy.get(flag, ())], id=f"{name}{flag}")
     for name, argv, flags, heavy in ARGV_COMMANDS for flag in flags],
)
def test_cli_argv_sweep_exits_with_a_documented_code(argv, flag, values, capsys, tmp_path):
    out = tmp_path / "grid.csv"
    escaped = []
    for value in values:
        args = argv.format(out=out).split()
        args[args.index(flag) + 1] = value
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        captured, wrote = capsys.readouterr(), out.exists()
        out.unlink(missing_ok=True)
        if code not in (0, 2, 3) or "Traceback" in captured.err or (code and (captured.out or wrote)):
            escaped.append(f"{value[:12]!r}: exit {code}, stdout {captured.out[:40]!r}, file {wrote}")
    assert not escaped, escaped
