"""The F/G kernel: one arithmetic path for floats and arrays, finite at any degree.

The reference evaluates the same product formula in mpmath (60 digits)
from the same double node constants, so it measures the kernel's own
rounding, not the accuracy of the constants.
"""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from zolocirc import approximants as ap
from zolocirc import composition as co
from zolocirc import connections as cn
from zolocirc import elliptic as el
from zolocirc.errors import DomainError

EPS = np.finfo(float).eps
DEGREES = (0, 1, 2, 3, 8, 33, 64, 255)
ELL = 0.3
THETA = math.acos(ELL)


def line_grid(ell):
    """[-1, 1] with +-1, 0 and +-ell among the points."""
    return np.concatenate([np.linspace(-1.0, 1.0, 41), [ell, -ell, 0.0, 1.0, -1.0]])


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_bitwise(scalars, array):
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(bits(scalars), bits(array))


def mp_F(zf, x):
    """F from the undivided product formula, in 60-digit arithmetic."""
    with mp.workdps(60):
        s = mp.mpf(x) / mp.mpf(zf.reduction.modulus.ell)
        F = mp.mpf(zf.reduction.lam) * s / mp.mpf(zf.reduction.M)
        for c in zf.cot2_even:
            F *= 1 + s * s * mp.mpf(c)
        for c in zf.cot2_odd:
            F /= 1 + s * s * mp.mpf(c)
        return float(F)


def mp_G(zf, x):
    """G from the undivided product formula, in 60-digit arithmetic (|x| <= 1 for odd m)."""
    with mp.workdps(60):
        s = mp.mpf(x) / mp.mpf(zf.reduction.modulus.ell)
        G = mp.mpf(1)
        for c, d in zip(zf.cot2_odd, zf.dn2_odd):
            G *= (1 - s * s * mp.mpf(d)) / (1 + s * s * mp.mpf(c))
        if zf.reduction.m % 2:
            G *= mp.sqrt((1 - mp.mpf(x)) * (1 + mp.mpf(x)))
        return float(G)


class TestScalarArrayBitwise:
    @pytest.mark.parametrize("m", DEGREES)
    def test_eval_F_product(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, ELL)
        xs = line_grid(ELL)
        F, G = ap.eval_F_product(zf, xs)
        pairs = [ap.eval_F_product(zf, x) for x in xs.tolist()]
        assert_bitwise([p[0] for p in pairs], F)
        assert_bitwise([p[1] for p in pairs], G)

    @pytest.mark.parametrize("m", [m for m in DEGREES if m])
    def test_z4(self, m):
        z4 = ap.z4_solution(m, ELL)
        xs = np.concatenate([line_grid(ELL), [1.5, -1.5]])
        assert_bitwise([z4(x) for x in xs.tolist()], z4(xs))

    @pytest.mark.parametrize("m", DEGREES)
    def test_eval_s_via_FG(self, m):
        z = np.exp(1j * np.concatenate([np.linspace(-3.0, 3.0, 25), [0.0, math.pi, THETA, -THETA]]))
        z = np.concatenate([z, [1j, -1j]])
        lift = ap.eval_s_via_FG(m, THETA, z)
        scalars = [ap.eval_s_via_FG(m, THETA, w) for w in z.tolist()]
        assert all(type(v) is complex for v in scalars)
        assert np.array_equal(bits([v.real for v in scalars]), bits(lift.real))
        assert np.array_equal(bits([v.imag for v in scalars]), bits(lift.imag))
        if m:  # the built optimum reads the same kernel; s_0 = i is a constant
            s = ap.build_s(m, THETA)(z)
            assert np.array_equal(bits(s.real), bits(lift.real)) and np.array_equal(bits(s.imag), bits(lift.imag))

    @pytest.mark.parametrize("m", DEGREES)
    def test_lift_kernel_is_the_product_pair(self, m):
        # F and G share one denominator per odd node, and y = sqrt((1 - x)(1 + x)) is the odd G's own factor
        zf = ap.ZolotarevFraction.from_ell(m, ELL)
        xs = line_grid(ELL)
        ys = np.sqrt((1.0 - xs) * (1.0 + xs))
        F, G = ap._lift(zf, xs, ys)
        assert np.array_equal(bits(F), bits(zf.F(xs)))
        assert np.array_equal(bits(G), bits(ap.eval_F_product(zf, xs)[1]))
        pairs = [ap._lift(zf, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert_bitwise([p[0] for p in pairs], F)
        assert_bitwise([p[1] for p in pairs], G)

    # lam(255, ell) rounds past the modulus window at every ell, so the
    # outer fraction of degree 255 cannot be built
    @pytest.mark.parametrize("m", [m for m in DEGREES if 0 < m < 255])
    def test_compose_F(self, m):
        ell = 1.0000001e-8
        xs = line_grid(ell)
        left, right = co.compose_F(2, m, ell, xs)
        pairs = [co.compose_F(2, m, ell, x) for x in xs.tolist()]
        assert_bitwise([p[0] for p in pairs], left)
        assert_bitwise([p[1] for p in pairs], right)


def complex_bits(values):
    values = np.asarray(values, dtype=complex)
    return bits(values.real), bits(values.imag)


# an array takes its odd nodes in blocks at most _BLOCK_POINTS points with at least _BLOCK_NODES
# odd nodes, and sweeps them otherwise: batch sizes and degrees on both sides of each threshold
SIZES = (ap._BLOCK_POINTS, ap._BLOCK_POINTS + 1)
NODES = (ap._BLOCK_NODES - 1, ap._BLOCK_NODES)


def ring(size):
    """``size`` circle points, +-1 and +-i among them."""
    return np.concatenate([np.exp(1j * np.linspace(-3.1, 3.1, size - 4)), [1.0, -1.0, 1j, -1j]])


def blocks_taken(monkeypatch):
    """The batch size of every ``_node_block`` call from now on."""
    taken, block = [], ap._node_block

    def counted(*args):
        taken.append(args[3].size)
        return block(*args)

    monkeypatch.setattr(ap, "_node_block", counted)
    return taken


class TestBlockThresholds:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("nodes", NODES)
    @pytest.mark.parametrize("which", ["s_M", "1/s_M", "r_n"])
    def test_scalar_and_array_agree_bit_for_bit(self, size, nodes, which, monkeypatch):
        # s_M at M = 2 nodes (even, with the trailing odd node) and 2 nodes + 1; r_n at M = 2n + 1 = 2 nodes + 1
        taken = blocks_taken(monkeypatch)
        for m in (2 * nodes, 2 * nodes + 1):
            r = {"s_M": ap.build_s(m, THETA), "1/s_M": ap.build_s(m, THETA).reciprocal(),
                 "r_n": ap.build_r(m // 2, THETA)}[which]
            z = ring(size)
            scalars = [r(w) for w in z.tolist()]
            taken.clear()
            values = r(z)
            assert taken == ([size] if size <= ap._BLOCK_POINTS and nodes >= ap._BLOCK_NODES else [])
            assert all(type(v) is complex for v in scalars)
            assert all(np.array_equal(a, b) for a, b in zip(complex_bits(scalars), complex_bits(values)))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("nodes", NODES)
    def test_even_F_product_past_the_far_field_and_at_nan(self, size, nodes):
        zf = ap.ZolotarevFraction.from_ell(2 * nodes, ELL)
        extra = [1.5, -3.0, 1e100, 1e160, -1e160, 1e200, math.nan]
        xs = np.concatenate([np.linspace(-1.0, 1.0, size - len(extra)), extra])
        F, G = ap.eval_F_product(zf, xs)
        pairs = [ap.eval_F_product(zf, x) for x in xs.tolist()]
        assert_bitwise([p[0] for p in pairs], F)
        assert_bitwise([p[1] for p in pairs], G)
        assert np.isnan(F[-1]) and np.isnan(G[-1]) and np.isfinite(F[:-1]).all() and np.isfinite(G[:-1]).all()

    @pytest.mark.parametrize("shape", [(16, 64), (31, 33)])
    @pytest.mark.parametrize("m", [2 * ap._BLOCK_NODES, 2 * ap._BLOCK_NODES + 1])
    def test_a_2d_array_on_the_circle(self, shape, m):
        # (16, 64) holds _BLOCK_POINTS points, (31, 33) one more than that
        s = ap.build_s(m, THETA)
        z = ring(shape[0] * shape[1])
        values = s(z.reshape(shape))
        assert values.shape == shape
        scalars = [s(w) for w in z.tolist()]
        assert all(np.array_equal(a, b) for a, b in zip(complex_bits(scalars), complex_bits(values.ravel())))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @pytest.mark.parametrize("m", [16, 64])
    def test_an_empty_batch_is_an_empty_array_of_its_shape(self, m, shape):
        # an empty batch has no points to block: it used to divide _BLOCK_CELLS by its size
        z, x = np.empty(shape, dtype=complex), np.empty(shape)
        values = [ap.build_s(m, 1.0)(z), ap.build_r(m, 1.0)(z), ap.build_s(m, 1.0).reciprocal()(z),
                  *ap.eval_F_product(ap.ZolotarevFraction.from_ell(m + 1, 0.5), x),
                  *cn.blaschke_s_relation(m, 0.25, z)]
        assert [v.shape for v in values] == [shape] * 7

    @pytest.mark.parametrize("m", [2, 3, 16, 17, 33, 64])
    @pytest.mark.parametrize("per_block", [1, 3, 7, 8, 1000])
    def test_blocks_carry_F_and_G_in_node_order(self, m, per_block, monkeypatch):
        # blocks of per_block odd nodes (7 puts the trailing node of m = 16 alone in the last one)
        # against the sweep: np.multiply.reduce must multiply the rows in order
        zf = ap.ZolotarevFraction.from_ell(m, ELL)
        xs = np.concatenate([line_grid(ELL), [math.nan]])
        xy = (xs, np.sqrt((1.0 - xs) * (1.0 + xs)))
        monkeypatch.setattr(ap, "_BLOCK_NODES", 1 << 62)
        swept = ap._lift(zf, *xy)
        monkeypatch.setattr(ap, "_BLOCK_NODES", 1)
        monkeypatch.setattr(ap, "_BLOCK_CELLS", per_block * xs.size)
        blocked = ap._lift(zf, *xy)
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(swept, blocked))


class TestProductIsTheLift:
    # the real-line pair is the circle lift at y = sqrt((1 - x)(1 + x)); even m reads no y
    @pytest.mark.parametrize("m", [m for m in DEGREES if m % 2])
    def test_odd_degree_bit_for_bit(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, ELL)
        xs = line_grid(ELL)
        F, G = ap.eval_F_product(zf, xs)
        lF, lG = ap._lift(zf, xs, np.sqrt((1.0 - xs) * (1.0 + xs)))
        assert np.array_equal(bits(F), bits(lF)) and np.array_equal(bits(G), bits(lG))
        for x in xs.tolist():
            pair, lifted = ap.eval_F_product(zf, x), ap._lift(zf, x, math.sqrt((1.0 - x) * (1.0 + x)))
            assert_bitwise(pair, lifted)
            assert_bitwise(lifted, pair)

    @pytest.mark.parametrize("m", [m for m in DEGREES if m % 2 == 0])
    def test_even_degree_F_is_F_alone_past_one_and_the_far_field(self, m):
        # the lift and F each hold the far-field rule: they must agree where it applies
        zf = ap.ZolotarevFraction.from_ell(m, ELL)
        xs = np.array([1.5, -3.0, 1e100, 1e160, -1e160])
        assert np.array_equal(bits(ap.eval_F_product(zf, xs)[0]), bits(zf.F(xs)))
        assert_bitwise([ap.eval_F_product(zf, x)[0] for x in xs.tolist()], zf.F(xs))


class TestArrayDomain:
    def test_lift_rejects_a_point_off_the_circle(self):
        z = np.exp(1j * np.linspace(0.1, 3.0, 8))
        z[3] = 1.2
        with pytest.raises(DomainError):
            ap.eval_s_via_FG(2, 1.0, z)

    @pytest.mark.parametrize("axis_point", [1j, -1j])
    def test_lift_agrees_with_the_product_on_the_imaginary_axis(self, axis_point):
        # the odd-degree G reads y = Im z, not sign(y) sqrt(1 - x^2): +-i is an ordinary point
        z = np.exp(1j * np.linspace(0.1, 1.0, 8))
        z[5] = axis_point
        for theta in (0.3, 1.0, 1.4):
            for m in (1, 3, 4, 5, 9, 17, 33):
                s = ap.build_s(m, theta)
                product = ap.UnimodularRational(s.quarter_turns, s.factors, s.family)(z)
                assert float(np.max(np.abs(ap.eval_s_via_FG(m, theta, z) - product))) <= 4 * (m + 1) * EPS

    def test_odd_G_rejects_an_array_point_beyond_one(self):
        zf = ap.ZolotarevFraction.from_ell(3, 0.5)
        with pytest.raises(DomainError):
            ap.eval_F_product(zf, np.array([0.2, -1.25, 0.9]))

    @pytest.mark.parametrize("as_array", [False, True])
    def test_lift_rejects_nan(self, as_array):
        z = np.array([0.6 + 0.8j, complex(math.nan, 0.0)]) if as_array else complex(math.nan, 0.0)
        with pytest.raises(DomainError, match="requires [|]z[|] = 1"):
            ap.eval_s_via_FG(3, 1.0, z)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_odd_G_rejects_nan(self, as_array):
        zf = ap.ZolotarevFraction.from_ell(3, *el.require_theta(1.0))
        with pytest.raises(DomainError, match="needs [|]x[|] <= 1"):
            ap.eval_F_product(zf, np.array([0.2, math.nan]) if as_array else math.nan)

    def test_compose_F_rejects_an_array_point_beyond_one(self):
        with pytest.raises(DomainError):
            co.compose_F(2, 3, 0.5, np.array([0.2, 1.25]))


class TestMpReference:
    @pytest.mark.parametrize("ell", [1.0000001e-8, 1e-4, 0.5, 1.0 - 1.0000001e-8])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 33, 256, 3000])
    def test_F_and_G_within_m_plus_4_eps(self, ell, m):
        zf = ap.ZolotarevFraction.from_ell(m, ell)
        count = 5 if m > 256 else 25
        xs = np.concatenate([np.linspace(-1.0, 1.0, count), [ell, -ell, 0.5 * ell, 2.0 * ell]])
        xs = xs[np.abs(xs) <= 1.0]
        F, G = ap.eval_F_product(zf, xs)
        bound = (m + 4) * EPS
        assert float(np.max(np.abs(F - [mp_F(zf, x) for x in xs.tolist()]))) <= bound
        assert float(np.max(np.abs(G - [mp_G(zf, x) for x in xs.tolist()]))) <= bound


class TestHighDegreeFinite:
    @pytest.mark.parametrize(
        "ell,m",
        [(1.0000001e-8, 77), (1e-6, 102), (1e-4, 160), (1e-2, 400), (0.5, 800), (0.5, 3000)],
    )
    def test_F_and_G_finite_on_41_points(self, ell, m):
        # the first degrees at which undivided products of 1 + s^2 c overflow to inf/inf
        zf = ap.ZolotarevFraction.from_ell(m, ell)
        F, G = ap.eval_F_product(zf, np.linspace(-1.0, 1.0, 41))
        assert np.all(np.isfinite(F)) and np.all(np.isfinite(G))
        assert float(np.max(np.abs(np.abs(F[F != 0.0]) - 1.0))) <= 1e-6

    def test_z4_degree_3000(self):
        assert ap.z4_solution(3000, 0.5)(0.7) == pytest.approx(1.0, abs=1e-14)


class TestFAlone:
    @pytest.mark.parametrize("m", DEGREES)
    def test_is_the_F_of_the_product_pair(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, ELL)
        xs = line_grid(ELL)
        assert np.array_equal(bits(zf.F(xs)), bits(ap.eval_F_product(zf, xs)[0]))
        assert_bitwise([zf.F(x) for x in xs.tolist()], zf.F(xs))

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("x", [1.5, -3.0])
    def test_any_real_x_at_either_parity(self, m, x):
        zf = ap.ZolotarevFraction.from_ell(m, 0.5)
        assert zf.F(x) == pytest.approx(mp_F(zf, x), abs=(m + 4) * EPS)


class TestFPastTheOverflow:
    # (x/ell)^2 overflows past |x| ~ 1.3e154 ell; F there is about 1e160 (odd m) or 1e-160 (even m)
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_float_and_array_within_m_plus_4_eps(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, 0.5)
        xs = [1e160, -1e160]
        scalars = [zf.F(x) for x in xs]
        assert_bitwise(scalars, zf.F(np.array(xs)))
        for x, F in zip(xs, scalars):
            assert F == pytest.approx(mp_F(zf, x), rel=(m + 4) * EPS, abs=0.0)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_z4_inherits_it(self, m):
        z4 = ap.z4_solution(m, 0.5)
        assert z4(1e160) == pytest.approx(z4.scale * mp_F(z4.fraction, 1e160), rel=(m + 4) * EPS, abs=0.0)
        assert np.array_equal(bits(z4(np.array([1e160, 0.5]))), bits([z4(1e160), z4(0.5)]))


class TestGPastTheOverflow:
    # past the same overflow G of even m is about +-1; odd m needs |x| <= 1
    @pytest.mark.parametrize("m", [2, 4])
    def test_float_and_array_within_m_plus_4_eps(self, m):
        zf = ap.ZolotarevFraction.from_ell(m, 0.5)
        xs = [1e160, -1e160]
        scalars = [ap.eval_F_product(zf, x)[1] for x in xs]
        assert_bitwise(scalars, ap.eval_F_product(zf, np.array(xs))[1])
        for x, G in zip(xs, scalars):
            assert G == pytest.approx(mp_G(zf, x), rel=(m + 4) * EPS, abs=0.0)


class TestFloatPastTheQuotientOverflow:
    # at ell = 1e-3, x/ell itself overflows to +-inf, which the far-field rule
    # takes: neither a float nor an array warns there
    @pytest.mark.parametrize("x", [1e308, -1e308])
    def test_F_and_G_match_the_array_path_without_a_warning(self, x):
        fractions = [ap.ZolotarevFraction.from_ell(m, 1e-3) for m in (2, 3, 4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalars = [zf.F(x) for zf in fractions] + [ap.eval_F_product(fractions[-1], x)[1]]
            arrays = [zf.F(np.array([x])) for zf in fractions] + [ap.eval_F_product(fractions[-1], np.array([x]))[1]]
        assert_bitwise(scalars, np.concatenate(arrays))


class TestFarFieldLimit:
    # the kernel's closed-form limit on |x/ell|: below it, s * s * c stays
    # finite for every node constant c of the fraction (and for c = 1)
    @pytest.mark.parametrize("ell", [1.0000001e-8, 1e-6, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1.0000001e-8])
    def test_limit_squared_times_every_node_is_finite(self, ell):
        for m in [*range(40), 64, 255, 300]:
            zf = ap.ZolotarevFraction.from_ell(m, ell)
            limit = zf._kernel[5]
            nodes = zf.cot2_even + zf.cot2_odd + zf.dn2_odd + (1.0,)
            assert all(math.isfinite(limit * limit * c) for c in nodes), m


class TestDegreeZero:
    def test_direct_is_the_product_bit_for_bit(self):
        # F_0 = 0 carries the sign of x: -0.0 at every negative x
        for ell in (0.05, 0.3, 0.9):
            zf = ap.ZolotarevFraction.from_ell(0, ell)
            xs = line_grid(ell).tolist()
            direct = [ap.eval_F_direct(zf, x) for x in xs]
            product = [ap.eval_F_product(zf, x) for x in xs]
            assert np.array_equal(bits(direct), bits(product))
            assert all(math.copysign(1.0, F) == math.copysign(1.0, x) for x, (F, _) in zip(xs, direct))

    @pytest.mark.parametrize("as_array", [False, True])
    def test_nan_gives_nan_for_F_and_G(self, as_array):
        # with no odd node, G is 1 in the shape of x: NaN at a NaN x, not 1.0
        zf = ap.ZolotarevFraction.from_ell(0, ELL)
        F, G = ap.eval_F_product(zf, np.array([math.nan, 0.5]) if as_array else math.nan)
        if as_array:
            assert np.isnan(F[0]) and np.isnan(G[0]) and F[1] == 0.0 and G[1] == 1.0
        else:
            assert type(F) is float and type(G) is float and math.isnan(F) and math.isnan(G)


class TestZ4BeyondOne:
    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("x", [1.5, -1.5])
    def test_returns_F_at_either_parity(self, m, x):
        z4 = ap.z4_solution(m, 0.5)
        ref = z4.scale * mp_F(z4.fraction, x)
        assert z4(x) == pytest.approx(ref, abs=(m + 4) * EPS)
        assert z4(x) == -z4(-x)


def line_points(ell, limit):
    """Real points of every kind: near ones, past the far-field limit on |x/ell|, +-0, +-inf, NaN, a subnormal, +-1e308."""
    far = 2.0 * limit * ell
    return [0.5, -0.7, ell, -ell, 1.0, -1.0, 1.5, 0.5 * limit * ell, far, -far, 0.0, -0.0,
            math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308]


class TestFloatBranch:
    # a float below the far-field limit takes F's branch of its own; every other point the general body
    @pytest.mark.parametrize("ell", [2e-8, 0.5, 1.0 - 2e-8])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 33, 64, 600])
    def test_z4_is_scale_times_F_and_F_is_its_array(self, m, ell):
        z4 = ap.z4_solution(m, ell)
        zf = z4.fraction
        xs = line_points(ell, zf._kernel[5])
        values = [z4(x) for x in xs]
        assert_bitwise(values, [z4.scale * zf.F(x) for x in xs])
        assert_bitwise(values, z4(np.array(xs)))
        assert_bitwise([zf.F(x) for x in xs], zf.F(np.array(xs)))

    def test_a_float_call_of_z4_enters_one_frame(self):
        z4, frames, before = ap.z4_solution(8, 0.3), [], sys.getprofile()
        z4(0.5)  # any first-call work happens before the count
        sys.setprofile(lambda frame, event, arg: frames.append(frame.f_code.co_name) if event == "call" else None)
        try:
            z4(0.5)
        finally:
            sys.setprofile(before)
        assert frames == ["F"]


class TestRealLineEntryRule:
    # F, a Z4Approximant and eval_F_product take a real scalar as a float and a real array as float64
    # (bit for bit the float path, with no warning) and refuse anything else with DomainError
    @staticmethod
    def evaluators(m, ell, xs):
        """F, z4 and eval_F_product's F and G; odd m takes G only at |x| <= 1."""
        zf = ap.ZolotarevFraction.from_ell(m, ell)
        pair = [lambda x: ap.eval_F_product(zf, x)[0], lambda x: ap.eval_F_product(zf, x)[1]]
        return [zf.F, ap.z4_solution(m, ell)] + (pair if m % 2 == 0 or np.all(np.abs(xs) <= 1.0) else [])

    @pytest.mark.parametrize("x", [np.float32(0.7), np.float16(-0.25), np.float64(1e308), np.float64(-1e308),
                                   np.int64(-1), np.uint8(1), 1, -1, True, np.bool_(False)])
    @pytest.mark.parametrize("m,ell", [(4, 0.5), (4, 1e-3), (2, 1e-3), (3, 0.5)])
    def test_a_real_scalar_is_its_float(self, m, ell, x):
        for f in self.evaluators(m, ell, x):
            value = f(x)
            assert type(value) is float
            assert_bitwise([value], [f(float(x))])

    @pytest.mark.parametrize("xs", [np.array([1e308, 0.5]), np.array([0.7, -0.25], dtype=np.float32),
                                    np.array([1, 0, -1]), np.array([True, False])])
    @pytest.mark.parametrize("m,ell", [(2, 1e-3), (4, 0.5), (3, 0.5)])
    def test_a_real_array_is_its_float64(self, m, ell, xs):
        for f in self.evaluators(m, ell, xs):
            assert_bitwise([f(x) for x in xs.astype(float).tolist()], f(xs))

    def test_a_past_quotient_overflow_array_is_zero_at_even_degree(self):
        zf = ap.ZolotarevFraction.from_ell(2, 1e-3)
        assert zf.F(np.array([1e308, 0.5]))[0] == 0.0

    @pytest.mark.parametrize("x", [[0.5, 0.7], None, "0.5", 0.5 + 0j, np.complex128(0.5), np.array([0.5 + 0j]),
                                   np.array(["0.5"]), np.array([0.5], dtype=object), 10**400])
    @pytest.mark.parametrize("m", [2, 3])
    def test_anything_else_is_a_domain_error(self, m, x):
        for f in self.evaluators(m, 0.5, 0.5):
            with pytest.raises(DomainError, match="real number or a real ndarray"):
                f(x)
