"""The node table ``approximants._nodes`` that the builders, the F/G fraction and blaschke_h read.

The table holds (sn, cn, dn)(k K(ell')/M, ell') at k = 0..2M-1.  Its first
M + 1 entries are the node list ``elliptic._quarter_nodes``, which computes
the nodes up to M/2 with ``elliptic._sncndn`` and the rest from them by the
quarter-period reflection; past M the table takes cn's sign.  So every
entry of either must equal ``_sncndn``'s value bit for bit, and one build
plus its first circle call must run the theta series only at k = 0..M/2.
"""

import math

import pytest

from zolocirc import approximants as ap
from zolocirc import elliptic as el
from zolocirc.connections import blaschke_h

BOTTOM = 0.0001414213571029879  # the smallest Theta whose cosine falls below ELL_MAX
TOP = 1.5707963162581844  # the largest Theta whose sine stays below 1
THETAS = [BOTTOM, 1e-3, 0.1, 0.5, 1.0, 1.3, 1.5707, TOP]
DEGREES = list(range(1, 70)) + [255, 256, 1001, 4096]


def bits(node):
    return tuple(x.hex() for x in node)


@pytest.mark.parametrize("theta", THETAS)
def test_every_node_is_sncndns_bit_for_bit(theta):
    ell, ell_comp = el.require_theta(theta)
    nome = el._nome(ell, ell_comp)
    for M in DEGREES:
        table = ap._nodes(M, ell, ell_comp)
        assert len(table) == 2 * M
        for k, node in enumerate(table):
            assert bits(node) == bits(el._sncndn(k, M, ell_comp, ell, nome)), (M, k)


def quarter_pairs():
    """(modulus, complement, nome) at both window ends, each way round, and at three reductions' lam."""
    pairs = {}
    for end, theta in (("bottom", BOTTOM), ("top", TOP)):
        ell, ell_comp = el.require_theta(theta)
        nome = el._nome(ell, ell_comp)
        pairs[f"{end} ell"], pairs[f"{end} ell'"] = (ell, ell_comp, nome), (ell_comp, ell, nome)
    for end, theta, m in (("bottom", BOTTOM, 8), ("middle", 1.0, 3), ("top", TOP, 2)):
        ell, ell_comp = el.require_theta(theta)
        red = el.solve_lambda(ell, m, ell_comp)  # its nome is the degree equation's, not _nome(lam, lam')
        pairs[f"{end} lam m={m}"] = (red.lam, red.lam_comp, red.nome)
    return pairs


QUARTER_PAIRS = quarter_pairs()


@pytest.mark.parametrize("pair", sorted(QUARTER_PAIRS))
@pytest.mark.parametrize("M", list(range(1, 21)) + [64, 65, 129])
def test_the_quarter_node_list_is_sncndns_bit_for_bit(pair, M):
    ell, ell_comp, nome = QUARTER_PAIRS[pair]
    nodes = el._quarter_nodes(M, ell, ell_comp, nome)
    assert len(nodes) == M + 1
    for k, node in enumerate(nodes):
        assert bits(node) == bits(el._sncndn(k, M, ell, ell_comp, nome)), k


@pytest.mark.parametrize("theta", [BOTTOM, 1.0, TOP])
@pytest.mark.parametrize("m", [2, 3, 8, 9, 64, 65])
def test_coeff_b_past_m_reads_the_mirror_node_with_cn_negated(theta, m):
    ell, ell_comp = el.require_theta(theta)
    table = ap._nodes(m, ell, ell_comp)
    for j in range(1, m + 1):
        k = 2 * j - 1
        if k <= m:
            continue
        sn, cn, dn = table[2 * m - k]
        base = (ell * sn + dn) / -cn
        sign = -1.0 if (m * j) % 2 else 1.0
        assert ap.coeff_b(j, m, theta).hex() == (sign * (base if j % 2 == 0 else 1.0 / base)).hex()


@pytest.mark.parametrize("theta", [BOTTOM, 0.5, 1.0, TOP])
def test_coefficients_equal_the_per_node_formula(theta):
    # the parameters as each coeff_* call computed them from its own _sncndn node
    ell, ell_comp = el.require_theta(theta)
    nome = el._nome(ell, ell_comp)

    def base(k, M):
        sn, cn, dn = el._sncndn(k, M, ell_comp, ell, nome)
        return (ell * sn + dn) / cn

    for m in list(range(1, 20)) + [64, 65]:
        for j in range(1, m + 1):
            if 2 * j - 1 != m:
                b = base(2 * j - 1, m)
                sign = -1.0 if (m * j) % 2 else 1.0
                assert ap.coeff_b(j, m, theta) == sign * (b if j % 2 == 0 else 1.0 / b)
            a = base(2 * j - 1, 2 * m + 1)
            assert ap.coeff_a(j, m, theta) == (a**2 if (j + m) % 2 == 0 else a**-2)


@pytest.mark.parametrize("ell", [1e-6, 0.3, 0.7071067811865476, 0.99])
def test_blaschke_h_reads_the_table_at_modulus_ell(ell):
    ell_comp = el.complement(ell)
    nome = el._nome(ell, ell_comp)
    for m in range(1, 20):
        nodes = (el._sncndn(2 * j - 1, m, ell, ell_comp, nome) for j in range(1, m + 1))
        assert blaschke_h(m, ell).params == tuple(math.sqrt(ell) * cn / dn for _, cn, dn in nodes)


def counted_sncndn(monkeypatch):
    calls, sncndn = [], el._sncndn

    def counted(*args):
        calls.append(args[0])
        return sncndn(*args)

    ap._nodes.cache_clear()
    monkeypatch.setattr(el, "_sncndn", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2, 8, 9, 64])
def test_a_built_s_and_its_first_circle_call_share_one_table(monkeypatch, m):
    calls = counted_sncndn(monkeypatch)
    ap.build_s(m, 1.0)(1j)
    assert calls == list(range(m // 2 + 1))


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_a_built_r_and_its_first_circle_call_share_one_table(monkeypatch, n):
    calls = counted_sncndn(monkeypatch)
    ap.build_r(n, 1.0)(1j)
    assert calls == list(range(n + 1))  # M = 2n + 1 reads k = 0..n


def test_one_table_is_kept(monkeypatch):
    assert ap._nodes.cache_info().maxsize == 1
    calls = counted_sncndn(monkeypatch)
    ap.build_s(4, 1.0), ap.build_s(4, 0.5), ap.build_s(4, 1.0)
    assert calls == [0, 1, 2] * 3
