"""Differential tests: each packed F2 fast path must agree with an
independent route, the generic-field code or the algorithm it replaced.
"""

import random

from cf_oracle import series_inverse, series_inverse_cf
from hankel_oracle import hankel_by_columns, hankel_parities
from hypothesis import given, strategies as st

import plcpkit
from plcpkit.cfrac import _divmod_packed, _euclid, _size, laurent_cf
from plcpkit.field import GF2, CoeffSeq, DensePoly, pack_bits, poly_divmod, unpack_bits
from plcpkit.hankel import hankel_mod_p
from plcpkit.lincomplex import BerlekampMassey, lcp_profile

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


@st.composite
def f2_prefixes(draw):
    # leading-zero runs and all-zero prefixes give quotients of degree > 1
    n = draw(st.integers(1, 96))
    zeros = min(draw(st.sampled_from([0, 1, 2, 5, n])), n)
    return [0] * zeros + draw(st.lists(st.integers(0, 1), min_size=n - zeros, max_size=n - zeros))


def _generic_profile(bits):
    bm = BerlekampMassey(GF2)
    return tuple(bm.push(b) for b in bits)


def _profile(bits):
    return lcp_profile(CoeffSeq(GF2, bits, origin=1)).values


def _cf(bits):
    return laurent_cf(CoeffSeq(GF2, bits, origin=1))


def _oracle_cf(bits):
    return series_inverse_cf(CoeffSeq(GF2, bits, origin=1))


def test_backend_registry():
    assert plcpkit.backend_name() == "pure-python"


@given(bits_lists)
def test_pack_unpack_round_trip(bits):
    packed = pack_bits(bits)
    assert unpack_bits(packed, len(bits)) == list(bits)


@given(bits_lists)
def test_lcp_profile_matches_generic_bm(bits):
    assert _profile(bits) == _generic_profile(bits)


@given(data=st.data())
def test_hankel_parities_match_column_pivoting(data):
    # the packed one-pass F2 elimination against column pivoting at a drawn m
    bits = data.draw(bits_lists)
    m = data.draw(st.integers(1, (len(bits) + 1) // 2))
    c = CoeffSeq(GF2, bits, origin=0)
    assert hankel_mod_p(c, m).values == hankel_by_columns(c, m)


@given(bits_lists)
def test_laurent_cf_matches_series_inverse_oracle(bits):
    assert _cf(bits) == _oracle_cf(bits)


def _both_euclids(bits):
    # the one Euclid loop on packed ints and on DensePoly over F2
    n = len(bits)
    packed = _euclid(1 << n, pack_bits(bits[::-1]), n, _divmod_packed, int.bit_length)
    dense = _euclid(DensePoly.monomial(GF2, n), DensePoly(GF2, bits[::-1]), n, poly_divmod, _size)
    return packed, ([pack_bits(q.coeffs) for q in dense[0]], dense[1])


@given(f2_prefixes())
def test_one_euclid_agrees_on_packed_and_dense_f2(bits):
    packed, dense = _both_euclids(bits)
    assert packed == dense


def test_one_euclid_agrees_on_packed_and_dense_f2_at_word_boundaries():
    # DensePoly division is O(n^2) per input, so 4096 gets one random input
    rng = random.Random(64)
    shapes = [(n, zeros) for n in (63, 64, 65) for zeros in (0, 1, 40, n)]
    for n, zeros in shapes + [(4096, 0), (4096, 4096)]:
        bits = [0] * zeros + [rng.randrange(2) for _ in range(n - zeros)]
        packed, dense = _both_euclids(bits)
        assert packed == dense, (n, zeros)


def test_kernels_match_oracles_on_long_inputs():
    # word-boundary and multi-word shapes that hypothesis rarely reaches
    rng = random.Random(20240229)
    for n in (63, 64, 65, 127, 128, 129, 1000, 4096):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        assert _profile(bits) == _generic_profile(bits)
        assert _cf(bits) == _oracle_cf(bits)
        # the packed Hankel pass against the per-order packed eliminations
        c, m = CoeffSeq(GF2, bits, origin=0), min((n + 1) // 2, 128)
        assert list(hankel_mod_p(c, m).values) == hankel_parities(bits, m)


def test_profile_worked_examples():
    # wrong-guess jump: L goes 1,1,2,2 on 1,0,1,1
    assert _profile([1, 0, 1, 1]) == (1, 1, 2, 2)
    # leading zeros: L(n) = 0 until the first one, then n
    assert _profile([0, 0, 1]) == (0, 0, 3)
    assert _profile([0, 0, 0]) == (0, 0, 0)


def test_inverse_is_multiplicative_inverse():
    rng = random.Random(5)
    for n in (1, 2, 17, 64, 65, 200):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        prod = DensePoly(GF2, bits) * DensePoly(GF2, series_inverse(GF2, bits))
        assert [prod.coefficient(k) for k in range(n)] == [1] + [0] * (n - 1)


def test_laurent_cf_consumed_degree_bound():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 120)
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        cf = _cf(bits)
        total = sum(q.degree for q in cf.quotients)
        assert 2 * total <= n  # guaranteed quotients never overrun the data
        assert cf.next_degree_bound >= 1
