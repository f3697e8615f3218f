"""Differential tests: each packed F2 kernel must agree with an
independent route, the generic-field code or the algorithm it replaced.
"""

import random

from cf_oracle import series_inverse, series_inverse_cf
from hypothesis import given, strategies as st

from plcpkit import _kernels
from plcpkit.field import GF2, CoeffSeq, TruncSeries
from plcpkit.hankel import hankel_mod_p
from plcpkit.lincomplex import BerlekampMassey

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


def _generic_profile(bits):
    bm = BerlekampMassey(GF2)
    return [bm.push(b) for b in bits]


def _oracle_cf(bits):
    cf = series_inverse_cf(CoeffSeq(GF2, bits, origin=1))
    return [_kernels.pack_bits(q.coeffs) for q in cf.quotients], cf.next_degree_bound


def test_backend_registry():
    assert _kernels.backend_name() == "pure-python"


@given(bits_lists)
def test_pack_unpack_round_trip(bits):
    packed = _kernels.pack_bits(bits)
    assert _kernels.unpack_bits(packed, len(bits)) == list(bits)


@given(bits_lists)
def test_lcp_profile_matches_generic_bm(bits):
    assert _kernels.lcp_profile(bits) == _generic_profile(bits)


@given(data=st.data())
def test_hankel_parities_match_column_pivoting(data):
    # the packed one-pass F2 elimination against column pivoting at a drawn m
    bits = data.draw(bits_lists)
    m = data.draw(st.integers(1, (len(bits) + 1) // 2))
    c = CoeffSeq(GF2, bits, origin=0)
    assert hankel_mod_p(c, m).values == hankel_mod_p(c, m, pivot="col").values


@given(bits_lists)
def test_laurent_cf_matches_series_inverse_oracle(bits):
    assert _kernels.laurent_cf(bits) == _oracle_cf(bits)


def test_kernels_match_oracles_on_long_inputs():
    # word-boundary and multi-word shapes that hypothesis rarely reaches
    rng = random.Random(20240229)
    for n in (63, 64, 65, 127, 128, 129, 1000, 4096):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        assert _kernels.lcp_profile(bits) == _generic_profile(bits)
        assert _kernels.laurent_cf(bits) == _oracle_cf(bits)
        # the packed Hankel pass against column pivoting, O(m^4); keep m small
        c, m = CoeffSeq(GF2, bits, origin=0), min((n + 1) // 2, 128)
        assert hankel_mod_p(c, m).values == hankel_mod_p(c, m, pivot="col").values


def test_profile_worked_examples():
    # wrong-guess jump: L goes 1,1,2,2 on 1,0,1,1
    assert _kernels.lcp_profile([1, 0, 1, 1]) == [1, 1, 2, 2]
    # leading zeros: L(n) = 0 until the first one, then n
    assert _kernels.lcp_profile([0, 0, 1]) == [0, 0, 3]
    assert _kernels.lcp_profile([0, 0, 0]) == [0, 0, 0]


def test_inverse_is_multiplicative_inverse():
    rng = random.Random(5)
    for n in (1, 2, 17, 64, 65, 200):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        inv = series_inverse(TruncSeries(GF2, bits, n)).coeffs
        # convolution mod 2 must give 1, 0, 0, ...
        for k in range(n):
            acc = 0
            for i in range(k + 1):
                acc ^= bits[i] & inv[k - i]
            assert acc == (1 if k == 0 else 0)


def test_laurent_cf_consumed_degree_bound():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 120)
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        quotients, bound = _kernels.laurent_cf(bits)
        total = sum(max(q.bit_length() - 1, 0) for q in quotients)
        assert 2 * total <= n  # guaranteed quotients never overrun the data
        assert bound >= 1
