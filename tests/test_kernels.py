"""Differential test: the packed F2 Berlekamp-Massey behind `lcp_profile`
must agree with the generic-field `BerlekampMassey` pushed term by term.
"""

from hypothesis import given, strategies as st

from plcpkit.field import GF2, CoeffSeq
from plcpkit.lincomplex import BerlekampMassey, lcp_profile

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


def _generic_profile(bits):
    bm = BerlekampMassey(GF2)
    return tuple(bm.push(b) for b in bits)


def _profile(bits):
    return lcp_profile(CoeffSeq(GF2, bits, origin=1)).values


@given(bits_lists)
def test_lcp_profile_matches_generic_bm(bits):
    assert _profile(bits) == _generic_profile(bits)
