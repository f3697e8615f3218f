import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from lc_oracle import expected_lc_exhaustive, lc_bruteforce

from plcpkit import lincomplex
from plcpkit.cfrac import laurent_cf, profile_from_cf
from plcpkit.field import GF2, CoeffSeq, PrimeField
from plcpkit.hankel import first_even_hankel_order, hankel_mod_p
from plcpkit.lincomplex import (
    BerlekampMassey,
    LCProfile,
    expected_lc,
    first_imperfect_length,
    is_plcp,
    lcp_profile,
    recurrence_check,
)

f2_seqs = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(
    lambda v: CoeffSeq(GF2, v, origin=1)
)


@st.composite
def odd_field_seqs(draw):
    p = draw(st.sampled_from([3, 5]))
    f = PrimeField(p)
    terms = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=14))
    return CoeffSeq(f, terms, origin=1)


class TestLCProfile:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            LCProfile(GF2, (2,))  # L(1) <= 1

    def test_validates_monotone(self):
        with pytest.raises(ValueError):
            LCProfile(GF2, (1, 0))

    def test_validates_jump_law(self):
        # a change at step n must jump exactly to n - L(n-1)
        with pytest.raises(ValueError):
            LCProfile(GF2, (1, 1, 3))
        LCProfile(GF2, (1, 1, 2, 2))  # fine

    def test_value_at(self):
        p = LCProfile(GF2, (0, 2, 2))
        assert p.value_at(2) == 2
        with pytest.raises(IndexError):
            p.value_at(4)


@given(f2_seqs)
def test_profile_matches_definition_f2(s):
    prof = lcp_profile(s)
    n = min(len(s), 14)  # brute force beyond this is pointless here
    for k in range(1, n + 1):
        assert prof.value_at(k) == lc_bruteforce(s, k)


@given(odd_field_seqs())
def test_profile_matches_definition_odd_p(s):
    prof = lcp_profile(s)
    for k in range(1, len(s) + 1):
        assert prof.value_at(k) == lc_bruteforce(s, k)


def test_profile_exhaustive_short():
    # every binary sequence of length up to 8 against the definition
    for n in range(1, 9):
        for m in range(1 << n):
            s = CoeffSeq(GF2, [(m >> i) & 1 for i in range(n)], origin=1)
            prof = lcp_profile(s)
            assert prof.values == tuple(lc_bruteforce(s, k) for k in range(1, n + 1))


def _pushed_and_batch(bits):
    # the generic-field push and the packed F2 batch profile
    bm = BerlekampMassey(GF2)
    return tuple(bm.push(t) for t in bits), lcp_profile(CoeffSeq(GF2, bits, origin=1)).values


@given(f2_seqs)
def test_incremental_bm_matches_batch(s):
    pushed, batch = _pushed_and_batch(list(s.terms))
    assert pushed == batch


def test_incremental_bm_matches_batch_on_long_inputs():
    # word-boundary and multi-word lengths that hypothesis rarely reaches
    rng = random.Random(20240229)
    for n in (63, 64, 65, 127, 128, 129, 1000, 4096):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        pushed, batch = _pushed_and_batch(bits)
        assert pushed == batch, n


def test_profile_worked_examples():
    def profile(bits):
        return lcp_profile(CoeffSeq(GF2, bits, origin=1)).values

    # wrong-guess jump: L goes 1,1,2,2 on 1,0,1,1
    assert profile([1, 0, 1, 1]) == (1, 1, 2, 2)
    # leading zeros: L(n) = 0 until the first one, then n
    assert profile([0, 0, 1]) == (0, 0, 3)
    assert profile([0, 0, 0]) == (0, 0, 0)


def test_bm_connection_annihilates_sequence():
    s = CoeffSeq(GF2, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1], origin=1)
    bm = BerlekampMassey(GF2)
    for t in s.terms:
        bm.push(t)
    c = bm.connection_polynomial()
    L = bm.length
    assert c.coefficient(0) == 1
    # sum_j c_j s_{n-j} = 0 for all n past the initial segment
    for n in range(L, len(s)):
        acc = 0
        for j in range(L + 1):
            acc ^= c.coefficient(j) & s.terms[n - j]
        assert acc == 0


def test_bm_generic_field():
    f = PrimeField(5)
    s = CoeffSeq(f, [1, 3, 4, 2, 0, 1, 3, 3, 2, 4], origin=1)
    bm = BerlekampMassey(f)
    profile = [bm.push(t) for t in s.terms]
    assert profile == [lc_bruteforce(s, k) for k in range(1, 11)]
    c = bm.connection_polynomial()
    L = bm.length
    for n in range(L, len(s)):
        acc = sum(c.coefficient(j) * s.terms[n - j] for j in range(L + 1)) % 5
        assert acc == 0


@pytest.mark.parametrize("p", [3, 7, 65521])
@pytest.mark.parametrize("zeros", [0, 300])
def test_bm_odd_p_on_long_inputs(p, zeros):
    # 1024 terms over small and large p, with and without a long zero run;
    # the profile must match the continued fraction's and the pushed
    # connection polynomial must annihilate the whole prefix from L on
    n = 1024
    rng = random.Random(p * 1000 + zeros)
    terms = [0] * zeros + [rng.randrange(p) for _ in range(n - zeros)]
    s = CoeffSeq(PrimeField(p), terms, origin=1)
    from_cf = profile_from_cf(laurent_cf(s), n).values
    assert lcp_profile(s).values[: len(from_cf)] == from_cf
    bm = BerlekampMassey(PrimeField(p))
    for t in terms:
        bm.push(t)
    c, L = bm.connection_polynomial().coeffs, bm.length
    assert c[0] == 1 and len(c) <= L + 1
    for k in range(L, n):
        assert sum(cj * terms[k - j] for j, cj in enumerate(c)) % p == 0, k


def test_is_plcp():
    assert is_plcp(LCProfile(GF2, (1, 1, 2, 2, 3)))
    assert not is_plcp(LCProfile(GF2, (0,)))
    assert not is_plcp(LCProfile(GF2, (1, 1, 1)))  # stalled below ceil(n/2)


def _first_off_half(values):
    # the least n with L(n) != ceil(n/2), read off a whole profile
    return next((n for n, l in enumerate(values, start=1) if l != (n + 1) // 2), None)


def _hankel_length(values):
    # 2k - 1 for the first zero H_k, the length at which the profile fails
    k = next((k for k, v in enumerate(values, start=1) if v == 0), None)
    return None if k is None else 2 * k - 1


def test_first_imperfect_length_exhaustive_f2():
    # every prefix with s_1 = 1 up to length 14: the full profile and the
    # Hankel witness name the same length
    for n in range(1, 15):
        for m in range(1 << (n - 1)):
            bits = [1] + [(m >> i) & 1 for i in range(n - 1)]
            s = CoeffSeq(GF2, bits, origin=1)
            first = first_imperfect_length(s)
            assert first == _first_off_half(lcp_profile(s).values), bits
            k = first_even_hankel_order(s.shift_index(0))
            assert first == (None if k is None else 2 * k - 1), bits


@pytest.mark.parametrize("p", [3, 5, 7])
def test_first_imperfect_length_odd_p(p):
    rng = random.Random(p)
    f = PrimeField(p)
    seen = set()
    for _ in range(60):
        n = rng.choice([1, 2, 7, 12, 40, 101])
        # a nonzero s_1 and few zeros, so some prefixes stay perfect for a while
        terms = [rng.randrange(1, p) if rng.random() < 0.9 else 0 for _ in range(n)]
        s = CoeffSeq(f, terms, origin=1)
        first = first_imperfect_length(s)
        seen.add(first is None)
        values = hankel_mod_p(s.shift_index(0), (n + 1) // 2).values
        assert first == _hankel_length(values), terms
        if n <= 12:
            assert first == _first_off_half([lc_bruteforce(s, j) for j in range(1, n + 1)])
    assert seen == {True, False}


def _counted(lengths, read):
    for l in lengths:
        read.append(l)
        yield l


def test_first_imperfect_length_stops_at_the_failure(monkeypatch):
    read = []
    f2_profile = lincomplex._f2_profile
    monkeypatch.setattr(lincomplex, "_f2_profile", lambda bits: _counted(f2_profile(bits), read))
    # L stays 1 on the all-ones sequence, so ceil(n/2) is first missed at n = 3
    assert first_imperfect_length(CoeffSeq(GF2, [1] * 64, origin=1)) == 3
    assert read == [1, 1, 1]
    read.clear()
    assert first_imperfect_length(CoeffSeq(GF2, [1, 1, 0, 1, 0, 0, 0, 1], origin=1)) is None
    assert read == [1, 1, 2, 2, 3, 3, 4, 4]


@pytest.mark.parametrize("bad", [(1, 1, 3), (1, 0), (2,)], ids=["jump", "decrease", "range"])
@pytest.mark.parametrize("p", [2, 3])
def test_first_imperfect_length_keeps_the_jump_law(monkeypatch, p, bad):
    # a broken synthesis is refused with LCProfile's own error
    with pytest.raises(ValueError) as built:
        LCProfile(PrimeField(p), bad)
    if p == 2:
        monkeypatch.setattr(lincomplex, "_f2_profile", lambda bits: iter(bad))
    else:
        lengths = iter(bad)
        monkeypatch.setattr(lincomplex.BerlekampMassey, "push", lambda self, t: next(lengths))
    with pytest.raises(ValueError) as read:
        first_imperfect_length(CoeffSeq(PrimeField(p), [1] * 8, origin=1))
    assert str(read.value) == str(built.value)


def test_lcp_profile_requires_origin_one():
    with pytest.raises(ValueError):
        lcp_profile(CoeffSeq(GF2, [1, 0], origin=0))


def test_lc_bruteforce_bounds():
    s = CoeffSeq(GF2, [1] * 30, origin=1)
    with pytest.raises(ValueError):
        lc_bruteforce(s, 25)
    with pytest.raises(ValueError):
        lc_bruteforce(s, 0)


def test_recurrence_check_known_families():
    from plcpkit.seqgen import named_sequence, rueppel

    assert recurrence_check(rueppel("first", 100))
    assert recurrence_check(rueppel("second", 100))
    assert recurrence_check(named_sequence("z", 100))
    assert recurrence_check(named_sequence("pd", 100))  # origin-0 form
    # an easy counterexample: 1, 0, 0, 0, ... fails at n = 1 (s_3 != s_2 + s_1)
    assert not recurrence_check(CoeffSeq(GF2, [1, 0, 0, 0], origin=1))


def test_recurrence_check_variants_agree():
    # the origin-0 and origin-1 forms are the same relation relabeled
    import random

    rng = random.Random(3)
    for _ in range(200):
        bits = [1] + [rng.randrange(2) for _ in range(rng.randrange(1, 40))]
        s1 = CoeffSeq(GF2, bits, origin=1)
        assert recurrence_check(s1) == recurrence_check(s1.shift_index(0))


def test_recurrence_check_input_validation():
    with pytest.raises(ValueError):
        recurrence_check(CoeffSeq(GF2, [0, 1], origin=1))
    with pytest.raises(ValueError):
        recurrence_check(CoeffSeq(PrimeField(3), [1, 2], origin=1))


def test_expected_lc_small_values():
    # over all 2^n sequences; hand-checkable for tiny n
    assert expected_lc_exhaustive(1) == Fraction(1, 2)
    assert expected_lc_exhaustive(2) == Fraction(1)  # (0+2+1+1)/4
    assert expected_lc_exhaustive(3) == Fraction(fsum3(), 8)
    # the count law gives the same three means
    assert expected_lc(1) == Fraction(1, 2)
    assert expected_lc(2) == Fraction(1)
    assert expected_lc(3) == Fraction(fsum3(), 8)


def fsum3():
    # L(3) over the 8 binary sequences, straight from the definition
    total = 0
    for m in range(8):
        s = CoeffSeq(GF2, [(m >> i) & 1 for i in range(3)], origin=1)
        total += lc_bruteforce(s, 3)
    return total


def test_profile_len_and_repr():
    bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]
    long = lcp_profile(CoeffSeq(GF2, bits, origin=1))
    assert len(long) == 13
    assert repr(long) == "LCProfile(F2, [1,1,2,2,2,2,5,5,5,5,5,5,...], len=13)"
    short = lcp_profile(CoeffSeq(PrimeField(3), [0, 2, 1], origin=1))
    assert len(short) == 3
    assert repr(short) == "LCProfile(F3, [0,2,2], len=3)"


def test_expected_lc_bound_guard():
    with pytest.raises(ValueError):
        expected_lc_exhaustive(17)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: lc_bruteforce(CoeffSeq(GF2, [1, 0], origin=0), 1),
            ValueError,
            "expects an origin-1 sequence; use shift_index(1)",
        ),
        (
            lambda: first_imperfect_length(CoeffSeq(GF2, [1, 0], origin=0)),
            ValueError,
            "profile expects an origin-1 sequence; use shift_index(1)",
        ),
        (lambda: expected_lc_exhaustive(0), ValueError, "n must be >= 1"),
        (lambda: expected_lc(0), ValueError, "n must be >= 1"),
        (lambda: expected_lc(-1), ValueError, "n must be >= 1"),
    ],
    ids=[
        "bruteforce-origin", "first-imperfect-origin", "exhaustive-n-0", "expected-n-0",
        "expected-n-negative",
    ],
)
def test_lincomplex_calls_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
