import itertools
import random

import pytest
from cf_oracle import _euclid as dense_euclid
from cf_oracle import (
    _size,
    dense_divmod,
    dense_laurent_cf,
    dense_rational_cf,
    dense_series_prefix,
    series_inverse_cf,
)
from hypothesis import example, given, strategies as st

from plcpkit.cfrac import (
    ContinuedFraction,
    _euclid,
    _split,
    convergents,
    has_flat_expansion,
    laurent_cf,
    max_pq_degree,
    orthogonal_multiplicity,
    profile_from_cf,
    rational_cf,
    series_prefix_of_fraction,
)
from plcpkit.field import GF2, NEG_INF, CoeffSeq, DensePoly, PrimeField, _divmod_packed, pack_bits
from plcpkit.lincomplex import lcp_profile

f2_seqs = st.lists(st.integers(0, 1), min_size=1, max_size=80).map(
    lambda v: CoeffSeq(GF2, v, origin=1)
)


@st.composite
def generic_seqs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    f = PrimeField(p)
    terms = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40))
    return CoeffSeq(f, terms, origin=1)


@st.composite
def prefixes_with_zero_runs(draw, primes=(2, 3, 5, 7), max_length=130):
    # leading-zero runs and all-zero prefixes exercise the cut-off's
    # remainder-zero and long-first-quotient branches
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_length))
    zeros = min(draw(st.sampled_from([0, 1, 2, 5, n])), n)
    rest = draw(st.lists(st.integers(0, p - 1), min_size=n - zeros, max_size=n - zeros))
    return CoeffSeq(PrimeField(p), [0] * zeros + rest, origin=1)


@st.composite
def rational_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    f = PrimeField(p)
    num = DensePoly(f, draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=6)))
    den_coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=7))
    den_coeffs.append(draw(st.integers(1, p - 1)))  # force nonzero
    return num, DensePoly(f, den_coeffs)


@given(rational_pairs())
def test_rational_cf_reconstructs(pair):
    num, den = pair
    cf = rational_cf(num, den)
    assert cf.next_degree_bound is None  # rational expansions terminate
    pairs = convergents(cf)
    if not pairs:
        assert num.degree is NEG_INF or num.degree < 0
        return
    last = pairs[-1]
    # final convergent equals the fraction: num * Q = den * P up to the unit
    assert num * last.q == den * last.p


@given(rational_pairs())
def test_convergents_invariants(pair):
    num, den = pair
    cf = rational_cf(num, den)
    pairs = convergents(cf)
    f = num.field
    for i in range(1, len(pairs)):
        p0, q0, p1, q1 = pairs[i - 1].p, pairs[i - 1].q, pairs[i].p, pairs[i].q
        # cross rule: P_j Q_{j-1} - P_{j-1} Q_j is a nonzero constant
        cross = p1 * q0 - p0 * q1
        assert cross.degree == 0
        # denominators strictly grow in degree past the start
        assert q1.degree > q0.degree or q0.degree == 0


@given(f2_seqs)
def test_quotient_degrees_tile_the_profile(s):
    # degrees of the partial quotients reproduce the profile jumps
    cf = laurent_cf(s)
    rec = profile_from_cf(cf, len(s))
    prof = lcp_profile(s)
    assert rec.values == prof.values[: len(rec.values)]


@given(generic_seqs())
def test_quotient_degrees_tile_the_profile_generic(s):
    cf = laurent_cf(s)
    rec = profile_from_cf(cf, len(s))
    prof = lcp_profile(s)
    assert rec.values == prof.values[: len(rec.values)]


@given(f2_seqs)
def test_guaranteed_quotients_are_stable_under_extension(s):
    # guaranteed means: no continuation of the data can change them
    cf = laurent_cf(s)
    rng = random.Random(42)
    longer = CoeffSeq(GF2, list(s.terms) + [rng.randrange(2) for _ in range(24)], origin=1)
    cf2 = laurent_cf(longer)
    assert cf2.quotients[: len(cf)] == cf.quotients
    assert cf2.units[: len(cf)] == cf.units


@given(generic_seqs())
def test_guaranteed_quotients_stable_generic(s):
    cf = laurent_cf(s)
    rng = random.Random(7)
    p = s.field.p
    longer = CoeffSeq(
        s.field, list(s.terms) + [rng.randrange(p) for _ in range(15)], origin=1
    )
    cf2 = laurent_cf(longer)
    assert cf2.quotients[: len(cf)] == cf.quotients


@given(f2_seqs)
def test_convergents_approximate_the_series(s):
    # convergent j agrees through D_j + D_{j+1} - 1 terms and then breaks
    cf = laurent_cf(s)
    pairs = convergents(cf)
    degs = [int(q.degree) for q in cf.quotients]
    for j in range(1, len(cf)):
        dq = sum(degs[:j])
        dq_next = dq + degs[j]
        break_at = dq + dq_next  # 1-based index of the first disagreement
        upto = min(break_at, len(s))
        got = series_prefix_of_fraction(pairs[j].p, pairs[j].q, upto)
        assert got.terms[: break_at - 1] == s.terms[: break_at - 1]
        if break_at <= len(s):
            assert got.terms[break_at - 1] != s.terms[break_at - 1]


@given(prefixes_with_zero_runs())
@example(CoeffSeq(PrimeField(3), [2] + [0] * 9, origin=1))  # remainder 0 after a_1
def test_euclid_matches_series_inverse_oracle(s):
    assert laurent_cf(s) == series_inverse_cf(s)  # every ContinuedFraction field


def test_euclid_matches_series_inverse_oracle_on_long_inputs():
    # word-boundary and multi-word lengths that hypothesis rarely reaches
    rng = random.Random(20240229)
    for n in (63, 64, 65, 127, 128, 129, 1000, 4096):
        s = CoeffSeq(GF2, [1] + [rng.randrange(2) for _ in range(n - 1)], origin=1)
        assert laurent_cf(s) == series_inverse_cf(s), n


def _both_euclids(bits):
    # the Euclid loop on packed ints, and the oracle's on DensePoly, over F2
    n = len(bits)
    packed = _euclid(1 << n, pack_bits(bits[::-1]), n, _divmod_packed, int.bit_length)
    dense = dense_euclid(
        DensePoly.monomial(GF2, n), DensePoly(GF2, bits[::-1]), n, dense_divmod, _size
    )
    return packed, ([pack_bits(q.coeffs) for q in dense[0]], dense[1])


@given(prefixes_with_zero_runs(primes=(2,), max_length=96).map(lambda s: list(s.terms)))
def test_one_euclid_agrees_on_packed_and_dense_f2(bits):
    packed, dense = _both_euclids(bits)
    assert packed == dense
    # laurent_cf's packed quotients, as DensePoly, give the DensePoly route's expansion
    s = CoeffSeq(GF2, bits, origin=1)
    assert laurent_cf(s) == dense_laurent_cf(s)


@given(prefixes_with_zero_runs(primes=(3, 5, 7, 11, 13, 65521)))
@example(CoeffSeq(PrimeField(3), [2] + [0] * 9, origin=1))  # remainder 0 after a_1
def test_slot_euclid_matches_the_dense_euclid(s):
    assert laurent_cf(s) == dense_laurent_cf(s)  # quotients, units and bound


@pytest.mark.parametrize("p", [3, 7, 65521])
def test_slot_euclid_matches_the_dense_euclid_at_1024(p):
    rng = random.Random(p)
    for zeros in (0, 300):
        terms = [0] * zeros + [rng.randrange(p) for _ in range(1024 - zeros)]
        s = CoeffSeq(PrimeField(p), terms, origin=1)
        assert laurent_cf(s) == dense_laurent_cf(s), zeros


def test_quotient_table_keeps_fields_and_widths_apart():
    # one int, read as 3 + t in 4-bit slots and as the constant 19 in 8-bit slots
    q = 3 | 1 << 4
    f3, f5 = PrimeField(3), PrimeField(5)
    assert _split(f3, 4, q) == (1, DensePoly(f3, [0, 1]))
    assert _split(f5, 4, q) == (1, DensePoly(f5, [3, 1]))
    assert _split(f5, 8, q) == (4, DensePoly(f5, [1]))
    assert _split(f3, 8, q) == (1, DensePoly(f3, [1]))
    for key in [(f3, 4), (f5, 4), (f5, 8), (f3, 8)]:
        assert _split(*key, q) is _split(*key, q)  # a second call reads the table
        assert _split(*key, q)[1].field == key[0]


def test_laurent_cf_with_a_warm_table_matches_the_dense_euclid():
    # the one quotient of 1, 0, ..., 0 is t, packed as 1 << w in every field;
    # F5 and F7 at 9 terms and F3 at 64 all have 8-bit slots, so keys equal
    # but for the field meet in the table.  Every prefix runs again warm.
    rng = random.Random(27)
    seqs = []
    for n in (1, 2, 9, 64, 65, 200):
        for p in (2, 3, 5, 7):
            zeros = min(rng.choice([0, 0, 3, n]), n)
            drawn = [0] * zeros + [rng.randrange(p) for _ in range(n - zeros)]
            for terms in ([1] + [0] * (n - 1), drawn):
                seqs.append(CoeffSeq(PrimeField(p), terms, origin=1))
    want = [dense_laurent_cf(s) for s in seqs]
    for _ in range(2):
        assert [laurent_cf(s) for s in seqs] == want


def test_quotient_table_is_bounded():
    assert _split.cache_info().maxsize == 1024
    # the quotients of random F65521 prefixes are all distinct: 60 prefixes of
    # 64 terms make 1,920 entries, so the table evicts
    rng = random.Random(1024)
    f = PrimeField(65521)
    for _ in range(60):
        s = CoeffSeq(f, [rng.randrange(f.p) for _ in range(64)], origin=1)
        assert laurent_cf(s) == dense_laurent_cf(s)
    assert _split.cache_info().currsize == 1024


def test_rational_cf_matches_the_dense_euclid():
    rng = random.Random(16)
    for _ in range(400):
        fld = PrimeField(rng.choice([2, 3, 5, 7, 13, 65521]))
        f, g, h = (
            DensePoly(fld, [rng.randrange(fld.p) for _ in range(rng.randrange(n))] + [lead])
            for n, lead in ((12, 0), (9, rng.randrange(1, fld.p)), (5, 0))
        )
        # a constant denominator, a zero remainder (f = g*h) and a general pair
        for num, den in ((f, DensePoly(fld, [g.lc])), (g * h, g), (f, g)):
            assert rational_cf(num, den) == dense_rational_cf(num, den), (num, den)


def _widest_slot_prefix(p, n):
    # s = 0^(n/2-1) u, u_0..u_(n/2) the coefficients of P from the top, so the
    # first quotient q has degree n/2 and its reverse is v = 1/u mod t^(n/2+1).
    # u_j = p - x_j with x_j and v_j small positive ints whose convolution is
    # p - 1 at 0 (x_0 v_0 = 240 * 273 for p = 65521) and a multiple of p after,
    # so every step of the first division adds nearly (p-1)^2 to the slot of t^(n/2).
    # With every u_j = p - 1 instead, v is t - 1 and the slots reach 2(p-1)^2.
    x, v = [240], [273]
    for k in range(1, n // 2 + 1):
        mid = sum(x[i] * v[k - i] for i in range(1, k))
        # 240 v_k + 273 x_k = r fills mid up to a multiple of p
        v_k, x_k = next(
            (a, (r - 240 * a) // 273)
            for r in itertools.count(p - mid % p, p)
            for a in range(1, 274)
            if (r - 240 * a) % 273 == 0 < r - 240 * a
        )
        v.append(v_k)
        x.append(x_k)
    return [0] * (n // 2 - 1) + [p - xj for xj in x]


def test_slot_width_holds_the_widest_division():
    # the first quotient has the largest degree the cut-off allows, n/2, so
    # its division takes n//2 + 1 steps, the S of the slot width, and the
    # slot of t^(n/2) reaches over 99% of (p-1) + S(p-1)^2
    p, n = 65521, 256
    terms = _widest_slot_prefix(p, n)
    s = CoeffSeq(PrimeField(p), terms, origin=1)
    cf = laurent_cf(s)
    assert cf == dense_laurent_cf(s)
    q = cf.partial_quotient(1)
    assert q.degree == n // 2
    u = terms[n // 2 - 1 :]
    slot = sum((p - c) * u[j] for j, c in enumerate(q.coeffs) if c)
    assert slot > 0.99 * (p - 1 + (n // 2 + 1) * (p - 1) ** 2)


def test_one_euclid_agrees_on_packed_and_dense_f2_at_word_boundaries():
    # DensePoly division is O(n^2) per input, so 4096 gets one random input
    rng = random.Random(64)
    shapes = [(n, zeros) for n in (63, 64, 65) for zeros in (0, 1, 40, n)]
    for n, zeros in shapes + [(4096, 0), (4096, 4096)]:
        bits = [0] * zeros + [rng.randrange(2) for _ in range(n - zeros)]
        packed, dense = _both_euclids(bits)
        assert packed == dense, (n, zeros)


def test_series_recurrence_matches_the_division():
    # constant and long denominators, f = 0 and all-(p-1) coefficients
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 13, 65521):
        fld = PrimeField(p)
        for dg in (0, 1, 3, 20, 70):
            g = DensePoly(fld, [rng.randrange(p) for _ in range(dg)] + [rng.randrange(1, p)])
            f = DensePoly(fld, [rng.randrange(p) for _ in range(dg)])
            full_f, full_g = DensePoly(fld, [p - 1] * dg), DensePoly(fld, [p - 1] * (dg + 1))
            for num, den in ((f, g), (DensePoly.zero(fld), g), (full_f, full_g)):
                for n in (1, dg + 1, 300):
                    assert series_prefix_of_fraction(num, den, n) == dense_series_prefix(
                        num, den, n
                    ), (num, den, n)


_T = DensePoly(GF2, (0, 1))


def _cf(quotients, units, bound, field=GF2):
    return ContinuedFraction(field, DensePoly.zero(field), quotients, units, bound)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: _cf((_T,), (), 1), ValueError, "must align"),
        (lambda: _cf((DensePoly.one(GF2),), (1,), 1), ValueError, "degree >= 1"),
        (lambda: _cf((DensePoly.zero(GF2),), (1,), 1), ValueError, "degree >= 1"),
        (lambda: _cf((DensePoly(PrimeField(3), (0, 2)),), (1,), 1, PrimeField(3)),
         ValueError, "monic"),
        (lambda: _cf((_T,), (2,), 1), ValueError, "nonzero residues"),
        (lambda: _cf((_T,), (1,), 0), ValueError, "next_degree_bound"),
        (lambda: _cf((_T,), (1,), None).partial_quotient(0), IndexError, "a_1..a_1"),
        (lambda: _cf((_T,), (1,), None).partial_quotient(2), IndexError, "a_1..a_1"),
    ],
    ids=["unaligned", "constant", "zero", "not-monic", "unit-out-of-range", "bound-zero",
         "index-0", "index-past-end"],
)
def test_continued_fraction_rejects_bad_fields_and_indices(make, error, message):
    with pytest.raises(error, match=message):
        make()
    assert _cf((_T,), (1,), None).partial_quotient(1) == _T


_F3 = PrimeField(3)


@pytest.mark.parametrize("at", [0, 39], ids=["first", "last"])
@pytest.mark.parametrize(
    "quotient, unit, message",
    [
        (DensePoly.one(_F3), 1, "partial quotients must have degree >= 1"),
        (DensePoly(_F3, (0, 2)), 1, "stored quotients must be monic"),
        (DensePoly(_F3, (1, 1)), 0, "units must be nonzero residues"),
        (DensePoly(_F3, (1, 1)), 3, "units must be nonzero residues"),
    ],
    ids=["constant", "not-monic", "unit-0", "unit-p"],
)
def test_direct_construction_checks_every_repeated_quotient_and_unit(at, quotient, unit, message):
    # the units are checked once each as a set; one bad entry among repeats is still refused
    quotients, units = [DensePoly(_F3, (2, 1))] * 40, [2] * 40
    quotients[at], units[at] = quotient, unit
    with pytest.raises(ValueError) as info:
        _cf(tuple(quotients), tuple(units), 1, _F3)
    assert str(info.value) == message


def test_laurent_cf_consumed_degree_bound():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 120)
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        cf = laurent_cf(CoeffSeq(GF2, bits, origin=1))
        total = sum(q.degree for q in cf.quotients)
        assert 2 * total <= n  # guaranteed quotients never overrun the data
        assert cf.next_degree_bound >= 1


def test_laurent_cf_worked_example():
    # 1/(t^2+t+1) over F2 expands with a single degree-2 quotient
    s = series_prefix_of_fraction(DensePoly.one(GF2), DensePoly(GF2, (1, 1, 1)), 12)
    cf = laurent_cf(s)
    assert cf.quotients[0] == DensePoly(GF2, (1, 1, 1))
    assert not has_flat_expansion(cf, 12)


def test_flat_expansion_requires_maximal_extraction():
    # all-guaranteed-degree-1 alone is not enough: 1,0,0,...,0 has one
    # degree-1 quotient and then stalls, which is not a perfect profile
    s = CoeffSeq(GF2, [1] + [0] * 9, origin=1)
    cf = laurent_cf(s)
    assert all(q.degree == 1 for q in cf.quotients)
    assert not has_flat_expansion(cf, len(s))
    assert not lcp_profile(s).values == tuple((i + 2) // 2 for i in range(10))


@given(f2_seqs)
def test_flat_equals_perfect_profile(s):
    from plcpkit.lincomplex import is_plcp

    assert has_flat_expansion(laurent_cf(s), len(s)) == is_plcp(lcp_profile(s))


def test_max_pq_degree():
    s = CoeffSeq(GF2, [1, 1, 0, 1, 0, 0, 0, 1], origin=1)
    cf = laurent_cf(s)
    assert max_pq_degree(cf) == max(int(q.degree) for q in cf.quotients)
    empty = laurent_cf(CoeffSeq(GF2, [0], origin=1))
    with pytest.raises(ValueError):
        max_pq_degree(empty)


def test_profile_from_cf_requires_origin_one_data():
    cf = laurent_cf(CoeffSeq(GF2, [1, 0, 1, 1], origin=1))
    rec = profile_from_cf(cf, 4)
    assert rec.values == (1, 1, 2, 2)


@given(rational_pairs(), st.integers(1, 40))
def test_profile_from_terminated_cf_matches_berlekamp_massey(pair, n):
    # a terminated expansion (next_degree_bound None) extends its last block to any n
    f, g = pair
    f = f % g  # proper, so the integer part is zero
    cf = rational_cf(f, g)
    assert cf.next_degree_bound is None
    expected = lcp_profile(series_prefix_of_fraction(f, g, n))
    assert profile_from_cf(cf, n).values == expected.values


def brute_om(g):
    """Orthogonal multiplicity by enumerating f and running plain
    polynomial Euclid, independent of the library's cf code.

    f/g is proper, so its partial quotients past the zero integer part
    are exactly the Euclid quotients of (g, f); all must have degree 1,
    and gcd(f, g) must be a unit.
    """
    field = g.field
    p = field.p
    count = 0
    for mask in range(1, p ** int(g.degree)):
        coeffs = []
        m = mask
        for _ in range(int(g.degree)):
            coeffs.append(m % p)
            m //= p
        f = DensePoly(field, coeffs)
        a, b = g, f
        ok = True
        while b:
            q, r = dense_divmod(a, b)
            if q.degree != 1:
                ok = False
                break
            a, b = b, r
        if ok and a.degree == 0:
            count += 1
    return count


@pytest.mark.parametrize(
    "p,coeffs",
    [
        (2, (0, 1)),
        (2, (1, 1)),
        (2, (1, 1, 1)),
        (2, (0, 0, 1)),
        (2, (1, 0, 1, 1)),
        (3, (1, 2, 1)),
        (3, (0, 1, 1)),
        (5, (2, 3, 1)),
        # repeated and shared factors: (t^2+t+1)^2 and t^3(t+1) over F2,
        # (t+1)^2(t+2) over F3
        (2, (1, 0, 1, 0, 1)),
        (2, (0, 0, 0, 1, 1)),
        (3, (2, 2, 1, 1)),
    ],
)
def test_orthogonal_multiplicity_against_bruteforce(p, coeffs):
    g = DensePoly(PrimeField(p), coeffs)
    assert orthogonal_multiplicity(g) == brute_om(g)


def test_orthogonal_multiplicity_matches_bruteforce_on_every_small_monic_g():
    # all 195 monic g of degree 1-6 over F2, 1-3 over F3 and 1-2 over F5
    checked = 0
    for p, max_degree in ((2, 6), (3, 3), (5, 2)):
        field = PrimeField(p)
        for d in range(1, max_degree + 1):
            for low in itertools.product(range(p), repeat=d):
                g = DensePoly(field, low + (1,))
                assert orthogonal_multiplicity(g) == brute_om(g), g
                checked += 1
    assert checked == 195


def test_orthogonal_multiplicity_rejects_bad_inputs():
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        orthogonal_multiplicity(DensePoly(f3, (1, 2)))  # leading coeff 2
    with pytest.raises(ValueError):
        orthogonal_multiplicity(DensePoly.one(GF2))  # degree 0


F3 = PrimeField(3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: laurent_cf(CoeffSeq(GF2, [1], origin=0)),
            ValueError,
            "expects an origin-1 sequence; use shift_index(1)",
        ),
        (
            lambda: rational_cf(DensePoly(GF2, [1]), DensePoly(F3, [1])),
            ValueError,
            "mixed fields",
        ),
        (
            lambda: rational_cf(DensePoly(F3, [1]), DensePoly.zero(F3)),
            ZeroDivisionError,
            "zero denominator",
        ),
        (
            lambda: convergents(laurent_cf(CoeffSeq(GF2, [1, 1, 0, 1], origin=1)), 3),
            ValueError,
            "j_max must be in [0, 2]",
        ),
        (
            lambda: profile_from_cf(laurent_cf(CoeffSeq(GF2, [1], origin=1)), 0),
            ValueError,
            "n_max must be >= 1",
        ),
        (
            lambda: series_prefix_of_fraction(DensePoly(F3, [1]), DensePoly.zero(F3), 4),
            ZeroDivisionError,
            "zero denominator",
        ),
        (
            lambda: series_prefix_of_fraction(DensePoly(F3, [1, 1]), DensePoly(F3, [0, 1]), 4),
            ValueError,
            "needs deg f < deg g",
        ),
        (
            lambda: series_prefix_of_fraction(DensePoly(F3, [1]), DensePoly(F3, [0, 1]), 0),
            ValueError,
            "n must be >= 1",
        ),
        (
            lambda: orthogonal_multiplicity(DensePoly.monomial(GF2, 15)),
            ValueError,
            "exhaustive bound exceeded (p^deg g <= 2^14)",
        ),
    ],
    ids=[
        "laurent-origin",
        "rational-mixed-fields",
        "rational-zero-denominator",
        "convergents-j-max",
        "profile-n-max",
        "series-zero-denominator",
        "series-improper",
        "series-length",
        "om-exhaustive-bound",
    ],
)
def test_cfrac_calls_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
