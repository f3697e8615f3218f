"""Hankel determinant checks against a permutation-expansion oracle.

`hankel_mod_p`, `first_even_hankel_order` and `hankel_integer_pm1`
read one incremental elimination; the per-order eliminations of
`hankel_oracle` (column pivoting over every field, over F2
`hankel_parities`, and for exact +-1 values `bareiss_values`) are its
oracles here; so are, over F2, `one_pass_parities`, the pass as it was
before its pivots were grouped into tables, and for odd p
`list_mod_p_values`, the pass as it was before its rows were packed
into integer slots.
"""

import itertools
import random
import time

import pytest
from hankel_oracle import (
    bareiss_values,
    det_mod_p,
    hankel_by_columns,
    hankel_parities,
    list_mod_p_values,
    one_pass_parities,
    order_parity,
)
from hypothesis import given
from hypothesis import strategies as st

from plcpkit.field import CoeffSeq, PrimeField, _slots, pack_bits, pack_slots, unpack_bits
from plcpkit import hankel
from plcpkit.hankel import (
    _MERSENNE_EXPONENTS,
    ApwwResult,
    HankelReport,
    _f2_parities,
    _group_table,
    _lift_modulus,
    _mod_p_values,
    apww_check,
    first_even_hankel_order,
    hankel_integer_pm1,
    hankel_mod_p,
    is_apwenian_hankel,
)
from plcpkit.lincomplex import lcp_profile, recurrence_check
from plcpkit.seqgen import BitSource, named_sequence, phi2_selector

GF2 = PrimeField(2)


def perm_det(rows):
    # Leibniz expansion; exact, independent of any elimination code
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def hankel_rows(entries, n):
    return [list(entries[i : i + n]) for i in range(n)]


def packed_mod_p_values(rows, p):
    # the odd-p pass on residue rows, each packed as the pass packs Hankel rows
    m = len(rows)
    w, reduce = _slots(p, m, m)
    return list(_mod_p_values([pack_slots(r, w) for r in rows], p, m, w, reduce))


mod_p_inputs = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(
        st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=11)
    )
)


@given(mod_p_inputs)
def test_mod_p_matches_permutation_expansion(pt):
    p, terms = pt
    c = CoeffSeq(PrimeField(p), terms, origin=0)
    m = (len(terms) + 1) // 2
    report = hankel_mod_p(c, m)
    assert report.modulus == p
    assert report.max_order == m
    leibniz = tuple(perm_det(hankel_rows(terms, n)) % p for n in range(1, m + 1))
    assert report.values == leibniz
    assert hankel_by_columns(c, m) == leibniz  # the oracle of the tests below


@given(mod_p_inputs)
def test_pivot_strategies_agree(pt):
    # the incremental elimination (packed over F2) against column pivoting
    p, terms = pt
    c = CoeffSeq(PrimeField(p), terms, origin=0)
    m = (len(terms) + 1) // 2
    assert hankel_mod_p(c, m).values == hankel_by_columns(c, m)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.data())
def test_row_passes_read_the_leading_minors_of_any_matrix(p, n, data):
    # the passes take rows, not Hankel terms, so any square matrix will do
    cells = st.sampled_from([0] * (p - 1) + list(range(1, p)))  # half zeros
    rows = [data.draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]
    minors = [perm_det([r[:k] for r in rows[:k]]) % p for k in range(1, n + 1)]
    if p == 2:
        packed = [sum(b << j for j, b in enumerate(r)) for r in rows]
        assert list(_f2_parities(packed)) == minors
    assert packed_mod_p_values(rows, p) == minors


@st.composite
def f2_matrices(draw):
    # a row with its low half zeroed takes a late pivot column early, so
    # six-column groups fill out of column order, and often before the
    # leading minors turn odd again
    n = draw(st.integers(1, 24))
    rows = []
    for _ in range(n):
        row = draw(st.integers(0, (1 << n) - 1))
        if draw(st.booleans()):
            row &= -1 << (n // 2)
        rows.append(row)
    return n, rows


@given(f2_matrices())
def test_f2_pass_reads_the_leading_minors_of_matrices_to_order_24(nr):
    n, rows = nr
    cells = [unpack_bits(r, n) for r in rows]
    minors = [det_mod_p([r[:k] for r in cells[:k]], GF2) for k in range(1, n + 1)]
    assert list(_f2_parities(rows)) == minors == list(one_pass_parities(rows))


def test_f2_tables_fill_out_of_column_order(monkeypatch):
    # distinct lowest bits stay the pivot columns: groups 12, 0, 6 fill in turn
    rng = random.Random(24)
    lows = list(range(12, 18)) + list(range(6)) + list(range(6, 12))
    rows = [1 << c | rng.getrandbits(18 - c) << c for c in lows]
    built = []

    def table(pivots, g):
        built.append(g)
        return _group_table(pivots, g)

    monkeypatch.setattr(hankel, "_group_table", table)
    cells = [unpack_bits(r, 18) for r in rows]
    minors = [det_mod_p([r[:k] for r in cells[:k]], GF2) for k in range(1, 19)]
    assert list(_f2_parities(rows)) == minors == list(one_pass_parities(rows))
    assert built == [12, 0, 6] and minors[-1] == 1 and 0 in minors


def test_group_table_holds_every_sum_of_its_pivots():
    # entry i is the one sum of the six pivots whose columns g..g+5 read i
    rng = random.Random(6)
    for g in (0, 6, 42):
        pivots = [1 << (g + j) | rng.getrandbits(60) << (g + j) for j in range(6)]
        table = _group_table(pivots, g)
        for subset in range(64):
            total = 0
            for j in range(6):
                if subset >> j & 1:
                    total ^= pivots[j]
            assert table[total >> g & 63] == total


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=11))
def test_bareiss_matches_permutation_expansion(entries):
    # the lifted pass and its Bareiss oracle against Leibniz
    m = (len(entries) + 1) // 2
    report = hankel_integer_pm1(entries, m)
    assert report.modulus is None
    leibniz = tuple(perm_det(hankel_rows(entries, n)) for n in range(1, m + 1))
    assert report.values == leibniz
    assert bareiss_values(entries, m) == leibniz


def test_pm1_exhaustive_against_bareiss():
    # every +-1 list of odd length <= 13, at full order
    zeros = 0
    for length in range(1, 14, 2):
        m = (length + 1) // 2
        for entries in itertools.product((1, -1), repeat=length):
            values = hankel_integer_pm1(entries, m).values
            assert values == bareiss_values(entries, m), entries
            zeros += values.count(0)
    assert zeros > 0


def test_pm1_random_prefixes_against_bareiss():
    # lengths up to 81 (m = 41, modulus 2^107 - 1 or 2^127 - 1); a periodic
    # prefix stops the rank growing, so its later orders are all 0
    rng = random.Random(10)
    zeros = 0
    for trial in range(150):
        length = rng.randint(1, 81)
        if trial % 5 == 0:
            period = [rng.choice((1, -1)) for _ in range(rng.randint(1, 4))]
            entries = [period[i % len(period)] for i in range(length)]
        else:
            entries = [rng.choice((1, -1)) for _ in range(length)]
        if trial % 2:
            entries[0] = -1
        m = (length + 1) // 2
        k = rng.randint(1, m)
        values = bareiss_values(entries, m)
        assert hankel_integer_pm1(entries, m).values == values, entries
        assert hankel_integer_pm1(entries, k).values == values[:k], entries
        zeros += values.count(0)
    assert zeros > 100


def test_pm1_values_are_ints_for_bool_and_float_entries():
    entries = [True, -1.0, -1, 1.0, 1]
    values = hankel_integer_pm1(entries, 3).values
    assert values == bareiss_values([1, -1, -1, 1, 1], 3)
    assert values[:2] == (1, -2)
    assert all(type(v) is int for v in values)


def _is_mersenne_prime(e):
    # Lucas-Lehmer, e an odd prime
    p, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    return s == 0


def test_lift_modulus_is_the_least_mersenne_prime_above_twice_hadamard():
    table = [(1 << e) - 1 for e in _MERSENNE_EXPONENTS]
    assert all(_is_mersenne_prime(e) for e in _MERSENNE_EXPONENTS if e <= 4423)
    for m in range(1, 1001):
        p = _lift_modulus(m)
        assert p == next(q for q in table if q * q > 4 * m**m), m
    assert _lift_modulus(45) == (1 << 127) - 1
    assert _lift_modulus(46) == _lift_modulus(144) == (1 << 521) - 1
    assert _lift_modulus(145) == (1 << 607) - 1
    assert _lift_modulus(6970) == (1 << 44497) - 1
    assert _lift_modulus(6971) is None
    assert _lift_modulus(10**6) is None  # refused without the 20-million-bit power


def test_pm1_past_the_table_raises_before_eliminating(monkeypatch):
    def eliminate(rows, p, m, w, reduce):
        raise AssertionError("eliminated past the table")

    monkeypatch.setattr(hankel, "_mod_p_values", eliminate)
    entries = [1, -1] * 6970 + [1]  # 13,941 terms, enough for order 6,971
    start = time.perf_counter()
    with pytest.raises(ValueError, match="max_order"):
        hankel_integer_pm1(entries, 6971)
    assert time.perf_counter() - start < 5


def test_apww_past_the_table_raises_before_building_entries(monkeypatch):
    def exact(entries, max_order):
        raise AssertionError("built the entries past the table")

    monkeypatch.setattr(hankel, "hankel_integer_pm1", exact)
    with pytest.raises(ValueError) as info:
        apww_check(6971)
    assert str(info.value) == "max_order must be <= 6970 for exact values, got 6971"


def test_apwenian_hankel_checks_the_leading_term_before_eliminating(monkeypatch):
    def eliminate(terms, m, p):
        raise AssertionError("eliminated a prefix with leading term 0")

    monkeypatch.setattr(hankel, "_minors", eliminate)
    with pytest.raises(ValueError) as info:
        is_apwenian_hankel(CoeffSeq(GF2, [0, 1, 1, 0, 1], origin=0))
    assert str(info.value) == "requires leading term 1"


def test_pm1_input_validation():
    with pytest.raises(ValueError, match=r"\+-1"):
        hankel_integer_pm1([1, 0, 1], 2)
    with pytest.raises(ValueError, match="max_order"):
        hankel_integer_pm1([1, -1, 1], 0)
    with pytest.raises(ValueError, match="insufficient terms"):
        hankel_integer_pm1([1, -1, 1], 3)


def test_mod_p_input_validation():
    s1 = CoeffSeq(GF2, [1, 0, 1], origin=1)
    with pytest.raises(ValueError, match="origin-0"):
        hankel_mod_p(s1, 1)
    c = s1.shift_index(0)
    with pytest.raises(ValueError, match="insufficient terms"):
        hankel_mod_p(c, 3)
    with pytest.raises(ValueError, match="max_order"):
        hankel_mod_p(c, 0)


F2_THREE = CoeffSeq(GF2, [1, 0, 1], origin=0)
TOO_LONG = [1, -1] * 6970 + [1]  # 13,941 terms, enough for order 6,971


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: hankel_mod_p(F2_THREE.shift_index(1), 1),
            "expects an origin-0 sequence; use shift_index(0)",
        ),
        (lambda: hankel_mod_p(F2_THREE, 0), "max_order must be >= 1"),
        (lambda: hankel_mod_p(F2_THREE, -1), "max_order must be >= 1"),
        (lambda: hankel_mod_p(F2_THREE, 3), "insufficient terms: order 3 needs 5, have 3"),
        (
            lambda: first_even_hankel_order(CoeffSeq(PrimeField(3), [1, 2, 1], origin=0)),
            "Hankel parities are defined over F2",
        ),
        (
            lambda: first_even_hankel_order(F2_THREE.shift_index(1)),
            "expects an origin-0 sequence; use shift_index(0)",
        ),
        (lambda: is_apwenian_hankel(CoeffSeq(GF2, [0, 1, 1], origin=0)), "requires leading term 1"),
        (lambda: hankel_integer_pm1([1, 0, 1], 2), "entries must be +-1: 0"),
        (lambda: hankel_integer_pm1([1, -1, 1], 0), "max_order must be >= 1"),
        (lambda: hankel_integer_pm1([1, -1, 1], 3), "insufficient terms: order 3 needs 5, have 3"),
        (
            lambda: hankel_integer_pm1(TOO_LONG, 6971),
            "max_order must be <= 6970 for exact values, got 6971",
        ),
        (
            # the terms are checked before the table of lift moduli
            lambda: hankel_integer_pm1([1, -1, 1], 6971),
            "insufficient terms: order 6971 needs 13941, have 3",
        ),
        (lambda: apww_check(0), "max_order must be >= 1"),
        (lambda: apww_check(-1), "max_order must be >= 1"),
    ],
    ids=[
        "mod-p-origin-1",
        "mod-p-order-0",
        "mod-p-order-negative",
        "mod-p-too-few-terms",
        "first-even-F3",
        "first-even-origin-1",
        "apwenian-leading-0",
        "pm1-entry-0",
        "pm1-order-0",
        "pm1-too-few-terms",
        "pm1-past-the-table",
        "pm1-past-the-table-too-few-terms",
        "apww-order-0",
        "apww-order-negative",
    ],
)
def test_hankel_calls_reject_bad_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_apww_small_orders_exact():
    res = apww_check(6)
    assert res.ok and bool(res)
    assert res.first_failure is None
    assert res.quotients == (1, -1, 1, 1, -1, -1)
    # reconstruct the determinants and confirm against the oracle
    entries = [1 - 2 * (i.bit_count() & 1) for i in range(11)]
    for n in range(1, 7):
        h = res.quotients[n - 1] * (1 << (n - 1))
        assert h == perm_det(hankel_rows(entries, n))


@pytest.mark.parametrize("scale", [2, 0.5], ids=["odd-part-even", "power-too-small"])
def test_apww_reports_the_first_failing_order(monkeypatch, scale):
    # H_4 = 8: doubled it is 2^3 times an even integer, halved 2^3 no longer divides it
    real = hankel.hankel_integer_pm1

    def wrong_fourth(entries, max_order):
        report = real(entries, max_order)
        values = list(report.values)
        values[3] = int(values[3] * scale)
        return HankelReport(report.modulus, tuple(values))

    monkeypatch.setattr(hankel, "hankel_integer_pm1", wrong_fourth)
    res = apww_check(6)
    assert res.ok is False and not res
    assert res.first_failure == 4
    assert res.quotients == (1, -1, 1)


def test_apww_result_bool():
    assert not ApwwResult(False, 3, (1,), 2)
    assert ApwwResult(True, 1, (1,), None)


def test_apwenian_routes_agree_exhaustively():
    # determinant path and feedback-relation path decide identically
    for length in range(1, 11):
        for x in range(1 << (length - 1)):
            terms = [1] + [(x >> i) & 1 for i in range(length - 1)]
            c = CoeffSeq(GF2, terms, origin=0)
            assert is_apwenian_hankel(c) == recurrence_check(c), terms


def test_apwenian_known_families():
    pd = named_sequence("pd", 64).shift_index(0)
    z = named_sequence("z", 64).shift_index(0)
    assert is_apwenian_hankel(pd)
    assert is_apwenian_hankel(z)
    flat = CoeffSeq(GF2, [1, 0, 0, 0], origin=0)
    assert not is_apwenian_hankel(flat)
    assert not recurrence_check(flat)


def test_apwenian_input_validation():
    with pytest.raises(ValueError, match="F2"):
        is_apwenian_hankel(CoeffSeq(PrimeField(3), [1, 2, 1], origin=0))
    with pytest.raises(ValueError, match="origin-0"):
        is_apwenian_hankel(CoeffSeq(GF2, [1, 0, 1], origin=1))
    with pytest.raises(ValueError, match="leading"):
        is_apwenian_hankel(CoeffSeq(GF2, [0, 1, 1], origin=0))
    with pytest.raises(ValueError, match="leading"):
        recurrence_check(CoeffSeq(GF2, [0, 1, 1], origin=0))


def test_apww_rejects_bad_order():
    with pytest.raises(ValueError, match="max_order"):
        apww_check(0)


def first_zero(values):
    return next((n for n, v in enumerate(values, start=1) if v == 0), None)


def phi2_prefix(seed, length):
    return list(phi2_selector(BitSource.seeded(seed), length).terms)


def flipped(bits, index):
    out = list(bits)
    out[index] ^= 1
    return out


@st.composite
def f2_prefixes(draw):
    # leading-zero runs and all-zero prefixes put odd orders after even ones
    n = draw(st.integers(1, 129))
    zeros = min(draw(st.sampled_from([0, 1, 2, 5, n])), n)
    return [0] * zeros + draw(st.lists(st.integers(0, 1), min_size=n - zeros, max_size=n - zeros))


@given(f2_prefixes(), st.data())
def test_one_pass_matches_per_order_eliminations(bits, data):
    c = CoeffSeq(GF2, bits, origin=0)
    m = (len(bits) + 1) // 2
    per_order = hankel_parities(bits, m)
    assert list(hankel_mod_p(c, m).values) == per_order
    assert first_even_hankel_order(c) == first_zero(per_order)
    if bits[0] == 1:
        assert is_apwenian_hankel(c) == all(v == 1 for v in per_order)
    # a smaller max_order packs shorter rows; column pivoting costs O(k^4)
    k = data.draw(st.integers(1, m))
    values = hankel_mod_p(c, k).values
    assert values == hankel_by_columns(c, k) == tuple(per_order[:k])


@st.composite
def odd_p_prefixes(draw):
    # leading-zero runs, all-zero and zero-heavy prefixes give zero orders
    # before nonzero ones; in a periodic prefix the rank stops growing, so
    # a row reduces to zero and every later order is 0
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n = draw(st.integers(1, 61))
    zeros = min(draw(st.sampled_from([0, 1, 2, 5, n])), n)
    kind = draw(st.sampled_from(["random", "zero-heavy", "periodic"]))
    if kind == "periodic":
        period = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
        body = [period[i % len(period)] for i in range(n - zeros)]
    else:
        term = st.integers(0, p - 1)
        if kind == "zero-heavy":
            term = st.sampled_from([0] * (p - 1) + list(range(1, p)))
        body = draw(st.lists(term, min_size=n - zeros, max_size=n - zeros))
    return p, [0] * zeros + body


@given(odd_p_prefixes(), st.data())
def test_odd_p_one_pass_matches_per_order_eliminations(pt, data):
    p, terms = pt
    c = CoeffSeq(PrimeField(p), terms, origin=0)
    m = (len(terms) + 1) // 2
    per_order = hankel_by_columns(c, m)
    assert hankel_mod_p(c, m).values == per_order
    # a smaller max_order slices shorter rows
    k = data.draw(st.integers(1, m))
    assert hankel_mod_p(c, k).values == per_order[:k]


def test_odd_p_rank_collapse_and_late_nonzero_orders():
    # period 3 over F5: rank 3, so row 3 reduces to zero and H_4.. are 0
    c = CoeffSeq(PrimeField(5), [1, 2, 4] * 7, origin=0)
    values = hankel_mod_p(c, 11).values
    assert values == hankel_by_columns(c, 11)
    assert values[3:] == (0,) * 8 and values[2] != 0
    # c_0 = 0 makes H_1 = 0, and H_2 = -c_1^2 is not
    c = CoeffSeq(PrimeField(7), [0, 3, 1, 5, 2, 6, 4, 1, 1], origin=0)
    values = hankel_mod_p(c, 5).values
    assert values == hankel_by_columns(c, 5)
    assert values[:2] == (0, -9 % 7)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_p_one_pass_at_order_64(p):
    # the shape of the benchmark's calls: a random length-256 prefix, m = 64
    rng = random.Random(p)
    c = CoeffSeq(PrimeField(p), [rng.randrange(p) for _ in range(256)], origin=0)
    values = hankel_mod_p(c, 64).values
    assert values == hankel_by_columns(c, 64)
    assert 0 < values.count(0) < 64


def residues(p, seed, n):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


@pytest.mark.parametrize(
    "p, terms, zero_orders",
    [
        (3, residues(3, 1, 511), None),
        (7, residues(7, 2, 511), None),
        (3, [0] * 40 + residues(3, 3, 471), (1, 20)),  # H_1..H_20 see only zeros
        (7, [0] * 9 + residues(7, 4, 502), (1, 5)),
        (7, ([3, 0, 6, 1, 5] * 103)[:511], (6, 256)),  # rank 5: a row reduces to zero
    ],
    ids=["random-F3", "random-F7", "leading-zeros-F3", "leading-zeros-F7", "periodic-F7"],
)
def test_packed_pass_matches_the_list_pass_at_order_256(p, terms, zero_orders):
    # the per-order oracles cost O(m^4); the list pass is the one the packed pass replaced
    c = CoeffSeq(PrimeField(p), terms, origin=0)
    values = hankel_mod_p(c, 256).values
    assert list(values) == list(list_mod_p_values((terms[k : k + 256] for k in range(256)), p))
    if zero_orders is None:
        assert 0 < values.count(0) < 256
    else:
        lo, hi = zero_orders  # H_lo..H_hi are 0, and some other order is not
        assert not any(values[lo - 1 : hi]) and any(values[: lo - 1] + values[hi:])


def test_slots_are_wide_enough_for_the_largest_residues():
    # the slots hold (p-1) + m(p-1)^2 at most: in this matrix pivot i is
    # e_i - e_(m-2) - e_(m-1), and the last rows meet m-2 of them, each with
    # f = 1, so column m-2 gains (p-1)^2 per pivot; one bit fewer carries
    for p, m in ((65521, 128), ((1 << 521) - 1, 46)):
        edge = [p - 1, p - 1]
        rows = [[0] * i + [1] + [0] * (m - 3 - i) + edge for i in range(m - 2)]
        rows += [[1] * (m - 2) + edge, [1] * (m - 2) + [p - 1, 0]]
        values = packed_mod_p_values(rows, p)
        assert values == list(list_mod_p_values(rows, p))
        assert 0 not in values
    # the largest residues as Hankel entries (rank 1): 65520 over F65521,
    # and -1 lifted from 2^521 - 1, the modulus from order 46 on
    c = CoeffSeq(PrimeField(65521), [65520] * 255, origin=0)
    oracle = tuple(list_mod_p_values([[65520] * 128] * 128, 65521))
    assert hankel_mod_p(c, 128).values == oracle == (65520,) + (0,) * 127
    p = (1 << 521) - 1
    assert _lift_modulus(46) == p
    assert list(list_mod_p_values([[p - 1] * 46] * 46, p)) == [p - 1] + [0] * 45
    assert hankel_integer_pm1([-1] * 91, 46).values == (-1,) + (0,) * 45


def test_per_order_oracle_input_validation():
    with pytest.raises(ValueError):
        hankel_parities([1, 0, 1], 0)
    with pytest.raises(ValueError):
        hankel_parities([1, 0, 1], 3)  # needs 2*3-1 = 5 terms


@pytest.mark.parametrize(
    "bits",
    [
        phi2_prefix(1, 512),
        [1] + random.Random(2).choices((0, 1), k=511),
        [0] + random.Random(3).choices((0, 1), k=511),
        flipped(phi2_prefix(4, 512), 230),  # first even order 116
        flipped(phi2_prefix(5, 512), 301),  # first even order 152
    ],
    ids=["phi2", "random", "random-leading-0", "phi2-flip-230", "phi2-flip-301"],
)
def test_one_pass_matches_per_order_kernel_on_long_inputs(bits):
    c = CoeffSeq(GF2, bits, origin=0)
    per_order = hankel_parities(bits, 256)
    assert list(hankel_mod_p(c, 256).values) == per_order
    assert first_even_hankel_order(c) == first_zero(per_order)
    if bits[0] == 1:
        assert is_apwenian_hankel(c) == all(v == 1 for v in per_order)


def test_one_pass_matches_per_order_kernel_at_word_boundaries():
    # word-boundary and multi-word lengths that hypothesis rarely reaches
    rng = random.Random(20240229)
    for n in (63, 64, 65, 127, 128, 129, 1000, 4096):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        c, m = CoeffSeq(GF2, bits, origin=0), min((n + 1) // 2, 128)
        assert list(hankel_mod_p(c, m).values) == hankel_parities(bits, m), n


def test_late_first_even_order_in_flipped_phi2_prefixes():
    # in a perfect prefix, flipping c_(2k-2) or c_(2k-3) first makes H_k even
    for seed, index in ((4, 230), (5, 301)):
        c = CoeffSeq(GF2, flipped(phi2_prefix(seed, 512), index), origin=0)
        k = first_even_hankel_order(c)
        assert k == index // 2 + 1 + index % 2 and k > 100
        values = hankel_mod_p(c, 256).values
        assert values[: k - 1] == (1,) * (k - 1) and values[k - 1] == 0
        assert 0 < values.count(1) - (k - 1) < 256 - k  # odd and even orders follow


@pytest.mark.parametrize("m", [5, 6, 7, 11, 12, 13, 36, 37])
def test_f2_orders_around_group_boundaries(m):
    # one, two and six full groups, with 0, 1 and 5 columns past the last
    rng = random.Random(m)
    length = 2 * m - 1
    for bits in (
        phi2_prefix(m, length),
        flipped(phi2_prefix(m, length), length - 3),
        [1] + rng.choices((0, 1), k=length - 1),
    ):
        c = CoeffSeq(GF2, bits, origin=0)
        per_order = hankel_parities(bits, m)
        assert list(hankel_mod_p(c, m).values) == per_order
        rows = [pack_bits(bits[k : k + m]) for k in range(m)]
        assert list(one_pass_parities(rows)) == per_order
        assert first_even_hankel_order(c) == first_zero(per_order)


@pytest.mark.parametrize(
    "bits, first_even",
    [
        ([1] + random.Random(256).choices((0, 1), k=510), 2),
        (phi2_prefix(7, 4096), None),
        (flipped(phi2_prefix(7, 4096), 3001), 1502),
    ],
    ids=["random-511", "phi2-4096", "phi2-4096-flip-3001"],
)
def test_grouped_pass_matches_the_ungrouped_pass_on_long_inputs(bits, first_even):
    # the ungrouped pass is O(m^3/64) too; a per-order oracle is too slow at m = 2048
    c, m = CoeffSeq(GF2, bits, origin=0), (len(bits) + 1) // 2
    values = hankel_mod_p(c, m).values
    rows = [pack_bits(bits[k : k + m]) for k in range(m)]
    assert list(values) == list(one_pass_parities(rows))
    assert first_even_hankel_order(c) == first_zero(values) == first_even
    if first_even is not None:
        assert 1 in values[first_even:] and 0 in values[first_even:]  # the pass runs on past it


def test_one_pass_on_phi2_length_1024():
    bits = phi2_prefix(6, 1024)
    c = CoeffSeq(GF2, bits, origin=0)
    assert first_even_hankel_order(c) is None
    assert is_apwenian_hankel(c)
    for n in (1, 2, 3, 64, 127, 255, 384, 512):
        assert order_parity(bits, n) == 1


def test_first_even_order_is_the_profile_witness():
    # 2k - 1 is the first n with L(n) != ceil(n/2) for s_n = c_(n-1)
    rng = random.Random(7)
    for trial in range(600):
        length = rng.randint(2, 199)
        if trial % 3 == 0:
            bits = flipped(phi2_prefix(trial, length), rng.randrange(length))
        elif trial % 3 == 1:
            bits = phi2_prefix(trial, length)
        else:
            bits = rng.choices((0, 1), k=length)
        c = CoeffSeq(GF2, bits, origin=0)
        profile = lcp_profile(c.shift_index(1)).values
        first_bad = next(
            (n for n, l in enumerate(profile, start=1) if l != (n + 1) // 2), None
        )
        k = first_even_hankel_order(c)
        if first_bad is None:
            assert k is None, bits
        else:
            assert k is not None and 2 * k - 1 == first_bad, bits


def test_first_even_order_input_validation():
    with pytest.raises(ValueError, match="F2"):
        first_even_hankel_order(CoeffSeq(PrimeField(3), [1, 2, 1], origin=0))
    with pytest.raises(ValueError, match="origin-0"):
        first_even_hankel_order(CoeffSeq(GF2, [1, 0, 1], origin=1))
    assert first_even_hankel_order(CoeffSeq(GF2, [0, 1, 1], origin=0)) == 1
