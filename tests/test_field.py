import random
from fractions import Fraction

import pytest
from cf_oracle import dense_divmod, dense_gcd, series_inverse
from hypothesis import given, strategies as st

from plcpkit.field import (
    GF2,
    NEG_INF,
    CoeffSeq,
    DensePoly,
    PrimeField,
    SequenceFormatError,
    _slots,
    bit_string,
    dumps_sequence,
    loads_sequence,
    pack_bits,
    pack_slots,
    poly_divmod,
    poly_gcd,
    unpack_bits,
)
from plcpkit.seqgen import BitSource

primes = st.sampled_from([2, 3, 5, 7, 13])


@st.composite
def field_and_elems(draw, count=2):
    p = draw(primes)
    f = PrimeField(p)
    return (f,) + tuple(draw(st.integers(0, p - 1)) for _ in range(count))


@st.composite
def field_poly(draw, max_deg=8):
    p = draw(primes)
    f = PrimeField(p)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=max_deg + 1))
    return DensePoly(f, coeffs)


def test_prime_field_rejects_composites():
    for n in (0, 1, 4, 6, 9, 91):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_gf2_is_prime_field_two():
    assert GF2.p == 2
    assert GF2.inv(1) == 1


@given(field_and_elems())
def test_field_ops_match_int_arithmetic(fab):
    # residue arithmetic lives in DensePoly: constants add and multiply mod p
    f, a, b = fab
    pa, pb = DensePoly(f, [a]), DensePoly(f, [b])
    assert pa + pb == DensePoly(f, [(a + b) % f.p])
    assert pa - pb == DensePoly(f, [(a - b) % f.p])
    assert pa * pb == pa * b == DensePoly(f, [(a * b) % f.p])
    assert -pa == DensePoly(f, [(-a) % f.p])


@given(field_and_elems(count=1))
def test_field_inverse(fa):
    f, a = fa
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            f.inv(a)
    else:
        assert a * f.inv(a) % f.p == 1


def test_poly_basics():
    f = PrimeField(3)
    z = DensePoly.zero(f)
    assert z.degree == NEG_INF
    assert DensePoly.one(f).degree == 0
    t = DensePoly.monomial(f, 1)
    assert t.degree == 1
    assert (t * t + DensePoly.one(f)).coeffs == (1, 0, 1)
    # trailing zeros are normalized away
    assert DensePoly(f, [1, 2, 0, 0]).coeffs == (1, 2)


@given(field_poly(), field_poly())
def test_poly_ring_axioms(a, b):
    if a.field.p != b.field.p:
        b = DensePoly(a.field, [c % a.field.p for c in b.coeffs])
    assert (a + b) - b == a
    assert a * b == b * a
    if a.degree is not NEG_INF and b.degree is not NEG_INF:
        assert (a * b).degree == a.degree + b.degree


@given(field_poly(), field_poly())
def test_poly_divmod_invariant(a, d):
    if a.field.p != d.field.p:
        d = DensePoly(a.field, [c % a.field.p for c in d.coeffs])
    if d.degree is NEG_INF:
        with pytest.raises(ZeroDivisionError):
            divmod(a, d)
        return
    q, r = divmod(a, d)
    assert q * d + r == a
    assert r.degree is NEG_INF or r.degree < d.degree


@given(field_poly(max_deg=6), field_poly(max_deg=6))
def test_gcd_divides_both(a, b):
    if a.field.p != b.field.p:
        b = DensePoly(a.field, [c % a.field.p for c in b.coeffs])
    g = poly_gcd(a, b)
    if g.degree is NEG_INF:
        assert a.degree is NEG_INF and b.degree is NEG_INF
        return
    assert g.lc == 1  # monic normalization
    assert (a % g).degree is NEG_INF
    assert (b % g).degree is NEG_INF


def test_divmod_and_gcd_match_the_element_loop():
    # long dividends over small divisors, divisors longer than the dividend,
    # zero operands and all-(p-1) coefficients; over F3 a long dividend by
    # the all-2 divisor grows slots past what fewer division steps allow
    rng = random.Random(18)
    for p in (2, 3, 5, 7, 13, 65521):
        fld = PrimeField(p)
        full = DensePoly(fld, [p - 1] * 60)
        for _ in range(40):
            a, b = (
                DensePoly(fld, [rng.randrange(p) for _ in range(rng.randrange(*n))])
                for n in ((100, 200), (60,))
            )
            for x, y in ((a, b), (b, a), (full, b), (a, full), (a, DensePoly.zero(fld))):
                if y:
                    assert poly_divmod(x, y) == dense_divmod(x, y), (x, y)
                assert poly_gcd(x, y) == dense_gcd(x, y), (x, y)


@pytest.mark.parametrize("p", [3, 7, 65521, (1 << 127) - 1, (1 << 521) - 1])
@pytest.mark.parametrize("count", [*range(1, 10), 256])
def test_slot_reduction_puts_every_slot_in_range(p, count):
    # slots from 0 to the bound B of `count` steps, in every position; an odd
    # count leaves the last pair of an even and an odd slot half full
    w, reduce = _slots(p, count, count)
    B = p - 1 + count * (p - 1) ** 2
    edges = (0, p - 1, p, B - 1, B)
    rng = random.Random(count)
    vectors = [[v] * count for v in edges]
    vectors += [[rng.randint(0, B) for _ in range(count)] for _ in range(10)]
    vectors += [[rng.choice(edges) for _ in range(count)] for _ in range(10)]
    for v in vectors:
        assert reduce(pack_slots(v, w)) == pack_slots([x % p for x in v], w)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: DensePoly(PrimeField(3), [1]) + DensePoly(PrimeField(5), [1]),
            ValueError,
            "mixed fields: PrimeField(3) vs PrimeField(5)",
        ),
        (lambda: DensePoly.monomial(GF2, -1), ValueError, "negative degree"),
        (lambda: CoeffSeq(GF2, [1], origin=2), ValueError, "origin must be 0 or 1: 2"),
        (lambda: CoeffSeq(GF2, [], origin=0), ValueError, "empty sequence"),
    ],
    ids=["mixed-fields", "negative-degree", "bad-origin", "empty-sequence"],
)
def test_field_calls_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_monic_splits_unit():
    f = PrimeField(5)
    poly = DensePoly(f, [1, 2, 3])
    unit, monic = poly.monic()
    assert monic.lc == 1
    assert DensePoly(f, [unit]) * monic == poly


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(1, 2)], ids=["float", "whole-float", "fraction"])
def test_poly_coefficients_are_plain_ints(p, bad):
    # a float or a Fraction survives % p, so the constructor refuses it
    with pytest.raises(ValueError) as e:
        DensePoly(PrimeField(p), [1, bad])
    assert str(e.value) == f"coefficients must be ints: {bad % p!r}"
    # a bool is an int: it is reduced to a plain int like any other
    poly = DensePoly(PrimeField(p), [True, 0, 3, False, 1])
    assert poly.coeffs == (1, 0, 3 % p, 0, 1)
    assert [type(c) for c in poly.coeffs] == [int] * 5
    assert DensePoly(GF2, [True, 0, 3]).coeffs == (1, 0, 1)


def test_poly_to_string():
    f = PrimeField(3)
    assert DensePoly(f, [2, 0, 1]).to_string() == "t^2 + 2"
    assert DensePoly(f, [0, 1]).to_string() == "t"
    assert DensePoly.zero(f).to_string() == "0"


class TestCoeffSeq:
    def test_origin_indexing(self):
        s = CoeffSeq(GF2, [1, 0, 1], origin=1)
        assert s[1] == 1 and s[2] == 0 and s[3] == 1
        with pytest.raises(IndexError):
            s[0]
        with pytest.raises(IndexError):
            s[4]

    def test_shift_relabels(self):
        s = CoeffSeq(GF2, [1, 0, 1], origin=1)
        c = s.shift_index(0)
        assert c.origin == 0
        assert c.terms == s.terms
        assert c[0] == s[1]

    def test_shift_shares_the_validated_terms(self, monkeypatch):
        s = CoeffSeq(PrimeField(5), [1, 4, 0, 3], origin=1)
        expected = CoeffSeq(PrimeField(5), [1, 4, 0, 3], origin=0)

        def validate(self, values):
            raise AssertionError("validated terms that were already checked")

        monkeypatch.setattr(PrimeField, "validate", validate)
        c = s.shift_index(0)
        assert c.terms is s.terms
        assert c == expected and hash(c) == hash(expected)
        assert c.shift_index(1) == s and c.shift_index(0) is c
        with pytest.raises(ValueError, match="origin must be 0 or 1: 2"):
            s.shift_index(2)

    def test_validates_residues(self):
        for bad in (2, -1, 1.0, "1", None):
            with pytest.raises(ValueError, match=f"not a residue mod 2: {bad!r}$"):
                CoeffSeq(GF2, [0, True, bad, 1], origin=0)

    def test_bools_are_stored_as_plain_ints(self):
        # a bool is an int; stored as it is, it would be written as "True"
        for field, terms in ((GF2, [True, False, True, 1]), (PrimeField(3), [True, 2, False, 1])):
            seq = CoeffSeq(field, terms, origin=1)
            assert [type(t) for t in seq.terms] == [int] * 4
            assert seq == CoeffSeq(field, [int(t) for t in terms], origin=1)
            assert loads_sequence(dumps_sequence(seq)) == seq

    def test_origin_is_stored_as_a_plain_int(self):
        # the header would read origin=True, which the loader refuses
        s = CoeffSeq(GF2, [1, 0, 1], origin=True)
        assert s.origin == 1 and type(s.origin) is int
        assert s[1] == 1
        assert loads_sequence(dumps_sequence(s)) == s
        c = CoeffSeq(GF2, [1, 0, 1], origin=0).shift_index(True)
        assert c == s and type(c.origin) is int
        assert type(s.shift_index(False).origin) is int
        for bad in (1.0, 0.0, "1", None):
            with pytest.raises(ValueError, match=f"^origin must be 0 or 1: {bad!r}$"):
                CoeffSeq(GF2, [1, 0, 1], origin=bad)
            with pytest.raises(ValueError, match=f"^origin must be 0 or 1: {bad!r}$"):
                s.shift_index(bad)


def _low_terms(poly, n):
    return tuple(poly.coefficient(i) for i in range(n))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=96))
def test_pack_unpack_round_trip(bits):
    packed = pack_bits(bits)
    assert unpack_bits(packed, len(bits)) == list(bits)


def test_unpack_of_no_bits_is_empty():
    assert unpack_bits(0b1011, 0) == [] and unpack_bits(0b1011, -1) == []


def _pack_bits_by_join(bits):
    # the per-bit string join that pack_bits replaced, kept as its oracle
    if not bits:
        return 0
    return int("".join("1" if b else "0" for b in reversed(bits)), 2)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 511, 512, 2047, 2048, 4097])
def test_pack_unpack_round_trip_at_word_boundaries(n):
    rng = random.Random(n)
    shapes = {
        "random": [rng.randrange(2) for _ in range(n)],
        "all-zero": [0] * n,
        "all-one": [1] * n,
        "leading-zero": [0] * (n - n // 2) + [rng.randrange(2) for _ in range(n // 2)],
        # the top bits are zero, so the int is shorter than n bits
        "top-zero": [rng.randrange(2) for _ in range(n // 2)] + [0] * (n - n // 2),
    }
    for name, bits in shapes.items():
        packed = pack_bits(bits)
        assert packed == _pack_bits_by_join(bits) == pack_bits(tuple(bits)), name
        assert bit_string(bits) == "".join(map(str, bits)), name
        assert unpack_bits(packed, n) == bits, name
        # bits at n and above are not read
        assert unpack_bits(packed | 0b101 << n, n) == bits, name


def test_poly_and_field_are_immutable():
    f5 = PrimeField(5)
    poly = DensePoly(f5, [1, 2, 3])
    seq = CoeffSeq(GF2, [1, 0, 1], origin=0)
    values = [
        (f5, "PrimeField", {"p": 7}),
        (poly, "DensePoly", {"field": GF2, "coeffs": (1,)}),
        (seq, "CoeffSeq", {"field": f5, "terms": (2, 7), "origin": 1}),
        (seq.shift_index(1), "CoeffSeq", {"field": f5, "terms": (2, 7), "origin": 0}),
        (BitSource.seeded(3), "BitSource", {
            "kind": "literal", "bits": (), "preperiod": (1,), "period": (0,), "seed": 4,
        }),
    ]
    for value, kind, slots in values:
        before = hash(value)
        assert set(slots) == set(type(value).__slots__), kind
        for name, new in [*slots.items(), ("extra", 0)]:
            with pytest.raises(AttributeError, match=f"^{kind} is immutable: cannot set '{name}'$"):
                setattr(value, name, new)
        for name in slots:
            with pytest.raises(AttributeError, match=f"^{kind} is immutable: cannot delete '{name}'$"):
                delattr(value, name)
        assert hash(value) == before, kind
    assert poly == DensePoly(PrimeField(5), [1, 2, 3]) and f5.p == 5
    assert seq == CoeffSeq(GF2, [1, 0, 1], origin=0) and seq.terms == (1, 0, 1)


def test_field_hash_floor_division_and_repr():
    f5 = PrimeField(5)
    assert hash(f5) == hash(PrimeField(5)) == hash(("PrimeField", 5))
    assert len({f5, PrimeField(5), GF2}) == 2
    a, b = DensePoly(f5, [1, 0, 3]), DensePoly(f5, [2, 1])
    assert a // b == DensePoly(f5, [4, 3]) == poly_divmod(a, b)[0]  # 3t^2+1 = (3t+4)(t+2) + 3
    assert repr(a) == "DensePoly(F5, 3*t^2 + 1)"
    assert repr(DensePoly(f5, [0, 1])) == "DensePoly(F5, t)"
    assert repr(DensePoly.zero(f5)) == "DensePoly(F5, 0)"


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40).filter(lambda v: v[0] == 1))
def test_series_inverse_property(bits):
    prod = DensePoly(GF2, bits) * DensePoly(GF2, series_inverse(GF2, bits))
    assert _low_terms(prod, len(bits)) == (1,) + (0,) * (len(bits) - 1)


@given(st.sampled_from([3, 5, 7]).map(PrimeField), st.data())
def test_series_inverse_generic(f, data):
    n = data.draw(st.integers(1, 24))
    coeffs = [data.draw(st.integers(1, f.p - 1))] + [
        data.draw(st.integers(0, f.p - 1)) for _ in range(n - 1)
    ]
    prod = DensePoly(f, coeffs) * DensePoly(f, series_inverse(f, coeffs))
    assert _low_terms(prod, n) == (1,) + (0,) * (n - 1)


def test_inverse_is_multiplicative_inverse():
    rng = random.Random(5)
    for n in (1, 2, 17, 64, 65, 200):
        bits = [1] + [rng.randrange(2) for _ in range(n - 1)]
        prod = DensePoly(GF2, bits) * DensePoly(GF2, series_inverse(GF2, bits))
        assert [prod.coefficient(k) for k in range(n)] == [1] + [0] * (n - 1)


def test_series_inverse_needs_unit():
    with pytest.raises(ValueError):
        series_inverse(GF2, [0, 1])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.sampled_from([0, 1]))
def test_sequence_file_round_trip(bits, origin):
    seq = CoeffSeq(GF2, bits, origin=origin)
    text = dumps_sequence(seq)
    back = loads_sequence(text)
    assert back.terms == seq.terms
    assert back.origin == seq.origin
    assert back.field.p == 2


def test_sequence_file_round_trip_generic_p():
    f = PrimeField(7)
    seq = CoeffSeq(f, list(range(7)) * 11, origin=1)
    back = loads_sequence(dumps_sequence(seq))
    assert back.terms == seq.terms and back.field.p == 7


def test_parse_errors_carry_position():
    with pytest.raises(SequenceFormatError) as e:
        loads_sequence("# field=2 origin=0 length=3\n1 0 2\n")
    assert e.value.line == 2
    assert "2" in str(e.value)
    with pytest.raises(SequenceFormatError) as e:
        loads_sequence("no header\n")
    assert e.value.line == 1


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("", "empty input, expected a header line", 1, 1),
        ("# field=4 origin=0 length=1\n1\n", "field modulus is not prime: 4", 1, 1),
        ("# field=2 origin=0 length=0\n", "length must be >= 1", 1, 1),
        ("# field=3 origin=0 length=2\nbits=10\n", "bits= form is only valid for field=2", 2, 1),
        ("# field=3 origin=0 length=2\n1 x\n", "bad residue 'x'", 2, 3),
        ("# field=2 origin=0 length=4\n  bits=10a1\n", "bad bit 'a'", 2, 10),
        # int() would take each of these three residues
        ("# field=13 origin=0 length=3\n1_0 2 3\n", "bad residue '1_0'", 2, 1),
        ("# field=13 origin=0 length=3\n1 +2 3\n", "bad residue '+2'", 2, 3),
        ("# field=13 origin=0 length=3\n1 2 \u0661\n", "bad residue '\u0661'", 2, 5),
        ("# field=13 origin=0 length=3\n1 -1 3\n", "residue -1 out of range for field=13", 2, 3),
        # Arabic-Indic digits in the header: field and length are ASCII numbers only
        (
            "# field=\u0663 origin=0 length=\u0663\n1 0 1\n",
            "malformed header, expected '# field=<p> origin=<0|1> length=<N>'",
            1,
            1,
        ),
    ],
    ids=[
        "empty", "composite-field", "zero-length", "bits-odd-field", "bad-residue", "bad-bit",
        "underscore-residue", "plus-sign-residue", "non-ascii-residue", "negative-residue",
        "non-ascii-header",
    ],
)
def test_parse_errors_name_message_line_and_column(text, message, line, column):
    with pytest.raises(SequenceFormatError) as e:
        loads_sequence(text)
    assert str(e.value) == f"{message} (line {line}, column {column})"
    assert (e.value.line, e.value.column) == (line, column)


def test_parse_skips_a_blank_line_after_the_header():
    seq = loads_sequence("# field=3 origin=1 length=3\n\n  \n2 0 1\n")
    assert seq == CoeffSeq(PrimeField(3), [2, 0, 1], origin=1)


def test_parse_length_mismatch():
    with pytest.raises(SequenceFormatError):
        loads_sequence("# field=2 origin=0 length=4\nbits=101\n")


def test_bits_form_rejected_for_odd_fields():
    with pytest.raises(SequenceFormatError):
        loads_sequence("# field=3 origin=0 length=2\nbits=10\n")


@pytest.mark.parametrize(
    "data, message, line, column",
    [
        ("bits=10\n1 1\n", "after the bits= line 2", 3, 1),
        ("bits=10\n  bits=11\n", "after the bits= line 2", 3, 3),
        ("1 1\n bits=10\n", "bits= after residue data", 3, 2),
    ],
    ids=["residues-after-bits", "second-bits-line", "bits-after-residues"],
)
def test_bits_line_is_the_only_data_line(data, message, line, column):
    with pytest.raises(SequenceFormatError, match=message) as e:
        loads_sequence("# field=2 origin=0 length=4\n" + data)
    assert (e.value.line, e.value.column) == (line, column)
