import itertools
import re

import pytest
from hypothesis import given, strategies as st
from phi1_oracle import phi1_tower
from phi2_oracle import phi2_loop

from plcpkit.cfrac import laurent_cf
from plcpkit.field import GF2, CoeffSeq, DensePoly, bit_string
from plcpkit.lincomplex import is_plcp, lcp_profile
from plcpkit.seqgen import (
    NAMED_SEQUENCES,
    BitSource,
    UniformMorphism,
    _splitmix64_words,
    derive_seed,
    morphism_fixed_point,
    named_sequence,
    phi1_jacobi,
    phi2_selector,
    phi3_generalized_rueppel,
    rueppel,
)


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _stateful_splitmix64_words(seed, count):
    # the textbook generator: advance the state by gamma, then mix it
    out, state = [], seed & _M64
    for _ in range(count):
        state = (state + _GOLDEN) & _M64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_reference_vector():
    # first outputs for seed 0 from the reference implementation
    assert _splitmix64_words(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 2**80 + 3])
def test_counter_form_matches_the_stateful_generator(seed):
    oracle = _stateful_splitmix64_words(seed, 5001)
    bits = [(oracle[i // 64] >> (i % 64)) & 1 for i in range(64 * 3)]
    b = BitSource.seeded(seed)
    for count in (0, 1, 63, 64, 65, 64 * 3):
        assert b.take(count) == bits[:count], count
    for i in (0, 63, 64, 65, 127, 128, 64 * 5000 + 17):
        assert b.bit(i) == (oracle[i // 64] >> (i % 64)) & 1, i
    for index in (0, 1, 63, 64, 65):
        word0 = _stateful_splitmix64_words(seed ^ ((index + 1) * _GOLDEN), 1)[0]
        assert derive_seed(seed, index) == word0, index


@st.composite
def _arguments(draw, kind):
    """Keyword arguments for BitSource(kind, ...): the kind's own, and maybe
    others, empty or not; bits as a string, ints, bools or an iterator."""

    def bits(min_size):
        values = draw(st.lists(st.integers(0, 1), min_size=min_size, max_size=16))
        return draw(st.sampled_from([bit_string, tuple, iter, lambda v: [bool(x) for x in v]]))(values)

    seeds = st.integers() | st.integers(min_value=2**64)
    if kind == "literal":
        args = {"bits": bits(1)}
    elif kind == "periodic":
        args = {"preperiod": bits(0), "period": bits(1)}
    else:
        args = {"seed": draw(seeds)}
    for name in ("bits", "preperiod", "period", "seed"):
        if name not in args and draw(st.booleans()):
            args[name] = draw(seeds) if name == "seed" else bits(0)
    return args


def test_derive_seed_is_stable_and_spread():
    seeds = [derive_seed(0, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert derive_seed(0, 0) == seeds[0]  # deterministic
    assert derive_seed(1, 0) != seeds[0]


class TestBitSource:
    def test_literal(self):
        b = BitSource.literal("1011")
        assert b.take(4) == [1, 0, 1, 1]
        with pytest.raises(ValueError):
            b.bit(4)

    def test_periodic(self):
        b = BitSource.periodic("1", "001")
        assert b.take(8) == [1, 0, 0, 1, 0, 0, 1, 0]
        pure = BitSource.periodic("", "01")
        assert pure.take(5) == [0, 1, 0, 1, 0]

    def test_random_bits_come_lsb_first(self):
        b = BitSource.seeded(0)
        word = 0xE220A8397B1DCDAF
        assert b.take(64) == [(word >> i) & 1 for i in range(64)]

    def test_take_matches_bit(self):
        b = BitSource.seeded(99)
        assert b.take(130) == [b.bit(i) for i in range(130)]

    @pytest.mark.parametrize("spec", ["literal:" + "1101" * 50, "periodic::1", "periodic:110:01011", "random:7"])
    def test_take_matches_bit_for_every_kind(self, spec):
        b = BitSource.parse(spec)
        for count in range(201):
            assert b.take(count) == [b.bit(i) for i in range(count)], count

    def test_take_past_a_literal_names_the_first_missing_index(self):
        b = BitSource.literal("1011")
        assert b.take(-1) == []
        with pytest.raises(ValueError, match=r"^literal bit source exhausted at index 4 \(have 4\)$"):
            b.take(9)

    @pytest.mark.parametrize("seed", [0, 99, _M64])
    def test_take_matches_bit_at_word_boundaries(self, seed):
        b = BitSource.seeded(seed)
        want = [b.bit(i) for i in range(8192)]
        # the per-bit take that the one-int unpack replaced, kept as an oracle
        words = _splitmix64_words(b.seed, 8192 // 64)
        assert want == [(words[i // 64] >> (i % 64)) & 1 for i in range(8192)]
        for count in (0, 1, 63, 64, 65, 511, 512, 2047, 2048, 4097, 8191, 8192):
            assert b.take(count) == want[:count], count

    @pytest.mark.parametrize(
        "spec",
        ["literal:1011", "periodic::1", "periodic:1:001", "random:42"],
    )
    def test_parse_spec_round_trip(self, spec):
        assert BitSource.parse(spec).spec() == spec
        assert repr(BitSource.parse(spec)) == f"BitSource({spec!r})"

    @pytest.mark.parametrize(
        "spec",
        ["literal:1011", "periodic::1", "periodic:1:001", "random:42"],
    )
    @given(data=st.data())
    def test_parse_of_spec_is_an_equal_value(self, spec, data):
        kind = spec.partition(":")[0]
        sources = [BitSource.parse(spec)]
        try:
            sources.append(BitSource(kind, **data.draw(_arguments(kind))))
        except ValueError as error:  # a nonempty argument the kind does not read
            assert str(error).startswith(f"{kind} bit source does not take ")
        for b in sources:
            again = BitSource.parse(b.spec())
            assert again == b and hash(again) == hash(b) and again is not b
        assert BitSource.seeded(1) != BitSource.seeded(2)
        assert BitSource.literal("1") != BitSource.periodic("", "1")

    @pytest.mark.parametrize(
        "bad",
        ["literal:", "literal:102", "periodic:1", "periodic:1:", "random:x", "what:1"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            BitSource.parse(bad)

    # int() would take each of these; a seed is ASCII -?[0-9]+, like a residue
    @pytest.mark.parametrize("seed", ["1_0", " 5", "5 ", "+5", "\u0663", "", "-"])
    def test_parse_rejects_seeds_int_would_take(self, seed):
        with pytest.raises(ValueError, match=f"^bad seed: {re.escape(repr(seed))}$"):
            BitSource.parse("random:" + seed)

    def test_negative_seeds_are_masked(self):
        assert BitSource.parse("random:-1") == BitSource.seeded((1 << 64) - 1)
        assert BitSource.parse("random:-1").spec() == f"random:{(1 << 64) - 1}"


def test_rueppel_supports():
    r1 = rueppel("first", 40)
    assert r1.origin == 1
    assert [n for n in range(1, 41) if r1[n]] == [1, 2, 4, 8, 16, 32]
    r2 = rueppel("second", 40)
    assert [n for n in range(1, 41) if r2[n]] == [1, 3, 7, 15, 31]
    with pytest.raises(ValueError):
        rueppel("third", 8)


def test_rueppel_supports_are_powers_of_two_and_their_predecessors():
    for n in [*range(1, 301), 8192]:
        powers = [1 << k for k in range(n.bit_length() + 1)]
        first, second = rueppel("first", n), rueppel("second", n)
        assert [m for m in range(1, n + 1) if first[m]] == [q for q in powers if q <= n], n
        assert [m for m in range(1, n + 1) if second[m]] == [
            q - 1 for q in powers if 1 <= q - 1 <= n
        ], n


def test_rueppel_checks_the_length_first():
    with pytest.raises(ValueError, match="length must be >= 1"):
        rueppel("third", 0)
    with pytest.raises(ValueError, match="which must be 'first' or 'second': 'third'"):
        rueppel("third", 8)


def test_phi3_interpolates_between_rueppel_pair():
    n = 200
    all0 = phi3_generalized_rueppel(BitSource.periodic("", "0"), n)
    all1 = phi3_generalized_rueppel(BitSource.periodic("", "1"), n)
    assert all0.terms == rueppel("first", n).terms
    assert all1.terms == rueppel("second", n).terms


def test_phi3_marks_follow_doubling_law():
    b = BitSource.parse("literal:110100")
    s = phi3_generalized_rueppel(b, 120)
    marks = [n for n in range(1, 121) if s[n]]
    assert marks[0] == 1
    stream = [1, 1, 0, 1, 0, 0]
    for h in range(len(marks) - 1):
        assert marks[h + 1] == 2 * marks[h] + stream[h]


@pytest.mark.parametrize("spec", ["random:3", "random:18446744073709551615", "periodic::1", "periodic:0:10"])
def test_phi2_selector_matches_the_per_index_loop(spec):
    b = BitSource.parse(spec)
    for n in range(1, 601):
        assert phi2_selector(b, n) == phi2_loop(b, n), n


def test_phi2_selector_consumes_prefix_only():
    # term n depends on b_0..b_((n-2)//2), so two streams sharing a prefix
    # must agree on the corresponding prefix of outputs
    b1 = BitSource.literal("10110000")
    b2 = BitSource.literal("10111111")
    s1 = phi2_selector(b1, 9)
    s2 = phi2_selector(b2, 9)
    assert s1.terms[:9] == s2.terms[:9]


def test_phi1_expansion_has_prescribed_quotients():
    # the defining property: partial quotient j of the expansion is t + b_j
    specs = ("random:3", "periodic::10", "literal:" + "011010011001011010" * 57)
    for spec, n in itertools.product(specs, (64, 2048)):
        b = BitSource.parse(spec)
        s = phi1_jacobi(b, n).shift_index(1)
        cf = laurent_cf(s)
        assert cf.guaranteed_count == n // 2
        stream = b.take(cf.guaranteed_count)
        for j in range(cf.guaranteed_count):
            assert cf.quotients[j] == DensePoly(GF2, (stream[j], 1)), (spec, j)


def test_phi1_at_length_8192_is_perfect():
    s = phi1_jacobi(BitSource.seeded(8192), 8192).shift_index(1)
    assert is_plcp(lcp_profile(s))
    cf = laurent_cf(s)
    assert cf.guaranteed_count == 4096
    assert cf.degrees() == (1,) * 4096


def test_phi1_matches_tower_oracle_on_every_literal():
    # every stream of the depth that length n reads, for every n <= 14
    for n in range(1, 15):
        depth = (n + 1) // 2 + 1
        for bits in itertools.product((0, 1), repeat=depth):
            b = BitSource.literal(bits)
            assert phi1_jacobi(b, n) == phi1_tower(b, n), (n, bits)


def test_phi1_matches_tower_oracle_on_seeded_and_periodic_sources():
    sources = [BitSource.seeded(seed) for seed in range(200)]
    sources += [BitSource.parse(spec) for spec in ("periodic::1", "periodic::10", "periodic:1:001")]
    for b in sources:
        for n in (1, 2, 3, 7, 64, 129):
            assert phi1_jacobi(b, n) == phi1_tower(b, n), (b, n)


def test_phi1_matches_tower_oracle_at_length_2048():
    b = BitSource.seeded(2048)
    assert phi1_jacobi(b, 2048) == phi1_tower(b, 2048)


def test_phi1_reads_the_same_bits_as_the_tower():
    # depth ceil(n/2) + 1 = 5 at n = 8: literals of one and four bits run out
    for bits in ("1", "1011"):
        msg = f"literal bit source exhausted at index {len(bits)} (have {len(bits)})"
        for gen in (phi1_jacobi, phi1_tower):
            with pytest.raises(ValueError, match=re.escape(msg)):
                gen(BitSource.literal(bits), 8)


def test_named_registry():
    assert set(NAMED_SEQUENCES) == {"pd", "thue-morse", "z", "w"}
    with pytest.raises(ValueError):
        named_sequence("nope", 4)


def test_named_long_spellings_are_aliases():
    for long, short in (("period-doubling", "pd"), ("z-seq", "z"), ("w-seq", "w")):
        a, b = named_sequence(long, 64), named_sequence(short, 64)
        assert a.terms == b.terms and a.origin == b.origin


def test_thue_morse_is_parity_of_bitcount():
    tm = named_sequence("thue-morse", 64)
    assert tm.origin == 0
    assert tm.terms == tuple(bin(n).count("1") % 2 for n in range(64))


def test_pd_is_morphism_fixed_point():
    m = UniformMorphism(image1=(1, 0), image0=(1, 1))
    assert morphism_fixed_point(m, 128).terms == named_sequence("pd", 128).terms


def test_complement_thue_morse_is_fixed_point():
    # 1 -> 10, 0 -> 01 fixes the complement of thue-morse
    m = UniformMorphism(image1=(1, 0), image0=(0, 1))
    fp = morphism_fixed_point(m, 128)
    tm = named_sequence("thue-morse", 128)
    assert fp.terms == tuple(1 - t for t in tm.terms)


def test_z_is_pd_without_the_index_shift():
    z = named_sequence("z", 100)
    pd = named_sequence("pd", 100)
    assert z.origin == 1 and pd.origin == 0
    assert z.terms == pd.terms


def test_z_and_w_defining_relations():
    z = named_sequence("z", 1001)
    w = named_sequence("w", 1001)
    assert z[1] == w[1] == 1
    for n in range(1, 500):
        assert z[2 * n] == 1 ^ z[n]
        assert z[2 * n + 1] == 1
        assert w[2 * n + 1] == 1 ^ w[n]
        assert w[2 * n] == 1
        # both satisfy x_n + x_2n + x_2n+1 = 0
        assert (z[n] + z[2 * n] + z[2 * n + 1]) % 2 == 0
        assert (w[n] + w[2 * n] + w[2 * n + 1]) % 2 == 0


class TestUniformMorphism:
    def test_str(self):
        m = UniformMorphism(image1=(1, 0), image0=(1, 1))
        assert str(m) == "1->10, 0->11"

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformMorphism(image1=(1,), image0=(1, 1))  # unequal lengths
        with pytest.raises(ValueError):
            UniformMorphism(image1=(1, 2), image0=(1, 1))
        with pytest.raises(ValueError):
            UniformMorphism(image1=(1,), image0=(0,))  # k must be >= 2

    @pytest.mark.parametrize(
        "image0, image1",
        [((True, 1), (1, False)), ((1, True), (True, 0)), ([1, 1], iter([1, 0]))],
        ids=["bools", "more-bools", "list-and-iterator"],
    )
    def test_images_are_plain_ints(self, image0, image1):
        m = UniformMorphism(image0, image1)
        assert str(m) == "1->10, 0->11"
        assert (m.image0, m.image1) == ((1, 1), (1, 0))
        assert [type(v) for v in m.image0 + m.image1] == [int] * 4

    def test_fixed_point_needs_prolongable_image(self):
        m = UniformMorphism(image1=(0, 1), image0=(1, 1))
        with pytest.raises(ValueError):
            morphism_fixed_point(m, 16)


@given(st.integers(2, 4), st.data())
def test_fixed_point_is_fixed(k, data):
    image1 = tuple([1] + [data.draw(st.integers(0, 1)) for _ in range(k - 1)])
    image0 = tuple(data.draw(st.integers(0, 1)) for _ in range(k))
    m = UniformMorphism(image1=image1, image0=image0)
    n = 96
    fp = morphism_fixed_point(m, n)
    # applying the morphism to the fixed point reproduces it
    expanded = []
    for t in fp.terms:
        expanded.extend(image1 if t else image0)
    assert tuple(expanded[:n]) == fp.terms


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32), st.integers(1, 64))
def test_generators_are_pure(bits, n):
    b1 = BitSource.literal(bits * 8)
    b2 = BitSource.literal(bits * 8)
    a = phi3_generalized_rueppel(b1, n)
    b = phi3_generalized_rueppel(b2, n)
    assert a.terms == b.terms
    assert isinstance(a, CoeffSeq) and a.field is GF2


@pytest.mark.parametrize(
    "make, spec",
    [
        (lambda: BitSource.literal([True, False, True]), "literal:101"),
        (lambda: BitSource.literal("101"), "literal:101"),
        (lambda: BitSource.periodic([True], (False, True)), "periodic:1:01"),
        (lambda: BitSource.periodic("", iter([False, True])), "periodic::01"),
    ],
    ids=["literal-bools", "literal-string", "periodic-bools", "periodic-iterator"],
)
def test_bit_sources_store_plain_ints(make, spec):
    b = make()
    assert b.spec() == spec
    back = BitSource.parse(spec)
    assert back.spec() == spec
    assert (back.bits, back.preperiod, back.period) == (b.bits, b.preperiod, b.period)
    stored = b.bits + b.preperiod + b.period
    assert [type(v) for v in stored] == [int] * len(stored)


_SOURCE = BitSource.periodic("", "1")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BitSource("bogus"), ValueError, "unknown bit source kind: 'bogus'"),
        (lambda: BitSource("periodic"), ValueError, "periodic bit source needs a nonempty period"),
        (lambda: BitSource.literal(""), ValueError, "literal bit source needs nonempty bits"),
        # a kind refuses every nonempty argument it does not read
        (
            lambda: BitSource("literal", bits="1", preperiod="1"),
            ValueError,
            "literal bit source does not take preperiod",
        ),
        (
            lambda: BitSource("literal", bits="1", period=[0]),
            ValueError,
            "literal bit source does not take period",
        ),
        (lambda: BitSource("literal", bits="1", seed=5), ValueError, "literal bit source does not take seed"),
        (
            lambda: BitSource("literal", bits="1", seed=2**64),
            ValueError,
            "literal bit source does not take seed",
        ),
        (
            lambda: BitSource("periodic", bits="1", period="1"),
            ValueError,
            "periodic bit source does not take bits",
        ),
        (
            lambda: BitSource("periodic", period="1", seed=-1),
            ValueError,
            "periodic bit source does not take seed",
        ),
        (lambda: BitSource("random", bits="1", seed=3), ValueError, "random bit source does not take bits"),
        (
            lambda: BitSource("random", preperiod=(0,)),
            ValueError,
            "random bit source does not take preperiod",
        ),
        (lambda: BitSource("random", period=iter([1])), ValueError, "random bit source does not take period"),
        # parse leaves the bit strings of a spec to the constructor
        (lambda: BitSource.parse("literal:"), ValueError, "literal bit source needs nonempty bits"),
        (lambda: BitSource.parse("literal:102"), ValueError, "bit source values must be bits: '2'"),
        (lambda: BitSource.parse("periodic:1:"), ValueError, "periodic bit source needs a nonempty period"),
        (lambda: BitSource.parse("periodic:2:1"), ValueError, "bit source values must be bits: '2'"),
        (lambda: BitSource("literal", bits=(1, 2)), ValueError, "bit source values must be bits: 2"),
        (lambda: BitSource.periodic([1.0], [0, 1]), ValueError, "bit source values must be bits: 1.0"),
        (lambda: BitSource.literal("10a"), ValueError, "bit source values must be bits: 'a'"),
        (lambda: UniformMorphism((1.0, 1), (1, 0)), ValueError, "images must be over {0, 1}"),
        (lambda: UniformMorphism((1, 1), ("1", "0")), ValueError, "images must be over {0, 1}"),
        (lambda: _SOURCE.bit(-1), IndexError, "negative bit index"),
        (lambda: phi3_generalized_rueppel(_SOURCE, 0), ValueError, "length must be >= 1"),
        (lambda: phi2_selector(_SOURCE, 0), ValueError, "length must be >= 1"),
        (lambda: phi1_jacobi(_SOURCE, 0), ValueError, "length must be >= 1"),
        (lambda: named_sequence("thue-morse", 0), ValueError, "length must be >= 1"),
        (
            lambda: morphism_fixed_point(UniformMorphism((1, 1), (1, 0)), 0),
            ValueError,
            "length must be >= 1",
        ),
    ],
    ids=[
        "unknown-kind",
        "empty-period",
        "empty-literal",
        "literal-preperiod",
        "literal-period",
        "literal-seed",
        "literal-seed-2^64",
        "periodic-bits",
        "periodic-seed",
        "random-bits",
        "random-preperiod",
        "random-period",
        "parse-empty-literal",
        "parse-literal-not-a-bit",
        "parse-empty-period",
        "parse-periodic-not-a-bit",
        "not-a-bit",
        "float-bit",
        "letter-bit",
        "float-image",
        "string-image",
        "negative-index",
        "phi3-length",
        "phi2-length",
        "phi1-length",
        "named-length",
        "fixed-point-length",
    ],
)
def test_seqgen_calls_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
