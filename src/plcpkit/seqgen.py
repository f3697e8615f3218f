"""Generators for the studied binary sequence families.

All of them are driven by a `BitSource`, a deterministic stream of
bits b_0, b_1, ...  Seeded sources use SplitMix64 in counter form
(Steele, Lea and Flood, OOPSLA 2014): word k of seed s is
mix(s + (k+1)*gamma mod 2^64), gamma the 64-bit golden ratio and mix
two xor-shift-multiply rounds and a final xor-shift.  Words are
consumed least significant bit first, so bit index i of the stream is
bit (i mod 64) of word i // 64.
"""

from __future__ import annotations

from dataclasses import dataclass

from plcpkit.field import GF2, _RESIDUE, CoeffSeq, _Frozen, bit_string, pack_slots, unpack_bits

__all__ = [
    "BitSource",
    "derive_seed",
    "rueppel",
    "phi1_jacobi",
    "phi2_selector",
    "phi3_generalized_rueppel",
    "named_sequence",
    "UniformMorphism",
    "morphism_fixed_point",
    "NAMED_SEQUENCES",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_READS = {"literal": ("bits",), "periodic": ("preperiod", "period"), "random": ("seed",)}


def _splitmix64(state):
    """The SplitMix64 output for a state, taken mod 2^64."""
    z = state & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _splitmix64_words(seed, count):
    return [_splitmix64(seed + k * _GOLDEN) for k in range(1, count + 1)]


def _bits(value) -> tuple:
    """A "0101" string or an iterable of 0/1 ints as a tuple of plain ints;
    a bool becomes its int, and anything else (1.0 too) is refused."""
    if isinstance(value, str):
        value = [int(c) if c in "01" else c for c in value]
    out = tuple(value)
    for v in out:
        if not isinstance(v, int) or v not in (0, 1):
            raise ValueError(f"bit source values must be bits: {v!r}")
    return tuple(map(int, out))


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed: word 0 of the stream seeded with seed XOR (index+1)*golden."""
    return _splitmix64((seed ^ ((index + 1) * _GOLDEN)) + _GOLDEN)


class BitSource(_Frozen):
    """Deterministic bit stream: literal, eventually periodic, or seeded.

    Spec strings: ``literal:1011`` (nonempty), ``periodic:<pre>:<per>``
    (the period nonempty), ``random:<seed>``; each kind refuses the
    arguments it does not read, so a source equals its spec.  Bits,
    given as a "1011" string or as 0/1 ints, are stored as int tuples.
    """

    __slots__ = ("kind", "bits", "preperiod", "period", "seed")

    def __init__(self, kind, bits=(), preperiod=(), period=(), seed=0):
        if kind not in _READS:
            raise ValueError(f"unknown bit source kind: {kind!r}")
        given = dict(bits=_bits(bits), preperiod=_bits(preperiod), period=_bits(period), seed=seed)
        for name, value in given.items():
            if value and name not in _READS[kind]:
                raise ValueError(f"{kind} bit source does not take {name}")
        if kind == "literal" and not given["bits"]:
            raise ValueError("literal bit source needs nonempty bits")
        if kind == "periodic" and not given["period"]:
            raise ValueError("periodic bit source needs a nonempty period")
        given["seed"] = seed & _M64
        self._set(kind=kind, **given)

    def _key(self):
        return (self.kind, self.bits, self.preperiod, self.period, self.seed)

    @classmethod
    def literal(cls, bits):
        return cls("literal", bits=bits)

    @classmethod
    def periodic(cls, preperiod, period):
        return cls("periodic", preperiod=preperiod, period=period)

    @classmethod
    def seeded(cls, seed):
        return cls("random", seed=seed)

    @classmethod
    def parse(cls, spec: str) -> "BitSource":
        kind, _, rest = spec.partition(":")
        if kind == "literal":
            return cls.literal(rest)
        if kind == "periodic":
            pre, sep, per = rest.partition(":")
            if not sep:
                raise ValueError("periodic spec is periodic:<pre>:<per>")
            return cls.periodic(pre, per)
        if kind == "random":
            if not _RESIDUE.fullmatch(rest):
                raise ValueError(f"bad seed: {rest!r}")
            return cls.seeded(int(rest))
        raise ValueError(f"unknown bit source kind: {kind!r}")

    def spec(self) -> str:
        """Canonical round-trippable spec string."""
        if self.kind == "literal":
            return "literal:" + bit_string(self.bits)
        if self.kind == "periodic":
            return f"periodic:{bit_string(self.preperiod)}:{bit_string(self.period)}"
        return f"random:{self.seed}"

    def bit(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative bit index")
        if self.kind == "literal":
            if i >= len(self.bits):
                raise ValueError(
                    f"literal bit source exhausted at index {i} (have {len(self.bits)})"
                )
            return self.bits[i]
        if self.kind == "periodic":
            if i < len(self.preperiod):
                return self.preperiod[i]
            return self.period[(i - len(self.preperiod)) % len(self.period)]
        word = _splitmix64(self.seed + (i // 64 + 1) * _GOLDEN)
        return (word >> (i % 64)) & 1

    def take(self, count: int) -> list:
        """Bits 0..count-1 as a list; a seeded stream's words are joined
        into one int, word k from bit 64k, and unpacked in one pass."""
        if self.kind == "random":
            words = _splitmix64_words(self.seed, (count + 63) // 64)
            return unpack_bits(pack_slots(words, 64), count)
        return [self.bit(i) for i in range(count)]

    def __repr__(self):
        return f"BitSource({self.spec()!r})"


def rueppel(which: str, n: int) -> CoeffSeq:
    """The two canonical perfect-profile sequences, origin 1.

    "first" has ones exactly at the powers of two, "second" exactly at
    the indices 2^k - 1: they are `phi3_generalized_rueppel` of
    b = 0^omega and b = 1^omega.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if which not in ("first", "second"):
        raise ValueError(f"which must be 'first' or 'second': {which!r}")
    return phi3_generalized_rueppel(BitSource.periodic("", "0" if which == "first" else "1"), n)


def phi3_generalized_rueppel(b: BitSource, n: int) -> CoeffSeq:
    """Sparse sequence with ones at n_0 = 1, n_{h+1} = 2 n_h + b_h; origin 1."""
    if n < 1:
        raise ValueError("length must be >= 1")
    terms = [0] * n
    mark = 1
    h = 0
    while mark <= n:
        terms[mark - 1] = 1
        if 2 * mark > n:  # next mark overshoots either way; don't consume a bit
            break
        mark = 2 * mark + b.bit(h)
        h += 1
    return CoeffSeq(GF2, terms, origin=1)


def phi2_selector(b: BitSource, n: int) -> CoeffSeq:
    """a_0 = 1, a_{2n+1} = b_n, a_{2n+2} = a_n + b_n; origin 0.

    Every output satisfies the defining feedback relation, so the whole
    family is apwenian by construction.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    # b_m is used while 2m+1 <= n-1, i.e. for m < n//2
    bb = b.take(n // 2)
    a = [0] * n
    a[0] = 1
    for i in range(1, n):
        m = (i - 1) // 2
        if i % 2 == 1:
            a[i] = bb[m]
        else:
            a[i] = (a[m] + bb[m]) % 2
    return CoeffSeq(GF2, a, origin=0)


def phi1_jacobi(b: BitSource, n: int) -> CoeffSeq:
    """Coefficients of the Jacobi-style continued fraction
    1/(1 + b_0 x + x^2/(1 + b_1 x + x^2/(...))), origin 0.

    The tower num/den is evaluated bottom-up to depth ceil(n/2) + 1,
    which pins the first n coefficients exactly, on packed ints (bit i
    is the coefficient of x^i): each level is den' = (1 + b_j x) den +
    x^2 num, num' = den.  One long division of num by den from the low
    end, mod x^n, then gives the terms.  Both steps are O(n^2/64) bit
    operations.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    depth = (n + 1) // 2 + 1
    stream = b.take(depth)
    num, den = 0, 1
    for bj in reversed(stream):
        num, den = den, den ^ (den << 1 if bj else 0) ^ (num << 2)
    # den has constant term 1, so each step fixes one coefficient
    terms = []
    for _ in range(n):
        terms.append(num & 1)
        if num & 1:
            num ^= den
        num >>= 1
    return CoeffSeq(GF2, terms, origin=0)


# every accepted spelling and the sequence it names, in `gen --family` order
_SPELLINGS = {
    "pd": "pd",
    "period-doubling": "pd",
    "thue-morse": "thue-morse",
    "z": "z",
    "z-seq": "z",
    "w": "w",
    "w-seq": "w",
}
NAMED_SEQUENCES = tuple(dict.fromkeys(_SPELLINGS.values()))


def named_sequence(name: str, n: int) -> CoeffSeq:
    """Named binary sequences.

    pd           fixed point of 1 -> 10, 0 -> 11 (origin 0)
    thue-morse   parity of the binary weight of n (origin 0)
    z            z_1 = 1, z_{2n} = 1 + z_n, z_{2n+1} = 1 (origin 1); this
                 is pd indexed from 1, z_n = pd_{n-1}
    w            w_1 = 1, w_{2n+1} = 1 + w_n, w_{2n} = 1 (origin 1); this
                 is phi2 of the all-one stream indexed from 1

    Long spellings period-doubling / z-seq / w-seq are accepted too.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    canonical = _SPELLINGS.get(name)
    if canonical == "pd":
        return morphism_fixed_point(UniformMorphism((1, 1), (1, 0)), n)
    if canonical == "z":
        return named_sequence("pd", n).shift_index(1)
    if canonical == "thue-morse":
        return CoeffSeq(GF2, [i.bit_count() & 1 for i in range(n)], origin=0)
    if canonical == "w":
        return phi2_selector(BitSource.periodic("", "1"), n).shift_index(1)
    raise ValueError(f"unknown sequence name: {name!r}")


@dataclass(frozen=True)
class UniformMorphism:
    """Binary morphism sending 0 and 1 to words of one common length k."""

    image0: tuple
    image1: tuple

    def __post_init__(self):
        i0, i1 = tuple(self.image0), tuple(self.image1)
        if len(i0) != len(i1) or len(i0) < 2:
            raise ValueError("images must share one length >= 2")
        try:
            i0, i1 = _bits(i0), _bits(i1)
        except ValueError:
            raise ValueError("images must be over {0, 1}") from None
        object.__setattr__(self, "image0", i0)
        object.__setattr__(self, "image1", i1)

    @property
    def prolongable(self):
        """True when iterating from the letter 1 extends the prefix."""
        return self.image1[0] == 1

    def __str__(self):
        return f"1->{bit_string(self.image1)}, 0->{bit_string(self.image0)}"


def morphism_fixed_point(m: UniformMorphism, n: int) -> CoeffSeq:
    """First n letters of the fixed point of m starting with 1; origin 0."""
    if n < 1:
        raise ValueError("length must be >= 1")
    if not m.prolongable:
        raise ValueError("morphism has no fixed point starting with 1")
    word = [1]
    while len(word) < n:
        word = [letter for a in word for letter in (m.image1 if a else m.image0)]
    return CoeffSeq(GF2, word[:n], origin=0)
