"""Exact arithmetic over prime fields F_p.

Residues are plain ints in [0, p); the containers validate on
construction, so a value never leaves the range.  `DensePoly` stores
coefficients ascending by degree with no trailing zeros: it takes any
int, reduced mod p in its constructor and nowhere else, and refuses
anything else.  `CoeffSeq` is a finite sequence prefix with an explicit
index origin (0 or 1): a term must already be an int in [0, p).
The value types `PrimeField`, `DensePoly`, `CoeffSeq` and
`seqgen.BitSource` follow one rule, kept in their base `_Frozen`: they
are immutable and compare and hash by their key, so one value can be
shared by every caller in the process, as `cfrac`'s table of split
quotients does, and a checked sequence stays checked.
The F2 fast paths use ints as bit vectors; `pack_bits` and
`unpack_bits` convert between those and 0/1 lists by a byte
translation and int(..., 2) or format(), with no Python step per bit.
The odd-p fast paths put one residue in each w-bit slot of an int (`pack_slots`,
`unpack_slots`), with w and a slot-wise Barrett reduction from
`_slots`: the one slot layout of the odd-p Hankel pass and of `_ring`.
`_ring` divides polynomials packed either way: it is the package's one
polynomial division, under `poly_divmod`, `poly_gcd` and `cfrac`.
"""

from __future__ import annotations

import re

__all__ = [
    "NEG_INF",
    "PrimeField",
    "GF2",
    "DensePoly",
    "CoeffSeq",
    "poly_divmod",
    "poly_gcd",
    "SequenceFormatError",
    "loads_sequence",
    "dumps_sequence",
    "read_sequence",
    "write_sequence",
]

# degree of the zero polynomial: orders strictly below every int
NEG_INF = float("-inf")


def _is_prime(n):
    # deterministic for the supported range (2 <= n < 2^16): trial division
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class _Frozen:
    """Base of the value types: slots are set only through `_set`, when a
    value is built; two values are equal when of one type with equal
    `_key()`, and a value hashes as its key."""

    __slots__ = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())


class PrimeField(_Frozen):
    """Prime field F_p, p < 2^16, with residues as plain ints."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p >= 1 << 16:
            raise ValueError(f"field modulus must be an int in [2, 2^16): {p!r}")
        if not _is_prime(p):
            raise ValueError(f"field modulus is not prime: {p}")
        self._set(p=p)

    def _key(self):
        return ("PrimeField", self.p)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def validate(self, values) -> tuple:
        """The values as a tuple of plain ints in [0, p).

        An int subclass is stored as its int, so True and False become 1
        and 0 and a sequence file can be written back; anything else that
        is not an int in range is refused.
        """
        out = tuple(values)
        p = self.p
        for v in out:
            if type(v) is not int or not 0 <= v < p:
                break
        else:
            return out
        for v in out:
            if not isinstance(v, int) or not 0 <= v < p:
                raise ValueError(f"not a residue mod {p}: {v!r}")
        return tuple(map(int, out))

    def __repr__(self):
        return f"PrimeField({self.p})"


GF2 = PrimeField(2)


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field!r} vs {b.field!r}")


class DensePoly(_Frozen):
    """Dense polynomial over F_p, coefficients ascending, canonical form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=()):
        cs = [c % field.p for c in coeffs]
        for c in cs:  # a float or a Fraction survives % p
            if type(c) is not int:
                raise ValueError(f"coefficients must be ints: {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._set(field=field, coeffs=tuple(cs))

    def _key(self):
        return (self.field.p, self.coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field, degree):
        if degree < 0:
            raise ValueError("negative degree")
        return cls(field, (0,) * degree + (1,))

    @property
    def degree(self):
        """Degree; NEG_INF (below every int) for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        _check_same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(self.field, out)

    def __neg__(self):
        return DensePoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return DensePoly(self.field, [c * other for c in self.coeffs])
        _check_same_field(self, other)
        if self.is_zero or other.is_zero:
            return DensePoly.zero(self.field)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return DensePoly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        return poly_divmod(self, other)

    def __floordiv__(self, other):
        return poly_divmod(self, other)[0]

    def __mod__(self, other):
        return poly_divmod(self, other)[1]

    def monic(self):
        """Return (unit, monic) with self == unit * monic; zero -> (1, 0)."""
        if self.is_zero:
            return 1, self
        u = self.lc
        ui = self.field.inv(u)
        return u, DensePoly(self.field, [c * ui for c in self.coeffs])

    def to_string(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DensePoly(F{self.field.p}, {self.to_string()})"


# byte translations between a bit value and its digit: b"0", b"1" -> 0, 1,
# and 0 -> b"0" with any other byte value -> b"1"
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = b"0" + b"1" * 255


def bit_string(bits) -> str:
    """0/1 values as a string of digits, "0110", by one byte translation."""
    return bytes(bits).translate(_BIT_DIGITS).decode()


def pack_bits(bits) -> int:
    """A 0/1 list as an int, bit i = bits[i] (over F2, the coefficient of x^i).

    The bits as digits, reversed and read by int(..., 2): no Python step
    per bit."""
    if not bits:
        return 0
    return int(bit_string(bits)[::-1], 2)


def pack_slots(values, w: int) -> int:
    """Values in [0, 2^w) as one int, values[i] in the w bits from i*w.

    This is Kronecker substitution at t = 2^w.  Neighbours are joined in
    pairs, then pairs of pairs, so about 2n Python steps build the int
    and no step shifts more than half of it.
    """
    vals = list(values)
    while len(vals) > 1:
        if len(vals) & 1:
            vals.append(0)
        vals = [a | b << w for a, b in zip(vals[::2], vals[1::2])]
        w *= 2
    return vals[0] if vals else 0


def unpack_bits(x: int, n: int) -> list:
    """Bits 0..n-1 of x as a 0/1 list; the inverse of `pack_bits`."""
    if n <= 0:
        return []
    return list(format(x & ((1 << n) - 1), f"0{n}b")[::-1].encode().translate(_BIT_VALUES))


def unpack_slots(x: int, w: int) -> list:
    """The w-bit slots of x up to its top nonzero one; inverts `pack_slots`.

    Each slot shifts the whole int: O(n^2 w/64) for n slots.  The
    continued-fraction builder unpacks only quotients of a few slots."""
    mask = (1 << w) - 1
    return [x >> i & mask for i in range(0, x.bit_length(), w)]


def _divmod_packed(a: int, b: int):
    """Quotient and remainder of F2 polynomials packed as ints, b != 0."""
    db = b.bit_length()
    q = 0
    while (shift := a.bit_length() - db) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _slots(p: int, steps: int, count: int):
    """The slot width w and the slot-wise reduction mod an odd prime p.

    Both odd-p passes start each slot in [0, p) and add at most `steps`
    times (p-1)^2 to it, so a slot never passes B = (p-1) + steps(p-1)^2.
    reduce(x) puts every slot of an int of at most `count` slots back in
    [0, p) by Barrett's reduction (CRYPTO '86): with k = bit_length(B) +
    bit_length(p) and M = ceil(2^k / p), floor(v*M / 2^k) = floor(v / p)
    for v <= B.  The even and the odd slots are multiplied by M apart, so
    each product has 2w bits to itself: w = ceil(bit_length(B*M) / 2),
    about bit_length(B) + 1.  Each half's floors are then one shift and
    the mask R of each product's low 2w - k bits.  Both masks are a
    pattern times `ones`, a 1 in each pair of slots: doubling copies the
    pairs so far above them, and a cut keeps (count+1)//2 pairs.
    """
    B = p - 1 + steps * (p - 1) ** 2
    k = B.bit_length() + p.bit_length()
    M = -(-(1 << k) // p)
    w = -(-(B * M).bit_length() // 2)
    pairs, have, ones = (count + 1) // 2, 1, 1
    while have < pairs:
        ones |= ones << have * 2 * w
        have *= 2
    ones &= (1 << pairs * 2 * w) - 1  # a 1 at every even slot
    even = ((1 << w) - 1) * ones
    R = ((1 << 2 * w - k) - 1) * ones
    R_odd = R << w

    def reduce(x):
        return x - p * ((x & even) * M >> k & R | (x >> w & even) * M >> k - w & R_odd)

    return w, reduce


def _ring(p: int, steps: int, slots: int):
    """The slot width w, pack, divmod and size of polynomials over F_p.

    Over F2 a slot is one bit (`pack_bits`, `_divmod_packed`,
    int.bit_length).  For odd p, coefficient i of a polynomial is in the
    w bits from i*w, every slot in [0, p) between divisions: a division
    of at most `steps` steps on ints of at most `slots` slots takes w and
    its closing reduction from `_slots(p, steps, slots)`.  size(a) is
    deg a + 1, 0 for zero.  Each step adds to the whole dividend, so an
    odd-p division is O(steps * len(dividend) * w/64).  A continued
    fraction of N terms takes O(N) steps in all, O(N^2 w/64); no benchmark
    workload divides a long dividend by a tiny divisor.
    """
    if p == 2:
        return 1, pack_bits, _divmod_packed, int.bit_length
    w, reduce = _slots(p, steps, slots)
    slot = (1 << w) - 1

    def size(x):
        return -(-x.bit_length() // w)

    def divmod_(num, den):
        top = size(den) - 1
        inv = pow(den >> top * w, -1, p)
        q = 0
        for j in range(size(num) - 1 - top, -1, -1):
            c = (num >> (top + j) * w & slot) * inv % p
            if c:
                q |= c << j * w
                num += (p - c) * den << j * w
        return q, reduce(num)

    return w, lambda values: pack_slots(values, w), divmod_, size


def poly_divmod(a: DensePoly, b: DensePoly):
    """Quotient and remainder with deg(remainder) < deg(divisor), on `_ring`."""
    _check_same_field(a, b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    field = a.field
    steps = len(a.coeffs) - len(b.coeffs) + 1
    if steps < 1:
        return DensePoly.zero(field), a
    w, pack, divmod_, _ = _ring(field.p, steps, len(a.coeffs))
    q, r = divmod_(pack(a.coeffs), pack(b.coeffs))
    return DensePoly(field, unpack_slots(q, w)), DensePoly(field, unpack_slots(r, w))


def poly_gcd(a: DensePoly, b: DensePoly) -> DensePoly:
    """Monic gcd (zero if both inputs are zero), by Euclid on `_ring`."""
    _check_same_field(a, b)
    # no division has more steps or slots than the longer input
    n = max(len(a.coeffs), len(b.coeffs))
    w, pack, divmod_, _ = _ring(a.field.p, n, n)
    x, y = pack(a.coeffs), pack(b.coeffs)
    while y:
        x, y = y, divmod_(x, y)[1]
    return DensePoly(a.field, unpack_slots(x, w)).monic()[1]


def _as_origin(origin) -> int:
    # an int subclass is stored as its int, as PrimeField.validate does for terms
    if not isinstance(origin, int) or origin not in (0, 1):
        raise ValueError(f"origin must be 0 or 1: {origin!r}")
    return int(origin)


class CoeffSeq(_Frozen):
    """Finite sequence prefix over F_p with index origin 0 or 1.

    ``seq[n]`` uses the absolute index: an origin-1 sequence of length N
    is defined for n in [1, N], an origin-0 one for n in [0, N-1].
    """

    __slots__ = ("field", "terms", "origin")

    def __init__(self, field: PrimeField, terms, origin: int):
        origin = _as_origin(origin)
        tt = field.validate(terms)
        if not tt:
            raise ValueError("empty sequence")
        self._set(field=field, terms=tt, origin=origin)

    def _key(self):
        return (self.field.p, self.origin, self.terms)

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, n: int) -> int:
        i = n - self.origin
        if not 0 <= i < len(self.terms):
            raise IndexError(f"index {n} outside [{self.origin}, {self.origin + len(self.terms) - 1}]")
        return self.terms[i]

    def shift_index(self, origin: int) -> "CoeffSeq":
        """Relabel the same stored terms with a different origin.

        The terms were validated when this sequence was built, so the new
        one shares the tuple without validating it again.
        """
        origin = _as_origin(origin)
        if origin == self.origin:
            return self
        out = object.__new__(CoeffSeq)
        out._set(field=self.field, terms=self.terms, origin=origin)
        return out

    def __repr__(self):
        head = ",".join(map(str, self.terms[:12]))
        tail = ",..." if len(self.terms) > 12 else ""
        return f"CoeffSeq(F{self.field.p}, origin={self.origin}, [{head}{tail}], len={len(self.terms)})"


# ---------------------------------------------------------------------------
# sequence file format
#
#   # field=<p> origin=<0|1> length=<N>
#   1 1 0 1 0 0 0 1
#
# Residues are whitespace separated; for p = 2 the compact form
# ``bits=11010001`` is also accepted, and is what the writer emits.


class SequenceFormatError(ValueError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


# re.ASCII: \d would otherwise take any Unicode decimal digit, as int() does
_HEADER_RE = re.compile(r"^#\s*field=(\d+)\s+origin=([01])\s+length=(\d+)\s*$", re.ASCII)
_NOT_A_BIT = re.compile(r"[^01]")
_RESIDUE = re.compile(r"-?[0-9]+")  # also a seed; int() would take "1_0", "+2" and non-ASCII digits


def loads_sequence(text: str) -> CoeffSeq:
    lines = text.splitlines()
    header_idx = None
    for i, ln in enumerate(lines):
        if ln.strip():
            header_idx = i
            break
    if header_idx is None:
        raise SequenceFormatError("empty input, expected a header line", 1, 1)
    m = _HEADER_RE.match(lines[header_idx].strip())
    if not m:
        raise SequenceFormatError(
            "malformed header, expected '# field=<p> origin=<0|1> length=<N>'",
            header_idx + 1,
            1,
        )
    try:
        field = PrimeField(int(m.group(1)))
    except ValueError as e:
        raise SequenceFormatError(str(e), header_idx + 1, 1) from None
    origin = int(m.group(2))
    length = int(m.group(3))
    if length < 1:
        raise SequenceFormatError("length must be >= 1", header_idx + 1, 1)

    terms = []
    last_line = header_idx + 1
    bits_line = None  # the bits= line is the whole of the data
    for i in range(header_idx + 1, len(lines)):
        ln = lines[i]
        if not ln.strip():
            continue
        start = len(ln) - len(ln.lstrip()) + 1  # column of the line's first character
        if bits_line is not None:
            raise SequenceFormatError(f"data after the bits= line {bits_line}", i + 1, start)
        last_line = i + 1
        stripped = ln.strip()
        if stripped.startswith("bits="):
            bits_line = i + 1
            if field.p != 2:
                raise SequenceFormatError(
                    "bits= form is only valid for field=2", i + 1, start
                )
            if terms:
                raise SequenceFormatError("bits= after residue data", i + 1, start)
            body = stripped[len("bits=") :]
            bad = _NOT_A_BIT.search(body)
            if bad:
                col = start + len("bits=") + bad.start()
                raise SequenceFormatError(f"bad bit {bad.group()!r}", i + 1, col)
            terms = list(body.encode().translate(_BIT_VALUES))  # b"0", b"1" -> 0, 1
            continue
        col = 0
        for tok in re.finditer(r"\S+", ln):
            col = tok.start() + 1
            word = tok.group()
            if not _RESIDUE.fullmatch(word):
                raise SequenceFormatError(f"bad residue {word!r}", i + 1, col)
            v = int(word)
            if not 0 <= v < field.p:
                raise SequenceFormatError(
                    f"residue {v} out of range for field={field.p}", i + 1, col
                )
            terms.append(v)
    if len(terms) != length:
        raise SequenceFormatError(
            f"expected {length} values, found {len(terms)}", last_line, 1
        )
    return CoeffSeq(field, terms, origin)


def dumps_sequence(seq: CoeffSeq) -> str:
    header = f"# field={seq.field.p} origin={seq.origin} length={len(seq)}"
    if seq.field.p == 2:
        return header + "\nbits=" + bit_string(seq.terms) + "\n"
    body = []
    for i in range(0, len(seq.terms), 32):
        body.append(" ".join(map(str, seq.terms[i : i + 32])))
    return header + "\n" + "\n".join(body) + "\n"


def read_sequence(path) -> CoeffSeq:
    with open(path, "r", encoding="ascii") as fh:
        return loads_sequence(fh.read())


def write_sequence(seq: CoeffSeq, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_sequence(seq))
