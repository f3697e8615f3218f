"""Exact arithmetic over prime fields F_p.

Residues are plain ints in [0, p); the containers validate on
construction, so a value never leaves the range.  `DensePoly` stores
coefficients ascending by degree with no trailing zeros, and `CoeffSeq`
is a finite sequence prefix with an explicit index origin (0 or 1).
The F2 fast paths use ints as bit vectors; `pack_bits` and
`unpack_bits` convert between those and 0/1 lists.  The odd-p fast
paths put one residue in each w-bit slot of an int (`pack_slots`,
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


class PrimeField:
    """Prime field F_p, p < 2^16, with residues as plain ints."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p >= 1 << 16:
            raise ValueError(f"field modulus must be an int in [2, 2^16): {p!r}")
        if not _is_prime(p):
            raise ValueError(f"field modulus is not prime: {p}")
        self.p = p

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

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


GF2 = PrimeField(2)


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field!r} vs {b.field!r}")


class DensePoly:
    """Dense polynomial over F_p, coefficients ascending, canonical form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=()):
        cs = [c % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field, degree, coeff=1):
        if degree < 0:
            raise ValueError("negative degree")
        return cls(field, (0,) * degree + (coeff,))

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
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return DensePoly(self.field, out)

    def __neg__(self):
        p = self.field.p
        return DensePoly(self.field, [-c % p for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return DensePoly(self.field, [c * other for c in self.coeffs])
        _check_same_field(self, other)
        if self.is_zero or other.is_zero:
            return DensePoly.zero(self.field)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
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
        if u == 1:
            return 1, self
        ui = self.field.inv(u)
        return u, DensePoly(self.field, [c * ui for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def to_string(self, var="t"):
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
                parts.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DensePoly(F{self.field.p}, {self.to_string()})"


def pack_bits(bits) -> int:
    """A 0/1 list as an int, bit i = bits[i] (over F2, the coefficient of x^i)."""
    if not bits:
        return 0
    return int("".join("1" if b else "0" for b in reversed(bits)), 2)


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
    s = format(x & ((1 << n) - 1), f"0{n}b")
    return [1 if c == "1" else 0 for c in reversed(s)]


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


class CoeffSeq:
    """Finite sequence prefix over F_p with index origin 0 or 1.

    ``seq[n]`` uses the absolute index: an origin-1 sequence of length N
    is defined for n in [1, N], an origin-0 one for n in [0, N-1].
    """

    __slots__ = ("field", "terms", "origin")

    def __init__(self, field: PrimeField, terms, origin: int):
        if origin not in (0, 1):
            raise ValueError(f"origin must be 0 or 1: {origin!r}")
        tt = field.validate(terms)
        if not tt:
            raise ValueError("empty sequence")
        self.field = field
        self.terms = tt
        self.origin = origin

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
        if origin == self.origin:
            return self
        if origin not in (0, 1):
            raise ValueError(f"origin must be 0 or 1: {origin!r}")
        out = object.__new__(CoeffSeq)
        out.field, out.terms, out.origin = self.field, self.terms, origin
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CoeffSeq)
            and other.field == self.field
            and other.origin == self.origin
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field.p, self.origin, self.terms))

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


_HEADER_RE = re.compile(r"^#\s*field=(\d+)\s+origin=([01])\s+length=(\d+)\s*$")
_NOT_A_BIT = re.compile(r"[^01]")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


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
            try:
                v = int(word, 10)
            except ValueError:
                raise SequenceFormatError(
                    f"bad residue {word!r}", i + 1, col
                ) from None
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
        return header + "\nbits=" + "".join(map(str, seq.terms)) + "\n"
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
