"""Hankel determinants of sequence prefixes, modular and exact.

H_n is the determinant of the n x n matrix with entry (i, j) = c_{i+j},
built from an origin-0 prefix.

Every field reads H_1..H_m from one incremental elimination of the
rows of H_m.  Row k enters at step k and is reduced by the pivots kept
so far; if anything is left it becomes a pivot at its first nonzero
column.  Adding multiples of earlier rows to a later one changes no
leading minor.  If the pivot columns after row k-1 are exactly 0..k-1,
the first k rows on the first k columns are a row-permuted triangular
matrix and H_k = sign(sigma_k) times the product of the pivot entries,
sigma_k mapping each row to its pivot column; otherwise H_k = 0.  Once a
row reduces to zero, the rows so far are dependent and every later
order is 0.

Over F2 (`_f2_pass`) the rows are packed ints with column j at bit
m-1-j, and only the parity is kept.  It is the right-looking method of
Four Russians: a row is reduced by the pivots in no table yet, in row
order; once the six columns of a block hold pivots, the 64 sums of
those pivots are tabled and applied to every later row at once.  Each
pivot stays zero at the pivot columns of the pivots before it and of
the tables, so that order is sound.  O(m) Python steps plus about
m^2/12 row updates in list comprehensions for orders 1..m, and
O(m^3/64) bit operations; `first_even_hankel_order` stops it at the
first even order, before the first table cuts the rest of the rows.
For odd p (`_mod_p_values`) a row is reduced by the pivots in
increasing order of pivot column; they are kept unscaled with the
inverse of their leading entry, and the sign as a running inversion
count.  Each row is one int with a slot of w bits per column, as in
Kronecker substitution: a slot starts below p and grows by at most
(p-1)^2 per pivot, so w and the Barrett reduction of a new pivot row
come from `field._slots`, the layout of the odd-p division too.
Reducing a row by a pivot is one multiply-add of m*w-bit ints, and the
pass takes O(m^2) Python steps for orders 1..m.  Rows are cut in
`_minors`: it packs the prefix once, a bit or a w-bit slot a term, cuts
row k from it as it is read, and hands its layout, w and `reduce`, to
`_mod_p_values`.

The pass uses only the Hankel entries, so this route stays independent
of the profile, the recurrences and the continued fraction.  It is the
one route in the package; the tests check it against the eliminations
it replaced, kept in `tests/hankel_oracle.py`: a column-pivoted
elimination of each order on its own, which they check against a
Leibniz expansion, over F2 a per-order packed elimination, the
ungrouped pass and the left-looking grouped one, for odd p the pass on
lists of residues, and for +-1 entries per-order Bareiss and the lift
from one Mersenne prime.  The exact integers of a +-1 prefix are the
odd-p pass mod a few 127-bit primes, joined by the Chinese remainder
theorem (Garner, 1959) and lifted to (-M/2, M/2), M their product: by
Hadamard's bound |H_k| <= k^(k/2), M^2 > 4 m^m makes every value,
k <= m, exact.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import repeat

from plcpkit.field import CoeffSeq, _slots, bit_string, pack_slots

__all__ = [
    "HankelReport",
    "first_even_hankel_order",
    "hankel_mod_p",
    "is_apwenian_hankel",
    "hankel_integer_pm1",
    "ApwwResult",
    "apww_check",
]


@dataclass(frozen=True)
class HankelReport:
    """Determinants H_1..H_max_order; modulus None means exact integers."""

    modulus: int | None
    values: tuple

    @property
    def max_order(self) -> int:
        return len(self.values)


_BLOCK = 6  # pivot columns per Four-Russians table, so a table has 64 rows
_FULL = (1 << _BLOCK) - 1


def _f2_pass(rows, m: int):
    """Yield the parities of the leading minors of m packed F2 rows, in order.

    Column j of a row is its bit m-1-j, so the first nonzero column of a
    row is its top bit, and columns 6b..6b+5 are the bits lo..lo+5 of
    block b, lo = m - 6(b+1); the last m mod 6 columns are in no block.
    Row k is reduced by the pending pivots, those in no table yet, in row
    order, and what is left becomes a pending pivot at its top bit.  As
    soon as the six columns of a block all hold pivots, their 64 sums are
    tabled by those bits (the method of Four Russians: Arlazarov, Dinic,
    Kronrod and Faradzev, 1970), the table is applied to every later row
    and to the other pending pivots, and dropped: the right-looking form
    of M4RI (Albrecht, Bard and Hart, 2010).  Invariant: each pivot is
    zero at the pivot columns of every pivot before it and of every
    table, and every later row at those of every table; so the pending
    pivots reduce a row soundly in row order, one sum of a table's
    pivots clears its six columns, and each reduced row is the one the
    pivot-by-pivot pass gives.  A later row indexes a table by
    `row >> lo`, masked to six bits only while a block of lower columns
    is open.  Rows are cut lazily until the first table, so an early exit
    reads only the rows it needs.

    O(m) Python steps for orders 1..m (while every minor is odd, at most
    five pending pivots a row), m/6 table builds, and about m^2/12 row
    updates in one list comprehension per table; O(m^3/64) bit
    operations, on rows that shorten as their top blocks clear.
    """
    rows = iter(rows)
    pending = []  # (pivot bit, pivot) of the pivots in no table, in row order
    cols = want = 0  # the pivot bits; the bits of columns 0..k
    for k in range(m):
        row = next(rows)
        for bit, piv in pending:
            if row & bit:
                row ^= piv
        if not row:  # rows 0..k are dependent: this and every later minor is 0
            yield 0
            yield from repeat(0, m - 1 - k)
            return
        top = row.bit_length() - 1
        bit = 1 << top
        pending.append((bit, row))
        cols |= bit
        want |= 1 << m - 1 - k
        yield 1 if cols == want else 0
        lo = top - (top - m) % _BLOCK  # column m-1-top is in the block of bits lo..lo+5
        if lo < 0 or cols >> lo & _FULL != _FULL:
            continue
        table = [0]  # the sums of the pivots with bits lo..lo+j-1, indexed by those bits
        for bit, piv in sorted(pending):
            if 0 < bit >> lo <= _FULL:  # the next, with pivot bit lo+j: clear its bits below it
                piv ^= table[piv >> lo & len(table) - 1]
                table += [x ^ piv for x in table]
        if cols >> lo == (1 << m - lo) - 1:  # columns 0..6b+5 hold pivots: no later row has bits above
            rows = iter([r ^ table[r >> lo] for r in rows])
        else:
            rows = iter([r ^ table[r >> lo & _FULL] for r in rows])
        pending = [
            (bit, piv ^ table[piv >> lo & _FULL]) for bit, piv in pending if not 0 < bit >> lo <= _FULL
        ]


def _mod_p_values(rows, p: int, m: int, w: int, reduce):
    """Yield the leading minors mod the prime p of m x m packed rows, in order.

    See the module docstring.  Each row holds m residues in [0, p),
    column j in the w bits from j*w, w and `reduce` from the caller's `_slots`.
    A pivot row is kept from its pivot column on, reduced and unscaled,
    with the inverse of its leading entry: a row is reduced by it with
    f = slot * inverse mod p and (p - f) times the pivot row, so no slot
    grows by more than (p-1)^2 per pivot.  Slots are reduced mod p only
    where they are read: the new row's free columns, to find its pivot
    column, and its pivot row, in one `reduce`.  O(m^2) Python steps for
    orders 1..m, each on an m*w-bit int; mod the 127-bit primes of
    `hankel_integer_pm1`, w is about 260.
    """
    rows = iter(rows)
    pivots = []  # (slot of the pivot column, inverse of its entry, row), sorted by slot
    det = 1  # sign of the map row -> pivot column, times the leading entries
    slot = (1 << w) - 1
    free = list(range(0, m * w, w))  # the slots of the columns with no pivot
    for k, x in enumerate(rows):
        for s, inv, piv in pivots:  # increasing: a pivot row is zero below its slot
            f = (x >> s & slot) * inv % p
            if f:
                x += (p - f) * piv
        s = next((s for s in free if (x >> s & slot) % p), None)
        if s is None:  # rows 0..k are dependent: this and every later minor is 0
            yield 0
            yield from (0 for _ in rows)
            return
        free.remove(s)
        x = reduce(x >> s)
        lead = x & slot
        at = bisect(pivots, (s,))  # the slots are distinct, so rows never compare
        pivots.insert(at, (s, pow(lead, -1, p), x << s))
        if (len(pivots) - 1 - at) & 1:  # earlier rows with a later pivot column
            lead = p - lead
        det = det * lead % p
        yield det if pivots[-1][0] == k * w else 0


def _minors(terms, m: int, p: int):
    """Yield H_1..H_m mod p of a prefix: its 2m - 1 terms packed once, row k cut as it is read."""
    if p == 2:  # term t at bit 2m-2-t, so column j at bit m-1-j: row k is the m bits from m-1-k
        full, mask = int(bit_string(terms[: 2 * m - 1]), 2), (1 << m) - 1
        return _f2_pass((full >> s & mask for s in range(m - 1, -1, -1)), m)
    w, reduce = _slots(p, m, m)
    full, mask = pack_slots(terms[: 2 * m - 1], w), (1 << m * w) - 1
    return _mod_p_values((full >> k * w & mask for k in range(m)), p, m, w, reduce)


def _check_order(max_order: int, have: int):
    """Refuse an order below 1, or one that needs more than the `have` terms."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if 2 * max_order - 1 > have:
        raise ValueError(
            f"insufficient terms: order {max_order} needs {2 * max_order - 1}, have {have}"
        )


def hankel_mod_p(c: CoeffSeq, max_order: int) -> HankelReport:
    """H_1..H_max_order of an origin-0 prefix, reduced mod p.

    Every order comes from the one incremental elimination of the rows
    of H_max_order (see the module docstring): packed parities over F2,
    residues for odd p.
    """
    if c.origin != 0:
        raise ValueError("expects an origin-0 sequence; use shift_index(0)")
    _check_order(max_order, len(c))
    return HankelReport(modulus=c.field.p, values=tuple(_minors(c.terms, max_order, c.field.p)))


def first_even_hankel_order(c: CoeffSeq) -> int | None:
    """Least order n <= (N+1)//2 with H_n even, or None if all are odd.

    This is the Hankel witness of an imperfect profile: 2n-1 is the
    least length l at which the linear complexity of c_0..c_(l-1) is
    not ceil(l/2).  It runs the incremental elimination of H_m over F2,
    m = (N+1)//2, only until the first even order.
    """
    if c.field.p != 2:
        raise ValueError("Hankel parities are defined over F2")
    if c.origin != 0:
        raise ValueError("expects an origin-0 sequence; use shift_index(0)")
    parities = _minors(c.terms, (len(c) + 1) // 2, 2)
    return next((n for n, odd in enumerate(parities, start=1) if not odd), None)


def is_apwenian_hankel(c: CoeffSeq) -> bool:
    """Every computable H_n (n <= (N+1)//2) is odd, via the determinants."""
    # a wrong field or origin is refused first, by `first_even_hankel_order`
    if c.field.p == 2 and c.origin == 0 and c.terms[0] != 1:
        raise ValueError("requires leading term 1")
    return first_even_hankel_order(c) is None


_PROTH = []  # the primes of `_proth_primes` found so far, in order


def _proth_primes(count: int) -> list:
    """The first `count` primes N = k*2^64 + 1, k odd, counting down from k = 2^63 - 1.

    Each is in (2^126, 2^127).  a^((N-1)/2) = -1 mod N for one of six
    bases a proves N prime, as k < 2^64 (Proth, 1878); a prime at which
    all six are squares is skipped.  A base-2 Fermat test first rejects
    most composites.  Found once per process.
    """
    k = (_PROTH[-1] >> 64) - 2 if _PROTH else (1 << 63) - 1
    while len(_PROTH) < count:
        n = k << 64 | 1
        if pow(2, n - 1, n) == 1 and any(pow(a, n >> 1, n) == n - 1 for a in (3, 5, 7, 11, 13, 17)):
            _PROTH.append(n)
        k -= 2
    return _PROTH[:count]


def hankel_integer_pm1(entries, max_order: int) -> HankelReport:
    """Exact integer H_1..H_max_order for a +-1 entry list.

    The odd-p pass of `_minors` on the first 2m - 1 entries mod each of
    the first c = ceil(bit_length(4 m^m) / 252) primes of `_proth_primes`
    (1 for m <= 45, 2 to 79, 4 at 128, 9 at 256), joined by Garner's CRT
    step and lifted (see the module docstring).  A pass keeps m rows of m
    slots of about 260 bits and costs O(m^3) word operations; c grows as
    m log(m), so the whole is O(m^4 log m) time in O(m^2) words, with no
    order limit.  m = 64, 128, 256 took 0.016 s / 0.18 MiB, 0.17 s /
    0.64 MiB, 2.2 s / 2.4 MiB on Thue-Morse (Python 3.11.7, one core).
    """
    ee = list(entries)
    for e in ee:
        if e not in (1, -1):
            raise ValueError(f"entries must be +-1: {e!r}")
    _check_order(max_order, len(ee))
    m, values, modulus = max_order, [0] * max_order, 1
    for p in _proth_primes(-(-(4 * m**m).bit_length() // 252)):  # M^2 > 2^(252c) > 4 m^m
        minors = _minors([int(e) % p for e in ee[: 2 * m - 1]], m, p)
        inv = pow(modulus, -1, p)
        values = [v + modulus * ((h - v) * inv % p) for v, h in zip(values, minors)]
        modulus *= p
    values = tuple(v - modulus if 2 * v > modulus else v for v in values)
    return HankelReport(modulus=None, values=values)


@dataclass(frozen=True)
class ApwwResult:
    """Outcome of the scaled-parity check on +-1 Thue-Morse determinants."""

    ok: bool
    max_order: int
    quotients: tuple  # H_n / 2^(n-1), one per order
    first_failure: int | None

    def __bool__(self):
        return self.ok


def apww_check(max_order: int) -> ApwwResult:
    """H_n of ((-1)^(weight of n)) is 2^(n-1) times an odd integer (`hankel_integer_pm1`)."""
    entries = [1 - 2 * (i.bit_count() & 1) for i in range(2 * max_order - 1)]
    report = hankel_integer_pm1(entries, max_order)
    quotients = []
    for n, h in enumerate(report.values, start=1):
        q, rem = divmod(h, 1 << (n - 1))
        if rem != 0 or q % 2 != 1:
            return ApwwResult(False, max_order, tuple(quotients), n)
        quotients.append(q)
    return ApwwResult(True, max_order, tuple(quotients), None)
