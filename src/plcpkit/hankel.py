"""Hankel determinants of sequence prefixes, modular and exact.

H_n is the determinant of the n x n matrix with entry (i, j) = c_{i+j},
built from an origin-0 prefix.

Every field reads H_1..H_m from one incremental elimination of the
rows of H_m.  Row k enters at step k and is reduced by the pivots kept
so far, in increasing order of pivot column; if anything is left it
becomes a pivot at its first nonzero column.  Adding multiples of
earlier rows to a later one changes no leading minor.  If the pivot
columns after row k-1 are exactly 0..k-1, the first k rows on the first
k columns are a row-permuted triangular matrix and H_k = sign(sigma_k)
times the product of the pivot entries, sigma_k mapping each row to its
pivot column; otherwise H_k = 0.  Once a row reduces to zero, the rows
so far are dependent and every later order is 0.

Over F2 the rows are packed ints and only the parity is kept
(`_f2_parities`, O(m^3/64) bit operations, its pivots grouped six at a
time by the method of Four Russians); `first_even_hankel_order` stops it
at the first even order.  For odd p (`_mod_p_values`) the pivot rows are
kept unscaled with the inverse of their leading entry, and the sign as a
running inversion count.  Each row is one int with a slot of w bits per
column, as in Kronecker substitution: a slot starts below p and grows by
at most (p-1)^2 per pivot, so w and the Barrett reduction of a new pivot
row come from `field._slots`, the layout of the odd-p division too.
Reducing a row by a pivot is one multiply-add of m*w-bit ints, and the
pass takes O(m^2) Python steps for orders 1..m.  Rows are cut once, in
`_minors`: it packs the prefix, a bit or a w-bit slot a term, cuts row k
from it at term k, and hands its layout, w and `reduce`, to
`_mod_p_values`.

The pass uses only the Hankel entries, so this route stays independent
of the profile, the recurrences and the continued fraction.  It is the
one route in the package; the tests check it against the eliminations
it replaced, kept in `tests/hankel_oracle.py`: a column-pivoted
elimination of each order on its own, which they check against a
Leibniz expansion, over F2 a per-order packed elimination and the
ungrouped pass, for odd p the pass on lists of residues, and for +-1
entries per-order Bareiss and the lift from one Mersenne prime.  The
exact integers of a +-1 prefix are the odd-p pass mod a few 127-bit
primes, joined by the Chinese remainder theorem (Garner, 1959) and
lifted to (-M/2, M/2), M their product: by Hadamard's bound
|H_k| <= k^(k/2), M^2 > 4 m^m makes every value, k <= m, exact.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass

from plcpkit.field import CoeffSeq, _slots, pack_bits, pack_slots

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


_GROUP = 6  # pivot columns per table, so a table has 64 rows
_FULL = (1 << _GROUP) - 1


def _group_table(pivots, g):
    """The 64 sums of the pivots with lowest bits g..g+5, indexed by those columns.

    The pivots are first reduced within the six columns, so pivot j has
    bit g+j and no other bit there.  The table is then built by doubling:
    pivot j appends the 2^j sums so far, each plus pivot j, so bit j of an
    index picks pivot j.
    """
    red = list(pivots)
    for j in range(_GROUP - 2, -1, -1):
        for t in range(j + 1, _GROUP):
            if red[j] >> (g + t) & 1:
                red[j] ^= red[t]
    table = [0]
    for piv in red:  # the sums so far, then each of them plus this pivot
        table += [t ^ piv for t in table]
    return tuple(table)


def _f2_parities(rows):
    """Yield the parities of the leading minors of packed F2 rows, in order.

    Bit j of a row is its column j; see the module docstring.  A row is
    reduced by steps (shift, mask, table) in increasing shift, each
    `row ^= table[row >> shift & mask]`.  A lone pivot with lowest bit c
    is the step (c, 1, (0, pivot)).  Once the pivot columns cover a group
    g..g+5 (g a multiple of `_GROUP`), in any order, its six steps
    become one step whose table holds all 64 sums of its pivots: the
    method of Four Russians (Arlazarov, Dinic, Kronrod and Faradzev).
    Only one sum of those pivots clears the six columns, so each reduced
    row is the one the pivot-by-pivot pass gives (`one_pass_parities` in
    the tests).  Still O(m^3/64) bit operations, in about m^2/12 Python
    steps instead of m^2/2; the m/6 tables hold 64 rows each.
    """
    rows = iter(rows)
    steps = []  # (shift, mask, table), sorted by shift
    cols = 0  # union of the pivots' lowest set bits
    for k, row in enumerate(rows):
        for shift, mask, table in steps:  # increasing: a step only sets bits above its own
            row ^= table[row >> shift & mask]
        if not row:  # rows 0..k are dependent: this and every later minor is 0
            yield 0
            yield from (0 for _ in rows)
            return
        low = row & -row
        cols |= low
        c = low.bit_length() - 1
        insort(steps, (c, 1, (0, row)))  # the shifts are distinct, so tables never compare
        g = c - c % _GROUP
        if cols >> g & _FULL == _FULL:
            at = bisect(steps, (g,))
            pivots = [t[1] for _, _, t in steps[at : at + _GROUP]]
            steps[at : at + _GROUP] = [(g, _FULL, _group_table(pivots, g))]
        yield 1 if cols == (2 << k) - 1 else 0


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
    """Yield H_1..H_m mod p of a prefix: its 2m - 1 terms packed once, row k cut at term k."""
    if p == 2:
        w, full = 1, pack_bits(terms[: 2 * m - 1])
    else:
        w, reduce = _slots(p, m, m)
        full = pack_slots(terms[: 2 * m - 1], w)
    mask = (1 << m * w) - 1
    rows = (full >> k * w & mask for k in range(m))
    return _f2_parities(rows) if p == 2 else _mod_p_values(rows, p, m, w, reduce)


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
