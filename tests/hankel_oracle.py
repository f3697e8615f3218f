"""Per-order Hankel determinants, the oracles for the incremental elimination.

These are the routes `hankel_mod_p` took before one incremental
elimination replaced them.  Each order n is its own elimination of H_n,
so no order depends on the pivots of another:

- `order_parity` / `hankel_parities`: a row-pivoted elimination of the
  packed F2 matrix, O(m^4/64) bit operations for orders 1..m;
- `det_mod_p` / `hankel_by_columns`: Gaussian elimination with column
  pivoting over any F_p, O(m^4) field operations, which the tests check
  against a Leibniz expansion;
- `bareiss_det` / `bareiss_values`: fraction-free (Bareiss) elimination
  of integer matrices, O(m^4) exact operations, the route
  `hankel_integer_pm1` took for +-1 entries before the pass mod a
  Mersenne prime replaced it.

`lifted_pm1_values` is the route `hankel_integer_pm1` took next, before
the pass mod several 127-bit primes joined by the Chinese remainder
theorem replaced it: the incremental odd-p pass `_minors` run once mod
the least Mersenne prime P = 2^e - 1 of a table (`_lift_modulus`) with
P^2 > 4 m^m, each value lifted to (-P/2, P/2).  Its slots are about 2e
bits wide, so its cost jumps wherever e does, and the table ends at
m = 6970.

`one_pass_parities` is the one incremental F2 elimination as it stood
before its pivots were grouped into Four-Russians tables: it reduces a
row by one pivot at a time, O(m^2/2) Python steps for orders 1..m.

`_f2_parities` is the F2 pass as it stood before it was made
right-looking: it keeps every Four-Russians table (`_group_table`) and
reduces each row by all of them in turn, left-looking, about m^2/12
Python steps for orders 1..m, with bit j of a row its column j.

`list_mod_p_values` is the one incremental odd-p elimination as it stood
before its rows were packed into integer slots: it keeps each row as a
list of residues and reduces it one element at a time, O(m^3) field
operations for orders 1..m.
"""

from bisect import bisect, insort

from plcpkit.field import CoeffSeq, PrimeField, pack_bits
from plcpkit.hankel import _minors


def order_parity(bits, n):
    """Parity of the order-n Hankel determinant, entry (i, j) = bits[i + j]."""
    mask = (1 << n) - 1
    full = pack_bits(bits[: 2 * n - 1])
    rows = [(full >> i) & mask for i in range(n)]
    for col in range(n):
        pos = 1 << col
        piv = -1
        for r in range(col, n):
            if rows[r] & pos:
                piv = r
                break
        if piv < 0:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
        pr = rows[col]
        for r in range(col + 1, n):
            if rows[r] & pos:
                rows[r] ^= pr
    return 1


def hankel_parities(bits, m):
    """Parities of the order 1..m Hankel determinants of a 0/1 list.

    The order-n matrix has entry (i, j) = bits[i + j]; each order is
    eliminated independently mod 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if 2 * m - 1 > len(bits):
        raise ValueError(f"need 2*{m}-1 terms, have {len(bits)}")
    return [order_parity(bits, n) for n in range(1, m + 1)]


def one_pass_parities(rows):
    """Yield the parities of the leading minors of packed F2 rows, in order.

    Bit j of a row is its column j.  Row k is reduced by the pivots kept
    so far in increasing order of lowest set bit, one at a time, and
    then kept as a pivot; the order-(k+1) minor is odd exactly when the
    pivots' lowest bits are columns 0..k.
    """
    rows = iter(rows)
    pivots = []  # (lowest set bit, row), sorted by that bit
    cols = 0  # union of the pivots' lowest set bits
    for k, row in enumerate(rows):
        for low, piv in pivots:  # increasing: a pivot only sets bits above its own
            if row & low:
                row ^= piv
        if not row:  # rows 0..k are dependent: this and every later minor is 0
            yield 0
            yield from (0 for _ in rows)
            return
        low = row & -row
        insort(pivots, (low, row))
        cols |= low
        yield 1 if cols == (2 << k) - 1 else 0


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


def list_mod_p_values(rows, p: int):
    """Yield the leading minors mod the prime p of residue rows, in order.

    See the module docstring.  A pivot row is kept from its pivot column
    on, scaled to a leading 1, so a reduction needs no inverse; its
    original leading entry goes into the running product.  It is exact
    mod any prime, the 127-bit primes of `hankel_integer_pm1` and the
    Mersenne primes of `lifted_pm1_values` included.
    """
    rows = iter(rows)
    pivots = []  # (pivot column, scaled row from that column on), sorted by column
    det = 1  # sign of the map row -> pivot column, times the leading entries
    for k, row in enumerate(rows):
        row = list(row)
        for col, piv in pivots:  # increasing: a pivot row is zero left of its column
            f = row[col]
            if f:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], piv)]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is None:  # rows 0..k are dependent: this and every later minor is 0
            yield 0
            yield from (0 for _ in rows)
            return
        lead = row[col]
        inv = pow(lead, -1, p)
        at = bisect(pivots, (col,))  # the columns are distinct, so rows never compare
        pivots.insert(at, (col, [a * inv % p for a in row[col:]]))
        if (len(pivots) - 1 - at) & 1:  # earlier rows with a later pivot column
            lead = p - lead
        det = det * lead % p
        yield det if pivots[-1][0] == k else 0


def det_mod_p(rows, field: PrimeField) -> int:
    """Determinant mod p by Gaussian elimination with column pivoting.

    Each call eliminates one matrix on its own: a zero pivot is replaced
    by searching along the current row and swapping columns.
    """
    p = field.p
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for step in range(n):
        if m[step][step] % p == 0:
            k = next((c for c in range(step + 1, n) if m[step][c] % p), None)
            if k is None:
                return 0
            for r in range(n):
                m[r][step], m[r][k] = m[r][k], m[r][step]
            det = -det
        piv = m[step][step] % p
        det = (det * piv) % p
        inv = field.inv(piv)
        for r in range(step + 1, n):
            f = (m[r][step] * inv) % p
            if f:
                for c in range(step, n):
                    m[r][c] = (m[r][c] - f * m[step][c]) % p
    return det % p


def hankel_by_columns(c: CoeffSeq, max_order: int) -> tuple:
    """H_1..H_max_order of an origin-0 prefix mod p, each order by `det_mod_p`."""
    t = c.terms
    return tuple(
        det_mod_p([t[i : i + n] for i in range(n)], c.field) for n in range(1, max_order + 1)
    )


def bareiss_det(rows) -> int:
    """Fraction-free elimination; exact integer determinant."""
    n = len(rows)
    m = [[int(x) for x in r] for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def bareiss_values(entries, m) -> tuple:
    """Exact H_1..H_m of an integer entry list, each order by `bareiss_det`."""
    return tuple(bareiss_det([entries[i : i + n] for i in range(n)]) for n in range(1, m + 1))


# the exponents e of the Mersenne primes 2^e - 1 that exact +-1 values are lifted from
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
                       9689, 9941, 11213, 19937, 21701, 23209, 44497)


def _lift_modulus(m: int) -> int | None:
    """The least P = 2^e - 1 of the table with P^2 > 4 m^m, or None past it."""
    if m * (m.bit_length() - 1) >= 2 * _MERSENNE_EXPONENTS[-1]:
        return None  # m^m >= 2^(m (bit_length - 1)) is past every P^2: skip the power
    bound = 4 * m**m
    return next((p for e in _MERSENNE_EXPONENTS if (p := (1 << e) - 1) ** 2 > bound), None)


def lifted_pm1_values(entries, m) -> tuple:
    """Exact H_1..H_m of a +-1 entry list, lifted from the pass mod `_lift_modulus(m)`."""
    p = _lift_modulus(m)
    if p is None:
        raise ValueError(f"m must be <= 6970 for the lift, got {m}")
    residues = [int(x) % p for x in entries[: 2 * m - 1]]
    return tuple(v - p if 2 * v > p else v for v in _minors(residues, m, p))
