"""Hankel determinants of sequence prefixes, modular and exact.

H_n is the determinant of the n x n matrix with entry (i, j) = c_{i+j},
built from an origin-0 prefix.

Over F2 every caller reads the parities from one incremental
elimination of the packed rows of H_m (`_f2_parities`): row k enters at
step k, is reduced by the pivots kept so far and, if anything is left,
becomes a pivot at its lowest set bit.  The first k rows projected onto
the first k columns have the rank of the pivots below column k, so H_k
is odd exactly when those pivots are the columns 0..k-1.  One pass thus
gives every order, odd or even, in O(m^3/64) bit operations;
`first_even_hankel_order` stops it at the first even one.  The pass
uses only the Hankel entries, so this route stays independent of the
profile, the recurrences and the continued fraction; the tests check it
against a per-order elimination and against pivot="col", which they
check against a Leibniz expansion.  For odd p each order is eliminated
on its own.  For +-1 integer matrices the fraction-free (Bareiss)
elimination gives exact integer values.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from plcpkit import _kernels
from plcpkit.field import CoeffSeq, PrimeField

__all__ = [
    "HankelReport",
    "first_even_hankel_order",
    "hankel_mod_p",
    "is_apwenian_hankel",
    "is_apwenian_recurrence",
    "hankel_integer_pm1",
    "ApwwResult",
    "apww_check",
]


@dataclass(frozen=True)
class HankelReport:
    """Determinants H_1..H_max_order; modulus None means exact integers."""

    modulus: int | None
    values: tuple
    max_order: int
    source_length: int

    def __post_init__(self):
        if len(self.values) != self.max_order:
            raise ValueError("values must cover orders 1..max_order")


def _det_mod_p(rows, field: PrimeField, pivot: str = "row") -> int:
    """Gaussian elimination determinant mod p.

    pivot="row" searches down the current column, pivot="col" searches
    along the current row (swapping columns); both must agree, which the
    tests use as a pivot-independence check.
    """
    p = field.p
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for step in range(n):
        if m[step][step] % p == 0:
            if pivot == "row":
                k = next((r for r in range(step + 1, n) if m[r][step] % p), None)
                if k is None:
                    return 0
                m[step], m[k] = m[k], m[step]
            else:
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


def _f2_parities(terms, m):
    """Yield the parities of H_1..H_m of a 0/1 prefix; see the module docstring."""
    full = _kernels.pack_bits(terms[: 2 * m - 1])
    mask = (1 << m) - 1
    pivots = []  # (lowest set bit, row), sorted by that bit
    cols = 0  # union of the pivots' lowest set bits
    for k in range(m):
        row = (full >> k) & mask
        for low, piv in pivots:  # increasing: a pivot only sets bits above its own
            if row & low:
                row ^= piv
        if row:
            low = row & -row
            insort(pivots, (low, row))
            cols |= low
        yield 1 if cols == (2 << k) - 1 else 0


def hankel_mod_p(c: CoeffSeq, max_order: int, pivot: str = "row") -> HankelReport:
    """H_1..H_max_order of an origin-0 prefix, reduced mod p.

    `pivot` selects how a zero pivot is replaced: "row" searches down
    the column (swapping rows), "col" searches along the row (swapping
    columns).  Over F2, "row" reads every order from the one incremental
    elimination of H_max_order; "col" always runs the generic per-order
    elimination, which the tests use as an oracle.
    """
    if pivot not in ("row", "col"):
        raise ValueError(f"unknown pivot strategy: {pivot!r}")
    if c.origin != 0:
        raise ValueError("expects an origin-0 sequence; use shift_index(0)")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if 2 * max_order - 1 > len(c):
        raise ValueError(
            f"insufficient terms: order {max_order} needs {2 * max_order - 1}, have {len(c)}"
        )
    if c.field.p == 2 and pivot == "row":
        values = tuple(_f2_parities(c.terms, max_order))
    else:
        t = c.terms
        values = tuple(
            _det_mod_p([t[i : i + n] for i in range(n)], c.field, pivot)
            for n in range(1, max_order + 1)
        )
    return HankelReport(
        modulus=c.field.p,
        values=values,
        max_order=max_order,
        source_length=len(c),
    )


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
    parities = _f2_parities(c.terms, (len(c) + 1) // 2)
    return next((n for n, odd in enumerate(parities, start=1) if not odd), None)


def is_apwenian_hankel(c: CoeffSeq) -> bool:
    """Every computable H_n (n <= (N+1)//2) is odd, via the determinants."""
    k = first_even_hankel_order(c)
    if c.terms[0] != 1:
        raise ValueError("requires leading term 1")
    return k is None


def is_apwenian_recurrence(c: CoeffSeq) -> bool:
    """Same predicate through the linear-time feedback relation."""
    from plcpkit.lincomplex import recurrence_check

    if c.origin != 0:
        raise ValueError("expects an origin-0 sequence; use shift_index(0)")
    return recurrence_check(c)


def _bareiss_det(rows) -> int:
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


def hankel_integer_pm1(entries, max_order: int) -> HankelReport:
    """Exact integer H_1..H_max_order for a +-1 entry list."""
    ee = list(entries)
    for e in ee:
        if e not in (1, -1):
            raise ValueError(f"entries must be +-1: {e!r}")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if 2 * max_order - 1 > len(ee):
        raise ValueError(
            f"insufficient terms: order {max_order} needs {2 * max_order - 1}, have {len(ee)}"
        )
    values = tuple(
        _bareiss_det([ee[i : i + n] for i in range(n)]) for n in range(1, max_order + 1)
    )
    return HankelReport(
        modulus=None, values=values, max_order=max_order, source_length=len(ee)
    )


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
    """H_n of ((-1)^(weight of n)) is 2^(n-1) times an odd integer."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    entries = [1 - 2 * (i.bit_count() & 1) for i in range(2 * max_order - 1)]
    report = hankel_integer_pm1(entries, max_order)
    quotients = []
    for n, h in enumerate(report.values, start=1):
        q, rem = divmod(h, 1 << (n - 1))
        if rem != 0 or q % 2 != 1:
            return ApwwResult(False, max_order, tuple(quotients), n)
        quotients.append(q)
    return ApwwResult(True, max_order, tuple(quotients), None)
