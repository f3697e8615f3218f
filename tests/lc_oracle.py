"""Linear complexity from the definition, and the mean of L(n) by enumeration.

These are the oracles for `lcp_profile` and `expected_lc`, kept apart
from the Berlekamp-Massey synthesis behind both:

- `lc_bruteforce(s, n)`: L(n) as the least k for which the first n
  terms satisfy some recurrence of length k, each k decided by
  Gaussian elimination of the linear system in its k unknown
  coefficients (`_has_recurrence`), over any F_p; it never sees an
  incremental state;
- `expected_lc_exhaustive(n)`: the mean of L(n) over all 2^n binary
  sequences, by running `lcp_profile` on each of them, the
  enumeration that the count law in `expected_lc` replaced.
"""

from fractions import Fraction

from plcpkit.field import GF2, CoeffSeq
from plcpkit.lincomplex import lcp_profile


def _has_recurrence(terms, k, field):
    # is there c_1..c_k with a(i+k) = sum_j c_j a(i+k-j) on the whole prefix?
    n = len(terms)
    if k == 0:
        return all(t == 0 for t in terms)
    if k >= n:
        return True
    p = field.p
    # solvability of the definitional linear system
    rows = []
    for i in range(n - k):
        rows.append([terms[i + k - j] % p for j in range(1, k + 1)] + [terms[i + k] % p])
    cols = k
    rank_row = 0
    for col in range(cols):
        piv = None
        for r in range(rank_row, len(rows)):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[rank_row], rows[piv] = rows[piv], rows[rank_row]
        inv = field.inv(rows[rank_row][col])
        rows[rank_row] = [(x * inv) % p for x in rows[rank_row]]
        for r in range(len(rows)):
            if r != rank_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank_row])]
        rank_row += 1
    # inconsistent iff some row is 0 ... 0 | nonzero
    for r in rows:
        if any(x % p for x in r[:cols]):
            continue
        if r[cols] % p:
            return False
    return True


def lc_bruteforce(s: CoeffSeq, n: int) -> int:
    """L(n) straight from the definition; independent of the profile code."""
    if s.origin != 1:
        raise ValueError("expects an origin-1 sequence; use shift_index(1)")
    if not 1 <= n <= len(s):
        raise ValueError(f"n must be in [1, {len(s)}]")
    if n > 24:
        raise ValueError("brute-force bound exceeded (n <= 24)")
    terms = list(s.terms[:n])
    for k in range(n + 1):
        if _has_recurrence(terms, k, s.field):
            return k
    raise AssertionError("unreachable: k = n always satisfies")


def expected_lc_exhaustive(n: int) -> Fraction:
    """Exact mean of L(n) over all 2^n binary sequences."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 16:
        raise ValueError("exhaustive bound exceeded (n <= 16)")
    total = 0
    for x in range(1 << n):
        bits = [(x >> i) & 1 for i in range(n)]
        total += lcp_profile(CoeffSeq(GF2, bits, origin=1)).values[-1]
    return Fraction(total, 1 << n)
