"""Linear complexity profiles over F_p.

L(n) is the length of the shortest linear recurrence generating the
first n terms; the zero prefix has L = 0 and a sequence with no shorter
relation has L = n.  Profiles are produced lazily, one L(n) per term, by
one algorithm, Berlekamp-Massey: `BerlekampMassey` over any F_p, updating
its connection polynomial in place (one copy per length change, none
per discrepancy), and over F2 the same synthesis on packed ints
(`_f2_profile`).  `lcp_profile` reads every length;
`first_imperfect_length` stops at the first n with L(n) != ceil(n/2),
as `first_even_hankel_order` stops the Hankel elimination at its first
even order.  The tests check the synthesis against a direct search over
the definition (`tests/lc_oracle.py`), which never sees the incremental
state.  `expected_lc` gives the exact mean of L(n) over F2 from the
count law, not by running the profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from plcpkit.field import CoeffSeq, DensePoly, GF2, PrimeField

__all__ = [
    "LCProfile",
    "BerlekampMassey",
    "lcp_profile",
    "first_imperfect_length",
    "is_plcp",
    "recurrence_check",
    "expected_lc",
]


@dataclass(frozen=True)
class LCProfile:
    """Values L(1), ..., L(N); validated against the jump law on build."""

    field: PrimeField
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        prev = 0
        for i, l in enumerate(self.values):
            n = i + 1
            if not 0 <= l <= n:
                raise ValueError(f"L({n}) = {l} outside [0, {n}]")
            if l < prev:
                raise ValueError(f"profile decreases at n = {n}")
            if l != prev and l != n - prev:
                # a jump from L to a larger value must land on n - L
                raise ValueError(f"jump law violated at n = {n}: {prev} -> {l}")
            prev = l

    def __len__(self):
        return len(self.values)

    def value_at(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"profile covers n in [1, {len(self.values)}]")
        return self.values[n - 1]

    def __repr__(self):
        head = ",".join(map(str, self.values[:12]))
        tail = ",..." if len(self.values) > 12 else ""
        return f"LCProfile(F{self.field.p}, [{head}{tail}], len={len(self.values)})"


class BerlekampMassey:
    """Incremental shortest-LFSR synthesis over F_p.

    A nonzero discrepancy d subtracts d/bd * t^m * b from c in place (b
    the polynomial before the last length change, bd its discrepancy, m
    the steps since).  A length change keeps the old c as b and extends a
    copy of it to m + len(b) terms.  len(c) == L + 1 always: at a change
    m + len(b) = n + 2 - L, the new L + 1; otherwise 2L > n gives
    m + len(b) <= L + 1, so the update stays inside c.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self._c = [1]
        self._b = [1]
        self._l = 0
        self._m = 1
        self._bd = 1  # discrepancy at the last length change
        self._terms = []

    @property
    def length(self):
        return self._l

    def push(self, s: int) -> int:
        """Feed one term, return the updated complexity."""
        p = self.field.p
        a = self._terms
        n = len(a)
        a.append(s % p)
        c, l = self._c, self._l
        d = a[n]
        for i in range(1, l + 1):
            ci = c[i]
            if ci:
                d += ci * a[n - i]
        d %= p
        if d == 0:
            self._m += 1
            return l
        coef = d * pow(self._bd, -1, p) % p
        b, m = self._b, self._m
        if 2 * l <= n:
            self._b, self._bd, self._l, self._m = c, d, n + 1 - l, 1
            c = self._c = c + [0] * (m + len(b) - len(c))
        else:
            self._m = m + 1
        for i, x in enumerate(b, m):
            if x:
                c[i] = (c[i] - coef * x) % p
        return self._l

    def connection_polynomial(self) -> DensePoly:
        return DensePoly(self.field, self._c)


def _f2_profile(bits):
    """L(1), L(2), ... of a 0/1 sequence, yielded one n at a time:
    `BerlekampMassey` over F2 on packed ints."""
    c = 1  # connection polynomial, bit i = coeff of x^i, c(0) = 1
    b = 1  # previous connection polynomial
    l = 0
    m = 1  # steps since the last length change
    w = 0  # window, bit i = bits[n - i]
    for n, s in enumerate(bits):
        w = (w << 1) | (1 if s else 0)
        if (c & w).bit_count() & 1:
            if 2 * l <= n:
                c, b = c ^ (b << m), c
                l = n + 1 - l
                m = 1
            else:
                c ^= b << m
                m += 1
        else:
            m += 1
        yield l


def _lengths(s: CoeffSeq):
    """L(1), L(2), ... of an origin-1 sequence, one per term as it is read."""
    if s.origin != 1:
        raise ValueError("profile expects an origin-1 sequence; use shift_index(1)")
    if s.field.p == 2:
        return _f2_profile(s.terms)
    return map(BerlekampMassey(s.field).push, s.terms)


def lcp_profile(s: CoeffSeq) -> LCProfile:
    """Profile L(1..N) of an origin-1 sequence."""
    return LCProfile(s.field, tuple(_lengths(s)))


def first_imperfect_length(s: CoeffSeq) -> int | None:
    """Least n with L(n) != ceil(n/2), or None if the profile is perfect.

    This is the profile witness of an imperfect prefix; the failure is
    always at an odd n = 2k - 1, with k the first zero Hankel order.
    Berlekamp-Massey runs only until that n.  The lengths read before it
    are ceil(j/2), which obey `LCProfile`'s jump law; at the failure the
    lengths read are built into an `LCProfile`, so a length that breaks
    the law raises its `ValueError`.
    """
    for n, l in enumerate(_lengths(s), start=1):
        if l != (n + 1) // 2:
            LCProfile(s.field, [(j + 1) // 2 for j in range(1, n)] + [l])
            return n
    return None


def is_plcp(profile: LCProfile) -> bool:
    """True when L(n) = ceil(n/2) for every covered n."""
    return all(l == (i + 2) // 2 for i, l in enumerate(profile.values))


def recurrence_check(s: CoeffSeq) -> bool:
    """Feedback relation for binary sequences with a leading one.

    Origin 1 checks s(2n+1) = s(2n) + s(n) for n >= 1; origin 0 checks
    c(2n+2) = c(2n+1) + c(n) for n >= 0 — the same relation under the
    index shift c(n) = s(n+1).
    """
    if s.field.p != 2:
        raise ValueError("recurrence check is defined over F2")
    if s.terms[0] != 1:
        raise ValueError("requires leading term 1")
    # t[i] is s(i+1) at origin 1 and c(i) = s(i+1) at origin 0: one loop checks both
    t = s.terms
    n = 1
    while 2 * n + 1 <= len(t):
        if t[2 * n] != (t[2 * n - 1] + t[n - 1]) % 2:
            return False
        n += 1
    return True


def expected_lc(n: int) -> Fraction:
    """Exact mean of L(n) over all 2^n binary sequences, from the count law.

    One sequence (the zero one) has L(n) = 0, 2^(2L-1) have L(n) = L for
    1 <= L <= n/2 and 2^(2(n-L)) for n/2 < L <= n (Gustavson 1976), so
    the sum takes n steps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum(l << (2 * l - 1 if 2 * l <= n else 2 * (n - l)) for l in range(1, n + 1))
    return Fraction(total, 1 << n)
