"""Continued fractions of formal Laurent series and of rational functions.

A sequence prefix s_1..s_N determines the series S = sum s_n t^{-n}
modulo t^{-(N+1)}, and so does the rational P/t^N with
P = sum s_n t^{N-n}.  Partial quotients are those of Euclid's algorithm
on (t^N, P), the division algorithm that also expands exact fractions:
`rational_cf` is one Euclid on (f, g), whose first quotient is the
integer part (0 when deg f < deg g).  Euclid on (t^N, P) is
Berlekamp-Massey in another guise (Dornstetter 1987).  With D the sum
of the degrees kept so far and d the degree of the next quotient, the
next convergent's error has order t^{-(2D+d)}.  So a quotient is
recorded as *guaranteed* only while 2(D + d) <= N, which is exactly the
range the input pins down.  At the cut-off the next quotient has
degree d if 2D + d <= N and at least N - 2D + 1 otherwise, as it does
when the remainder vanishes: in both cases `next_degree_bound` is
min(d, N - 2D + 1).  One Euclid loop, `_euclid`, does this for every
field and for the exact expansion of `rational_cf`, on polynomials
packed into ints by `field._ring`: one bit per coefficient over F2, and
for odd p one w-bit slot per coefficient, as in Kronecker substitution.
An odd-p division adds (p - c) times the shifted divisor for each
quotient coefficient c, so a slot grows by at most (p-1)^2 a step.  A
kept quotient has degree at most N/2, so a division takes at most
S = N//2 + 1 steps (in `rational_cf`, at most the larger of
deg f + 1 and deg g + 1).  `field._slots` sizes w for S steps and
gives the slot-wise Barrett reduction (CRYPTO '86) that puts every slot
back in [0, p) after each division, in two multiplies, so the
remainder can be read again.  One builder, `_fraction`, makes every
`ContinuedFraction`: monic quotients with their units (over F2 all 1),
one `DensePoly` per distinct packed quotient, shared by every place it
occurs (over F2 nearly all are t or t + 1).  `_split` makes that
`DensePoly` and its unit once per process, not once per expansion: a
table of at most 1,024 entries (`functools.lru_cache`), keyed by field,
slot width and packed quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import mul

from plcpkit.field import CoeffSeq, DensePoly, PrimeField, _ring, unpack_slots
from plcpkit.lincomplex import LCProfile

__all__ = [
    "ContinuedFraction",
    "ConvergentPair",
    "laurent_cf",
    "rational_cf",
    "convergents",
    "profile_from_cf",
    "has_flat_expansion",
    "orthogonal_multiplicity",
    "series_prefix_of_fraction",
]


@dataclass(frozen=True)
class ContinuedFraction:
    """[a_0; a_1, a_2, ...] with monic partial quotients and their units.

    The actual j-th quotient is units[j-1] * quotients[j-1]; over F2 all
    units are 1.  Every stored quotient is certified by the input
    precision; `next_degree_bound` is a lower bound on the degree of the
    next (unseen) quotient, or None when the expansion terminated
    exactly (rational input).
    """

    field: PrimeField
    integer_part: DensePoly
    quotients: tuple
    units: tuple
    next_degree_bound: int | None

    def __post_init__(self):
        if len(self.quotients) != len(self.units):
            raise ValueError("quotients and units must align")
        for q in self.quotients:
            if len(q.coeffs) < 2:
                raise ValueError("partial quotients must have degree >= 1")
            if q.coeffs[-1] != 1:
                raise ValueError("stored quotients must be monic")
        for u in set(self.units):
            if not 1 <= u < self.field.p:
                raise ValueError("units must be nonzero residues")
        if self.next_degree_bound is not None and self.next_degree_bound < 1:
            raise ValueError("next_degree_bound must be >= 1")

    def partial_quotient(self, j: int) -> DensePoly:
        """The actual a_j (unit times monic), j >= 1."""
        if not 1 <= j <= len(self.quotients):
            raise IndexError(f"have quotients a_1..a_{len(self.quotients)}")
        return self.units[j - 1] * self.quotients[j - 1]

    def degrees(self) -> tuple:
        return tuple(len(q.coeffs) - 1 for q in self.quotients)

    def __len__(self):
        return len(self.quotients)

    @property
    def guaranteed_count(self) -> int:
        """The number of quotients the input certifies: all of them."""
        return len(self.quotients)


@dataclass(frozen=True)
class ConvergentPair:
    index: int
    p: DensePoly
    q: DensePoly


def _euclid(num, den, n: int | None, divmod_, size):
    """Partial quotients of num/den, den != 0, by the division algorithm,
    and the next-degree bound.

    The polynomials are ints packed by `_ring`, with its divmod_ and
    size; size(a) is deg a + 1.  The first division may have
    deg num < deg den (quotient 0), as for a proper f/g in `rational_cf`.
    For odd p a division of d + 1 steps grows a slot by at most
    (d+1)(p-1)^2, and `_ring` sizes the slots for the longest division
    the caller allows, so no slot carries into the next.  With n None the
    expansion runs to its end and the bound is None; otherwise num/den
    stands for a series known modulo t^{-(n+1)} and the quotients stop at
    the cut-off in the module docstring.
    """
    quotients = []
    total = 0  # sum of the kept degrees
    while den:
        d = size(num) - size(den)
        if n is not None and 2 * (total + d) > n:
            return quotients, min(d, n - 2 * total + 1)
        q, rem = divmod_(num, den)
        quotients.append(q)
        total += d
        num, den = den, rem
    return quotients, None if n is None else n - 2 * total + 1


@lru_cache(maxsize=1024)
def _split(field: PrimeField, w: int, q: int):
    """(unit, monic) of the quotient packed as q in w-bit slots over field.

    One bounded table per process, shared by every expansion: sharing is
    safe because a `DensePoly` and its field are immutable.  The key holds
    the field and w, so equal ints of two fields or widths stay apart.
    """
    return DensePoly(field, unpack_slots(q, w)).monic()


def _fraction(field: PrimeField, w: int, integer_part, packed, bound) -> ContinuedFraction:
    """The `ContinuedFraction` of a packed integer part and packed quotients,
    each distinct quotient split once by `_split`."""
    units, monics = {}, {}
    for q in set(packed):
        units[q], monics[q] = _split(field, w, q)
    return ContinuedFraction(
        field=field,
        integer_part=DensePoly(field, unpack_slots(integer_part, w)),
        quotients=tuple(map(monics.__getitem__, packed)),
        units=tuple(map(units.__getitem__, packed)),
        next_degree_bound=bound,
    )


def laurent_cf(s: CoeffSeq) -> ContinuedFraction:
    """Continued fraction of sum s_n t^{-n} from an origin-1 prefix."""
    if s.origin != 1:
        raise ValueError("expects an origin-1 sequence; use shift_index(1)")
    n = len(s.terms)
    # a kept quotient has degree at most n/2: at most n//2 + 1 division steps
    w, pack, divmod_, size = _ring(s.field.p, n // 2 + 1, n + 1)
    packed, bound = _euclid(1 << n * w, pack(s.terms[::-1]), n, divmod_, size)
    return _fraction(s.field, w, 0, packed, bound)


def rational_cf(f: DensePoly, g: DensePoly) -> ContinuedFraction:
    """Exact continued fraction of f/g by the division algorithm."""
    if f.field != g.field:
        raise ValueError("mixed fields")
    if g.is_zero:
        raise ZeroDivisionError("zero denominator")
    # no division has more steps or slots than the longer input
    n = max(len(f.coeffs), len(g.coeffs))
    w, pack, divmod_, size = _ring(f.field.p, n, n)
    packed, _ = _euclid(pack(f.coeffs), pack(g.coeffs), None, divmod_, size)
    return _fraction(f.field, w, packed[0], packed[1:], None)  # packed[0]: the integer part


def convergents(cf: ContinuedFraction, j_max: int | None = None) -> list:
    """Convergent pairs (P_j, Q_j) for j = 0..j_max via the three-term rule."""
    if j_max is None:
        j_max = len(cf.quotients)
    if not 0 <= j_max <= len(cf.quotients):
        raise ValueError(f"j_max must be in [0, {len(cf.quotients)}]")
    fld = cf.field
    p_prev, q_prev = DensePoly.one(fld), DensePoly.zero(fld)
    p_cur, q_cur = cf.integer_part, DensePoly.one(fld)
    out = [ConvergentPair(0, p_cur, q_cur)]
    for j in range(1, j_max + 1):
        a = cf.partial_quotient(j)
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        out.append(ConvergentPair(j, p_cur, q_cur))
    return out


def profile_from_cf(cf: ContinuedFraction, n_max: int) -> LCProfile:
    """Linear complexity profile determined by the partial quotient degrees.

    L(n) equals the accumulated denominator degree D_j on the block
    D_{j-1} + D_j <= n < D_j + D_{j+1}.  The result is clipped to the
    range the quotients and `next_degree_bound` pin down, never padded.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    degs = cf.degrees()
    cum = [0]
    for d in degs:
        cum.append(cum[-1] + d)
    g = len(degs)
    if cf.next_degree_bound is None:
        next_cum = None  # expansion terminated: the last block extends forever
    else:
        next_cum = cum[g] + cf.next_degree_bound
    covered = n_max if next_cum is None else min(n_max, cum[g] + next_cum - 1)
    values = []
    j = 0
    for n in range(1, covered + 1):
        while j < g and n >= cum[j] + cum[j + 1]:
            j += 1
        values.append(cum[j])
    return LCProfile(cf.field, tuple(values))


def has_flat_expansion(cf: ContinuedFraction, n: int) -> bool:
    """All partial quotients of degree 1, as far as n terms can certify.

    The finite stand-in for "infinite expansion, every quotient linear":
    the extraction must have run to its precision limit (floor(n/2)
    guaranteed quotients — no early termination, which would signal a
    rational series), every guaranteed quotient must have degree exactly
    1, and the data must not already force the next quotient to be
    larger (next_degree_bound 1).  The last clause only bites for odd n,
    where half a term of evidence about quotient n//2 + 1 exists.
    """
    if len(cf.quotients) != n // 2:
        return False
    if cf.next_degree_bound != 1:
        return False
    return all(d == 1 for d in cf.degrees())


_PROBE = 32  # head length of the probe in `_flat_face`


def _flat_face(s: CoeffSeq) -> bool:
    """`has_flat_expansion(laurent_cf(s), len(s))`, answered from the first
    `_PROBE` terms when they already fail.

    Flatness is hereditary.  The quotients a head of M terms keeps are the
    first quotients of every extension, and its `next_degree_bound` is a
    lower bound on the degree of the extension's next quotient.  A head
    that is not flat keeps a quotient of degree >= 2, or keeps D < M/2
    linear ones and bounds the next by 2 or more (the cut-off in the
    module docstring).  Either way every extension keeps that quotient or
    stops before it with fewer than half its length in quotients, so no
    extension is flat.  A flat head decides nothing, and the whole prefix
    is expanded as if there were no probe.
    """
    n = len(s.terms)
    if n > _PROBE:
        head = CoeffSeq(s.field, s.terms[:_PROBE], s.origin)
        if not has_flat_expansion(laurent_cf(head), _PROBE):
            return False
    return has_flat_expansion(laurent_cf(s), n)


def series_prefix_of_fraction(f: DensePoly, g: DensePoly, n: int) -> CoeffSeq:
    """First n Laurent tail coefficients s_1..s_n of f/g (deg f < deg g),
    from the recurrence of g: O(n deg g) field operations, no division."""
    if g.is_zero:
        raise ZeroDivisionError("zero denominator")
    if not f.degree < g.degree:
        raise ValueError("needs deg f < deg g")
    if n < 1:
        raise ValueError("n must be >= 1")
    # f = g * sum s_k t^{-k}: the coefficient of t^{d-k} gives
    # s_k = (f_{d-k} - sum_{i<d} g_i s_{k-d+i}) / g_d, with s_j = 0 for j <= 0
    p, gc = f.field.p, g.coeffs
    d = len(gc) - 1
    inv = pow(gc[d], -1, p)
    s = [0] * d  # s_{1-d}..s_0, then s_k at index k + d - 1
    for k in range(1, n + 1):
        s.append((f.coefficient(d - k) - sum(map(mul, gc, s[k - 1 :]))) * inv % p)
    return CoeffSeq(f.field, s[d:], origin=1)


def orthogonal_multiplicity(g: DensePoly) -> int:
    """Number of f, deg f < deg g, coprime to g, whose f/g expansion has
    all partial quotients of degree 1."""
    fld = g.field
    d = g.degree
    if g.is_zero or d < 1:
        raise ValueError("g must have degree >= 1")
    if g.lc != 1:
        raise ValueError("g must be monic")
    if fld.p ** d > 1 << 14:
        raise ValueError("exhaustive bound exceeded (p^deg g <= 2^14)")
    # f/g is proper, so its quotients are Euclid's on (g, f), as in
    # `rational_cf`: one ring and one packed g serve every f.  The quotient
    # degrees add up to deg g - deg gcd(f, g), so f is coprime to g with
    # every quotient linear exactly when there are d quotients of size 2;
    # f = 0 gives no quotient, so it is not counted
    _, pack, divmod_, size = _ring(fld.p, d + 1, d + 1)
    packed_g = pack(g.coeffs)
    count = 0
    for f in product(range(fld.p), repeat=d):
        quotients, _ = _euclid(packed_g, pack(f), None, divmod_, size)
        if len(quotients) == d and all(size(q) == 2 for q in quotients):
            count += 1
    return count
