"""Series-inverse continued-fraction extraction and the `DensePoly` Euclid,
the oracles for `laurent_cf` and `rational_cf`, with the truncated
power-series inverse the oracles use, and the element-at-a-time
polynomial division, the oracle for `poly_divmod`, `poly_gcd` and
`series_prefix_of_fraction`.

This is the extraction `laurent_cf` used before it became Euclid's
algorithm on (t^N, P): strip the polynomial part of the remainder
series by inverting a whole truncated series per partial quotient
(O(N^3) coefficient operations over odd p).  It works over every prime
field, F2 included, where it reproduces the packed series-inverse
extraction that preceded the packed Euclid.  Over F2 the series
inverse runs on packed ints, which keeps the extraction at N = 4096 to
about 1.6 s.  The series inverse is also what `phi1_oracle.py` expands
the `DensePoly` Jacobi tower with.

`dense_divmod` is the polynomial division as `poly_divmod` ran it
before every division moved to the packed ring: it updates the
remainder one coefficient at a time.  `dense_gcd` is `poly_gcd`'s
Euclid on it, and `dense_series_prefix` is `series_prefix_of_fraction`
as a division of f t^n by g, the oracle for the recurrence that
replaced it.  `_euclid` on `dense_divmod` and `_size` is the Euclid
loop as it ran on `DensePoly` for odd p and for `rational_cf`, before
every field's continued fraction ran on packed ints: O(N^2) field
operations for a prefix of length N.  `dense_laurent_cf` and
`dense_rational_cf` build the `ContinuedFraction` from it as those
routes did, the integer part of `dense_rational_cf` by one
`dense_divmod` ahead of the loop.
"""

from plcpkit.cfrac import ContinuedFraction
from plcpkit.field import CoeffSeq, DensePoly, _check_same_field, pack_bits, unpack_bits


def _inv_packed(u, prec):
    # long division of 1 by u (constant term 1), mod x^prec
    r, e = 1, 0
    for i in range(prec):
        if r & 1:
            e |= 1 << i
            r ^= u
        r >>= 1
    return e


def series_inverse(field, coeffs) -> tuple:
    """Inverse of sum coeffs[i] x^i mod x^len(coeffs); needs a unit constant term."""
    n = len(coeffs)
    if n == 0:
        raise ValueError("cannot invert a series with no known coefficients")
    if coeffs[0] == 0:
        raise ValueError("series has zero constant term, not invertible")
    if field.p == 2:
        return tuple(unpack_bits(_inv_packed(pack_bits(coeffs), n), n))
    p = field.p
    f0i = field.inv(coeffs[0])
    inv = [f0i]
    for m in range(1, n):
        s = 0
        for i in range(1, m + 1):
            fi = coeffs[i]
            if fi:
                s += fi * inv[m - i]
        inv.append((-f0i * s) % p)
    return tuple(inv)


def series_inverse_cf(s: CoeffSeq) -> ContinuedFraction:
    """Continued fraction of sum s_n t^{-n} from an origin-1 prefix."""
    fld = s.field
    n = len(s.terms)
    # r[i] = coefficient of x^i (x = 1/t); known for 1 <= i <= k
    r = [0] + list(s.terms)
    k = n
    monics = []
    units = []
    while True:
        v = next((i for i in range(1, k + 1) if r[i]), None)
        if v is None or 2 * v > k:
            return ContinuedFraction(
                field=fld,
                integer_part=DensePoly.zero(fld),
                quotients=tuple(monics),
                units=tuple(units),
                next_degree_bound=k + 1 if v is None else v,
            )
        iu = series_inverse(fld, r[v : k + 1])
        quotient = DensePoly(fld, [iu[v - j] for j in range(v + 1)])
        unit, monic = quotient.monic()
        monics.append(monic)
        units.append(unit)
        k -= 2 * v
        r = [0] + [iu[v + m] for m in range(1, k + 1)]


def dense_divmod(a: DensePoly, b: DensePoly):
    """Quotient and remainder with deg(remainder) < deg(divisor)."""
    _check_same_field(a, b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    field = a.field
    p = field.p
    db = len(b.coeffs) - 1
    if len(a.coeffs) - 1 < db:
        return DensePoly.zero(field), a
    binv = field.inv(b.lc)
    rem = list(a.coeffs)
    quo = [0] * (len(rem) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = (rem[i + db] * binv) % p
        if c:
            quo[i] = c
            for j, bj in enumerate(b.coeffs):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return DensePoly(field, quo), DensePoly(field, rem[:db])


def dense_gcd(a: DensePoly, b: DensePoly) -> DensePoly:
    """Monic gcd (zero if both inputs are zero)."""
    _check_same_field(a, b)
    while not b.is_zero:
        a, b = b, dense_divmod(a, b)[1]
    return a.monic()[1]


def dense_series_prefix(f: DensePoly, g: DensePoly, n: int) -> CoeffSeq:
    """s_1..s_n of f/g, deg f < deg g, from the quotient of f t^n by g."""
    q, _ = dense_divmod(DensePoly(f.field, (0,) * n + f.coeffs), g)
    return CoeffSeq(f.field, [q.coefficient(n - m) for m in range(1, n + 1)], origin=1)


def _size(a: DensePoly) -> int:
    """Degree plus one, 0 for zero: the `DensePoly` twin of int.bit_length."""
    return len(a.coeffs)


def _euclid(num, den, n: int | None, divmod_, size):
    """Partial quotients of num/den, deg den < deg num, by the division
    algorithm, and the next-degree bound.

    The polynomials are `DensePoly` (divmod_ = `dense_divmod`, size =
    `_size`) or F2 polynomials packed as ints (`_divmod_packed`,
    int.bit_length); size(a) is deg a + 1.  With n None the expansion
    runs to its end and the bound is None; otherwise num/den stands for
    a series known modulo t^{-(n+1)} and the quotients stop at the
    cut-off in the `cfrac` module docstring.
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


def _monic_parts(quotients):
    """The leading units and the monic parts of `DensePoly` quotients."""
    parts = [q.monic() for q in quotients]
    return tuple(u for u, _ in parts), tuple(m for _, m in parts)


def dense_laurent_cf(s: CoeffSeq) -> ContinuedFraction:
    """`laurent_cf` by the `DensePoly` Euclid, over every prime field."""
    fld = s.field
    n = len(s.terms)
    quotients, bound = _euclid(
        DensePoly.monomial(fld, n), DensePoly(fld, s.terms[::-1]), n, dense_divmod, _size
    )
    units, monics = _monic_parts(quotients)
    return ContinuedFraction(fld, DensePoly.zero(fld), monics, units, bound)


def dense_rational_cf(f: DensePoly, g: DensePoly) -> ContinuedFraction:
    """`rational_cf` by the `DensePoly` Euclid."""
    a0, rem = dense_divmod(f, g)
    quotients, _ = _euclid(g, rem, None, dense_divmod, _size)
    units, monics = _monic_parts(quotients)
    return ContinuedFraction(f.field, a0, monics, units, None)
