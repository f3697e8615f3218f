"""Series-inverse continued-fraction extraction, the oracle for `laurent_cf`,
with the truncated power-series inverse and derivative the oracles use.

This is the extraction `laurent_cf` used before it became Euclid's
algorithm on (t^N, P): strip the polynomial part of the remainder
series by inverting a whole truncated series per partial quotient
(O(N^3) coefficient operations over odd p).  It works over every prime
field, F2 included, where it reproduces the packed series-inverse
extraction that preceded the packed Euclid.  Over F2 the series
inverse runs on packed ints, which keeps the extraction at N = 4096 to
about 1.6 s.  The series inverse is also what `phi1_oracle.py` expands
the `DensePoly` Jacobi tower with.
"""

from plcpkit.cfrac import ContinuedFraction
from plcpkit.field import CoeffSeq, DensePoly, TruncSeries, pack_bits, unpack_bits


def _inv_packed(u, prec):
    # long division of 1 by u (constant term 1), mod x^prec
    r, e = 1, 0
    for i in range(prec):
        if r & 1:
            e |= 1 << i
            r ^= u
        r >>= 1
    return e


def series_inverse(f: TruncSeries) -> TruncSeries:
    """Multiplicative inverse mod x^precision; needs a unit constant term."""
    if f.precision == 0:
        raise ValueError("cannot invert a series with no known coefficients")
    if f.coeffs[0] == 0:
        raise ValueError("series has zero constant term, not invertible")
    if f.field.p == 2:
        inv = _inv_packed(pack_bits(f.coeffs), f.precision)
        coeffs = unpack_bits(inv, f.precision)
        return TruncSeries(f.field, coeffs, f.precision, f.direction)
    p = f.field.p
    f0i = f.field.inv(f.coeffs[0])
    inv = [f0i]
    for m in range(1, f.precision):
        s = 0
        for i in range(1, m + 1):
            fi = f.coeffs[i]
            if fi:
                s += fi * inv[m - i]
        inv.append((-f0i * s) % p)
    return TruncSeries(f.field, inv, f.precision, f.direction)


def series_derivative(f: TruncSeries) -> TruncSeries:
    """Formal derivative; one coefficient of precision is honestly lost."""
    if f.precision == 0:
        raise ValueError("cannot differentiate a series with no known coefficients")
    p = f.field.p
    out = [((i + 1) * c) % p for i, c in enumerate(f.coeffs[1:])]
    return TruncSeries(f.field, out, f.precision - 1, f.direction)


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
                guaranteed_count=len(monics),
                next_degree_bound=k + 1 if v is None else v,
            )
        prec = k - v + 1
        iu = series_inverse(TruncSeries(fld, r[v : v + prec], prec)).coeffs
        quotient = DensePoly(fld, [iu[v - j] for j in range(v + 1)])
        unit, monic = quotient.monic()
        monics.append(monic)
        units.append(unit)
        k -= 2 * v
        r = [0] + [iu[v + m] for m in range(1, k + 1)]
