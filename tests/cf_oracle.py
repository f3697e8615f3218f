"""Series-inverse continued-fraction extraction, the oracle for `laurent_cf`,
with the truncated power-series inverse the oracles use.

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
from plcpkit.field import CoeffSeq, DensePoly, pack_bits, unpack_bits


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
