"""Series-inverse continued-fraction extraction, the oracle for `laurent_cf`.

This is the extraction `laurent_cf` used before it became Euclid's
algorithm on (t^N, P): strip the polynomial part of the remainder
series by inverting a whole truncated series per partial quotient
(O(N^3) coefficient operations over odd p).  It works over every prime
field, F2 included, where it reproduces the packed series-inverse
extraction that preceded the packed Euclid.
"""

from plcpkit.cfrac import ContinuedFraction
from plcpkit.field import CoeffSeq, DensePoly, TruncSeries, series_inverse


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
