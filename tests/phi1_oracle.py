"""The `DensePoly` Jacobi tower, the oracle for the packed `phi1_jacobi`.

This is the generator as it was before it moved to packed ints: the
tower is built with generic polynomial products, then num/den is
expanded with a truncated series inverse and a `DensePoly` product.
"""

from cf_oracle import series_inverse

from plcpkit.field import GF2, CoeffSeq, DensePoly
from plcpkit.seqgen import BitSource


def phi1_tower(b: BitSource, n: int) -> CoeffSeq:
    """Coefficients of 1/(1 + b_0 x + x^2/(1 + b_1 x + x^2/(...))), origin 0."""
    if n < 1:
        raise ValueError("length must be >= 1")
    depth = (n + 1) // 2 + 1
    stream = b.take(depth)
    num, den = DensePoly.zero(GF2), DensePoly.one(GF2)
    x2 = DensePoly(GF2, (0, 0, 1))
    for bj in reversed(stream):
        num, den = den, DensePoly(GF2, (1, bj)) * den + x2 * num
    inv = series_inverse(GF2, [den.coefficient(i) for i in range(n)])
    prod = DensePoly(GF2, inv) * num
    return CoeffSeq(GF2, [prod.coefficient(i) for i in range(n)], origin=0)
