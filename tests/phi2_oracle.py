"""The per-index phi2 loop, the oracle for the sliced `phi2_selector`.

This is the generator as it was before it filled its list with slices:
one index at a time, each odd term read from the stream and each even
one the sum of an earlier term and a stream bit.
"""

from plcpkit.field import GF2, CoeffSeq
from plcpkit.seqgen import BitSource


def phi2_loop(b: BitSource, n: int) -> CoeffSeq:
    """a_0 = 1, a_{2n+1} = b_n, a_{2n+2} = a_n + b_n; origin 0."""
    if n < 1:
        raise ValueError("length must be >= 1")
    bb = b.take(n // 2)
    a = [0] * n
    a[0] = 1
    for i in range(1, n):
        m = (i - 1) // 2
        if i % 2 == 1:
            a[i] = bb[m]
        else:
            a[i] = (a[m] + bb[m]) % 2
    return CoeffSeq(GF2, a, origin=0)
