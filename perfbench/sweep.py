"""Length sweep: the cost class of the profile, CF and Hankel layers.

Each layer runs on perfect-profile inputs (the worst case: the CF has
n/2 quotients and every Hankel order is eliminated to the end), doubling
the size until one call takes longer than CAP_S.  The exponent is the
least-squares slope of log time over log size on the last three points;
smaller sizes are dominated by fixed per-call costs.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from plcpkit import cfrac, field, hankel, lincomplex

CAP_S = 0.1
MAX_SIZE = 1 << 20


def perfect_bits(rng, n):
    """a_0 = 1, a_(2m+1) = b_m, a_(2m+2) = a_m + b_m: a perfect-profile prefix."""
    a = [1] * n
    for i in range(1, n):
        m = (i - 1) // 2
        b = rng.getrandbits(1) if i % 2 else a[i - 1]
        a[i] = b if i % 2 else a[m] ^ b
    return a


def _timed(call, arg):
    start = perf_counter()
    call(arg)
    return perf_counter() - start


def _points(make_arg, call, start):
    points, n = [], start
    while n <= MAX_SIZE:
        arg = make_arg(n)
        t = _timed(call, arg)
        if t <= CAP_S:
            t = min(t, _timed(call, arg))
        points.append((n, t))
        if t > CAP_S:
            break
        n *= 2
    return points


def slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run(seed):
    """{metric: exponent} and the measured (size, seconds) points per layer."""
    rng = random.Random(seed)
    gf2 = field.GF2

    def origin1(n):
        return field.CoeffSeq(gf2, perfect_bits(rng, n), origin=1)

    def hankel_input(m):
        return field.CoeffSeq(gf2, perfect_bits(rng, 2 * m - 1), origin=0), m

    layers = {
        "lincomplex.exponent": _points(origin1, lincomplex.lcp_profile, 1024),
        "cfrac.exponent": _points(origin1, cfrac.laurent_cf, 128),
        "hankel.exponent": _points(hankel_input, lambda a: hankel.hankel_mod_p(*a), 16),
    }
    return {name: slope(points[-3:]) for name, points in layers.items()}, layers
