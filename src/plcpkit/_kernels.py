"""F2 hot-path kernels in pure Python, using ints as bit vectors.

Bit i of a packed int is the coefficient of x^i (equivalently the
sequence term of index i).  `backend_name()` names this implementation;
`verify` reports and benchmark records carry it.
"""


def backend_name():
    return "pure-python"


def pack_bits(bits):
    if not bits:
        return 0
    return int("".join("1" if b else "0" for b in reversed(bits)), 2)


def unpack_bits(x, n):
    if n <= 0:
        return []
    s = format(x & ((1 << n) - 1), f"0{n}b")
    return [1 if c == "1" else 0 for c in reversed(s)]


def lcp_profile(bits):
    """Incremental linear complexity L(1..N) of a 0/1 list."""
    prof = []
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
        prof.append(l)
    return prof


def _divmod_packed(a, b):
    # polynomial division over F2; b != 0
    db = b.bit_length()
    q = 0
    while (shift := a.bit_length() - db) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


def laurent_cf(bits):
    """Continued fraction of sum_n bits[n-1] t^-n from N known coefficients.

    Returns (quotients, bound): packed partial quotients in t (all monic
    over F2), kept only while the input precision certifies them, and a
    lower bound for the degree of the next quotient.  The quotients are
    those of Euclid's algorithm on (t^N, P), P = sum_n bits[n-1] t^(N-n);
    see `plcpkit.cfrac` for the cut-off.
    """
    n = len(bits)
    num, den = 1 << n, pack_bits(bits[::-1])
    quotients = []
    total = 0  # sum of the kept degrees
    while den:
        d = num.bit_length() - den.bit_length()
        if 2 * (total + d) > n:
            return quotients, min(d, n - 2 * total + 1)
        q, r = _divmod_packed(num, den)
        quotients.append(q)
        total += d
        num, den = den, r
    return quotients, n - 2 * total + 1
