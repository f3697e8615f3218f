"""Per-order F2 Hankel parities, the oracle for the incremental elimination.

This is the packed kernel `hankel_mod_p` used over F2 before one
incremental elimination replaced it: each order n is its own
row-pivoted elimination of the packed H_n (O(m^4/64) bit operations for
orders 1..m), so no order depends on the pivots of another.
"""

from plcpkit._kernels import pack_bits


def order_parity(bits, n):
    """Parity of the order-n Hankel determinant, entry (i, j) = bits[i + j]."""
    mask = (1 << n) - 1
    full = pack_bits(bits[: 2 * n - 1])
    rows = [(full >> i) & mask for i in range(n)]
    for col in range(n):
        pos = 1 << col
        piv = -1
        for r in range(col, n):
            if rows[r] & pos:
                piv = r
                break
        if piv < 0:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
        pr = rows[col]
        for r in range(col + 1, n):
            if rows[r] & pos:
                rows[r] ^= pr
    return 1


def hankel_parities(bits, m):
    """Parities of the order 1..m Hankel determinants of a 0/1 list.

    The order-n matrix has entry (i, j) = bits[i + j]; each order is
    eliminated independently mod 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if 2 * m - 1 > len(bits):
        raise ValueError(f"need 2*{m}-1 terms, have {len(bits)}")
    return [order_parity(bits, n) for n in range(1, m + 1)]
