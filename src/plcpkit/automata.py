"""Decimation kernels, the u/v square decomposition, and morphism scans.

The 2-kernel of an origin-0 sequence is the closure of the sequence
under the two decimations T0: n -> 2n and T1: n -> 2n + 1.  On a finite
prefix the scan is heuristic: subsequences are compared on their common
known range (at least `tau` terms) and exploration stops honestly when
either the class budget or the usable precision runs out.  Otherwise the
report says `closed`, which means closure on the prefix's comparison
ranges only; it does not certify a finite kernel.  phi3 of Thue-Morse
is the example: its kernel is infinite, yet every prefix closes,
because an N-term prefix reads only about log2 N bits of b and so
equals a prefix of phi3(b') for an eventually periodic b'.  For phi3
sequences `phi3_kernel_counts` and `phi3_kernel_size` give the exact
answer beside the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from plcpkit.field import GF2, CoeffSeq, pack_bits
from plcpkit.lincomplex import recurrence_check
from plcpkit.seqgen import BitSource, UniformMorphism, morphism_fixed_point

__all__ = [
    "decimate",
    "as_kernel_input",
    "KernelClass",
    "KernelReport",
    "kernel_explore",
    "phi3_kernel_counts",
    "phi3_kernel_size",
    "UVPair",
    "uv_decompose",
    "klx_check",
    "build_from_u",
    "eventually_periodic",
    "uniform_morphism_scan",
]


def decimate(s: CoeffSeq, which: str) -> CoeffSeq:
    """T0 keeps the even-index terms, T1 the odd-index ones; origin 0."""
    if s.origin != 0:
        raise ValueError("decimation expects an origin-0 sequence")
    if which == "T0":
        terms = s.terms[0::2]
    elif which == "T1":
        terms = s.terms[1::2]
    else:
        raise ValueError(f"which must be 'T0' or 'T1': {which!r}")
    if not terms:
        raise ValueError("sequence too short to decimate")
    return CoeffSeq(s.field, terms, origin=0)


def as_kernel_input(s: CoeffSeq) -> CoeffSeq:
    """Zero-extend an origin-1 sequence to origin 0 (term n stays at index n)."""
    if s.origin == 0:
        return s
    return CoeffSeq(s.field, (0,) + s.terms, origin=0)


@dataclass(frozen=True)
class KernelClass:
    index: int
    k: int  # witness depth: this class is s[2^k n + j]
    j: int
    terms: tuple  # all known terms of the representative

    def prefix(self, tau: int) -> tuple:
        return self.terms[:tau]


@dataclass(frozen=True)
class KernelReport:
    tau: int
    max_classes: int
    classes: list  # class 0 is the whole input
    edges: dict  # (class index, "T0"|"T1") -> class index
    unresolved: list  # (parent index, op, k, j) children too short to compare
    bound_reason: str | None  # "max-classes" | "precision" | None

    @property
    def closed(self) -> bool:
        return self.bound_reason is None

    @property
    def bound_hit(self) -> bool:
        return self.bound_reason is not None

    def class_count(self) -> int:
        return len(self.classes)

    def summary(self) -> str:
        lines = [
            f"classes: {len(self.classes)}"
            f" (tau={self.tau}, max-classes={self.max_classes}, N={len(self.classes[0].terms)})",
            f"closed: {str(self.closed).lower()}",
            f"bound-hit: {str(self.bound_hit).lower()}"
            + (f" ({self.bound_reason})" if self.bound_reason else ""),
        ]
        for c in self.classes:
            bits = "".join(map(str, c.prefix(self.tau)))
            lines.append(f"  class {c.index}: k={c.k} j={c.j} len={len(c.terms)} prefix={bits}")
        for (i, op), j in sorted(self.edges.items()):
            lines.append(f"  edge {i} --{op}--> {j}")
        if self.unresolved:
            lines.append(f"  unresolved children: {len(self.unresolved)}")
        return "\n".join(lines)


def kernel_explore(s: CoeffSeq, tau: int = 64, max_classes: int = 256) -> KernelReport:
    """Breadth-first scan of the 2-kernel on a finite prefix.

    Two nodes are identified when they agree on every commonly known
    term, with at least tau known on both sides.  `closed` means every
    decimation of every class landed on a known class.  Otherwise
    `bound_reason` says why closure could not be decided: the class
    budget ran out ("max-classes") or some child was too short to
    compare ("precision").  `bound_hit` is `not closed`.
    """
    if s.origin != 0:
        raise ValueError("kernel scan expects an origin-0 sequence; see as_kernel_input")
    if tau < 1 or max_classes < 1:
        raise ValueError("tau and max_classes must be >= 1")
    if len(s) < 2 * tau:
        raise ValueError(
            f"precision too small: depth-1 subsequences have {len(s) // 2} < tau={tau} terms"
        )

    classes: list[KernelClass] = []
    by_prefix: dict = {}
    edges: dict = {}
    unresolved: list = []
    reason = None

    def identify(terms):
        key = terms[:tau]
        for idx in by_prefix.get(key, ()):
            other = classes[idx].terms
            m = min(len(other), len(terms))
            if other[:m] == terms[:m]:
                return idx
        return None

    def add_class(k, j, terms):
        cls = KernelClass(len(classes), k, j, terms)
        classes.append(cls)
        by_prefix.setdefault(terms[:tau], []).append(cls.index)
        return cls.index

    add_class(0, 0, tuple(s.terms))
    # classes grows while it is walked, so the walk is breadth-first
    for cur in classes:
        for bit, op in ((0, "T0"), (1, "T1")):
            child_terms = cur.terms[bit::2]
            child_k = cur.k + 1
            child_j = cur.j + (bit << cur.k)
            if len(child_terms) < tau:
                unresolved.append((cur.index, op, child_k, child_j))
                continue
            idx = identify(child_terms)
            if idx is None:
                if len(classes) >= max_classes:
                    reason = "max-classes"
                    break
                idx = add_class(child_k, child_j, child_terms)
            edges[(cur.index, op)] = idx
        if reason:
            break

    if reason is None and unresolved:
        reason = "precision"
    return KernelReport(
        tau=tau,
        max_classes=max_classes,
        classes=classes,
        edges=edges,
        unresolved=unresolved,
        bound_reason=reason,
    )


def _phi3_kernel_levels(b: BitSource, window: int):
    """Yield, for k = 0, 1, ..., the number of distinct kernel elements
    of depth <= k, each identified by its occurrence set on [0, window).

    The marks of phi3(b) are the integers whose binary word is a prefix
    of W = 1.b (mark n_h spells 1 b_0 ... b_(h-1)).  For n >= 1 the word
    of 2^k n + j is the word of n followed by w, the k-bit word of j, so
    s(2^k n + j) = 1 exactly when the word of n is W[0:i+1] for an i
    with b[i:i+k] = w.  Distinct i give distinct n, so the element
    (k, j) is fixed by the pair (P(w), s(j)), P(w) = {i : b[i:i+k] = w},
    and fixes it in turn.  s(j) = 1 exactly when w is the k-bit word of
    a mark below 2^k.
    """
    seen = set()
    k = 0
    while True:
        bits = b.take(window + k - 1)
        occurrences: dict = {}
        for i in range(window):
            occurrences.setdefault(tuple(bits[i : i + k]), set()).add(i)
        word = ([1] + bits)[:k]  # W[0:k]
        mark_words = {(0,) * (k - h) + tuple(word[:h]) for h in range(1, k + 1)}
        for w, where in occurrences.items():
            seen.add((frozenset(where), w in mark_words))
        if mark_words - occurrences.keys():
            seen.add((frozenset(), True))
        if 2**k > len(occurrences.keys() | mark_words):  # a word neither occurs nor marks
            seen.add((frozenset(), False))
        yield len(seen)
        k += 1


def phi3_kernel_counts(b: BitSource, depth: int) -> list:
    """Distinct 2-kernel elements s(2^k n + j) of s = as_kernel_input(phi3(b)),
    counted over all k <= d, for d = 0 .. depth.

    An element is identified by the set P of positions i where the
    k-bit word of j occurs in b (b[i:i+k]) and by s(j); see
    `_phi3_kernel_levels`.  For a periodic BitSource (preperiod rho,
    period pi), b[i:i+k] = b[i+pi:i+pi+k] for every i >= rho, so P is
    decided by its part on [0, rho + pi) and the counts are exact.  For
    a literal BitSource of M bits the sets are compared on [0, M - depth],
    where every word up to length depth is known; elements that differ
    there differ, so each count is a lower bound on the true one.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if b.kind == "periodic":
        window = len(b.preperiod) + len(b.period)
    elif b.kind == "literal":
        if len(b.bits) < depth:
            raise ValueError(
                f"literal bit source too short: depth {depth} needs {depth} bits, "
                f"have {len(b.bits)}"
            )
        window = len(b.bits) - depth + 1
    else:
        raise ValueError(
            "a random bit source has no finite description; pass BitSource.literal(b.take(n))"
        )
    levels = _phi3_kernel_levels(b, window)
    return [next(levels) for _ in range(depth + 1)]


def phi3_kernel_size(b: BitSource) -> int:
    """Exact 2-kernel size of phi3(b) for an eventually periodic b.

    This is the number of states of the minimal LSB-first automaton
    with output that generates as_kernel_input(phi3(b)) (Allouche and
    Shallit, Automatic Sequences).  Every element
    of depth k + 2 is T0 or T1 of one of depth k + 1.  So once every
    element of depth k + 1 equals one of depth <= k, every element of
    depth k + 2 is T0 or T1 of one of depth <= k, that is of depth
    <= k + 1, and the count at the first depth that does not grow is
    final.  The count cannot exceed the 2^(rho + pi + 1) pairs (P, s(j)),
    so that depth is reached.
    """
    if b.kind != "periodic":
        raise ValueError("the kernel size is exact only for a periodic bit source")
    previous = 0
    for count in _phi3_kernel_levels(b, len(b.preperiod) + len(b.period)):
        if count == previous:
            return count
        previous = count


@dataclass(frozen=True)
class UVPair:
    """Odd/even split of a Laurent tail f = v^2 + x u^2 (in x = 1/t).

    u and v are origin-0 `CoeffSeq`s over F2: u collects the odd-index
    terms (u_n = s_{2n+1}), v the even-index ones with v_0 = 0.  Their
    lengths are exactly what the input pins.
    """

    u: CoeffSeq
    v: CoeffSeq

    def __post_init__(self):
        if self.u.terms[0] != 1:
            raise ValueError("u must start with 1")
        if self.v.terms[0] != 0:
            raise ValueError("v must start with 0")


def uv_decompose(f: CoeffSeq) -> UVPair:
    """Split an origin-1 binary prefix with s_1 = 1 into the u/v pair."""
    if f.field.p != 2:
        raise ValueError("decomposition is defined over F2")
    if f.origin != 1:
        raise ValueError("expects an origin-1 sequence; use shift_index(1)")
    if f.terms[0] != 1:
        raise ValueError("requires leading coefficient 1")
    t = f.terms
    return UVPair(
        u=CoeffSeq(GF2, t[0::2], origin=0),
        v=CoeffSeq(GF2, (0,) + t[1::2], origin=0),
    )


def _square(a: int) -> int:
    # over F2 squaring a packed series moves bit i to bit 2i
    return int("0".join(format(a, "b")), 2)


def klx_check(pair: UVPair) -> bool:
    """Does v^2 + v = 1 + u + x u^2 hold on the known range?

    Squaring doubles the known range in characteristic 2, so both sides
    are known exactly as far as u and v are; the comparison uses the
    common range, min(len(u), len(v)) terms, and fabricates nothing.
    """
    u, v = pack_bits(pair.u.terms), pack_bits(pair.v.terms)
    known = min(len(pair.u), len(pair.v))
    return not (_square(v) ^ v ^ 1 ^ u ^ (_square(u) << 1)) & ((1 << known) - 1)


def build_from_u(u: CoeffSeq, n: int) -> CoeffSeq:
    """Rebuild the origin-1 sequence with odd part u: a_{2m+1} = u_m,
    a_{2m} = a_m + u_m.  Requires u_0 = 1."""
    if u.field.p != 2:
        raise ValueError("defined over F2")
    if u.origin != 0:
        raise ValueError("u is indexed from 0; use shift_index(0)")
    if u.terms[0] != 1:
        raise ValueError("requires u_0 = 1")
    if n < 1:
        raise ValueError("length must be >= 1")
    need = n // 2 + 1
    if len(u) < need:
        raise ValueError(f"u too short: need {need} terms for length {n}")
    a = [0] * (n + 1)  # a[i] = term at index i, 1-based
    a[1] = u.terms[0]
    for i in range(2, n + 1):
        m = i // 2
        if i % 2 == 1:
            a[i] = u.terms[m]
        else:
            a[i] = (a[m] + u.terms[m]) % 2
    return CoeffSeq(GF2, a[1:], origin=1)


def eventually_periodic(b: CoeffSeq, max_preperiod: int, max_period: int):
    """Smallest (preperiod, period) lexicographically, or None.

    The candidate must be consistent with the entire stored prefix, and
    the prefix must be long enough to see any candidate twice.
    """
    if max_preperiod < 0 or max_period < 1:
        raise ValueError("need max_preperiod >= 0 and max_period >= 1")
    t = b.terms
    if len(t) < max_preperiod + 2 * max_period:
        raise ValueError(
            f"insufficient length: need {max_preperiod + 2 * max_period}, have {len(t)}"
        )
    for rho in range(max_preperiod + 1):
        for pi in range(1, max_period + 1):
            if all(t[i] == t[i + pi] for i in range(rho, len(t) - pi)):
                return (rho, pi)
    return None


def uniform_morphism_scan(k: int, n: int) -> list:
    """All length-k binary morphisms prolongable at 1 whose fixed point
    satisfies the apwenian feedback relation on n terms."""
    if not 2 <= k <= 4:
        raise ValueError("k must be in [2, 4]")
    if n < 256:
        raise ValueError("n must be >= 256 for a meaningful scan")
    found = []
    for tail in product((0, 1), repeat=k - 1):
        image1 = (1,) + tail
        for image0 in product((0, 1), repeat=k):
            m = UniformMorphism(image0, image1)
            fp = morphism_fixed_point(m, n)
            if recurrence_check(fp):
                found.append(m)
    return found
