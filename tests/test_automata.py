"""Kernel scans, the u/v decomposition, and morphism searches."""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plcpkit.automata import (
    UVPair,
    UniformMorphism,
    as_kernel_input,
    build_from_u,
    kernel_explore,
    klx_check,
    phi3_kernel_counts,
    phi3_kernel_size,
    uniform_morphism_scan,
    uv_decompose,
)
from plcpkit.field import GF2, CoeffSeq, PrimeField
from plcpkit.lincomplex import is_plcp, lcp_profile, recurrence_check
from plcpkit.seqgen import (
    BitSource,
    morphism_fixed_point,
    named_sequence,
    phi3_generalized_rueppel,
)


def test_as_kernel_input_pads_origin_one():
    s1 = CoeffSeq(GF2, [1, 0, 1], origin=1)
    c = as_kernel_input(s1)
    assert c.origin == 0 and c.terms == (0, 1, 0, 1)
    assert as_kernel_input(c) is c


def test_kernel_of_period_doubling_sequence():
    # four classes, closed, with the root reachable again via class 2
    c = as_kernel_input(named_sequence("pd", 8192))
    rep = kernel_explore(c, tau=64, max_classes=256)
    assert rep.class_count() == 4
    assert rep.closed and not rep.bound_hit and rep.bound_reason is None
    assert not rep.unresolved
    assert rep.edges == {
        (0, "T0"): 1,
        (0, "T1"): 2,
        (1, "T0"): 1,
        (1, "T1"): 1,
        (2, "T0"): 3,
        (2, "T1"): 0,
        (3, "T0"): 3,
        (3, "T1"): 3,
    }
    # class 1 is the all-ones stream, class 3 all zeros
    assert set(rep.classes[1].prefix(64)) == {1}
    assert set(rep.classes[3].prefix(64)) == {0}
    text = rep.summary()
    assert "classes: 4" in text and "closed: true" in text
    assert "edge 2 --T1--> 0" in text


def test_kernel_budget_and_precision_outcomes():
    rng = random.Random(123)
    s = CoeffSeq(GF2, [rng.randrange(2) for _ in range(8192)], origin=0)
    rep = kernel_explore(s, tau=64, max_classes=256)
    assert not rep.closed and rep.bound_hit and rep.bound_reason == "precision"
    assert rep.unresolved and rep.class_count() == 255
    capped = kernel_explore(s, tau=64, max_classes=64)
    assert capped.bound_hit and capped.bound_reason == "max-classes"
    assert capped.class_count() == 64
    assert "bound-hit: true (max-classes)" in capped.summary()


def test_kernel_report_refuses_assignment():
    rep = kernel_explore(named_sequence("thue-morse", 256), tau=16, max_classes=2)
    for name in ("tau", "classes", "edges", "bound_reason"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, None)
    assert rep.closed and rep.class_count() == 2  # Thue-Morse: {t, 1 - t}


def _walk(rep):
    return (
        [(c.index, c.k, c.j, len(c.terms)) for c in rep.classes],
        rep.edges,
        rep.unresolved,
        rep.bound_reason,
    )


def _random_tree(count):
    """The first `count` classes of a random 8192-term prefix at tau=64:
    no two decimations agree, so the walk is the complete binary tree in
    breadth-first order and depth k lists j in k-bit reversed order."""
    rows = [[int(format(i, f"0{k}b")[::-1], 2) for i in range(2**k)] for k in range(8)]
    assert rows[4] == [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15]
    classes = [(k, j, 8192 >> k) for k, row in enumerate(rows) for j in row]
    return [(i, *c) for i, c in enumerate(classes[:count])]


def _tree_edges(count):
    return {(i, op): 2 * i + 1 + bit for i in range(count) for bit, op in ((0, "T0"), (1, "T1"))}


def test_kernel_walk_matches_recorded_classes_edges_and_stops():
    # golden classes, edges, unresolved children and stop reason of four
    # scans, so a change to the order of the walk or to where it stops shows
    pd = kernel_explore(as_kernel_input(named_sequence("pd", 8192)), tau=64, max_classes=256)
    assert _walk(pd) == (
        [(0, 0, 0, 8192), (1, 1, 0, 4096), (2, 1, 1, 4096), (3, 2, 1, 2048)],
        {(0, "T0"): 1, (0, "T1"): 2, (1, "T0"): 1, (1, "T1"): 1,
         (2, "T0"): 3, (2, "T1"): 0, (3, "T0"): 3, (3, "T1"): 3},
        [],
        None,
    )

    phi3 = phi3_generalized_rueppel(BitSource.parse("periodic:1:001"), 4096)
    rep = kernel_explore(as_kernel_input(phi3), tau=64)
    assert _walk(rep) == (
        [(0, 0, 0, 4097), (1, 1, 0, 2049), (2, 1, 1, 2048), (3, 2, 0, 1025), (4, 2, 2, 1024),
         (5, 2, 1, 1024), (6, 2, 3, 1024), (7, 3, 0, 513), (8, 3, 2, 512), (9, 3, 1, 512)],
        {(0, "T0"): 1, (0, "T1"): 2, (1, "T0"): 3, (1, "T1"): 4, (2, "T0"): 5,
         (2, "T1"): 6, (3, "T0"): 7, (3, "T1"): 4, (4, "T0"): 8, (4, "T1"): 6,
         (5, "T0"): 9, (5, "T1"): 7, (6, "T0"): 6, (6, "T1"): 7, (7, "T0"): 7,
         (7, "T1"): 7, (8, "T0"): 3, (8, "T1"): 7, (9, "T0"): 6, (9, "T1"): 4},
        [],
        None,
    )

    rng = random.Random(123)
    s = CoeffSeq(GF2, [rng.randrange(2) for _ in range(8192)], origin=0)
    # precision stop: the 128 depth-7 classes have 64 terms, their children 32
    tree = _random_tree(255)
    unresolved = [
        (i, op, 8, j + (bit << 7))
        for i, _, j, _ in tree[127:]
        for bit, op in ((0, "T0"), (1, "T1"))
    ]
    assert _walk(kernel_explore(s, tau=64, max_classes=256)) == (
        tree, _tree_edges(127), unresolved, "precision"
    )
    # budget stop: class 31's T1 child would be class 64, so the walk ends there
    edges = _tree_edges(32)
    del edges[(31, "T1")]
    assert _walk(kernel_explore(s, tau=64, max_classes=64)) == (
        _random_tree(64), edges, [], "max-classes"
    )


def test_kernel_summary_counts_unresolved_children():
    # class 1 of 200 Thue-Morse terms has 100, so its children (50 each) fall short of tau
    rep = kernel_explore(named_sequence("thue-morse", 200), tau=64)
    assert rep.bound_reason == "precision"
    assert rep.unresolved == [(1, "T0", 2, 1), (1, "T1", 2, 3)]
    lines = rep.summary().splitlines()
    assert lines[0] == "classes: 2 (tau=64, max-classes=256, N=200)"
    assert lines[-1] == "  unresolved children: 2"


def _class_prefixes(s, tau):
    lines = kernel_explore(s, tau).summary().splitlines()
    return [ln.split("prefix=")[1] for ln in lines if "prefix=" in ln]


def test_kernel_summary_separates_residues_above_nine():
    # over F11, the residues 1, 10 and 1, 1, 0 would both print as 110 if joined
    f11 = PrimeField(11)
    ten = _class_prefixes(CoeffSeq(f11, [1, 10] * 8, origin=0), tau=2)
    ones = _class_prefixes(CoeffSeq(f11, [1, 1, 0] * 6, origin=0), tau=3)
    assert (ten[0], ones[0]) == ("1,10", "1,1,0")
    # up to F7 every residue is one digit, and the prefixes stay unseparated
    f7 = _class_prefixes(CoeffSeq(PrimeField(7), [1, 6, 0] * 6, origin=0), tau=3)
    assert f7[0] == "160"


def test_kernel_rejects_short_input():
    s = CoeffSeq(GF2, [0, 1] * 10, origin=0)
    with pytest.raises(ValueError, match="precision too small"):
        kernel_explore(s, tau=64)
    with pytest.raises(ValueError, match=">= 1"):
        kernel_explore(s, tau=0)
    with pytest.raises(ValueError, match="origin-0"):
        kernel_explore(CoeffSeq(GF2, [1] * 200, origin=1), tau=8)


def _brute_phi3_kernel_counts(b, depth, log_range=50):
    """Distinct mark sets {n < 2^log_range : s(2^k n + j) = 1} over all
    k <= d and j < 2^k, for d = 0 .. depth, straight from the marks
    n_0 = 1, n_(h+1) = 2 n_h + b_h of phi3(b)."""
    marks = []
    mark, h = 1, 0
    while mark < 2 ** (depth + log_range):
        marks.append(mark)
        mark, h = 2 * mark + b.bit(h), h + 1
    seen = set()
    counts = []
    for k in range(depth + 1):
        sets = {}
        for mark in marks:
            n, j = mark >> k, mark & ((1 << k) - 1)
            if n < 2**log_range:
                sets.setdefault(j, set()).add(n)
        seen.update(frozenset(v) for v in sets.values())
        if len(sets) < 2**k:  # some j < 2^k has no mark in its class
            seen.add(frozenset())
        counts.append(len(seen))
    return counts


bit_words = st.lists(st.integers(0, 1), max_size=4)


@given(bit_words, bit_words.filter(bool))
def test_phi3_kernel_oracle_matches_mark_set_brute_force(pre, per):
    b = BitSource.periodic(pre, per)
    brute = _brute_phi3_kernel_counts(b, 14)
    assert phi3_kernel_counts(b, 14) == brute
    # every pair here stops growing by depth 12, so depth 14 is the whole kernel
    assert phi3_kernel_size(b) == brute[-1]
    # a literal prefix of b can only undercount
    prefix = BitSource.literal(b.take(len(pre) + len(per) + 14))
    assert all(x <= y for x, y in zip(phi3_kernel_counts(prefix, 14), brute))


def test_phi3_kernel_oracle_sizes_and_thue_morse_lower_bounds():
    for pre, per, size in (("", "0", 3), ("", "1", 4), ("", "01", 6), ("1", "001", 10)):
        assert phi3_kernel_size(BitSource.periodic(pre, per)) == size
    # Thue-Morse is not eventually periodic, so the kernel is infinite and
    # the lower bound keeps growing with the depth
    tm = BitSource.literal(named_sequence("thue-morse", 64).terms)
    assert phi3_kernel_counts(tm, 12) == [1, 3, 7, 13, 22, 26, 34, 42, 46, 50, 58, 66, 74]


def test_phi3_kernel_oracle_rejects_what_it_cannot_count():
    with pytest.raises(ValueError, match="too short"):
        phi3_kernel_counts(BitSource.literal("0110"), 5)
    with pytest.raises(ValueError, match="depth"):
        phi3_kernel_counts(BitSource.periodic("", "1"), -1)
    with pytest.raises(ValueError, match="random"):
        phi3_kernel_counts(BitSource.seeded(7), 3)
    with pytest.raises(ValueError, match="periodic"):
        phi3_kernel_size(BitSource.literal("0110"))


f2_one_led = st.lists(st.integers(0, 1), min_size=0, max_size=199).map(
    lambda tail: CoeffSeq(GF2, [1] + tail, origin=1)
)


@given(f2_one_led)
def test_uv_decomposition_reads_off_parity_classes(s):
    pair = uv_decompose(s)
    n = len(s)
    assert len(pair.u) == (n - 1) // 2 + 1
    assert len(pair.v) == n // 2 + 1
    assert all(pair.u[m] == s[2 * m + 1] for m in range((n - 1) // 2 + 1))
    assert pair.v[0] == 0
    assert all(pair.v[m] == s[2 * m] for m in range(1, n // 2 + 1))


@given(f2_one_led)
def test_klx_identity_agrees_with_profile_route(s):
    # two independent reads of the same property, truncation included
    assert klx_check(uv_decompose(s)) == is_plcp(lcp_profile(s))


@given(st.lists(st.integers(0, 1), min_size=0, max_size=63), st.integers(1, 120))
def test_build_from_u_round_trip(tail, n):
    u = CoeffSeq(GF2, [1] + tail, origin=0)
    if len(u) < n // 2 + 1:
        with pytest.raises(ValueError, match="too short"):
            build_from_u(u, n)
        return
    s = build_from_u(u, n)
    assert s.origin == 1 and len(s) == n
    assert recurrence_check(s)
    pair = uv_decompose(s)
    assert pair.u.terms == u.terms[: len(pair.u)]
    m = 2 * len(pair.u) - 1  # u pins the sequence up to its last odd index
    assert build_from_u(pair.u, m).terms == s.terms[:m]
    assert klx_check(pair)


def test_uv_rejects_malformed_input():
    with pytest.raises(ValueError, match="origin-1"):
        uv_decompose(CoeffSeq(GF2, [1, 0], origin=0))
    with pytest.raises(ValueError, match="leading"):
        uv_decompose(CoeffSeq(GF2, [0, 1], origin=1))
    with pytest.raises(ValueError, match="u_0"):
        build_from_u(CoeffSeq(GF2, [0, 1], origin=0), 2)
    with pytest.raises(ValueError, match="indexed from 0"):
        build_from_u(CoeffSeq(GF2, [1, 1], origin=1), 2)


def test_morphism_scan_singles_out_period_doubling():
    found = uniform_morphism_scan(2, 256)
    assert found == [UniformMorphism((1, 1), (1, 0))]
    assert str(found[0]) == "1->10, 0->11"
    fp = morphism_fixed_point(found[0], 256)
    assert fp.terms == named_sequence("pd", 256).terms


def test_morphism_scan_for_lengths_three_and_four():
    assert uniform_morphism_scan(3, 256) == []
    found = uniform_morphism_scan(4, 256)
    assert found == [UniformMorphism((1, 0, 1, 0), (1, 0, 1, 1))]
    assert str(found[0]) == "1->1011, 0->1010"


def test_morphism_scan_bounds():
    with pytest.raises(ValueError, match="k must be"):
        uniform_morphism_scan(5, 256)
    with pytest.raises(ValueError, match="n must be"):
        uniform_morphism_scan(2, 100)


def _f2(*terms):
    return CoeffSeq(GF2, terms, origin=0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: UVPair(u=_f2(0, 1), v=_f2(0)), ValueError, "u must start with 1"),
        (lambda: UVPair(u=_f2(1), v=_f2(1, 0)), ValueError, "v must start with 0"),
        (
            lambda: uv_decompose(CoeffSeq(PrimeField(3), [1, 2], origin=1)),
            ValueError,
            "decomposition is defined over F2",
        ),
        (
            lambda: build_from_u(CoeffSeq(PrimeField(3), [1, 2], origin=0), 2),
            ValueError,
            "defined over F2",
        ),
        (lambda: build_from_u(_f2(1, 0), 0), ValueError, "length must be >= 1"),
    ],
    ids=["u-start", "v-start", "uv-field", "build-field", "build-length"],
)
def test_automata_calls_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
