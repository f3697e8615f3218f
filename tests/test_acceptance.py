"""Acceptance battery: one check per advertised guarantee.

Each test computes its verdict, records a PASS/FAIL line for the
terminal summary, then asserts.  Nothing here is tuned to pass: a
failing line means the stated guarantee does not hold as written.
"""

import itertools
import random
from fractions import Fraction

from cf_oracle import series_inverse_cf
from conftest import record_acceptance
from hankel_oracle import hankel_by_columns, hankel_parities
from lc_oracle import expected_lc_exhaustive, lc_bruteforce

from plcpkit.automata import (
    as_kernel_input,
    build_from_u,
    kernel_explore,
    klx_check,
    phi3_kernel_counts,
    phi3_kernel_size,
    uniform_morphism_scan,
    uv_decompose,
)
from plcpkit.cfrac import convergents, laurent_cf, profile_from_cf, rational_cf
from plcpkit.cli import five_property_battery
from plcpkit.field import (
    GF2,
    CoeffSeq,
    DensePoly,
    PrimeField,
    dumps_sequence,
    loads_sequence,
)
from plcpkit.hankel import apww_check, hankel_mod_p
from plcpkit.lincomplex import (
    BerlekampMassey,
    expected_lc,
    is_plcp,
    lcp_profile,
    recurrence_check,
)
from plcpkit.seqgen import (
    BitSource,
    UniformMorphism,
    derive_seed,
    named_sequence,
    phi2_selector,
    phi3_generalized_rueppel,
    rueppel,
)


def _check(num, ok, detail):
    record_acceptance(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _length12_set():
    for bits in itertools.product((0, 1), repeat=11):
        yield CoeffSeq(GF2, (1,) + bits, origin=1)


def test_criterion_1_unanimity_on_phi2_random_trials():
    dissent = []
    for t in range(100):
        seed = derive_seed(0, t)
        s1 = phi2_selector(BitSource.seeded(seed), 512).shift_index(1)
        props = five_property_battery(s1)
        if set(props.values()) != {True}:
            dissent.append((t, props))
    detail = (
        "100 phi2-random sequences, length 512: profile, flat quotients, both "
        "recurrences and 256 odd determinants all true"
        if not dissent
        else f"dissenting trials: {dissent[:3]}"
    )
    _check(1, not dissent, detail)


def test_criterion_2_exhaustive_equivalence_length_12():
    split = 0
    profile_bad = 0
    for s in _length12_set():
        props = five_property_battery(s)
        if len(set(props.values())) != 1:
            split += 1
        if lcp_profile(s).values != tuple(lc_bruteforce(s, k) for k in range(1, 13)):
            profile_bad += 1
    ok = split == 0 and profile_bad == 0
    _check(
        2,
        ok,
        "all 2^11 length-12 sequences with s_1=1: five properties pairwise "
        "equivalent, profile equals the brute-force oracle"
        if ok
        else f"non-unanimous: {split}, profile mismatches: {profile_bad}",
    )


def test_criterion_3_quotient_profile_theorem_over_three_fields():
    bad = 0
    for s in _length12_set():
        rec = profile_from_cf(laurent_cf(s), len(s))
        if rec.values != lcp_profile(s).values[: len(rec.values)]:
            bad += 1
    rng = random.Random(2026)
    for p in (3, 5):
        field = PrimeField(p)
        for _ in range(200):
            s = CoeffSeq(field, [rng.randrange(p) for _ in range(64)], origin=1)
            rec = profile_from_cf(laurent_cf(s), 64)
            if rec.values != lcp_profile(s).values[: len(rec.values)]:
                bad += 1
    _check(
        3,
        bad == 0,
        "profile reconstructed from quotient degrees matches the direct profile "
        "(exhaustive F2 length 12; 200 random length-64 over F3 and over F5)"
        if bad == 0
        else f"{bad} mismatching sequences",
    )


def _closed_forms_hold(drop_first):
    n = 10_000
    results = []
    for name, formula in (
        ("thue-morse", lambda k: 2 * ((k + 2) // 4)),
        ("pd", lambda k: (k + 1) // 2),
    ):
        raw = named_sequence(name, n + 1).terms
        terms = raw[1 : n + 1] if drop_first else raw[:n]
        prof = lcp_profile(CoeffSeq(GF2, terms, origin=1)).values
        results.append(all(prof[k - 1] == formula(k) for k in range(1, n + 1)))
    return all(results)


def test_criterion_4_closed_form_profiles_fix_the_indexing():
    shift_a = _closed_forms_hold(drop_first=False)  # origin term becomes s_1
    shift_b = _closed_forms_hold(drop_first=True)
    ok = shift_a and not shift_b
    _check(
        4,
        ok,
        "L(n) = 2*floor((n+2)/4) for thue-morse and floor((n+1)/2) for pd, "
        "n <= 10^4; shift A (origin term -> s_1) passes and is the recorded "
        "choice, shift B (drop the origin term) fails"
        if ok
        else f"shift A holds: {shift_a}, shift B holds: {shift_b} (exactly one must)",
    )


def test_criterion_5_scaled_thue_morse_determinants():
    res = apww_check(128)
    _check(
        5,
        res.ok,
        "exact integer H_n of +-1 thue-morse: 2^(n-1) | H_n with odd quotient, n <= 128"
        if res.ok
        else f"first failing order: {res.first_failure}",
    )


def test_criterion_6_mean_profile_deviation_band():
    # Rueppel (1986): over F2 the mean of L(n) is exactly
    # n/2 + (4 + n mod 2)/18 - 2^-n (n/3 + 2/9)
    def rueppel_mean(n):
        return Fraction(n, 2) + Fraction(4 + n % 2, 18) - Fraction(1, 2**n) * (
            Fraction(n, 3) + Fraction(2, 9)
        )

    means = {n: expected_lc_exhaustive(n) for n in range(1, 17)}
    bound = Fraction(5, 18)
    offenders = [
        (n, dev)
        for n, mean in means.items()
        if n >= 2 and not 0 <= (dev := mean - Fraction(n, 2)) <= bound
    ]
    # enumeration = count law up to 16, count law = Rueppel's form up to 1024
    law = {n: expected_lc(n) for n in range(1, 1025)}
    unequal = [n for n, mean in means.items() if mean != law[n]]
    unequal += [n for n, mean in law.items() if mean != rueppel_mean(n)]
    _check(
        6,
        not offenders and not unequal,
        "mean L(n) - n/2 stays in [0, 5/18] for 2 <= n <= 16; the 2^n enumeration,"
        " the count law and Rueppel's closed form agree for 1 <= n <= 16, and the"
        " count law equals the form for n <= 1024 (exact rationals)"
        if not offenders and not unequal
        else f"out of band: {offenders}; the three means differ at n in {unequal}",
    )


def test_criterion_7_series_identity_equals_profile_test():
    bad = 0
    for s in _length12_set():
        if klx_check(uv_decompose(s)) != is_plcp(lcp_profile(s)):
            bad += 1
    rng = random.Random(4)
    for _ in range(500):
        s = CoeffSeq(GF2, [1] + [rng.randrange(2) for _ in range(255)], origin=1)
        if klx_check(uv_decompose(s)) != is_plcp(lcp_profile(s)):
            bad += 1
    _check(
        7,
        bad == 0,
        "v^2+v = 1+u+xu^2 agrees with the perfect-profile test on the exhaustive "
        "length-12 set and 500 random length-256 sequences"
        if bad == 0
        else f"{bad} disagreements",
    )


def test_criterion_8_kernel_scans_separate_periodic_from_thue_morse():
    # The scan is a finite-prefix heuristic; the exact oracle beside it
    # (phi3_kernel_size, phi3_kernel_counts) says what it should find.
    n = 8192
    sweep = (2048, 4096, 8192, 16384)

    def scan(b, length):
        s = as_kernel_input(phi3_generalized_rueppel(b, length))
        return kernel_explore(s, tau=64, max_classes=256)

    failures = []
    counts = []
    exact_sizes = []
    for label, b in (
        ("0^w", BitSource.periodic("", "0")),
        ("1^w", BitSource.periodic("", "1")),
        ("(01)^w", BitSource.periodic("", "01")),
        ("1(001)^w", BitSource.periodic("1", "001")),
    ):
        exact = phi3_kernel_size(b)
        exact_sizes.append(exact)
        reps = {m: scan(b, m) for m in sweep}
        rep = reps[n]
        counts.append(f"phi3[{label}]={rep.class_count()} (exact {exact})")
        if not (rep.closed and rep.class_count() == exact):
            failures.append(
                f"phi3 with b={label}: expected closed with the exact kernel size "
                f"{exact}, got closed={rep.closed} with {rep.class_count()}"
            )
        swept = [r.class_count() for r in reps.values()]
        if len(set(swept)) != 1:
            failures.append(f"phi3 with b={label}: class count moves with N: {swept}")
    pd_rep = kernel_explore(as_kernel_input(named_sequence("pd", n)), tau=64, max_classes=256)
    counts.append(f"pd={pd_rep.class_count()}")
    if not (pd_rep.closed and pd_rep.class_count() <= 8):
        failures.append(
            f"pd: expected closed with <= 8 classes, got closed={pd_rep.closed} "
            f"with {pd_rep.class_count()}"
        )
    tm = BitSource.literal(named_sequence("thue-morse", 64).terms)
    tm_reps = {m: scan(tm, m) for m in sweep}
    tm_rep = tm_reps[n]
    tm_lower = phi3_kernel_counts(tm, 12)
    tm_swept = [r.class_count() for r in tm_reps.values()]
    counts.append(
        f"phi3[thue-morse]={tm_rep.class_count()} closed={tm_rep.closed}, "
        f"over N={sweep[0]}..{sweep[-1]}: {tm_swept}, "
        f"oracle lower bounds to depth 12: {tm_lower}"
    )
    if not all(x < y for x, y in zip(tm_lower, tm_lower[1:])):
        failures.append(f"phi3 with b=thue-morse: kernel lower bound stalls: {tm_lower}")
    if not tm_lower[-1] > max(tm_rep.class_count(), *exact_sizes):
        failures.append(
            f"phi3 with b=thue-morse: depth-12 lower bound {tm_lower[-1]} does not exceed "
            f"the scan's {tm_rep.class_count()} and the periodic sizes {exact_sizes}"
        )
    if not tm_swept[-1] > tm_swept[0]:
        failures.append(f"phi3 with b=thue-morse: class count does not grow with N: {tm_swept}")
    _check(
        8,
        not failures,
        "; ".join(counts)
        if not failures
        else "; ".join(counts) + " | " + " | ".join(failures),
    )


def test_criterion_9_two_uniform_morphism_scan():
    found = uniform_morphism_scan(2, 1024)
    ok = found == [UniformMorphism((1, 1), (1, 0))]
    _check(
        9,
        ok,
        "scan over binary 2-uniform morphisms at n=1024 returns exactly 1->10, 0->11"
        if ok
        else f"returned {[str(m) for m in found]}",
    )


def test_criterion_10_differential_and_round_trip_suites():
    problems = []
    rng = random.Random(10)

    # one incremental elimination vs an elimination of each order on its
    # own: packed and row-pivoted over F2, column-pivoted for odd p
    for p, trials, top in ((2, 40, 100), (3, 10, 41), (5, 10, 41), (7, 10, 41)):
        for _ in range(trials):
            m = rng.randrange(1, top)
            c = CoeffSeq(PrimeField(p), [rng.randrange(p) for _ in range(2 * m - 1)], origin=0)
            if p == 2:
                per_order = tuple(hankel_parities(c.terms, m))
            else:
                per_order = hankel_by_columns(c, m)
            if hankel_mod_p(c, m).values != per_order:
                problems.append(f"hankel one-pass vs per-order disagreement over F{p} at order {m}")
                break

    # old-vs-new differentials on the packed kernels: the profile against the
    # generic Berlekamp-Massey, the continued fraction against the
    # series-inverse extraction that the Euclid replaced
    for _ in range(40):
        bits = [rng.randrange(2) for _ in range(rng.randrange(1, 300))]
        s = CoeffSeq(GF2, bits, origin=1)
        bm = BerlekampMassey(GF2)
        if lcp_profile(s).values != tuple(bm.push(b) for b in bits):
            problems.append("old-vs-new profile disagreement")
            break
        if laurent_cf(s) != series_inverse_cf(s):
            problems.append("old-vs-new cf disagreement")
            break

    # u -> sequence -> u round trip, with the rebuilt sequence passing the checks
    for _ in range(50):
        u = CoeffSeq(GF2, [1] + [rng.randrange(2) for _ in range(40)], origin=0)
        s = build_from_u(u, 80)
        pair = uv_decompose(s)
        if pair.u.terms != u.terms[: len(pair.u)] or not (
            recurrence_check(s) and klx_check(pair)
        ):
            problems.append("u/v round trip failed")
            break

    # continued fraction reconstruction: f/g -> quotients -> same fraction
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(30):
            den = DensePoly(
                field, [rng.randrange(p) for _ in range(rng.randrange(1, 7))] + [1]
            )
            num = DensePoly(field, [rng.randrange(p) for _ in range(den.degree)])
            if num.is_zero:
                continue
            cf = rational_cf(num, den)
            last = convergents(cf)[-1]
            if num * last.q != den * last.p:
                problems.append(f"cf reconstruction failed over F{p}")
                break

    # generate -> serialize -> parse round trip, both file dialects
    samples = [
        rueppel("first", 64),
        rueppel("second", 64),
        named_sequence("pd", 64),
        named_sequence("thue-morse", 64),
        named_sequence("z", 64),
        named_sequence("w", 64),
        phi2_selector(BitSource.seeded(derive_seed(10, 0)), 64),
        CoeffSeq(PrimeField(7), [rng.randrange(7) for _ in range(64)], origin=1),
    ]
    for seq in samples:
        back = loads_sequence(dumps_sequence(seq))
        if (back.field.p, back.origin, back.terms) != (seq.field.p, seq.origin, seq.terms):
            problems.append("serialize/parse round trip changed the sequence")
            break

    _check(
        10,
        not problems,
        "hankel one-pass vs per-order differentials over F2/F3/F5/F7, old-vs-new differentials, u/v "
        "round trips, cf reconstruction over F2/F3/F5, and file round trips all exact"
        if not problems
        else "; ".join(problems),
    )
