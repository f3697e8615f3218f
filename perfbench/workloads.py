"""The benchmark's workloads: per-op inputs from the seed, the op, and its check.

Every op is checked against an answer the benchmark knows independently
of the route under test, and a check returns an error message or None.
Ops call the package through module attributes (`cli.main`, not a bound
name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

from plcpkit import cfrac, cli, field, hankel, lincomplex

PROPERTIES = (
    "profile-perfect",
    "cf-flat",
    "shift-recurrence",
    "apwenian-recurrence",
    "hankel-all-odd",
)

# SplitMix64 as the verify report documents it ("prng: splitmix64, words
# consumed least significant bit first"); the benchmark keeps its own copy
# so the expected answer for random inputs does not come from the program.
_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state):
    state = (state + _GOLDEN) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31), state


def trial_seed(seed, index=0):
    return _splitmix64((seed ^ ((index + 1) * _GOLDEN)) & _M64)[0]


def seeded_bits(seed, count):
    words, state = [], seed & _M64
    for _ in range((count + 63) // 64):
        w, state = _splitmix64(state)
        words.append(w)
    return [(words[i // 64] >> (i % 64)) & 1 for i in range(count)]


def shift_recurrence_holds(s):
    """s(2n+1) = s(2n) + s(n) over F2 for every n the prefix covers; s[0] is s(1)."""
    return all(s[2 * n] == s[2 * n - 1] ^ s[n - 1] for n in range(1, (len(s) - 1) // 2 + 1))


def run_cli(argv):
    """(exit code, stdout) of one in-process `plcpkit` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def warm_cli():
    """Build the argument parser once, as a first invocation would."""
    with contextlib.suppress(SystemExit):
        run_cli(["--version"])


def _fields(text):
    """First value of each `key: value` line, keys stripped of indentation."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


# --- checks ------------------------------------------------------------------


def check_verify(code, report, expected, seed, length):
    """One-trial verify report: exit 0, verdict ok, every property == expected."""
    if code != 0:
        return f"exit code {code}"
    got = _fields(report)
    want = {p: str(expected).lower() for p in PROPERTIES}
    want.update({"length": str(length), "unanimous": "true", "verdict": "ok"})
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: {got.get(key)!r}, want {value!r}"
    if str(seed) not in re.findall(r"\d+", got.get("generator", "")):
        return f"generator {got.get('generator')!r} does not name trial seed {seed}"
    return None


def check_kernel(code, text, classes=None):
    """Kernel scan summary: exactly one of closed / bound-hit, optional class count."""
    if code != 0:
        return f"exit code {code}"
    got = _fields(text)
    closed, bound = got.get("closed"), got.get("bound-hit", "").split(" ")[0]
    if {closed, bound} != {"true", "false"}:
        return f"closed {closed!r} and bound-hit {bound!r} must differ"
    match = re.match(r"(\d+) ", got.get("classes", ""))
    if match is None:
        return "no class count"
    if classes is not None and (int(match.group(1)), closed) != (classes, "true"):
        return f"{match.group(1)} classes, closed {closed}; want {classes} closed classes"
    return None


def check_analyze(steps, length):
    """Perfect profile, flat CF with all degrees 1, and well-formed kernel scans."""
    for step, (code, _) in steps.items():
        if code != 0:
            return f"{step}: exit code {code}"
    lines = steps["lcp"][1].splitlines()
    if lines[-1:] != ["perfect-profile: true"]:
        return f"lcp: last line {lines[-1:]!r}"
    if sum(1 for line in lines if line[:1].isdigit()) != length:
        return "lcp: wrong number of profile rows"
    try:
        doc = json.loads(steps["cf"][1])
    except json.JSONDecodeError as e:
        return f"cf: not JSON ({e})"
    if doc.get("flat") is not True or doc.get("degrees") != [1] * (length // 2):
        return "cf: expansion is not flat with all degrees 1"
    return check_kernel(*steps["kernel"]) or check_kernel(*steps["kernel-phi3"], classes=10)


def check_hankel_cf(cf, values):
    """H_k != 0 exactly at the cumulative CF degrees, on the orders the CF decides."""
    cum = [0]
    for q in cf.quotients[: cf.guaranteed_count]:
        cum.append(cum[-1] + int(q.degree))
    decided = len(values)
    if cf.next_degree_bound is not None:
        decided = min(decided, cum[-1] + cf.next_degree_bound - 1)
    nonzero = {k for k, v in enumerate(values[:decided], start=1) if v}
    normal = {d for d in cum[1:] if d <= decided}
    if nonzero != normal:
        return f"nonzero Hankel orders {sorted(nonzero ^ normal)} disagree with the CF degrees"
    return None


def check_oddp(seq, profile, cf, report):
    """BM profile == CF profile on its covered range; Hankel zeros match CF degrees."""
    ref = cfrac.profile_from_cf(cf, len(seq)).values
    if not ref or profile.values[: len(ref)] != ref:
        return f"F{seq.field.p}: BM profile disagrees with profile_from_cf"
    return check_hankel_cf(cf, report.values)


# --- workloads ---------------------------------------------------------------


class Workload:
    """A closed-loop op stream; `seed` fixes every op input."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def next_input(self):
        return self.rng.getrandbits(32)


class Verify(Workload):
    LENGTH = 512

    def __init__(self, seed, workdir, source):
        super().__init__(seed, workdir)
        self.source = source

    def run(self, op_seed):
        return run_cli(
            ["verify", "--source", self.source, "--length", str(self.LENGTH),
             "--trials", "1", "--seed", str(op_seed)]
        )

    def check(self, op_seed, out):
        seed = trial_seed(op_seed)
        if self.source == "phi2-random":
            expected = True  # phi2 satisfies the feedback relation by construction
        else:
            expected = shift_recurrence_holds([1] + seeded_bits(seed, self.LENGTH - 1))
        return check_verify(*out, expected, seed, self.LENGTH)


class Analyze(Workload):
    LENGTH = 2048

    def run(self, b_seed):
        phi1 = os.path.join(self.workdir, "phi1.seq")
        phi3 = os.path.join(self.workdir, "phi3.seq")
        n = str(self.LENGTH)
        return {
            "gen-phi1": run_cli(["gen", "--family", "phi1", "--b", f"random:{b_seed}",
                                 "--length", n, "--out", phi1]),
            "lcp": run_cli(["analyze", "lcp", "--in", phi1]),
            "cf": run_cli(["analyze", "cf", "--in", phi1]),
            "kernel": run_cli(["analyze", "kernel", "--in", phi1]),
            "gen-phi3": run_cli(["gen", "--family", "phi3", "--b", "periodic:1:001",
                                 "--length", n, "--out", phi3]),
            "kernel-phi3": run_cli(["analyze", "kernel", "--in", phi3]),
        }

    def check(self, b_seed, steps):
        return check_analyze(steps, self.LENGTH)


class OddP(Workload):
    LENGTH = 256
    HANKEL_ORDER = 64
    APWW_ORDER = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fields = [field.PrimeField(p) for p in (3, 5, 7)]

    def next_input(self):
        return [
            field.CoeffSeq(f, [self.rng.randrange(f.p) for _ in range(self.LENGTH)], origin=1)
            for f in self.fields
        ]

    def run(self, seqs):
        per_field = [
            (
                s,
                lincomplex.lcp_profile(s),
                cfrac.laurent_cf(s),
                hankel.hankel_mod_p(s.shift_index(0), self.HANKEL_ORDER),
            )
            for s in seqs
        ]
        return per_field, hankel.apww_check(self.APWW_ORDER)

    def check(self, seqs, out):
        per_field, apww = out
        for result in per_field:
            error = check_oddp(*result)
            if error:
                return error
        return None if apww.ok else f"apww_check failed at order {apww.first_failure}"


WORKLOADS = {
    "verify-phi2-512": lambda seed, workdir: Verify(seed, workdir, "phi2-random"),
    "verify-random-512": lambda seed, workdir: Verify(seed, workdir, "random-unconstrained"),
    "analyze-phi1-2048": Analyze,
    "oddp-256": OddP,
}
