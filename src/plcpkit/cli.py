"""Command line interface.

Exit codes: 0 success (for `verify`: every trial unanimous), 1 usage or
input error, 2 a `verify` trial where the five properties disagreed —
mathematically that should never happen, so 2 means "investigate".
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from plcpkit import __version__, backend_name
from plcpkit.automata import as_kernel_input, kernel_explore
from plcpkit.cfrac import _flat_face, has_flat_expansion, laurent_cf, orthogonal_multiplicity
from plcpkit.field import (
    _RESIDUE,
    GF2,
    CoeffSeq,
    DensePoly,
    PrimeField,
    dumps_sequence,
    read_sequence,
)
from plcpkit.hankel import hankel_integer_pm1, hankel_mod_p, is_apwenian_hankel
from plcpkit.lincomplex import first_imperfect_length, is_plcp, lcp_profile, recurrence_check
from plcpkit.seqgen import (
    _SPELLINGS,
    BitSource,
    derive_seed,
    named_sequence,
    phi1_jacobi,
    phi2_selector,
    phi3_generalized_rueppel,
    rueppel,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2

REPORT_FORMAT = 1

# families driven by a --b bit stream, and the two Rueppel sequences
_B_FAMILIES = {"phi1": phi1_jacobi, "phi2": phi2_selector, "phi3": phi3_generalized_rueppel}
_RUEPPEL = {"rueppel1": "first", "rueppel2": "second"}
_FAMILIES = (*_RUEPPEL, *_B_FAMILIES, *_SPELLINGS)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # mathematical disagreement, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# parse_args leaves the parser unchanged, so one parser serves every call
@functools.cache
def _build_parser() -> _Parser:
    top = _Parser(prog="plcpkit", description=__doc__)
    top.add_argument("--version", action="version", version=f"plcpkit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a sequence file")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--b", help="bit stream for the phi families, e.g. random:42, periodic::1, literal:1011")
    gen.add_argument("--length", required=True, type=int)
    gen.add_argument("--out", help="output path (default: stdout)")

    analyze = sub.add_parser("analyze", help="analyze a sequence file")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    lcp = asub.add_parser("lcp", help="linear complexity profile")
    lcp.add_argument("--in", dest="infile", required=True)
    lcp.add_argument("--csv", help="write rows n,L,ceil_half,perfect to a file")

    cf = asub.add_parser("cf", help="continued fraction of the Laurent series")
    cf.add_argument("--in", dest="infile", required=True)
    cf.add_argument("--json", help="write the report as JSON to a file")

    han = asub.add_parser("hankel", help="Hankel determinants")
    han.add_argument("--in", dest="infile", required=True)
    han.add_argument("--max", dest="max_order", required=True, type=int)
    han.add_argument(
        "--exact-pm1",
        action="store_true",
        help="map bits to +-1 via (-1)^bit and compute exact integer determinants",
    )
    han.add_argument("--csv", help="write rows n,value,odd to a file")

    ker = asub.add_parser("kernel", help="2-kernel scan")
    ker.add_argument("--in", dest="infile", required=True)
    ker.add_argument("--tau", type=int, default=64)
    ker.add_argument("--max-classes", type=int, default=256)
    ker.add_argument(
        "--dot",
        metavar="PATH",
        help="write the class graph to a file as an edge list, one 'class_i --op--> class_j' per line",
    )

    om = asub.add_parser("om", help="orthogonal multiplicity of a polynomial")
    om.add_argument("--g", required=True, help="ascending coefficients, e.g. 0,1 for t")
    om.add_argument("--field", type=int, default=2)

    ver = sub.add_parser("verify", help="check the five equivalent properties")
    ver.add_argument(
        "--source",
        required=True,
        choices=("phi2-random", "random-unconstrained", "file"),
    )
    ver.add_argument("--trials", type=int, default=1)
    ver.add_argument("--length", type=int, default=512)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--in", dest="infile", help="sequence file for --source file")
    ver.add_argument("--report", help="write the structured report to a file")

    return top


def _write_text(path, text):
    """Text to the file at path, or to stdout when path is None or ""."""
    if not path:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


# --- gen -------------------------------------------------------------------


def _generate(family, b_spec, length):
    if family in _B_FAMILIES:
        if b_spec is None:
            raise _UsageError(f"family {family} requires --b")
        b = BitSource.parse(b_spec)
        return _B_FAMILIES[family](b, length), b.spec()
    if b_spec is not None:
        raise _UsageError(f"family {family} does not take --b")
    if family in _RUEPPEL:
        return rueppel(_RUEPPEL[family], length), None
    return named_sequence(family, length), None


def _cmd_gen(args):
    if args.length < 1:
        raise _UsageError("--length must be >= 1")
    seq, canonical_b = _generate(args.family, args.b, args.length)
    invocation = f"plcpkit gen --family {args.family}"
    if canonical_b is not None:
        invocation += f" --b {canonical_b}"
    invocation += f" --length {args.length}"
    if args.out:
        invocation += f" --out {args.out}"
    _write_text(args.out, dumps_sequence(seq))
    print(invocation, file=sys.stderr)
    return EXIT_OK


# --- analyze ---------------------------------------------------------------


def _write_table(csv_path, header, rows, before, after=()):
    """Rows as CSV under `header` to csv_path, or else as a tab-separated
    table on stdout between the text lines `before` and `after`."""
    if csv_path:
        with open(csv_path, "w", newline="", encoding="ascii") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    else:
        line = "\t".join(["%s"] * len(header))
        lines = [*before, *(line % row for row in rows), *after]
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_lcp(args):
    seq = read_sequence(args.infile).shift_index(1)
    profile = lcp_profile(seq)
    rows = [
        (n, l, (n + 1) // 2, str(l == (n + 1) // 2).lower())
        for n, l in enumerate(profile.values, start=1)
    ]
    header = ("n", "L", "ceil_half", "perfect")
    after = [f"perfect-profile: {str(is_plcp(profile)).lower()}"]
    _write_table(args.csv, header, rows, ["n\tL\tceil(n/2)\tperfect"], after)
    return EXIT_OK


def _cmd_cf(args):
    seq = read_sequence(args.infile).shift_index(1)
    cf = laurent_cf(seq)
    text = {q: q.to_string() for q in set(cf.quotients)}  # each distinct quotient once
    degrees = cf.degrees()
    doc = {
        "tool-version": __version__,
        "format-version": REPORT_FORMAT,
        "invocation": f"plcpkit analyze cf --in {args.infile}",
        "field": cf.field.p,
        "integer-part": cf.integer_part.to_string(),
        "degrees": list(degrees),
        "quotients": [text[q] for q in cf.quotients],
        "units": list(cf.units),
        "guaranteed-count": cf.guaranteed_count,
        "next-degree-bound": cf.next_degree_bound,
        "max-degree": max(degrees, default=None),
        "flat": has_flat_expansion(cf, len(seq)),
    }
    _write_text(args.json, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_hankel(args):
    seq = read_sequence(args.infile).shift_index(0)
    if args.max_order < 1:
        raise _UsageError("--max must be >= 1")
    if args.exact_pm1:
        if seq.field.p != 2:
            raise _UsageError("--exact-pm1 needs a field=2 input")
        entries = [1 - 2 * t for t in seq.terms]
        values = hankel_integer_pm1(entries, args.max_order).values
    else:
        values = hankel_mod_p(seq, args.max_order).values
    # the odd column is a parity: F2 and exact values have one, odd p shows "-"
    rows = [
        (n, v, ("true" if v % 2 else "false") if seq.field.p == 2 else "-")
        for n, v in enumerate(values, start=1)
    ]
    label = "exact" if args.exact_pm1 else f"mod {seq.field.p}"
    before = [f"hankel determinants ({label}), orders 1..{args.max_order}", "n\tvalue\todd"]
    _write_table(args.csv, ("n", "value", "odd"), rows, before)
    return EXIT_OK


def _cmd_kernel(args):
    seq = as_kernel_input(read_sequence(args.infile))
    report = kernel_explore(seq, tau=args.tau, max_classes=args.max_classes)
    print(f"plcpkit {__version__} kernel scan (format {REPORT_FORMAT})")
    print(
        f"invocation: plcpkit analyze kernel --in {args.infile}"
        f" --tau {args.tau} --max-classes {args.max_classes}"
    )
    print(report.summary())
    if args.dot:
        lines = [
            f"class_{i} --{op}--> class_{j}"
            for (i, op), j in sorted(report.edges.items())
        ]
        _write_text(args.dot, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_om(args):
    words = [x.strip() for x in args.g.split(",")]
    if not all(map(_RESIDUE.fullmatch, words)):
        raise _UsageError(f"--g wants comma-separated ints: {args.g!r}")
    field = PrimeField(args.field)
    g = DensePoly(field, map(int, words))
    om = orthogonal_multiplicity(g)  # refuses a bad g before anything is printed
    print(f"g = {g.to_string()} over F{field.p}")
    print(f"orthogonal-multiplicity: {om}")
    return EXIT_OK


# --- verify ----------------------------------------------------------------


def five_property_battery(s1: CoeffSeq) -> dict:
    """The five equivalent characterizations, by four routes: faces 3 and 4
    are one relation, so the two recurrence keys share one `recurrence_check`.

    The profile and Hankel faces stop at their first failure
    (`first_imperfect_length`, `first_even_hankel_order`), and the
    continued fraction at its probe (`cfrac._flat_face`) when the first 32
    terms are already not flat."""
    recurrence = recurrence_check(s1)
    return {
        "profile-perfect": first_imperfect_length(s1) is None,
        "cf-flat": _flat_face(s1),
        "shift-recurrence": recurrence,
        "apwenian-recurrence": recurrence,
        "hankel-all-odd": is_apwenian_hankel(s1.shift_index(0)),
    }


def _verify_sequences(args):
    if args.source == "file":
        if not args.infile:
            raise _UsageError("--source file requires --in")
        seq = read_sequence(args.infile)
        if seq.field.p != 2:
            raise _UsageError("verify is defined over field=2 inputs")
        s1 = seq.shift_index(1)
        if s1.terms[0] != 1:
            raise _UsageError("verify requires a sequence with leading term 1")
        yield args.infile, s1
        return
    if args.infile:
        raise _UsageError("--in is only read with --source file")
    if args.length < 8:
        raise _UsageError("--length must be >= 8")
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    for t in range(args.trials):
        trial_seed = derive_seed(args.seed, t)
        b = BitSource.seeded(trial_seed)
        if args.source == "phi2-random":
            label = f"phi2 --b random:{trial_seed}"
            s1 = phi2_selector(b, args.length).shift_index(1)
        else:
            label = f"random-unconstrained seed {trial_seed} (s_1 forced to 1)"
            bits = [1] + b.take(args.length - 1)
            s1 = CoeffSeq(GF2, bits, origin=1)
        yield label, s1


def _cmd_verify(args):
    lines = [
        f"plcpkit-report-version: {REPORT_FORMAT}",
        f"tool-version: {__version__}",
        f"backend: {backend_name()}",
        "command: verify",
        f"invocation: plcpkit verify --source {args.source} --trials {args.trials}"
        f" --length {args.length} --seed {args.seed}"
        + (f" --in {args.infile}" if args.infile else ""),
        "prng: splitmix64, words consumed least significant bit first",
    ]
    unanimous_true = unanimous_false = disagreements = 0
    for i, (label, s1) in enumerate(_verify_sequences(args)):
        props = five_property_battery(s1)
        votes = set(props.values())
        lines.append(f"trial-{i}:")
        lines.append(f"  generator: {label}")
        lines.append(f"  length: {len(s1)}")
        for key, val in props.items():
            lines.append(f"  {key}: {str(val).lower()}")
        if len(votes) == 1:
            lines.append("  unanimous: true")
            if props["profile-perfect"]:
                unanimous_true += 1
            else:
                unanimous_false += 1
        else:
            lines.append("  unanimous: false")
            disagreements += 1
    lines.append("summary:")
    lines.append(f"  unanimous-true: {unanimous_true}")
    lines.append(f"  unanimous-false: {unanimous_false}")
    lines.append(f"  disagreements: {disagreements}")
    verdict = "ok" if disagreements == 0 else "disagreement"
    lines.append(f"verdict: {verdict}")
    _write_text(args.report, "\n".join(lines) + "\n")
    return EXIT_OK if disagreements == 0 else EXIT_DISAGREE


# --- entry -----------------------------------------------------------------


# gen and verify by command, analyze by its analysis
_COMMANDS = {"gen": _cmd_gen, "verify": _cmd_verify, "lcp": _cmd_lcp, "cf": _cmd_cf,
             "hankel": _cmd_hankel, "kernel": _cmd_kernel, "om": _cmd_om}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[getattr(args, "analysis", args.command)](args)
    except (_UsageError, ValueError, ZeroDivisionError, OSError) as e:
        # file format errors land here too: SequenceFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
