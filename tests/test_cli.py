"""End-to-end command line checks through main(argv)."""

import csv
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hankel_oracle import bareiss_values, hankel_by_columns, hankel_parities

import plcpkit
from plcpkit import cli
from plcpkit.cfrac import laurent_cf
from plcpkit.field import (
    GF2,
    CoeffSeq,
    PrimeField,
    dumps_sequence,
    read_sequence,
    write_sequence,
)
from plcpkit.hankel import hankel_mod_p
from plcpkit.lincomplex import first_imperfect_length, is_plcp, lcp_profile
from plcpkit.seqgen import BitSource, phi2_selector, rueppel


def run(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_version_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "plcpkit" in capsys.readouterr().out


def test_module_runs_as_a_script():
    # runs cli's `if __name__ == "__main__":` line, which main(argv) never reaches
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "plcpkit.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "plcpkit 0.1.0\n", "")


def test_every_export_resolves():
    # a deleted function must not leave its name behind in an __all__
    exported = 0
    for info in pkgutil.iter_modules(plcpkit.__path__):
        module = importlib.import_module(f"plcpkit.{info.name}")
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
        exported += len(names)
    assert exported


# everything `import plcpkit` offers besides its submodules
_TOP_LEVEL = {
    "BerlekampMassey", "BitSource", "CoeffSeq", "ContinuedFraction", "DensePoly", "GF2",
    "LCProfile", "PrimeField", "UniformMorphism", "apww_check", "as_kernel_input",
    "backend_name", "build_from_u", "convergents",
    "expected_lc", "first_even_hankel_order", "first_imperfect_length",
    "hankel_integer_pm1", "hankel_mod_p", "has_flat_expansion", "is_apwenian_hankel",
    "is_plcp", "kernel_explore", "klx_check", "laurent_cf", "lcp_profile",
    "morphism_fixed_point", "named_sequence", "orthogonal_multiplicity", "phi1_jacobi",
    "phi2_selector", "phi3_generalized_rueppel", "phi3_kernel_counts", "phi3_kernel_size",
    "poly_divmod", "poly_gcd", "profile_from_cf", "rational_cf", "read_sequence",
    "recurrence_check", "rueppel", "uniform_morphism_scan", "uv_decompose",
    "write_sequence",
}


def test_top_level_public_names():
    # a public name leaves `import plcpkit` only with this set; the profile's
    # oracles live in tests/lc_oracle.py, the count-law mean in the library
    names = {
        n
        for n in dir(plcpkit)
        if not n.startswith("_") and not isinstance(getattr(plcpkit, n), types.ModuleType)
    }
    assert names == _TOP_LEVEL


def test_gen_stdout_matches_file_output(capsys, tmp_path):
    rc, out, err = run(capsys, "gen", "--family", "rueppel1", "--length", "16")
    assert rc == 0
    assert out == dumps_sequence(rueppel("first", 16))
    assert err.strip() == "plcpkit gen --family rueppel1 --length 16"
    path = tmp_path / "r.seq"
    rc, out, err = run(
        capsys, "gen", "--family", "rueppel1", "--length", "16", "--out", str(path)
    )
    assert rc == 0 and out == ""
    assert path.read_text() == dumps_sequence(rueppel("first", 16))


def test_gen_rueppel_worked_example(capsys, tmp_path):
    path = tmp_path / "r1.seq"
    rc, out, err = run(capsys, "gen", "--family", "rueppel1", "--length", "8",
                       "--out", str(path))
    assert rc == 0
    assert path.read_text() == "# field=2 origin=1 length=8\nbits=11010001\n"


def test_gen_rueppel2_worked_example(capsys):
    rc, out, err = run(capsys, "gen", "--family", "rueppel2", "--length", "8")
    assert rc == 0
    assert out == "# field=2 origin=1 length=8\nbits=10100010\n"
    assert out == dumps_sequence(rueppel("second", 8))


def test_gen_lists_every_family_in_order(capsys):
    rc, out, err = run(capsys, "gen", "--family", "fibonacci", "--length", "8")
    assert rc == 1
    assert (
        "invalid choice: 'fibonacci' (choose from 'rueppel1', 'rueppel2', 'phi1',"
        " 'phi2', 'phi3', 'pd', 'period-doubling', 'thue-morse', 'z', 'z-seq', 'w',"
        " 'w-seq')"
    ) in err


def test_gen_echoes_canonical_bit_source(capsys):
    rc, out, err = run(
        capsys, "gen", "--family", "phi3", "--b", "periodic::1", "--length", "8"
    )
    assert rc == 0
    assert "--b periodic::1" in err


def test_gen_usage_errors(capsys):
    cases = [
        ("gen", "--family", "phi2", "--length", "8"),  # missing --b
        ("gen", "--family", "pd", "--b", "random:1", "--length", "8"),
        ("gen", "--family", "fibonacci", "--length", "8"),
        ("gen", "--family", "phi1", "--b", "what:1", "--length", "8"),
        ("gen", "--family", "pd", "--length", "0"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert "error:" in err or "usage:" in err


def test_lcp_table_and_csv(capsys, tmp_path):
    seq_path = tmp_path / "s.seq"
    run(capsys, "gen", "--family", "phi2", "--b", "random:5", "--length", "64",
        "--out", str(seq_path))
    rc, out, err = run(capsys, "analyze", "lcp", "--in", str(seq_path))
    assert rc == 0
    assert "perfect-profile: true" in out
    assert out.count("\n") == 66  # header + 64 rows + verdict
    csv_path = tmp_path / "profile.csv"
    rc, out, err = run(
        capsys, "analyze", "lcp", "--in", str(seq_path), "--csv", str(csv_path)
    )
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "L", "ceil_half", "perfect"]
    assert rows[1] == ["1", "1", "1", "true"]
    assert len(rows) == 65
    assert all(r[3] == "true" for r in rows[1:])


def test_cf_json_document(capsys, tmp_path):
    seq_path = tmp_path / "s.seq"
    run(capsys, "gen", "--family", "phi1", "--b", "random:7", "--length", "64",
        "--out", str(seq_path))
    json_path = tmp_path / "cf.json"
    rc, out, err = run(
        capsys, "analyze", "cf", "--in", str(seq_path), "--json", str(json_path)
    )
    assert rc == 0 and out == ""
    doc = json.loads(json_path.read_text())
    assert doc["field"] == 2
    assert doc["integer-part"] == "0"
    assert doc["guaranteed-count"] == 32
    assert doc["degrees"] == [1] * 32
    assert doc["next-degree-bound"] == 1
    assert doc["max-degree"] == 1
    assert doc["flat"] is True
    assert len(doc["quotients"]) == len(doc["degrees"])
    # quotients of degree > 1, several of them equal, are written term by term
    rng = random.Random(0)
    seq = CoeffSeq(GF2, [rng.randrange(2) for _ in range(64)], origin=1)
    write_sequence(seq, seq_path)
    rc, out, err = run(capsys, "analyze", "cf", "--in", str(seq_path), "--json", str(json_path))
    doc = json.loads(json_path.read_text())
    assert rc == 0 and max(doc["degrees"]) > 1 and len(set(doc["quotients"])) < len(doc["quotients"])
    assert doc["quotients"] == [q.to_string() for q in laurent_cf(seq).quotients]
    assert doc["quotients"][5] == "t^4 + t^3 + t^2 + 1"


def test_cf_report_on_stdout_equals_the_json_file(capsys, tmp_path):
    seq_path = tmp_path / "s.seq"
    run(capsys, "gen", "--family", "phi3", "--b", "periodic:1:001", "--length", "100",
        "--out", str(seq_path))
    json_path = tmp_path / "cf.json"
    rc, out, err = run(capsys, "analyze", "cf", "--in", str(seq_path), "--json", str(json_path))
    assert rc == 0 and out == ""
    for extra in ((), ("--json", "")):
        rc, out, err = run(capsys, "analyze", "cf", "--in", str(seq_path), *extra)
        assert rc == 0 and out == json_path.read_text()
    assert json.loads(out)["degrees"] == [1] * 50


def test_hankel_table_exact_and_csv(capsys, tmp_path):
    seq_path = tmp_path / "s.seq"
    run(capsys, "gen", "--family", "rueppel1", "--length", "16",
        "--out", str(seq_path))
    rc, out, err = run(capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "4")
    assert rc == 0
    assert "mod 2" in out
    assert out.count("\ttrue") == 4
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "4", "--exact-pm1"
    )
    assert rc == 0 and "exact" in out
    f3_path = tmp_path / "f3.seq"
    write_sequence(CoeffSeq(PrimeField(3), [1, 2, 0, 1, 2], origin=0), f3_path)
    csv_path = tmp_path / "h.csv"
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(f3_path), "--max", "2",
        "--csv", str(csv_path)
    )
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "value", "odd"]
    assert [r[2] for r in rows[1:]] == ["-", "-"]
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(f3_path), "--max", "2", "--exact-pm1"
    )
    assert rc == 1 and "field=2" in err
    rc, out, err = run(capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "0")
    assert rc == 1


def test_hankel_table_past_the_first_even_order(capsys, tmp_path):
    # flipping c_60 of a perfect prefix makes H_31 the first even order;
    # odd and even orders follow it up to --max
    bits = list(phi2_selector(BitSource.seeded(4), 256).terms)
    bits[60] ^= 1
    seq_path = tmp_path / "flip.seq"
    write_sequence(CoeffSeq(GF2, bits, origin=0), seq_path)
    parities = hankel_parities(bits, 64)
    assert parities.index(0) == 30 and 0 < parities[31:].count(1) < 33
    rows = [(str(n), str(v), "true" if v else "false") for n, v in enumerate(parities, start=1)]
    rc, out, err = run(capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "64")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:2] == ["hankel determinants (mod 2), orders 1..64", "n\tvalue\todd"]
    assert lines[2:] == ["\t".join(row) for row in rows]
    csv_path = tmp_path / "flip.csv"
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "64", "--csv", str(csv_path)
    )
    assert rc == 0 and out == ""
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh)) == [["n", "value", "odd"]] + [list(row) for row in rows]


def test_hankel_table_of_a_perfect_prefix_at_order_256(capsys, tmp_path):
    # every order odd: the pass fills 42 six-column tables on the way
    bits = list(phi2_selector(BitSource.seeded(12), 512).terms)
    seq_path = tmp_path / "phi2.seq"
    write_sequence(CoeffSeq(GF2, bits, origin=0), seq_path)
    parities = hankel_parities(bits, 256)
    assert parities == [1] * 256
    rows = [(str(n), str(v), "true" if v else "false") for n, v in enumerate(parities, start=1)]
    rc, out, err = run(capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "256")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:2] == ["hankel determinants (mod 2), orders 1..256", "n\tvalue\todd"]
    assert lines[2:] == ["\t".join(row) for row in rows]
    csv_path = tmp_path / "phi2.csv"
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "256", "--csv", str(csv_path)
    )
    assert rc == 0 and out == ""
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh)) == [["n", "value", "odd"]] + [list(row) for row in rows]


def test_hankel_table_over_f5(capsys, tmp_path):
    # c_0 = 0 makes H_1 = 0; nonzero and zero orders follow it up to --max
    rng = random.Random(14)
    seq = CoeffSeq(PrimeField(5), [rng.randrange(5) for _ in range(127)], origin=0)
    seq_path = tmp_path / "f5.seq"
    write_sequence(seq, seq_path)
    values = hankel_by_columns(seq, 64)
    assert values[0] == 0 and 0 < values.count(0) < 32
    rows = [(str(n), str(v), "-") for n, v in enumerate(values, start=1)]
    rc, out, err = run(capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "64")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:2] == ["hankel determinants (mod 5), orders 1..64", "n\tvalue\todd"]
    assert lines[2:] == ["\t".join(row) for row in rows]
    csv_path = tmp_path / "f5.csv"
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "64", "--csv", str(csv_path)
    )
    assert rc == 0 and out == ""
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh)) == [["n", "value", "odd"]] + [list(row) for row in rows]


@pytest.mark.parametrize("source", ["thue-morse", "random"])
def test_hankel_table_exact_pm1_at_order_64(capsys, tmp_path, source):
    # b -> (-1)^b: thue-morse has every H_n nonzero and even past n = 1; the
    # random prefix has zero orders among odd and even ones
    seq_path = tmp_path / "s.seq"
    if source == "thue-morse":
        run(capsys, "gen", "--family", "thue-morse", "--length", "127", "--out", str(seq_path))
    else:
        bits = random.Random(15).choices((0, 1), k=127)
        write_sequence(CoeffSeq(GF2, bits, origin=0), seq_path)
    seq = read_sequence(seq_path).shift_index(0)
    values = bareiss_values([1 - 2 * t for t in seq.terms], 64)
    assert (values.count(0) > 0) == (source == "random")
    rows = [(str(n), str(v), "true" if v % 2 else "false") for n, v in enumerate(values, start=1)]
    if source == "thue-morse":  # H_n = 2^(n-1) times an odd integer
        assert [row[2] for row in rows] == ["true"] + ["false"] * 63
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "64", "--exact-pm1"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[:2] == ["hankel determinants (exact), orders 1..64", "n\tvalue\todd"]
    assert lines[2:] == ["\t".join(row) for row in rows]
    csv_path = tmp_path / "s.csv"
    rc, out, err = run(
        capsys, "analyze", "hankel", "--in", str(seq_path), "--max", "64", "--exact-pm1",
        "--csv", str(csv_path)
    )
    assert rc == 0 and out == ""
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh)) == [["n", "value", "odd"]] + [list(row) for row in rows]


def test_kernel_report_and_dot(capsys, tmp_path):
    seq_path = tmp_path / "pd.seq"
    run(capsys, "gen", "--family", "pd", "--length", "8192", "--out", str(seq_path))
    dot_path = tmp_path / "kernel.dot"
    rc, out, err = run(
        capsys, "analyze", "kernel", "--in", str(seq_path), "--dot", str(dot_path)
    )
    assert rc == 0
    assert "classes: 4" in out and "closed: true" in out
    assert dot_path.read_text().splitlines() == [
        "class_0 --T0--> class_1",
        "class_0 --T1--> class_2",
        "class_1 --T0--> class_1",
        "class_1 --T1--> class_1",
        "class_2 --T0--> class_3",
        "class_2 --T1--> class_0",
        "class_3 --T0--> class_3",
        "class_3 --T1--> class_3",
    ]
    short_path = tmp_path / "short.seq"
    run(capsys, "gen", "--family", "pd", "--length", "64", "--out", str(short_path))
    rc, out, err = run(capsys, "analyze", "kernel", "--in", str(short_path))
    assert rc == 1 and "precision too small" in err


def test_om_subcommand(capsys):
    rc, out, err = run(capsys, "analyze", "om", "--g", "1,1,1")
    assert rc == 0
    assert "orthogonal-multiplicity: 2" in out
    rc, out, err = run(capsys, "analyze", "om", "--g", "1,,1")
    assert rc == 1 and "comma-separated" in err
    rc, out, err = run(capsys, "analyze", "om", "--g", "1")
    assert rc == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--g", "0,0"], "g must have degree >= 1"),
        (["--g", "1,2"], "g must have degree >= 1"),  # 2 = 0 over F2
        (["--g", "1,2", "--field", "3"], "g must be monic"),
        # int() would take each of these three
        (["--g", "1_0,1", "--field", "13"], "--g wants comma-separated ints: '1_0,1'"),
        (["--g", "+1,1", "--field", "13"], "--g wants comma-separated ints: '+1,1'"),
        (["--g", "1,\u0661", "--field", "13"], "--g wants comma-separated ints: '1,\u0661'"),
    ],
    ids=["zero", "degree-0-over-F2", "not-monic", "underscore", "plus-sign", "non-ascii-digit"],
)
def test_om_refuses_before_printing(capsys, argv, message):
    rc, out, err = run(capsys, "analyze", "om", *argv)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("g, printed", [(" 1 , 1 ", "t + 1"), ("-1,1", "t + 12")], ids=["spaces", "negative"])
def test_om_takes_spaces_and_negative_coefficients(capsys, g, printed):
    rc, out, err = run(capsys, "analyze", "om", f"--g={g}", "--field", "13")
    assert rc == 0 and out.startswith(f"g = {printed} over F13\n")


@pytest.mark.parametrize("length", [64, 513])
@pytest.mark.parametrize("source", ["phi2-random", "random-unconstrained"])
def test_verify_report_matches_the_golden_file(capsys, source, length):
    # tests/golden holds the reports as made at commit f9f7285; tier1.yml
    # diffs the installed console script's output against one of them
    rc, out, err = run(
        capsys, "verify", "--source", source, "--trials", "3", "--seed", "11", "--length", str(length)
    )
    assert (rc, err) == (0, "")
    golden = Path(__file__).parent / "golden" / f"verify-{source}-{length}.txt"
    assert out.encode("ascii") == golden.read_bytes()


@pytest.mark.parametrize("name", ["hankel-phi2-512", "hankel-phi2-512-flip"])
def test_analyze_hankel_report_matches_the_golden_file(capsys, name):
    # reports made at commit 0295cae: a perfect phi2 prefix, and the same with
    # c_301 flipped, whose first even order 152 has odd and even orders after it
    golden = Path(__file__).parent / "golden"
    path = str(golden / f"{name}.seq")
    rc, out, err = run(capsys, "analyze", "hankel", "--in", path, "--max", "256")
    assert (rc, err) == (0, "")
    assert out.encode("ascii") == (golden / f"{name}-hankel-256.txt").read_bytes()


def test_verify_file_report_past_the_probe_matches_the_golden_file(capsys, monkeypatch):
    # made at commit e024cc0 from the repository root: the flipped phi2
    # prefix first fails at n = 303, so its 32-term head is flat and the
    # continued fraction face expands all 512 terms
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    path = "tests/golden/hankel-phi2-512-flip.seq"
    assert first_imperfect_length(read_sequence(path).shift_index(1)) == 303
    rc, out, err = run(capsys, "verify", "--source", "file", "--in", path)
    assert (rc, err) == (0, "")
    assert out.encode("ascii") == (root / "tests" / "golden" / "verify-file-phi2-512-flip.txt").read_bytes()


def test_verify_phi2_trials_unanimous(capsys):
    rc, out, err = run(
        capsys, "verify", "--source", "phi2-random", "--trials", "2",
        "--length", "128", "--seed", "1"
    )
    assert rc == 0
    assert "prng: splitmix64" in out
    assert "unanimous-true: 2" in out
    assert "disagreements: 0" in out
    assert "verdict: ok" in out


def test_verify_unconstrained_is_unanimously_false(capsys):
    # a 128-term coin-flip sequence is essentially never perfect; the
    # point is that all five detectors say so together and exit 0
    rc, out, err = run(
        capsys, "verify", "--source", "random-unconstrained", "--trials", "2",
        "--length", "128", "--seed", "3"
    )
    assert rc == 0
    assert "unanimous-false: 2" in out
    assert "verdict: ok" in out


def test_verify_file_source(capsys, tmp_path):
    seq_path = tmp_path / "s.seq"
    run(capsys, "gen", "--family", "phi2", "--b", "random:9", "--length", "64",
        "--out", str(seq_path))
    rc, out, err = run(capsys, "verify", "--source", "file", "--in", str(seq_path))
    assert rc == 0
    assert "unanimous: true" in out and "verdict: ok" in out
    tm_path = tmp_path / "tm.seq"
    run(capsys, "gen", "--family", "thue-morse", "--length", "32", "--out", str(tm_path))
    rc, out, err = run(capsys, "verify", "--source", "file", "--in", str(tm_path))
    assert rc == 1 and "leading term 1" in err
    rc, out, err = run(capsys, "verify", "--source", "file")
    assert rc == 1 and "requires --in" in err


def test_verify_file_unanimous_false(capsys, tmp_path):
    # fails every property at once: L sticks at 1, H_2 = 0, s_3 != s_2 + s_1
    path = tmp_path / "flat.seq"
    path.write_text("# field=2 origin=1 length=4\nbits=1000\n")
    rc, out, err = run(capsys, "verify", "--source", "file", "--in", str(path))
    assert rc == 0
    assert "unanimous: true" in out and "unanimous-false: 1" in out
    assert all(f"{key}: false" in out for key in (
        "profile-perfect", "cf-flat", "shift-recurrence",
        "apwenian-recurrence", "hankel-all-odd",
    ))
    assert "verdict: ok" in out


def test_verify_length_floor(capsys):
    rc, out, err = run(
        capsys, "verify", "--source", "phi2-random", "--length", "4"
    )
    assert rc == 1 and ">= 8" in err


def test_verify_usage_errors(capsys, tmp_path):
    rc, out, err = run(capsys, "verify", "--source", "phi2-random", "--trials", "0")
    assert (rc, out, err) == (1, "", "error: --trials must be >= 1\n")
    path = tmp_path / "f3.seq"
    path.write_text("# field=3 origin=1 length=4\n1 2 0 1\n")
    rc, out, err = run(capsys, "verify", "--source", "file", "--in", str(path))
    assert (rc, out, err) == (1, "", "error: verify is defined over field=2 inputs\n")


def test_verify_refuses_in_without_a_file_source(capsys):
    rc, out, err = run(
        capsys, "verify", "--source", "phi2-random", "--length", "16", "--in", "missing.seq"
    )
    assert (rc, out, err) == (1, "", "error: --in is only read with --source file\n")


def test_verify_report_file(capsys, tmp_path):
    report_path = tmp_path / "report.txt"
    rc, out, err = run(
        capsys, "verify", "--source", "phi2-random", "--length", "64",
        "--report", str(report_path)
    )
    assert rc == 0 and out == ""
    text = report_path.read_text()
    assert text.startswith("plcpkit-report-version: 1\n")
    assert "\nbackend: pure-python\n" in text
    assert "verdict: ok" in text


def test_verify_report_to_an_empty_path_goes_to_stdout(capsys, tmp_path):
    # as for gen --out, analyze cf --json and analyze lcp|hankel --csv
    report_path = tmp_path / "report.txt"
    argv = ("verify", "--source", "phi2-random", "--length", "8")
    run(capsys, *argv, "--report", str(report_path))
    rc, out, err = run(capsys, *argv, "--report", "")
    assert (rc, out, err) == (0, report_path.read_text(), "")


@pytest.mark.parametrize("length", [8, 9, 64, 511])
@pytest.mark.parametrize("source", ["phi2-random", "random-unconstrained"])
def test_battery_profile_vote_equals_the_full_profile(source, length):
    # the battery stops the profile at its first failure; the whole
    # profile stays the oracle for that vote
    argv = ["verify", "--source", source, "--trials", "24", "--length", str(length), "--seed", "7"]
    votes = set()
    for label, s1 in cli._verify_sequences(cli._build_parser().parse_args(argv)):
        vote = cli.five_property_battery(s1)["profile-perfect"]
        assert vote == is_plcp(lcp_profile(s1)), label
        votes.add(vote)
    if source == "phi2-random":
        assert votes == {True}
    elif length < 64:
        assert votes == {True, False}  # short random prefixes are sometimes perfect


def test_verify_disagreement_exit_code(capsys, monkeypatch):
    # unreachable mathematically; force it to check the plumbing
    def fake_battery(s1):
        return {
            "profile-perfect": True,
            "cf-flat": False,
            "shift-recurrence": True,
            "apwenian-recurrence": True,
            "hankel-all-odd": True,
        }

    monkeypatch.setattr(cli, "five_property_battery", fake_battery)
    rc, out, err = run(
        capsys, "verify", "--source", "phi2-random", "--length", "64"
    )
    assert rc == 2
    assert "unanimous: false" in out
    assert "disagreements: 1" in out
    assert "verdict: disagreement" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "--family", "rueppel1", "--length", "8"], 0),
        (["analyze", "lcp", "--in", "missing.seq"], 1),
    ],
    ids=["ok", "usage"],
)
def test_entry_exits_with_the_code_of_main(monkeypatch, tmp_path, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["plcpkit", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    assert ("error:" in capsys.readouterr().err) == bool(code)


def test_bad_input_files(capsys, tmp_path):
    bad = tmp_path / "bad.seq"
    bad.write_text("garbage\n")
    rc, out, err = run(capsys, "analyze", "lcp", "--in", str(bad))
    assert rc == 1 and "error:" in err
    rc, out, err = run(capsys, "analyze", "lcp", "--in", str(tmp_path / "missing.seq"))
    assert rc == 1 and "error:" in err
