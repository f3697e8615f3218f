"""Tests for the benchmark's own correctness checks and tracer.

Run with `python -m pytest perfbench` from the repository root.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class SmallVerify(workloads.Verify):
    LENGTH = 64


class SmallOddP(workloads.OddP):
    LENGTH = 64
    HANKEL_ORDER = 16
    APWW_ORDER = 8


class Corrupted:
    """A workload whose op output passes through `corrupt` before the check."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt

    def next_input(self):
        return self.inner.next_input()

    def run(self, op_input):
        return self.corrupt(self.inner.run(op_input))

    def check(self, op_input, out):
        return self.inner.check(op_input, out)


def failed_ops(workload):
    latencies, _, failed = run.measure(workload, seconds=0)
    assert len(latencies) == 1
    return failed


def _replace_line(old, new):
    def corrupt(out):
        code, text = out
        assert old in text
        return code, text.replace(old, new)

    return corrupt


@pytest.mark.parametrize("source", ["phi2-random", "random-unconstrained"])
def test_untouched_verify_ops_pass(source):
    assert failed_ops(SmallVerify(7, None, source)) == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        _replace_line("hankel-all-odd: true", "hankel-all-odd: false"),
        _replace_line("length: 64", "length: 63"),
        lambda out: (out[0], out[1][: len(out[1]) // 2]),
        lambda out: (2, out[1]),
    ],
    ids=["flipped-property", "wrong-length", "truncated", "exit-code"],
)
def test_corrupted_report_is_a_failed_op(corrupt):
    assert failed_ops(Corrupted(SmallVerify(7, None, "phi2-random"), corrupt)) == 1


def test_flipped_verdict_is_a_failed_op():
    flip = _replace_line("verdict: ok", "verdict: disagreement")
    assert failed_ops(Corrupted(SmallVerify(7, None, "phi2-random"), flip)) == 1


def test_random_report_claiming_perfect_is_a_failed_op():
    def claim_perfect(out):
        code, text = out
        for prop in workloads.PROPERTIES:
            text = text.replace(f"{prop}: false", f"{prop}: true")
        return code, text

    assert failed_ops(Corrupted(SmallVerify(7, None, "random-unconstrained"), claim_perfect)) == 1


def _flip_hankel(out):
    per_field, apww = out
    seq, profile, cf, report = per_field[0]
    values = list(report.values)
    values[-1] = 0 if values[-1] else 1
    per_field[0] = (seq, profile, cf, dataclasses.replace(report, values=tuple(values)))
    return per_field, apww


def test_oddp_ops_pass_and_wrong_hankel_cf_relation_fails():
    assert failed_ops(SmallOddP(3, None)) == 0
    assert failed_ops(Corrupted(SmallOddP(3, None), _flip_hankel)) == 1


def test_exception_in_op_is_a_failed_op():
    def boom(out):
        raise RuntimeError("broken op")

    assert failed_ops(Corrupted(SmallOddP(3, None), boom)) == 1


def test_analyze_check_rejects_a_non_flat_cf(tmp_path):
    wl = workloads.Analyze(1, str(tmp_path))
    wl.LENGTH = 1024  # the shortest phi3(1(001)^w) prefix whose kernel scan closes
    b_seed = wl.next_input()
    steps = wl.run(b_seed)
    assert wl.check(b_seed, steps) is None
    code, text = steps["cf"]
    steps["cf"] = (code, text.replace('"flat": true', '"flat": false'))
    assert wl.check(b_seed, steps) is not None


def test_tracer_restores_every_wrapped_name():
    import plcpkit
    from plcpkit import _kernels, cli, field, hankel

    def names():
        return (cli.main, hankel.hankel_mod_p, _kernels.hankel_parities, field.DensePoly.__mul__,
                plcpkit.lcp_profile)

    before = names()
    tracer = Tracer()
    wl = SmallVerify(7, None, "phi2-random")
    latency, error = run.run_op(wl, wl.next_input(), tracer)
    assert error is None
    assert all(a is b for a, b in zip(before, names()))
    assert {"cli", "hankel", "_kernels"} <= {span[3] for span in tracer.spans}
    assert tracer.counts["hankel.orders"] == 32


def test_own_prng_copy_matches_the_cli_generator():
    from plcpkit.seqgen import BitSource, derive_seed

    for seed in (0, 1, 2**40 + 3):
        assert workloads.trial_seed(seed) == derive_seed(seed, 0)
        assert workloads.seeded_bits(seed, 200) == BitSource.seeded(seed).take(200)


def test_tail_is_the_highest_sample_with_ten_above_it():
    assert run.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 10)
    assert run.tail([5, 1, 3]) == (5, 100.0, 0)


def test_latencies_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_MS / 1e3
    assert run.at_reference_speed([0.3, 0.6, 0.15], [ref, 2 * ref, ref / 2]) == pytest.approx([0.3] * 3)
