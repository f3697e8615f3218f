"""plcpkit benchmark: one workload in one process, a closed loop with one client.

Run from a checkout's root (the package is imported from its src/):

    python3 perfbench/run.py --workload verify-phi2-512 --seed 1 --seconds 32 --trace 0

Workloads are listed in BENCHMARK.json.  With --trace 0 the run reports
the end-to-end metrics; nothing in the package is wrapped.  With
--trace 1 it runs every op input twice, untraced and traced, reports
the per-layer metrics and finishes with a length sweep.
Every op is checked; the run exits 1 if any op was wrong or raised.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  --record FILE also appends the full record (commit,
Python, backend, nproc, seed, fail ratio, tail percentile) as one JSON
line, which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 16
TAIL_BEYOND = 10

# The speed of a shared host drifts by up to half within seconds (one fixed
# verify op took 260-430 ms in one process, all of it CPU time).  So every
# op is also timed against a fixed pure-Python loop that uses no plcpkit
# code, run right before and right after it.  The timed metrics are
# reported at one fixed host speed, the speed at which that loop takes
# REFERENCE_MS: each op's wall time over the loop's mean time beside it.
REFERENCE_MS = 10.0
REFERENCE_ROWS = [random.Random(0x5EED).getrandbits(96) for _ in range(96)]
REFERENCE_PASSES = 40


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def make_workload(name, seed):
    """The set-up a workload process does before its first op."""
    import workloads

    workloads.warm_cli()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    return workloads.WORKLOADS[name](seed, workdir)


def probe_setup(name, seed):
    """Seconds from starting a fresh workload process until it is ready for its first op."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--probe", "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def reference_seconds():
    """Seconds one run of the reference loop takes: GF(2) elimination of a fixed matrix."""
    start = perf_counter()
    for _ in range(REFERENCE_PASSES):
        rows, n = list(REFERENCE_ROWS), len(REFERENCE_ROWS)
        for col in range(n):
            pos = 1 << col
            piv = next((r for r in range(col, n) if rows[r] & pos), -1)
            if piv < 0:
                continue
            rows[col], rows[piv] = rows[piv], rows[col]
            for r in range(col + 1, n):
                if rows[r] & pos:
                    rows[r] ^= rows[col]
    return perf_counter() - start


def at_reference_speed(latencies, references):
    """Each op latency scaled to the host speed at which the reference loop takes REFERENCE_MS."""
    target = REFERENCE_MS / 1e3
    return [t * target / r for t, r in zip(latencies, references)]


def run_op(workload, op_input, tracer=None):
    """(latency, error or None) of one checked op; a tracer is installed around it."""
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    start = perf_counter()
    try:
        out, error = workload.run(op_input), None
    except Exception as e:  # one broken op is counted, the run goes on
        traceback.print_exc()
        out, error = None, f"{type(e).__name__}: {e}"
    end = perf_counter()
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    if error is None:
        error = workload.check(op_input, out)
    if error:
        print(f"op failed: {error}", file=sys.stderr)
    return end - start, error


def measure(workload, seconds, between=None):
    """Run ops back to back for `seconds`; return (op latencies, reference times, failed count).

    An op's reference time is the mean of the reference loop's times right
    before and right after it.

    `between`, if given, is called before each op, outside its time.
    """
    latencies, references, failed = [], [], 0
    deadline = perf_counter() + seconds
    while True:
        if between is not None:
            between()
        op_input = workload.next_input()
        before = reference_seconds()
        latency, error = run_op(workload, op_input)
        latencies.append(latency)
        references.append((before + reference_seconds()) / 2)
        failed += error is not None
        if perf_counter() >= deadline:
            return latencies, references, failed


def measure_traced(workload, seconds, tracer):
    """Run each input untraced and traced, in alternating order, for `seconds`.

    Both runs of an input see the same machine state, so the ratio of
    their medians is the tracing overhead.  Returns (untraced latencies,
    traced latencies, failed count).
    """
    plain, traced, failed = [], [], 0
    deadline = perf_counter() + seconds
    while True:
        op_input = workload.next_input()
        tracer.op = len(traced)
        for use in (None, tracer) if len(traced) % 2 == 0 else (tracer, None):
            latency, error = run_op(workload, op_input, use)
            (plain if use is None else traced).append(latency)
            failed += error is not None
        if perf_counter() >= deadline:
            return plain, traced, failed


def tail(latencies):
    """(value, percentile, samples above): the highest sample with TAIL_BEYOND above it.

    With TAIL_BEYOND samples or fewer, that is the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(workload, args):
    # The machine's speed drifts on a scale of seconds, so the set-up probes
    # are spread over the run, where they sample the same states as the ops.
    start = perf_counter()
    due = [start + k * args.seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
    setup = []

    def probe_when_due():
        if due and perf_counter() >= due[0]:
            due.pop(0)
            setup.append(probe_setup(args.workload, args.seed))

    latencies, references, failed = measure(workload, args.seconds, probe_when_due)
    adjusted = at_reference_speed(latencies, references)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s_ref": (len(adjusted) - failed) / sum(adjusted),
        "op_p50_ms_ref": 1e3 * statistics.median(adjusted),
        "op_tail_ms_ref": 1e3 * tail(adjusted)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "wall": {
            "ops_per_s": (len(latencies) - failed) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
        },
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "samples": len(latencies),
        "setup_samples_s": setup,
        "op_latencies_s": latencies,
        "reference_s": references,
    }
    return metrics, len(latencies), failed, extra


def per_layer(workload, args):
    from spans import Tracer

    import sweep

    tracer = Tracer()
    untraced, traced, failed = measure_traced(workload, args.seconds, tracer)
    metrics = tracer.summary(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    exponents, points = sweep.run(args.seed)
    metrics.update(exponents)
    extra = {
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "spans": len(tracer.spans),
        "sweep_points": points,
    }
    return metrics, len(untraced) + len(traced), failed, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full record as one JSON line to this file")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "plcpkit" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    try:
        if args.probe:
            print("ready", flush=True)
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, extra = run(workload, args)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    import plcpkit

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "backend": plcpkit.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **extra,
        "metrics": result,
    }
    for key in ("workload", "seed", "commit", "python", "backend", "nproc"):
        print(f"{key}: {record[key]}")
    print(f"fail_ratio: {record['fail_ratio']} ({failed} of {attempted} ops)")
    for name, m in result.items():
        note = ""
        if name == "op_tail_ms_ref":
            note = (f"  (p{extra['op_tail_percentile']:.1f} of {extra['samples']} ops,"
                    f" {extra['op_tail_beyond']} above it)")
        print(f"{name}: {m['value']:.6g} {m['unit']}{note}")
    for name, value in extra.get("wall", {}).items():
        print(f"{name} (wall clock, at the host's own speed): {value:.6g}")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
