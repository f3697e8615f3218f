"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records that `run.py --record FILE` appended, one JSON
object per line.  For every workload and end-to-end metric in
BENCHMARK.json this prints the median and quartiles of each side and the
change of the medians, and marks a change worse than the metric's bound.
It refuses to compare records made with different kernel backends
(exit 2), and exits 1 when an op failed or a metric got worse than its
bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (
        [r for r in load(path) if r["trace"] == 0] for path in argv
    )
    backends = {r["backend"] for r in base + head}
    if len(backends) != 1:
        print(f"error: records come from different backends {sorted(backends)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    status = 0
    failed = sum(r["failed"] for r in base + head)
    if failed:
        print(f"{failed} ops failed; timings of wrong results do not count")
        status = 1
    print(f"{'workload':<20}{'metric':<16}{'base median [q1, q3]':>34}{'head median [q1, q3]':>34}{'change':>9}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in head}):
        for m in metrics:
            name = m["name"]
            sides = []
            for records in (base, head):
                values = [r["metrics"][name]["value"] for r in records if r["workload"] == workload]
                sides.append((statistics.median(values), *spread(values)))
            change = sides[1][0] / sides[0][0] - 1
            worse = change if m["better"] == "lower" else -change
            flag = "  REGRESSION" if worse > m["bound"] else ""
            status = 1 if flag else status
            cells = "".join(f"{f'{med:.4g} [{lo:.4g}, {hi:.4g}]':>34}" for med, lo, hi in sides)
            print(f"{workload:<20}{name:<16}{cells}{change:>+9.1%}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
