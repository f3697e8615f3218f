"""One op of each benchmark workload, checked by the workload's own check.

`perfbench/` is only read here: its directory goes on `sys.path`, and
each workload is set up the way `perfbench/run.py`'s `make_workload`
sets it up. A library change that breaks a name the benchmark calls
(a function, a report attribute, a CLI option) fails here, in tier-1.
A benchmark change that alters how `perfbench/workloads.py` builds a
workload must update this file with it.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_the_workloads_check(name, tmp_path):
    workloads.warm_cli()
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    op_input = workload.next_input()
    assert workload.check(op_input, workload.run(op_input)) is None
