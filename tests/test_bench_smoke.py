"""One traced cycle of each benchmark workload, checked as the benchmark
checks it: outputs independent of threads and tracing, the invariants of
each workload, and the stored reference outputs of ``bench/reference``."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_traced_cycle_has_no_problems(tmp_path, name):
    outcomes, _, _ = run.traced_cycle(workloads.get_workload(name), 1, 0,
                                      str(tmp_path),
                                      workloads.load_reference(name, 1))
    assert outcomes
    assert [o.problems for o in outcomes] == [[] for _ in outcomes]
