"""The benchmark's workloads still run against the package's API.

A field or function that `bench/workloads.py` reads, once removed or renamed,
fails here instead of as a failed operation in the next benchmark run.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["verify-n6", "sample", "mesh"])
def test_one_round_of_each_workload_runs_and_checks_clean(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports checks and tracer by name
    import workloads

    result = workloads.run_round(name, 1, 0)
    assert (result["failed"], result["errors"], result["problems"]) == (0, [], [])
