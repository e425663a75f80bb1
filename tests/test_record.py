"""The stepped numerics, pinned to the benchmark's gauge record.

The benchmark gate compares every seed-0 run with `bench/record.json`; this
test makes the same comparison, with the benchmark's own tolerances (rtol
1e-8, atol 1e-10, exact step counts), so that a changed scheme fails the
test suite and not only the benchmark. Each run must also close its volume
ledger to 1e-12 of the initial volume.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from swnet_bench.measure import load_record, record_mismatches  # noqa: E402
from swnet_bench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize(
    "name", ["network_A", "bifurcation_B", "bifurcation_psfp", "reference_2d"]
)
def test_run_matches_benchmark_record(name):
    w = WORKLOADS[name]
    cfg = w.scenario(DEFAULT_SEED)
    res = w.build(cfg).run(cfg.t_end)
    assert res.status == "completed"
    assert record_mismatches(load_record(w, DEFAULT_SEED), w, res) == []
    # The volume ledger closes, the 2D reference's included.
    d = res.diagnostics
    assert abs(d["volume_defect"]) <= 1e-12 * d["initial_volume"]
