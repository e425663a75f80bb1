"""Traced memory budgets of the set-up and the step.

`tracemalloc` sees every buffer that numpy allocates and every Python
object, but not the heap's placement or page faults, so its peaks repeat to
the byte where the benchmark's `peak_rss_mb` moves by megabytes. Each budget
is a measured traced peak plus a stated headroom: a change that raises one
says so, with its reason, in CHANGES.md.
"""

import tracemalloc

import pytest

from swnet import build_simulation, preset, studies

MB, KB = 1e6, 1e3
# The test6_network reference at dx = 0.02 (38.2k triangles): its build
# peaks at 38.60 MB and keeps 18.50 MB; each step peaks 12.48 MB above what
# it keeps. Budgets: about 2 % above each, which the edge normals made with
# the mesh (39.55 MB), or HLLC temporaries kept to its end (16.74 MB),
# exceed.
REFERENCE_BUILD_PEAK = 39.4 * MB
REFERENCE_STEP_PEAK = 12.75 * MB
# A test6_network Method-B step after the first (which peaks 408 kB above
# what it keeps, and keeps 88 kB more): 436 kB; 548 kB with the HLLC
# temporaries kept. Budget: about 2 % above it.
NETWORK_B_STEP_PEAK = 445 * KB


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def step_peak(sim) -> int:
    """The traced peak of one step above what the step keeps."""
    tracemalloc.reset_peak()
    sim.advance(sim.compute_dt())
    kept, peak = tracemalloc.get_traced_memory()
    return peak - kept


def test_reference_build_and_step_stay_in_their_budgets(traced):
    sim = studies.build_reference_sim(preset("test6_network"), 0.02)
    _, peak = tracemalloc.get_traced_memory()
    assert sim.mesh.n_cells > 38_000
    assert peak < REFERENCE_BUILD_PEAK, f"traced build peak {peak / MB:.2f} MB"
    above = step_peak(sim)
    assert above < REFERENCE_STEP_PEAK, f"traced step peak {above / MB:.2f} MB above kept"


def test_network_b_step_stays_in_its_budget(traced):
    sim = build_simulation(preset("test6_network", strategy="B"))
    step_peak(sim)
    above = step_peak(sim)
    assert above < NETWORK_B_STEP_PEAK, f"traced step peak {above / KB:.1f} kB above kept"
