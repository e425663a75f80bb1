"""Grid networks of `presets._grid_network` at other sizes than
`test6_network`'s 4 x 4: their ids, the set-up memory of a Method-B grid,
and closed grids that keep their volume and a lake at rest, beside
criteria 4 and 5."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from swnet import ScenarioConfig, build_simulation, presets

# sha256 of `test6_network`'s scenario as JSON text, from before the grid
# took a size: the 4 x 4 grid must emit the same bytes.
TEST6_SHA256 = {
    "A": "674c700a59aa019b121f581808acae351bb49703898816047a83eae59cdb52dc",
    "B": "62a9abc9af83f21d351dffb1f08c726ed893e4e6f9abede9943b7ad8f283a503",
    "super": "2a65ee43d605309d4d4993eac1753502de6da9e4d90edd1c1173719aeb582338",
}
# Traced peak of building the 8 x 8 Method-B grid, in bytes: 4.69 MB in a
# fresh process, 4.15 MB after another build, with 70 % headroom. Padding
# every junction cell's stencil to the network's 450 virtual slots took it
# to 45.1 MB.
GRID8_B_BUILD_PEAK = 8_000_000
# The same for the 16 x 16 grid (256 junctions): 17.79-17.84 MB measured,
# budget about 2 % above it. A patch mesh built per B junction beside the
# field's one mesh takes it to 19.39 MB.
GRID16_B_BUILD_PEAK = 18_200_000


def closed_grid(strategy, n=8, dam=False):
    """An n x n `test6_network` grid whose feeder's open end is a wall, at
    rest, or with a dam break in the feeder."""
    data = presets.test6_network(strategy).emit()
    data["channels"], data["junctions"] = presets._grid_network(strategy, n=n)
    data["boundaries"] = [{"channel": "feeder", "end": "start", "kind": "reflective"}]
    if dam:
        data["initial"]["per_channel"] = {
            "feeder": {"type": "dam_break", "split_s": 0.7,
                       "left": {"h": 0.2, "u": 0.0}, "right": {"h": 0.16, "u": 0.0}}
        }
    return ScenarioConfig(data)


@pytest.mark.parametrize("key, kw", [("A", {"strategy": "A"}), ("B", {"strategy": "B"}),
                                     ("super", {"supercritical": True})])
def test_test6_network_emits_the_same_json(key, kw):
    text = json.dumps(presets.test6_network(**kw).emit())
    assert hashlib.sha256(text.encode()).hexdigest() == TEST6_SHA256[key]


@pytest.mark.parametrize("n", [11, 12])
def test_grid_ids_are_unique_beyond_ten(n):
    # From n = 12, `j{i}{j}` would name (1, 11) and (11, 1) both `j111`.
    channels, junctions = presets._grid_network("A", n=n)
    ids = [j["id"] for j in junctions]
    assert len(ids) == len(set(ids)) == n * n
    assert {"j1_10", "j10_1"} <= set(ids)
    assert len(channels) == len({c["id"] for c in channels}) == 2 * n * (n - 1) + 1


def traced_b_build_peak(n):
    """The traced peak, in bytes, of building the closed n x n B grid."""
    cfg = closed_grid("B", n=n)
    tracemalloc.start()
    try:
        sim = build_simulation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sim.junctions) == n * n
    return peak


def test_grid_b_build_stays_in_its_traced_budget():
    peak = traced_b_build_peak(8)
    assert peak < GRID8_B_BUILD_PEAK, f"traced build peak {peak / 1e6:.1f} MB"


def test_grid16_b_build_stays_in_its_traced_budget():
    peak = traced_b_build_peak(16)
    assert peak < GRID16_B_BUILD_PEAK, f"traced build peak {peak / 1e6:.2f} MB"


def cell_states(sim):
    return np.concatenate([*(f.q for f in sim.fields.values()), sim.junction_field.mesh_field.q])


@pytest.mark.parametrize("strategy", ["A", "B"])
def test_closed_grid_keeps_its_volume(strategy):
    sim = build_simulation(closed_grid(strategy, dam=True))
    v0 = sim.total_volume()
    for _ in range(50):
        sim.advance(sim.compute_dt())
    assert np.abs(cell_states(sim)[:, 1:]).max() > 1e-3  # the dam break moves water
    assert abs(sim.total_volume() - v0) / v0 < 1e-12


@pytest.mark.parametrize("strategy", ["A", "B"])
def test_closed_grid_keeps_a_lake_at_rest(strategy):
    sim = build_simulation(closed_grid(strategy))
    for _ in range(50):
        sim.advance(sim.compute_dt())
    q = cell_states(sim)
    assert np.abs(q[:, 1:] / q[:, :1]).max() < 1e-12
