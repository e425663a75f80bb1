import copy
import csv
import gc
import weakref

import numpy as np
import pytest

from swnet import presets
from swnet.boundaries import BoundaryCondition, gaussian_pulse
from swnet.config import (
    ConfigError,
    ScenarioConfig,
    boundary_condition,
    boundary_conditions,
    build_channels,
    build_simulation,
    junction_specs,
)
from swnet.core import DryStateError, NonFiniteError, PhysicalParams
from swnet.geometry import Channel, MeshError
from swnet.junctions import JunctionSpec
from swnet.meshing import rect_union_mesh
from swnet.psfp import PSFPFailure
from swnet.simulation import (
    Gauge,
    Mesh2DSimulation,
    NetworkSimulation,
    PointGauge,
    _checked_dt,
    write_gauge_csv,
)
from swnet.studies import build_reference_sim

P = PhysicalParams()


def end_flux(q, bc, end, t):
    """The +s-frame flux at the `end` ("start" or "end") of a first-order
    one-channel network whose cells all hold q, under condition bc, at time t."""
    ch = Channel("c", width=0.4, cells=4, start=(0, 0), end=(1, 0))
    other = "end" if end == "start" else "start"
    sim = NetworkSimulation(
        [ch], [], {("c", end): bc, ("c", other): BoundaryCondition("reflective")}, P, order=1
    )
    sim.field.q[:] = q
    sim.t = t
    sim.field.reconstruct()
    sim.field.face_state(0.0)
    flux, _, _ = sim.step_fluxes(0.0)
    return flux[sim.field.end_face[sim.field.end_index("c", end)]]


def straight_channel_cfg(kind_start="transparent", kind_end="transparent", **extra):
    boundaries = [
        {"channel": "ch1", "end": "start", "kind": kind_start},
        {"channel": "ch1", "end": "end", "kind": kind_end},
    ]
    if kind_start == "inflow":
        boundaries[0]["inflow"] = {"amplitude": 0.4, "center": 3.0, "width": 1.0}
    data = {
        "name": "straight",
        "physics": {"g": 9.81},
        "numerics": {"order": 2, "cfl": 0.9},
        "channels": [{"id": "ch1", "width": 0.4, "cells": 60, "start": [0, 0], "end": [6, 0]}],
        "junctions": [],
        "boundaries": boundaries,
        "initial": {"h": 0.16, "u": 0.0},
        "gauges": [{"id": "g0", "channel": "ch1", "s": 0.05}, {"id": "mid", "channel": "ch1", "s": 3.0}],
        "t_end": 6.0,
    }
    data.update(extra)
    return ScenarioConfig(data)


class TestComputeDt:
    def test_still_water_formula(self):
        ch = Channel("c", width=1.0, cells=100, start=(0, 0), end=(10, 0))
        sim = NetworkSimulation(
            [ch], [], {("c", "start"): BoundaryCondition("reflective"),
                       ("c", "end"): BoundaryCondition("reflective")},
            P, cfl=0.9,
        )
        sim.field.q[:] = (1.0, 0.0, 0.0)
        assert np.isclose(sim.compute_dt(), 0.9 * 0.1 / np.sqrt(9.81), rtol=1e-12)
        assert np.isclose(sim.compute_dt(), 0.02874, atol=2e-5)

    def test_large_junction_does_not_govern(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        dt_full = sim.compute_dt()
        only_channels = sim.cfl * sim.field.dt_bound()
        assert dt_full == only_channels  # wide junction element: 1D governs

    def test_junction_bound_scales_with_inradius(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        j = sim.junctions[0]
        bound = 0.5 * sim.cfl * sim.junction_field.dt_bound()
        from swnet.core import max_wave_speed

        lam = float(max_wave_speed(j.q[0], P))
        rho = 4.0 * j.geom.area / sum(np.hypot(*(e.b - e.a)) for e in j.geom.edges)
        assert np.isclose(bound, 0.5 * sim.cfl * rho / lam, rtol=1e-12)

    def test_dt_respects_every_local_bound(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        for _ in range(50):
            dt = sim.compute_dt()
            assert dt <= sim.cfl * sim.field.dt_bound() + 1e-15
            assert dt <= 0.5 * sim.cfl * sim.junction_field.dt_bound() + 1e-15
            sim.advance(dt)

    def test_clamps_to_target(self):
        sim = build_simulation(straight_channel_cfg())
        dt = sim.compute_dt(t_target=1e-4)
        assert dt == 1e-4


class TestBoundaries:
    def test_reflective_zero_mass(self):
        q = np.array([0.3, 0.12, 0.0])
        for end in ("start", "end"):
            f = end_flux(q, BoundaryCondition("reflective"), end, 0.0)
            assert f[0] == 0.0 and f[2] == 0.0

    def test_transparent_equals_physical(self):
        from swnet.core import physical_flux

        q = np.array([0.3, 0.12, 0.0])
        bc = BoundaryCondition("transparent")
        for end in ("start", "end"):
            assert np.allclose(end_flux(q, bc, end, 0.0), physical_flux(q, P), atol=1e-15)

    def test_inflow_velocity_peaks_at_prescribed_time(self):
        fn = gaussian_pulse(0.4, 3.0, 1.0)
        assert fn(3.0) == 0.4
        assert fn(0.0) == 0.4 * np.exp(-4.5)
        # non-reflecting construction drives the first cell close to u(t)
        sim = build_simulation(straight_channel_cfg(kind_start="inflow"))
        res = sim.run(6.0)
        t, h, u = res.gauges.series("g0")
        k = np.argmax(u)
        assert abs(u[k] - 0.4) < 0.05
        assert abs(t[k] - 3.0) < 0.4

    def test_inflow_on_16cm_initial_depth(self):
        cfg = presets.preset("appA_angle90")
        assert cfg.data["initial"]["h"] == 0.16
        b = cfg.data["boundaries"][0]
        assert b["inflow"] == {"amplitude": 0.4, "center": 3.0, "width": 1.0}


@pytest.mark.parametrize(
    "bc",
    [
        BoundaryCondition("reflective"),
        BoundaryCondition("inflow", u_fn=gaussian_pulse(0.3, 0.5, 0.2)),
        BoundaryCondition("prescribed", h=0.35, u=0.2),
    ],
    ids=lambda bc: bc.kind,
)
def test_channel_start_end_and_2d_edge_give_one_normal_flux(bc):
    # One outward-frame state and condition at a channel start, a channel
    # end and 2D edges whose outward normal is +x: the same mass and normal
    # momentum fluxes, to the bit.
    q_out, t = np.array([0.3, 0.07, 0.0]), 0.4
    f_end = end_flux(q_out, bc, "end", t)
    f_start = end_flux(q_out * [1, -1, 1], bc, "start", t)
    tag = "wall" if bc.kind == "reflective" else f"{bc.kind}:c:end"
    mesh = rect_union_mesh([(0, 0, 1, 0.2)], 0.1, tag_segments=[((1, 0), (1, 0.2), tag)])
    sim = Mesh2DSimulation(mesh, P, boundary_conditions={tag: bc})
    sim.t = t
    flux = np.zeros((len(mesh.edge_lengths), 3))
    sim.boundary_fluxes(np.tile(q_out, (len(flux), 1)), flux)
    edges = mesh.boundary[mesh.edge_thetas[mesh.boundary] == 0.0]
    assert len(edges) == 2
    for f in (f_start[:2] * [-1, 1], *flux[edges, :2]):
        assert np.array_equal(f, f_end[:2])


def test_mesh_simulation_rejects_conditions_that_tag_no_edge():
    # The second inflow's segment lies outside the box, so no edge carries
    # its tag, nor the prescribed condition's; neither may be dropped.
    segs = [((0, 0), (0, 0.5), "inflow:c1:start"), ((3, 0), (3, 0.5), "inflow:c2:start")]
    mesh = rect_union_mesh([(0, 0, 2, 0.5)], 0.1, tag_segments=segs)
    inflow = BoundaryCondition("inflow", u_fn=gaussian_pulse(0.3, 0.5, 0.2))
    bcs = {"inflow:c1:start": inflow, "inflow:c2:start": inflow,
           "prescribed:c3:end": BoundaryCondition("prescribed", h=0.35, u=0.2)}
    with pytest.raises(MeshError, match="condition inflow:c2:start, prescribed:c3:end$"):
        Mesh2DSimulation(mesh, P, boundary_conditions=bcs)
    del bcs["inflow:c2:start"], bcs["prescribed:c3:end"]
    sim = Mesh2DSimulation(mesh, P, boundary_conditions=bcs)
    sim.field.q[:] = (0.3, 0.0, 0.0)
    assert sim.run(0.05).status == "completed"


@pytest.mark.parametrize("tags, bcs, message", [
    (["coupling:c:end"], {}, "unsupported boundary tag 'coupling:c:end' in 2D domain"),
    (["inflow:c:start"], {}, "mesh has inflow:c:start edges but no inflow condition for them"),
    (["prescribed:c:end"], {"prescribed:c:end": BoundaryCondition("transparent")},
     "mesh has prescribed:c:end edges but no prescribed condition for them"),
    # of several bad tags, the first in sorted order is named
    (["outlet", "inflow:c:start"], {}, "mesh has inflow:c:start edges but no inflow condition"),
    (["inflow:c:start", "bad"], {}, "unsupported boundary tag 'bad' in 2D domain"),
], ids=["unsupported", "no-condition", "wrong-kind", "sorted-first-missing",
        "sorted-first-unsupported"])
def test_mesh_simulation_rejects_a_tag_it_cannot_close(tags, bcs, message):
    segs = [((0, 0), (0, 0.5), tags[0]), ((2, 0), (2, 0.5), tags[-1])]
    mesh = rect_union_mesh([(0, 0, 2, 0.5)], 0.1, tag_segments=segs)
    with pytest.raises(ValueError, match=f"^{message}"):
        Mesh2DSimulation(mesh, P, boundary_conditions=bcs)


class TestTwoInflows:
    # test1_sub90 with its two transparent outlets turned into inflows.
    def cfg(self):
        data = presets.preset("test1_sub90").emit()
        outlets = [b for b in data["boundaries"] if b["kind"] == "transparent"]
        for b, amplitude in zip(outlets, (0.2, 0.3)):
            b.update(kind="inflow", inflow={"amplitude": amplitude, "center": 3.0, "width": 1.0})
        data["t_end"] = 4.0
        return ScenarioConfig(data)

    def test_reference_drives_each_inflow_edge_with_its_own_pulse(self):
        cfg = self.cfg()
        sim = build_reference_sim(cfg, 0.1)
        sim.t = 3.0
        q = np.array([0.16, 0.0, 0.0])
        flux = np.zeros((len(sim.mesh.edge_lengths), 3))
        sim.boundary_fluxes(np.tile(q, (len(flux), 1)), flux)
        tags = np.array(sim.mesh.edge_tags)
        rates = set()
        for b in cfg.data["boundaries"]:
            edges = np.flatnonzero(tags == f"inflow:{b['channel']}:{b['end']}")
            own = end_flux(q, boundary_condition(b), "end", 3.0)
            assert len(edges) == 4 and np.all(flux[edges, 0] == own[0])
            rates.add(float(own[0]))
        assert len(rates) == 3

    def test_network_and_reference_ledgers_close(self):
        cfg = self.cfg()
        for sim in (build_simulation(cfg), build_reference_sim(cfg, 0.1)):
            res = sim.run(cfg.t_end)
            d = res.diagnostics
            assert res.status == "completed" and d["boundary_influx"] > 0.0
            assert abs(d["volume_defect"]) <= 1e-12 * d["initial_volume"]


class TestAdvance:
    def test_still_network_unchanged_1000_steps(self):
        cfg = presets.preset("test1_sub90")
        for b in cfg.data["boundaries"]:
            b.pop("inflow", None)
            b["kind"] = "reflective"
        sim = build_simulation(cfg)
        for _ in range(1000):
            sim.advance(sim.compute_dt())
        for f in sim.fields.values():
            assert np.abs(f.q[:, 0] - 0.16).max() < 1e-12
            assert np.abs(f.q[:, 1:]).max() < 1e-12

    def test_bitwise_determinism(self):
        runs = []
        for _ in range(2):
            sim = build_simulation(presets.preset("test1_sub90"))
            res = sim.run(2.0)
            runs.append(np.array(res.gauges.h["g_ch2"]))
        assert np.array_equal(runs[0], runs[1])

    def test_deep_copy_reads_its_own_states(self):
        # Per-channel and per-junction states slice the copied network's
        # arrays, as the benchmark's gate reads them after running a copy.
        sim = build_simulation(presets.preset("test1_sub90"))
        run = copy.deepcopy(sim)
        run.run(0.5)
        seg = run.fields["ch1"]
        assert np.array_equal(seg.q, run.field.q[seg.first : seg.first + seg.n])
        assert not np.array_equal(seg.q, sim.fields["ch1"].q)
        assert np.array_equal(run.junctions[0].q, run.junction_field.mesh_field.q[:1])
        assert not np.array_equal(run.junctions[0].q, sim.junctions[0].q)

    def test_released_network_frees_its_channel_field(self):
        # Nothing the network owns refers back to it, so its channel arrays
        # go when the last reference does, without the cycle collector.
        gc.disable()
        try:
            sim = build_simulation(presets.preset("test1_sub90", strategy="B"))
            field = weakref.ref(sim.field)
            del sim
            assert field() is None
        finally:
            gc.enable()

    def test_gauge_reads_cell_average(self):
        sim = build_simulation(straight_channel_cfg())
        sim.sample_gauges()
        cell = sim.fields["ch1"].cell_at(3.0)
        assert sim.recorder.h["mid"][-1] == sim.fields["ch1"].q[cell, 0]

    def test_gauge_reads_the_cell_that_holds_it(self):
        # smooth1d's 100 cells are 0.25 long: s = 12.7 lies in cell 50,
        # [12.5, 12.75], past its centre 12.625.
        data = presets.preset("smooth1d").emit()
        data["gauges"] = [{"id": "g", "channel": "ch1", "s": 12.7}]
        sim = build_simulation(ScenarioConfig(data))
        sim.sample_gauges()
        segment = sim.fields["ch1"]
        assert sim.recorder.h["g"][-1] == segment.q[50, 0] != segment.q[51, 0]
        for k in range(100):
            assert segment.cell_at(0.25 * (k + 0.2)) == segment.cell_at(0.25 * (k + 0.8)) == k
            # A point within round-off below a face reads the cell right of it.
            assert segment.cell_at(0.25 * k - 1e-12) == k
        assert segment.cell_at(-1.0) == 0 and segment.cell_at(30.0) == 99

    def test_volume_ledger_with_inflow(self):
        sim = build_simulation(straight_channel_cfg(kind_start="inflow"))
        res = sim.run(6.0)
        assert res.status == "completed"
        v0 = res.diagnostics["initial_volume"]
        assert abs(res.diagnostics["volume_defect"]) < 1e-10 * max(v0, 1.0)
        assert res.diagnostics["boundary_influx"] != 0.0

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_successive_runs_each_close_their_ledger(self, strategy):
        sim = build_simulation(presets.preset("test1_sub90", strategy=strategy))
        for t_end in (0.5, 1.0):  # each run keeps its own ledger
            d = sim.run(t_end).diagnostics
            assert d["boundary_influx"] != 0.0
            assert abs(d["volume_defect"]) <= 1e-12 * d["initial_volume"]

    def test_successive_runs_report_their_own_junction_diagnostics(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        sim.run(0.5)
        fresh = copy.deepcopy(sim)
        fresh.diagnostics["transverse_momentum_discarded"] = 0.0
        own = fresh.run(1.0).diagnostics["transverse_momentum_discarded"]
        assert sim.run(1.0).diagnostics["transverse_momentum_discarded"] == own > 0.0
        sim = build_simulation(presets.preset("test4_super90"), strategy="psfp")
        runs = [sim.run(2.0) for _ in range(2)]
        assert [len(r.diagnostics["psfp_failures"]) for r in runs] == [1, 1]

    def test_transverse_projection_diagnostic_accumulates(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        res = sim.run(4.0)
        assert res.diagnostics["transverse_momentum_discarded"] >= 0.0

    def test_run_t_end_zero_returns_initial(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        res = sim.run(0.0)
        assert res.steps == 0
        assert res.t == 0.0
        assert len(res.gauges.times) == 1

    def test_psfp_failure_reported_in_run(self):
        sim = build_simulation(presets.preset("test4_super90"), strategy="psfp")
        res = sim.run(2.0)
        assert res.status == "failed"
        assert isinstance(res.failure, PSFPFailure)
        assert res.diagnostics["psfp_failures"]
        assert res.diagnostics["psfp_failures"][0]["kind"] in (
            "complex_root_regime",
            "supercritical_data",
            "non_convergence",
        )


class TestNonFinite:
    # NaN momentum in one 1D cell must surface as a non-finite failure, not
    # as a dry state or an untyped time-step error.
    def test_run_reports_non_finite_failure(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        sim.fields["ch1"].q[5, 1] = np.nan
        res = sim.run(1.0)
        assert res.status == "failed"
        assert isinstance(res.failure, NonFiniteError)

    def test_compute_dt_sees_nan_in_any_channel(self):
        # ch2 is not the first channel: a running min over the channels
        # would keep the bound of ch1 and skip the NaN.
        sim = build_simulation(presets.preset("test1_sub90"))
        sim.fields["ch2"].q[5, 1] = np.nan
        with pytest.raises(NonFiniteError):
            sim.compute_dt()

    @pytest.mark.parametrize("place", [0, 1, 2])
    def test_checked_dt_sees_nan_in_every_place(self, place):
        # The builtin min keeps a NaN only in first place: min([1.0, nan])
        # is 1.0.
        bounds = [0.5, 0.25, 1.0]
        bounds[place] = np.nan
        with pytest.raises(NonFiniteError, match="non-finite wave speed at t=2"):
            _checked_dt(bounds, 2.0)
        assert _checked_dt([0.5, 0.25, 1.0], 2.0) == 0.25
        with pytest.raises(RuntimeError, match="non-positive time step"):
            _checked_dt([0.5, 0.0], 2.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_step_raises_non_finite(self, order):
        sim = build_simulation(presets.preset("test1_sub90"), order=order)
        dt = sim.compute_dt()
        sim.fields["ch1"].q[5, 1] = np.nan
        with pytest.raises(NonFiniteError):
            sim.advance(dt)

    def test_update_names_channel_cell_and_junction(self):
        for cid in ("ch1", "ch3"):
            sim = build_simulation(presets.preset("test1_sub90"))
            field = sim.field
            flux = np.zeros((field.n + len(field.channels), 3))
            # the face between cells 4 and 5 of the channel
            flux[field.end_face[field.end_index(cid, "start")] + 5, 0] = np.nan
            with pytest.raises(NonFiniteError, match=f"channel {cid} cell 4"):
                field.update(flux, 0.01)
        a, j = sim.junction_field, sim.junctions[0]
        fluxes = np.zeros((len(j.geom.edges), 3))
        fluxes[0, 2] = np.nan
        with pytest.raises(NonFiniteError, match=f"junction {j.id}"):
            a.update(fluxes, 0.01)
        sim = build_simulation(presets.preset("test1_sub90"), strategy="B")
        a, j = sim.junction_field, sim.junctions[0]
        fluxes = np.zeros((len(j.mesh.edge_lengths), 3))
        fluxes[0, 2] = np.nan
        with pytest.raises(NonFiniteError, match=f"junction {j.id}, 2D cell"):
            a.update(fluxes, 0.01)

    @pytest.mark.parametrize("column", [0, 1])
    def test_psfp_junction_reports_nan_end_cell(self, column):
        # A NaN depth or momentum in a channel's end cell at a PSFP junction
        # is non-finite data, not a Newton iteration that cannot decrease.
        sim = build_simulation(presets.preset("test1_sub90"), strategy="psfp")
        field, ((j, rows),) = sim.field, sim._psfp_rows
        field.q[field.end_cell[field.end_index(*j.ends[1])], column] = np.nan
        with pytest.raises(NonFiniteError, match=f"junction {j.id}: non-finite interior state"):
            j.compute_end_fluxes(field.end_states(sim._end_read[rows]))

    @pytest.mark.parametrize("depth", [0.0, -0.01])
    def test_psfp_junction_reports_non_positive_depth(self, depth):
        sim = build_simulation(presets.preset("test1_sub90"), strategy="psfp")
        field, ((j, rows),) = sim.field, sim._psfp_rows
        field.q[field.end_cell[field.end_index(*j.ends[2])], 0] = depth
        with pytest.raises(DryStateError, match=f"junction {j.id}: non-positive interior depth"):
            j.compute_end_fluxes(field.end_states(sim._end_read[rows]))

    def test_psfp_dry_end_state_fails_the_run(self):
        # Only the junction sees the spoiled end state: its typed error ends
        # the run as failed instead of escaping it.
        sim = build_simulation(presets.preset("test1_sub90"), strategy="psfp")
        ((j, rows),) = sim._psfp_rows
        end_states = sim.field.end_states

        def spoiled(ends):
            q = end_states(ends)
            if ends is sim._end_read:
                q[rows][1, 0] = -0.01
            return q

        sim.field.end_states = spoiled
        res = sim.run(1.0)
        assert res.status == "failed" and res.steps == 0
        assert type(res.failure) is DryStateError and f"junction {j.id}" in str(res.failure)


def end_table_problems(sim, table) -> list:
    """One message per channel end that a channel-end table does not list
    exactly once."""
    counts = np.bincount(table, minlength=2 * len(sim.field.channels))
    return [f"end {e} listed {n} times" for e, n in enumerate(counts) if n != 1]


def step_flux(sim):
    """The face flux array of the next step of a network."""
    dt = sim.compute_dt()
    nbr = None
    if sim.junction_field is not None:
        sim.junction_field.reconstruct(sim.field)
        nbr = sim.junction_field.channel_neighbors()
    sim.field.reconstruct(nbr)
    sim.field.face_state(dt)
    return sim.step_fluxes(dt)[0]


@pytest.mark.parametrize("strategy", ["A", "B", "psfp"])
@pytest.mark.parametrize("name", [name for name, _ in presets.preset_names()])
def test_end_table_covers_every_channel_end(name, strategy):
    try:
        sim = build_simulation(presets.preset(name), strategy=strategy)
    except ConfigError:
        pytest.skip(f"{name} does not build with strategy {strategy}")
    assert end_table_problems(sim, sim.end_table) == []
    assert not np.isnan(step_flux(sim)).any()
    # A table without its first end misses it, and its face keeps the NaN
    # of `interior_fluxes`.
    missing = sim.end_table[0]
    assert end_table_problems(sim, sim.end_table[1:]) == [f"end {missing} listed 0 times"]
    sim._end_put = sim._end_put[3:]
    flux = step_flux(sim)
    assert np.isnan(flux[sim.field.end_face[missing]]).all()
    assert np.isnan(flux).sum() == 3


class TestGaugeCsv:
    def test_format_and_order(self, tmp_path):
        sim = build_simulation(presets.preset("test1_sub90"))
        res = sim.run(0.2)
        path = tmp_path / "gauges.csv"
        write_gauge_csv(path, res.gauges)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,gauge_id,h,u"
        ids = [ln.split(",")[1] for ln in lines[1 : 4]]
        assert ids == ["g_ch1", "g_ch2", "g_ch3"]  # gauge-minor within a time
        t0 = [float(ln.split(",")[0]) for ln in lines[1:4]]
        assert t0 == [0.0, 0.0, 0.0]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for k in range(2):
            sim = build_simulation(presets.preset("test1_sub90"))
            res = sim.run(0.5)
            p = tmp_path / f"g{k}.csv"
            write_gauge_csv(p, res.gauges)
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_an_id_with_a_comma_and_quotes_reads_back(self, tmp_path):
        data = presets.preset("smooth1d").emit()
        data["gauges"][0]["id"] = 'mid,"1"'
        res = build_simulation(ScenarioConfig(data)).run(0.2)
        path = tmp_path / "gauges.csv"
        write_gauge_csv(path, res.gauges)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "gauge_id", "h", "u"]
        assert len(rows) == len(res.gauges.times) + 1 > 2
        for row, t, h, u in zip(rows[1:], *res.gauges.series('mid,"1"')):
            assert row == [repr(float(t)), 'mid,"1"', repr(float(h)), repr(float(u))]


class TestWiring:
    def test_unattached_end_rejected(self):
        ch = Channel("c", width=1.0, cells=10, start=(0, 0), end=(1, 0))
        with pytest.raises(ValueError, match="unattached"):
            NetworkSimulation([ch], [], {("c", "start"): BoundaryCondition("reflective")}, P)

    def test_doubly_attached_end_rejected(self):
        ch = Channel("c", width=1.0, cells=10, start=(0, 0), end=(1, 0))
        with pytest.raises(ValueError, match="twice"):
            NetworkSimulation(
                [ch],
                [JunctionSpec("j", "psfp", (0, 0), [("c", "start"), ("c", "end"), ("c", "start")])],
                {},
                P,
            )

    @staticmethod
    def sub90(connects, boundaries=(), gauges=()):
        """test1_sub90's channels and boundaries, with its junction's ends
        replaced and boundaries added."""
        cfg = presets.preset("test1_sub90")
        bcs = {(b["channel"], b["end"]): boundary_condition(b) for b in cfg.data["boundaries"]}
        return NetworkSimulation(
            build_channels(cfg), [JunctionSpec("j1", "A", (0.0, 0.0), connects)],
            bcs | dict(boundaries), P, gauges=gauges,
        )

    def test_misspelt_junction_end_rejected(self):
        # Read as a start, "End" would couple the junction to ch1's start
        # cell, which the inflow writes too, beside a polygon built at
        # ch1's end.
        ends = [("ch1", "End"), ("ch2", "start"), ("ch3", "start")]
        with pytest.raises(ValueError, match=r"^junction j1: end must be start\|end$"):
            self.sub90(ends, {("ch1", "end"): BoundaryCondition("transparent")})

    def test_gauge_on_unknown_channel_rejected(self):
        ends = [("ch1", "end"), ("ch2", "start"), ("ch3", "start")]
        with pytest.raises(ValueError, match="^gauge g: unknown channel 'nope'$"):
            self.sub90(ends, gauges=[Gauge("g", channel="nope", s=0.5)])

    def test_duplicate_junction_and_gauge_ids_rejected(self):
        ends = [("ch1", "end"), ("ch2", "start"), ("ch3", "start")]
        gauges = [Gauge("g", channel=ch, s=0.5) for ch in ("ch1", "ch2")]
        with pytest.raises(ValueError, match="^duplicate gauge id 'g'$"):
            self.sub90(ends, gauges=gauges)
        cfg = presets.preset("test6_network")
        specs = junction_specs(cfg)
        specs[1].id = specs[0].id
        with pytest.raises(ValueError, match="^duplicate junction id 'j00'$"):
            NetworkSimulation(build_channels(cfg), specs, boundary_conditions(cfg), P)

    def test_every_broken_rule_is_reported(self):
        ch = Channel("c", width=1.0, cells=10, start=(0, 0), end=(1, 0))
        with pytest.raises(ValueError) as err:
            NetworkSimulation(
                [ch, ch],
                [JunctionSpec("j", "C", (0, 0), [("c", "end"), ("d", "start")])],
                {("c", "end"): BoundaryCondition("reflective")},
                P,
            )
        assert str(err.value).split("; ") == [
            "duplicate channel id 'c'",
            "junction j: unknown strategy 'C'",
            "junction j: unknown channel 'd'",
            "channel end ('c', 'end') attached twice, by junction j and boundary",
            "channel end (c, start) unattached",
        ]


@pytest.mark.parametrize("order", [0, 3])
def test_both_steppers_reject_an_order_other_than_1_or_2(order):
    ch = Channel("c", width=1.0, cells=10, start=(0, 0), end=(1, 0))
    ends = {("c", e): BoundaryCondition("reflective") for e in ("start", "end")}
    with pytest.raises(ValueError, match=f"^order must be 1 or 2, got {order}$"):
        NetworkSimulation([ch], [], ends, P, order=order)
    mesh = rect_union_mesh([(0, 0, 1, 0.2)], 0.1)
    with pytest.raises(ValueError, match=f"^order must be 1 or 2, got {order}$"):
        Mesh2DSimulation(mesh, P, order=order)


@pytest.mark.parametrize("stride", [0, -1])
def test_both_steppers_reject_a_stride_below_1_before_stepping(stride):
    sim = build_simulation(presets.preset("test1_sub90"))
    mesh = rect_union_mesh([(0, 0, 1, 0.2)], 0.1)
    for stepper in (sim, Mesh2DSimulation(mesh, P)):
        with pytest.raises(ValueError, match=f"^output_stride must be at least 1, got {stride}$"):
            stepper.run(1.0, output_stride=stride)
        assert stepper.steps == 0 and stepper.t == 0.0


class TestGaugesInsideTheirDomains:
    @pytest.mark.parametrize("s", [50.0, -0.5])
    def test_network_rejects_a_gauge_off_its_channel(self, s):
        ch = Channel("ch1", width=0.4, cells=60, start=(0, 0), end=(3, 0))
        walls = {(ch.id, end): BoundaryCondition("reflective") for end in ("start", "end")}
        with pytest.raises(ValueError, match=f"gauge far: s={s} outside channel 'ch1' of length 3"):
            NetworkSimulation([ch], [], walls, P, gauges=[Gauge("far", "ch1", s)])

    def test_gauges_at_both_channel_ends_are_accepted(self):
        cfg = presets.preset("test1_sub90")
        data = cfg.emit()
        data["gauges"] = [{"id": "a", "channel": "ch1", "s": 0.0},
                          {"id": "b", "channel": "ch1", "s": 3.0}]
        sim = build_simulation(ScenarioConfig(data))
        ch1 = sim.fields["ch1"]
        ch1.q[:, 0] = 0.1 + 0.001 * np.arange(ch1.n)
        sim.sample_gauges()
        assert [sim.recorder.h[g][-1] for g in "ab"] == [ch1.q[0, 0], ch1.q[-1, 0]]

    def test_point_gauge_outside_the_reference_is_rejected(self):
        sim = build_reference_sim(presets.preset("test1_sub90"), 0.1)
        with pytest.raises(ValueError, match=r"point \(100, 100\) lies in no cell"):
            PointGauge("p", sim.mesh, (100, 100))
        inside = PointGauge("q", sim.mesh, (-1.49, 0.005))
        assert len(inside.cells) == 1
