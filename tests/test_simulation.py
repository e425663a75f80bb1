import numpy as np
import pytest

from swnet import presets
from swnet.config import ScenarioConfig, build_simulation
from swnet.core import NonFiniteError, PhysicalParams
from swnet.geometry import Channel
from swnet.psfp import PSFPFailure
from swnet.simulation import (
    BoundaryCondition,
    Gauge,
    JunctionSpec,
    NetworkSimulation,
    boundary_flux,
    gaussian_pulse,
    write_gauge_csv,
)

P = PhysicalParams()


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
        sim.set_uniform(1.0)
        assert np.isclose(sim.compute_dt(), 0.9 * 0.1 / np.sqrt(9.81), rtol=1e-12)
        assert np.isclose(sim.compute_dt(), 0.02874, atol=2e-5)

    def test_large_junction_does_not_govern(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        dt_full = sim.compute_dt()
        only_channels = min(sim.cfl * f.dt_bound() for f in sim.fields.values())
        assert dt_full == only_channels  # wide junction element: 1D governs

    def test_junction_bound_scales_with_inradius(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        j = sim.junctions[0]
        bound = 0.5 * sim.cfl * j.dt_bound()
        from swnet.core import max_wave_speed

        lam = float(max_wave_speed(j.q, P))
        assert np.isclose(bound, 0.5 * sim.cfl * j.geom.incircle_diameter / lam, rtol=1e-12)

    def test_dt_respects_every_local_bound(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        for _ in range(50):
            dt = sim.compute_dt()
            for f in sim.fields.values():
                assert dt <= sim.cfl * f.dt_bound() + 1e-15
            for j in sim.junctions:
                assert dt <= 0.5 * sim.cfl * j.dt_bound() + 1e-15
            sim.advance(dt)

    def test_clamps_to_target(self):
        sim = build_simulation(straight_channel_cfg())
        dt = sim.compute_dt(t_target=1e-4)
        assert dt == 1e-4


class TestBoundaries:
    def test_reflective_zero_mass(self):
        q = np.array([0.3, 0.12, 0.0])
        for end in ("start", "end"):
            f = boundary_flux(q, BoundaryCondition("reflective"), end, 0.0, P)
            assert f[0] == 0.0 and f[2] == 0.0

    def test_transparent_equals_physical(self):
        from swnet.core import physical_flux

        q = np.array([0.3, 0.12, 0.0])
        f = boundary_flux(q, BoundaryCondition("transparent"), "end", 0.0, P)
        assert np.allclose(f, physical_flux(q, P), atol=1e-15)

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

    def test_gauge_reads_cell_average(self):
        sim = build_simulation(straight_channel_cfg())
        sim.sample_gauges()
        cell = sim.fields["ch1"].cell_at(3.0)
        assert sim.recorder.h["mid"][-1] == sim.fields["ch1"].q[cell, 0]

    def test_volume_ledger_with_inflow(self):
        sim = build_simulation(straight_channel_cfg(kind_start="inflow"))
        res = sim.run(6.0)
        assert res.status == "completed"
        v0 = res.diagnostics["initial_volume"]
        assert abs(res.diagnostics["volume_defect"]) < 1e-10 * max(v0, 1.0)
        assert res.diagnostics["boundary_influx"] != 0.0

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

    @pytest.mark.parametrize("order", [1, 2])
    def test_step_raises_non_finite(self, order):
        sim = build_simulation(presets.preset("test1_sub90"), order=order)
        dt = sim.compute_dt()
        sim.fields["ch1"].q[5, 1] = np.nan
        with pytest.raises(NonFiniteError):
            sim.advance(dt)

    def test_update_names_channel_cell_and_junction(self):
        sim = build_simulation(presets.preset("test1_sub90"))
        f = sim.fields["ch1"]
        interior = np.zeros((f.n - 1, 3))
        interior[4, 0] = np.nan
        with pytest.raises(NonFiniteError, match="channel ch1 cell 4"):
            f.update(np.zeros(3), interior, np.zeros(3), 0.01)
        j = sim.junctions[0]
        fluxes = np.zeros((len(j.geom.edges), 3))
        fluxes[0, 2] = np.nan
        with pytest.raises(NonFiniteError, match=f"junction {j.id}"):
            j.update(fluxes, 0.01)
        j = build_simulation(presets.preset("test1_sub90"), strategy="B").junctions[0]
        fluxes = np.zeros((len(j.mesh.edge_lengths), 3))
        fluxes[0, 2] = np.nan
        with pytest.raises(NonFiniteError, match=f"junction {j.id}: .* 2D cell"):
            j.update(fluxes, 0.01)


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
