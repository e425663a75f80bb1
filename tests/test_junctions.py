import numpy as np
import pytest

from swnet import presets
from swnet.config import ScenarioConfig, build_simulation
from swnet.core import PhysicalParams
from swnet.junctions import project_transverse, rotate_gradients
from swnet.riemann import RiemannBatch, hllc_flux

P = PhysicalParams()


def preset_test1():
    return presets.preset("test1_sub90")


def preset_test4():
    return presets.preset("test4_super90")


class TestProjectTransverse:
    def test_pythagoras_positive(self):
        q, _ = project_transverse(np.array([1.0, 3.0, 4.0]))
        assert np.allclose(q, [1.0, 5.0, 0.0], atol=1e-15)

    def test_sign_from_axial(self):
        q, _ = project_transverse(np.array([1.0, -3.0, 4.0]))
        assert np.allclose(q, [1.0, -5.0, 0.0], atol=1e-15)

    def test_already_axial_unchanged(self):
        q, d = project_transverse(np.array([0.5, 0.3, 0.0]))
        assert np.allclose(q, [0.5, 0.3, 0.0], atol=0.0)
        assert d == 0.0

    def test_preserves_depth_and_speed(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            h = rng.uniform(0.1, 2.0)
            hu, hv = rng.normal(size=2)
            q, _ = project_transverse(np.array([h, hu, hv]))
            assert q[0] == h
            assert np.isclose(abs(q[1]), np.hypot(hu, hv), atol=1e-14)
            assert q[2] == 0.0

    def test_zero_speed_maps_to_zero(self):
        q, d = project_transverse(np.array([1.0, 0.0, 0.0]))
        assert np.all(q == [1.0, 0.0, 0.0]) and d == 0.0


class TestRotateGradients:
    def test_identity_angle(self):
        s = np.array([0.1, 0.2, 0.3])
        b, c = rotate_gradients(s, 0.0)
        assert np.allclose(b, s, atol=1e-15)
        assert np.allclose(c, 0.0, atol=1e-15)

    def test_zero_gradient(self):
        b, c = rotate_gradients(np.zeros(3), 1.234)
        assert np.all(b == 0.0) and np.all(c == 0.0)

    def test_matches_two_matrix_composition(self):
        # independent evaluation: rotate momentum slope components as a
        # vector, then project the axial direction onto x and y
        rng = np.random.default_rng(14)
        for _ in range(50):
            s = rng.normal(size=3)
            a = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            mom_global = R @ s[1:]
            expected_b = np.cos(a) * np.array([s[0], *mom_global])
            expected_c = np.sin(a) * np.array([s[0], *mom_global])
            b, c = rotate_gradients(s, a)
            assert np.allclose(b, expected_b, atol=1e-14)
            assert np.allclose(c, expected_c, atol=1e-14)

    def test_quarter_turn_pattern(self):
        s = np.array([0.0, 0.4, 0.1])  # axial slopes of (h, hu, hv)
        b, c = rotate_gradients(s, np.pi / 2)
        # at 90 degrees everything moves to the d/dy column and u/v swap
        assert np.allclose(b, 0.0, atol=1e-16)
        assert np.allclose(c, [0.0, -0.1, 0.4], atol=1e-15)


def solved_fluxes(cells, field, dt):
    """The junction field's edge and end fluxes, solved on their own batch."""
    batch = RiemannBatch()
    out = cells.compute_fluxes(field, dt, batch)
    batch.solve(cells.params)
    return out


def build_A(strategy="A"):
    return build_simulation(preset_test1(), strategy=strategy)


class TestCouplingFluxes:
    # test1_sub90 has one junction, so the junction field holds exactly the
    # one cell of sim.junctions[0], whose mesh edges are its polygon's edges.
    def test_matched_still_water_hydrostatic(self):
        sim = build_A()
        a, j = sim.junction_field, sim.junctions[0]
        a.reconstruct(sim.field)
        sim.field.reconstruct()
        sim.field.face_state(0.01)
        edge_fluxes, (_, end_fluxes) = solved_fluxes(a, sim.field, 0.01)
        p = 0.5 * P.g * 0.16**2
        for k, e in enumerate(j.geom.edges):
            expected = p * np.array([0.0, np.cos(e.theta), np.sin(e.theta)])
            assert np.allclose(edge_fluxes[k], expected, atol=1e-14)
        for flx in end_fluxes:
            assert np.allclose(flx, [0.0, p, 0.0], atol=1e-14)

    def test_shared_flux_mass_identity(self):
        # the scalar mass flux handed to the 1D side is the edge's mass flux
        # (one shared solve) times the edge length per channel width, to the
        # bit; random-ish flowing states
        sim = build_A()
        rng = np.random.default_rng(15)
        for cid, f in sim.fields.items():
            f.q[:, 0] = rng.uniform(0.1, 0.3, f.n)
            f.q[:, 1] = f.q[:, 0] * rng.uniform(-0.5, 0.5, f.n)
        a, j = sim.junction_field, sim.junctions[0]
        j.set_uniform(0.2, 0.1, -0.05)
        a.reconstruct(sim.field)
        sim.field.reconstruct(a.channel_neighbors(sim.field))
        sim.field.face_state(0.005)
        edge_fluxes, (ends, end_fluxes) = solved_fluxes(a, sim.field, 0.005)
        m = a.mesh
        rows = [e for e in m.boundary if m.edge_tags[e].startswith("coupling:")]
        assert len(rows) == len(j.ends) == 3
        for row in rows:
            _, ch, end = m.edge_tags[row].split(":")
            sigma = 1.0 if end == "start" else -1.0
            k = list(ends).index(sim.field.end_index(ch, end))
            width = sim.channels[ch].width
            assert end_fluxes[k][0] == sigma * edge_fluxes[row][0] * m.edge_lengths[row] / width

    def test_aligned_coupling_equals_plain_interface(self):
        # junction at a channel start with axis +x: edge frame == channel
        # frame, so the shared flux must equal a plain HLLC interface flux
        sim = build_A()
        a, j = sim.junction_field, sim.junctions[0]
        f2 = sim.fields["ch2"]
        f2.set_uniform(0.22, 0.3)
        j.set_uniform(0.18, 0.0, 0.12)  # global frame; ch2 axis is +y
        a.reconstruct(sim.field)
        sim.field.reconstruct()
        a.mesh_field.grad_x[:] = 0.0
        a.mesh_field.grad_y[:] = 0.0
        sim.field.slopes[:] = 0.0
        sim.field.face_state(0.002)
        _, (ends, end_fluxes) = solved_fluxes(a, sim.field, 0.002)
        # ch2 axis angle is pi/2: axial momentum = global y-momentum = h*v
        q2d_channel_frame = np.array([0.18, 0.18 * 0.12, 0.0])
        expected = hllc_flux(q2d_channel_frame, f2.q[0], P)
        k = list(ends).index(sim.field.end_index("ch2", "start"))
        assert np.allclose(end_fluxes[k], expected, atol=1e-13)

    def test_momentum_update_identity(self):
        # Eq.-style single-cell balance: update equals the closed edge sum
        sim = build_A()
        a, j = sim.junction_field, sim.junctions[0]
        j.set_uniform(0.2, 0.05, -0.02)
        q0 = j.q.copy()
        rng = np.random.default_rng(16)
        fluxes = rng.normal(scale=0.01, size=(len(j.geom.edges), 3))
        dt = 0.004
        a.update(fluxes, dt)
        lengths = np.array([e.length for e in j.geom.edges])
        expected = q0 - dt / j.geom.area * (lengths[:, None] * fluxes).sum(axis=0)
        assert np.allclose(j.q, expected, atol=1e-16)


class TestJunctionRuns:
    def test_still_network_junction_stationary(self):
        cfg = preset_test1()
        for b in cfg.data["boundaries"]:
            b.pop("inflow", None)
            b["kind"] = "reflective"
        sim = build_simulation(cfg)
        q0 = sim.junctions[0].q.copy()
        for _ in range(200):
            sim.advance(sim.compute_dt())
        assert np.abs(sim.junctions[0].q - q0).max() < 1e-13

    def test_closed_mixed_network_stays_at_rest(self):
        # Polygon (A) and triangle (B) junction cells in one field: a closed,
        # reflective network at rest stays at rest and closes its ledger.
        data = presets.preset("test6_network", strategy="A").emit()
        for k, junction in enumerate(data["junctions"]):
            junction["strategy"] = "AB"[k % 2]
        for b in data["boundaries"]:
            b.pop("inflow", None)
            b["kind"] = "reflective"
        sim = build_simulation(ScenarioConfig(data))
        assert {j.strategy for j in sim.junctions} == {"A", "B"}
        field, cells = sim.field, sim.junction_field
        assert sim.total_volume() == field.volume() + cells.volume()
        assert sim.compute_dt() == min(sim.cfl * field.dt_bound(), 0.5 * sim.cfl * cells.dt_bound())
        res = sim.run(np.inf, max_steps=200)
        assert res.status == "completed" and res.steps == 200
        h0 = data["initial"]["h"]
        for q in [f.q for f in sim.fields.values()] + [j.q for j in sim.junctions]:
            assert np.abs(q[:, 0] - h0).max() < 1e-13
            assert np.abs(q[:, 1:]).max() < 1e-13
        d = res.diagnostics
        assert abs(d["volume_defect"]) <= 1e-12 * d["initial_volume"]

    def test_symmetric_inflow_keeps_velocity_on_axis(self):
        sim = build_A()
        res = sim.run(5.0)
        assert res.status == "completed"
        # parent axis is x; transverse momentum of the junction element stays 0
        assert abs(sim.junctions[0].q[0, 2]) < 1e-12

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_two_pass_mode_close_to_shared(self, strategy):
        cfg = preset_test1()
        sim1 = build_simulation(cfg, strategy=strategy)
        sim2 = build_simulation(cfg, strategy=strategy, coupling="two-pass")
        r1 = sim1.run(4.0)
        r2 = sim2.run(4.0)
        h1 = np.array(r1.gauges.h["g_ch2"])
        h2 = np.interp(r1.gauges.times, r2.gauges.times, np.array(r2.gauges.h["g_ch2"]))
        assert np.abs(h1 - h2).max() < 5e-3
        # shared mode conserves exactly; two-pass only approximately
        assert abs(r1.diagnostics["volume_defect"]) < 1e-12
        assert 1e-12 < abs(r2.diagnostics["volume_defect"]) < 1e-3

    def test_method_b_supercritical_completes(self):
        sim = build_simulation(preset_test4(), strategy="B")
        res = sim.run(1.0)
        assert res.status == "completed"
        assert min(f.q[:, 0].min() for f in sim.fields.values()) > 0.0
        assert sim.junctions[0].q[:, 0].min() > 0.0

    def test_exact_coupling_conservation_per_step(self):
        # volume change of (1D cells + junction element) equals the net of
        # boundary fluxes; interior coupling faces cancel exactly
        cfg = preset_test1()
        for b in cfg.data["boundaries"]:
            b.pop("inflow", None)
            b["kind"] = "reflective"
        cfg.data["initial"]["per_channel"] = {
            "ch1": {"type": "dam_break", "split_s": 2.0,
                    "left": {"h": 0.25, "u": 0.0}, "right": {"h": 0.16, "u": 0.0}}
        }
        sim = build_simulation(cfg)
        v = sim.total_volume()
        for _ in range(50):
            sim.advance(sim.compute_dt())
            v_new = sim.total_volume()
            assert abs(v_new - v) < 1e-13 * v
            v = v_new


@pytest.mark.parametrize(
    "name, strategy, n_ends",
    [
        ("test1_sub90", "A", 3),
        ("test1_sub90", "B", 3),
        ("test1_sub90", "psfp", 3),
        ("test6_network", "A", 4),
        ("test6_network", "B", 4),
    ],
)
def test_junction_protocol(name, strategy, n_ends):
    # The junction field answers the calls the network stepper makes, in
    # channel end numbers of the network's field; each junction is a view of
    # it. The algebraic junctions have no cells and only supply end fluxes:
    # they add no volume and no step bound.
    sim = build_simulation(presets.preset(name, strategy=strategy))
    field = sim.field
    junctions = [j for j in sim.junctions if len(j.ends) == n_ends]
    assert junctions
    for j in junctions:
        assert j.strategy == strategy
        if strategy != "psfp":
            assert j.volume() > 0.0 and np.isfinite(j.dt_bound())
    dt = sim.compute_dt()
    field.face_state(dt)
    if strategy == "psfp":
        assert sim.junction_field is None and sim.psfp_junctions == sim.junctions
        assert sim.total_volume() == field.volume()
        assert dt == sim.cfl * field.dt_bound()
        for j in sim.psfp_junctions:
            keys = {field.end_index(ch, end) for ch, end in j.ends}
            ends, fluxes = j.compute_end_fluxes(field, dt)
            assert len(ends) == len(j.ends) and set(ends) == keys
            assert fluxes.shape == (len(ends), 3) and np.isfinite(fluxes).all()
        return
    el = sim.junction_field
    assert sim.total_volume() == field.volume() + el.volume()
    assert dt == min(sim.cfl * field.dt_bound(), 0.5 * sim.cfl * el.dt_bound())
    keys = {field.end_index(ch, end) for ch, end in el.ends}
    assert keys == {field.end_index(ch, end) for j in sim.junctions for ch, end in j.ends}
    el.reconstruct(field)
    nbr_ends, nbr_q, nbr_d = el.channel_neighbors(field)
    assert set(nbr_ends) == keys
    assert nbr_q.shape == (len(nbr_ends), 3) and nbr_d.shape == (len(nbr_ends),)
    edge_fluxes, (ends, fluxes) = solved_fluxes(el, field, dt)
    assert len(ends) == len(el.ends) and set(ends) == keys
    assert fluxes.shape == (len(ends), 3) and np.isfinite(fluxes).all()
    assert edge_fluxes.shape == (len(el.mesh.edge_lengths), 3) and np.isfinite(edge_fluxes).all()
    assert el.volume() == sum(j.volume() for j in sim.junctions) > 0.0
    assert el.dt_bound() == min(j.dt_bound() for j in sim.junctions)
