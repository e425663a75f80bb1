import numpy as np
import pytest

from swnet import presets
from swnet.config import ScenarioConfig, build_simulation
from swnet.core import PhysicalParams
from swnet.junctions import project_transverse
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

    @pytest.mark.parametrize("hu, hv", [(0.0, 0.5), (-0.0, 0.5), (-0.0, -0.5), (-0.0, -0.0)])
    def test_sign_of_a_zero_axial_momentum_is_ignored(self, hu, hv):
        # A zero axial momentum, of either sign, counts as positive: the
        # projected momentum points along +s, with a positive zero.
        q, d = project_transverse(np.array([1.0, hu, hv]))
        assert q.tolist() == [1.0, abs(hv), 0.0] and not np.signbit(q).any()
        assert d == np.hypot(abs(hv), hv)


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
        sim.field.reconstruct(a.channel_neighbors())
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
        f2.q[:] = (0.22, 0.22 * 0.3, 0.0)
        j.set_uniform(0.18, 0.0, 0.12)  # global frame; ch2 axis is +y
        a.reconstruct(sim.field)
        sim.field.reconstruct()
        a.mesh_field.grad[0].T[:] = 0.0
        a.mesh_field.grad[1].T[:] = 0.0
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
            assert j.volume() > 0.0
    dt = sim.compute_dt()
    field.face_state(dt)
    if strategy == "psfp":
        assert sim.junction_field is None and sim.psfp_junctions == sim.junctions
        assert sim.total_volume() == field.volume()
        assert dt == sim.cfl * field.dt_bound()
        for j, rows in sim._psfp_rows:
            keys = {field.end_index(ch, end) for ch, end in j.ends}
            ends = sim._end_read[rows]
            fluxes = j.compute_end_fluxes(field.end_states(ends))
            assert len(ends) == len(j.ends) and set(ends) == keys
            assert fluxes.shape == (len(ends), 3) and np.isfinite(fluxes).all()
        return
    el = sim.junction_field
    assert sim.total_volume() == field.volume() + el.volume()
    assert dt == min(sim.cfl * field.dt_bound(), 0.5 * sim.cfl * el.dt_bound())
    keys = {field.end_index(ch, end) for ch, end in el.ends}
    assert keys == {field.end_index(ch, end) for j in sim.junctions for ch, end in j.ends}
    el.reconstruct(field)
    (nbr_cells, *_), nbr_q = el.channel_neighbors()
    assert set(nbr_cells) == set(field.end_cell[list(keys)])
    assert nbr_q.shape == (len(nbr_cells), 3)
    edge_fluxes, (ends, fluxes) = solved_fluxes(el, field, dt)
    assert len(ends) == len(el.ends) and set(ends) == keys
    assert fluxes.shape == (len(ends), 3) and np.isfinite(fluxes).all()
    assert edge_fluxes.shape == (len(el.mesh.edge_lengths), 3) and np.isfinite(edge_fluxes).all()
    assert el.volume() == sum(j.volume() for j in sim.junctions) > 0.0
