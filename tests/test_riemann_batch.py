"""One HLLC solve per network step, and one for a reference's boundary.

A network step queues every Riemann problem (interior channel faces,
junction edges, channel ends) on one `RiemannBatch` and solves it in one
HLLC call. The oracle below keeps the per-producer calls the step made
before that: one HLLC solve for the interior faces, the junction field's
interior edges, its wall and coupling edges, and one `boundary_flux` batch
per boundary kind. From the same state, the batched face fluxes, junction
edge fluxes and boundary inflow rate must equal the oracle's to the bit.

Channel ends are solved in their outward-normal frame, with the inner state
on the left. The formula they replaced solved them in the +s frame, with the
ghost on the left at a channel start; HLLC is equivariant under that mirror
away from a contact speed of exactly 0, so on random states the two must
give equal values (`flip_formula_flux`).

The full-2D reference queues all of its boundary edges on one batch in the
same way. Its oracle keeps one call per condition kind: the inner states
rotated into the edges' normal frames, a wall flux or an HLLC flux against
the ghost, and the fluxes rotated back.
"""

import numpy as np
import pytest

import swnet.riemann
import swnet.scheme2d
import swnet.simulation
from swnet import DryStateError, NonFiniteError, ScenarioConfig, build_simulation, presets
from swnet.boundaries import GhostStates, boundary_flux
from swnet.config import boundary_condition
from swnet.core import physical_flux
from swnet.riemann import RiemannBatch, hllc_flux, hllc_rows
from swnet.scheme2d import interior_edge_fluxes as fused_edge_fluxes
from swnet.studies import build_reference_sim


# -- the per-producer solves, one HLLC call each --------------------------


def rotate_state(q, theta):
    c, s = np.cos(theta), np.sin(theta)
    hu, hv = q[..., 1], q[..., 2]
    return np.stack([q[..., 0], c * hu + s * hv, -s * hu + c * hv], axis=-1)


def rotate_back(f, theta):
    c, s = np.cos(theta), np.sin(theta)
    fn, ft = f[..., 1], f[..., 2]
    return np.stack([f[..., 0], c * fn - s * ft, s * fn + c * ft], axis=-1)


def wall_flux(inner, params):
    mirror = inner.copy()
    mirror[..., 1] = -mirror[..., 1]
    f = hllc_flux(inner, mirror, params)
    f[..., 0] = 0.0
    f[..., 2] = 0.0
    return f


def interior_edge_fluxes(field, qL, qR, edges):
    th = field.mesh.edge_thetas[edges]
    c, s = np.cos(th), np.sin(th)
    ns = -s
    hL, huL, hvL = qL.T[:, edges]
    hR, huR, hvR = qR.T[:, edges]
    f0, f1, f2 = hllc_rows(
        hL, c * huL + s * hvL, ns * huL + c * hvL,
        hR, c * huR + s * hvR, ns * huR + c * hvR, field.params.g,
    )
    out = np.empty((3, len(th)))
    out[0] = f0
    np.subtract(c * f1, s * f2, out=out[1])
    np.add(s * f1, c * f2, out=out[2])
    return out.T


def interior_fluxes(field):
    N = field.n
    flux = np.full((N + len(field.channels), 3), np.nan)
    lc = field._lcell
    flux[field._inner_face] = hllc_flux(field.faces[N + lc], field.faces[lc + 1], field.params)
    return flux


def flip_formula_flux(q_face, bcs, at_start, t, params):
    """+s-frame fluxes of channel ends of one kind by the former formula: the
    axial momentum flipped at starts to build the ghost, then the ghost
    flipped back and placed on the left at starts."""
    kind = bcs[0].kind
    if kind == "transparent":
        return physical_flux(q_face, params)
    q = q_face.copy()
    q[at_start, 1] = -q[at_start, 1]
    if kind == "reflective":
        return wall_flux(q, params)
    ghost = GhostStates(kind, bcs)(q, t, params)
    ghost[at_start, 1] = -ghost[at_start, 1]
    start = at_start[:, None]
    return hllc_flux(np.where(start, ghost, q_face), np.where(start, q_face, ghost), params)


def compute_fluxes(jf, field, dt):
    m, params = jf.mesh, jf.params
    qL, qR = jf.mesh_field.edge_states(dt)
    flux = np.empty_like(qL)
    if len(m.interior):
        flux[m.interior] = interior_edge_fluxes(jf.mesh_field, qL, qR, m.interior)
    edges, walls = jf._cpl_edges, jf._wall_edges
    outer = np.concatenate([walls, edges])
    nw = len(walls)
    th = m.edge_thetas[outer]
    qhat = rotate_state(qL[outer], th)
    q1 = field.faces[field.end_slot[jf._ends]]
    q1[:, 1:] *= jf._end_sigma[:, None]
    mirror = qhat[:nw].copy()
    mirror[:, 1] = -mirror[:, 1]
    fhat = hllc_flux(qhat, np.concatenate([mirror, q1[jf._cpl_end]]), params)
    fhat[:nw, 0] = 0.0
    fhat[:nw, 2] = 0.0
    flux[outer] = rotate_back(fhat, th)
    f_ch = fhat[nw:]
    f_ch[:, 0] *= jf._cpl_sigma
    totals = np.zeros((len(jf.ends), 3))
    np.add.at(totals, jf._cpl_end, f_ch * m.edge_lengths[edges][:, None])
    return flux, (jf._ends, totals / jf._end_widths[:, None])


def per_producer_step_fluxes(sim, dt):
    """`NetworkSimulation.step_fluxes` with one solve per producer."""
    field, cells = sim.field, sim.junction_field
    flux = interior_fluxes(field)
    edge_fluxes = None
    if cells is not None:
        edge_fluxes, (ends, f) = compute_fluxes(cells, field, dt)
        flux[field.end_face[ends]] = f
    for j, rows in sim._psfp_rows:
        ends = sim._end_read[rows]
        f = j.compute_end_fluxes(field.end_states(ends))
        flux[field.end_face[ends]] = f
    boundary_mass = 0.0
    for rows, width, to_out, to_s, ghost in sim._boundary_groups:
        ends = sim._end_read[rows]
        batch = RiemannBatch()
        f = boundary_flux(field.end_states(ends) * to_out, ghost, sim.t, sim.params, batch)
        batch.solve(sim.params)
        flux[field.end_face[ends]] = f * to_s
        boundary_mass -= float(np.sum(width * f[:, 0]))
    return flux, edge_fluxes, boundary_mass


# -- scenarios --------------------------------------------------------------


def with_ends(cfg, ends):
    """The scenario with the boundary entries of `ends` replaced."""
    data = cfg.emit()
    data["boundaries"] = [
        {"channel": b["channel"], "end": b["end"], **ends.get((b["channel"], b["end"]), b)}
        for b in data["boundaries"]
    ]
    return ScenarioConfig(data)


def inflow(amplitude):
    return {"kind": "inflow", "inflow": {"amplitude": amplitude, "center": 0.5, "width": 1.0}}


# Every boundary kind at a channel start and at a channel end.
SUB90_ENDS = {
    "inflow-transparent": {},
    "reflective-prescribed-inflow": {
        ("ch1", "start"): {"kind": "reflective"},
        ("ch2", "end"): {"kind": "prescribed", "h": 0.18, "u": 0.05},
        ("ch3", "end"): inflow(0.1),
    },
    "prescribed-reflective-transparent": {
        ("ch1", "start"): {"kind": "prescribed", "h": 0.17, "u": 0.1},
        ("ch2", "end"): {"kind": "reflective"},
    },
}


def mixed_network():
    data = presets.preset("test6_network", strategy="A").emit()
    for k, junction in enumerate(data["junctions"]):
        junction["strategy"] = "AB"[k % 2]
    return ScenarioConfig(data)


def stirred(cfg, seed=3):
    """The network built from `cfg`, with random subcritical flowing states."""
    sim = build_simulation(cfg)
    rng = np.random.default_rng(seed)
    q = sim.field.q
    q[:, 0] = rng.uniform(0.14, 0.2, len(q))
    q[:, 1] = q[:, 0] * rng.uniform(-0.15, 0.15, len(q))
    if sim.junction_field is not None:
        q = sim.junction_field.mesh_field.q
        q[:, 0] = rng.uniform(0.14, 0.2, len(q))
        q[:, 1:] = q[:, :1] * rng.uniform(-0.15, 0.15, (len(q), 2))
    return sim


# Every coupling edge carries one shared flux, which the ids name.
CASES = [
    *[
        pytest.param(presets.preset("test1_sub90", strategy=s), ends,
                     id=f"test1_sub90-{s}-{name}-shared")
        for s in ("A", "B", "psfp")
        for name, ends in SUB90_ENDS.items()
    ],
    pytest.param(mixed_network(), {}, id="test6_network-A/B-shared"),
]


def bits(a):
    return None if a is None else (a.shape, np.ascontiguousarray(a).tobytes())


@pytest.mark.parametrize("cfg, ends", CASES)
def test_batch_equals_per_producer_solves(cfg, ends):
    cfg = with_ends(cfg, ends)
    sim = stirred(cfg)
    assert len(sim._boundary_groups) == len({b["kind"] for b in cfg.data["boundaries"]})
    field, cells = sim.field, sim.junction_field
    for _ in range(12):
        dt = sim.compute_dt()
        nbr = None
        if cells is not None:
            cells.reconstruct(field)
            nbr = cells.channel_neighbors()
        field.reconstruct(nbr)
        field.face_state(dt)
        got = sim.step_fluxes(dt)
        want = per_producer_step_fluxes(sim, dt)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])
        assert got[2] == want[2]
        sim.advance(dt)


class RecordingBatch(RiemannBatch):
    """A batch that keeps a copy of each block's fluxes as its reader left them."""

    def __init__(self):
        super().__init__()
        self.fluxes = []

    def add(self, qL, qR, read):
        def keep(f):
            read(f)
            self.fluxes.append(f.copy())

        super().add(qL, qR, keep)


@pytest.mark.parametrize("state", ["initial", "stirred"])
@pytest.mark.parametrize("cfg", [presets.preset("test1_sub90", strategy="B"), mixed_network()],
                         ids=["test1_sub90-B", "test6_network-A/B"])
def test_coupling_totals_equal_add_at_to_the_bit(cfg, state):
    # The end totals take one np.bincount per component; np.add.at, which
    # they replaced, sums each end's coupling edges in the same order. The
    # initial still water gives signed zeros.
    sim = stirred(cfg) if state == "stirred" else build_simulation(cfg)
    jf, field = sim.junction_field, sim.field
    edges = jf._cpl_edges
    lengths = jf.mesh.edge_lengths[edges][:, None]
    for _ in range(6):
        dt = sim.compute_dt()
        jf.reconstruct(field)
        field.reconstruct(jf.channel_neighbors())
        field.face_state(dt)
        batch = RecordingBatch()
        _, (_, totals) = jf.compute_fluxes(field, dt, batch)
        batch.solve(sim.params)
        f_ch = batch.fluxes[0][edges]
        f_ch[:, 0] *= jf._cpl_sigma
        sums = np.zeros((len(jf.ends), 3))
        np.add.at(sums, jf._cpl_end, f_ch * lengths)
        assert bits(totals) == bits(sums / jf._end_widths[:, None])
        sim.advance(dt)


def test_one_hllc_call_per_step(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return hllc_rows(*args)

    monkeypatch.setattr(swnet.riemann, "hllc_rows", counted)
    for cfg in [
        with_ends(presets.preset("test1_sub90", strategy="B"),
                  SUB90_ENDS["reflective-prescribed-inflow"]),
        presets.preset("test1_sub90", strategy="psfp"),
        mixed_network(),
    ]:
        sim = build_simulation(cfg)
        for _ in range(5):
            calls.clear()
            sim.advance(sim.compute_dt())
            assert len(calls) == 1


# Every condition kind at a channel start and at a channel end.
FLIP_CASES = {
    **SUB90_ENDS,
    "transparent-inflow-prescribed": {
        ("ch1", "start"): {"kind": "transparent"},
        ("ch2", "end"): inflow(0.1),
        ("ch3", "end"): {"kind": "prescribed", "h": 0.18, "u": 0.05},
    },
}


@pytest.mark.parametrize("ends", FLIP_CASES.values(), ids=FLIP_CASES)
def test_channel_ends_equal_the_flip_formula(ends):
    cfg = with_ends(presets.preset("test1_sub90", strategy="psfp"), ends)
    sim = stirred(cfg)
    field = sim.field
    groups = {}
    for b in cfg.data["boundaries"]:
        groups.setdefault(b["kind"], []).append(b)
    for _ in range(12):
        dt = sim.compute_dt()
        field.reconstruct()
        field.face_state(dt)
        flux, _, inflow_rate = sim.step_fluxes(dt)
        want_inflow = 0.0
        for group in groups.values():
            ends = np.array([field.end_index(b["channel"], b["end"]) for b in group])
            at_start = np.array([b["end"] == "start" for b in group])
            bcs = [boundary_condition(b) for b in group]
            f = flip_formula_flux(field.end_states(ends), bcs, at_start, sim.t, sim.params)
            assert np.array_equal(flux[field.end_face[ends]], f)
            width = np.array([sim.channels[b["channel"]].width for b in group])
            want_inflow += float(np.sum(np.where(at_start, width, -width) * f[:, 0]))
        assert inflow_rate == want_inflow
        sim.advance(dt)


# -- typed failures through the batch ---------------------------------------


def failing(kind, side):
    """test1_sub90 B with a zero or NaN depth in its first step's batch. On
    the "right" side, ch3's end is prescribed at that depth, whose ghost is
    the right state of its Riemann problem; at the "start", ch1's start is,
    whose ghost is the right state too, as every boundary face puts its inner
    state on the left. On the "left" side, one junction edge state gets it,
    the left state of an edge's problem."""
    h = 0.0 if kind == "dry" else np.nan
    end = ("ch1", "start") if side == "start" else ("ch3", "end")
    ends = {end: {"kind": "prescribed", "h": 0.16 if side == "left" else h, "u": 0.0}}
    sim = build_simulation(with_ends(presets.preset("test1_sub90", strategy="B"), ends))
    if side == "left":
        mesh_field = sim.junction_field.mesh_field
        edge_states = mesh_field.edge_states

        def spoiled(dt):
            qL, qR = edge_states(dt)
            qL[7, 0] = h
            return qL, qR

        mesh_field.edge_states = spoiled
    return sim


@pytest.mark.parametrize("kind, error", [("dry", DryStateError), ("nan", NonFiniteError)])
@pytest.mark.parametrize("side", ["left", "right", "start"])
def test_typed_failures_through_the_batch(kind, error, side):
    state = "left" if side == "left" else "right"
    text = f"{'dry' if kind == 'dry' else 'non-finite'} depth in hllc {state} state"
    sim = failing(kind, side)
    with pytest.raises(error, match=text):
        sim.advance(sim.compute_dt())
    res = failing(kind, side).run(1.0)
    assert res.status == "failed" and res.steps == 0
    assert type(res.failure) is error and text in str(res.failure)


# -- the full-2D reference's boundary edges ---------------------------------


def far_field_ghost(g, r_in, q):
    r_out = q[:, 1] / q[:, 0] + 2.0 * np.sqrt(g * q[:, 0])
    u_g = 0.5 * (r_out + r_in)
    c_g = 0.25 * (r_out - r_in)
    h_g = c_g * c_g / g
    return np.stack([h_g, h_g * u_g, np.zeros_like(h_g)], axis=-1)


def group_kinds(sim):
    """The condition kind of each of a reference's boundary edge groups,
    read from the tag of its first edge."""
    return [sim.mesh.edge_tags[edges[0]].split(":")[0] for edges, *_ in sim._boundary_groups]


class PerKindBoundary:
    """`Mesh2DSimulation.boundary_fluxes` with one solve per condition kind.
    It keeps its own incoming invariant behind the transparent edges, taken
    from the state it is built on."""

    def __init__(self, sim):
        self.sim = sim
        m, g = sim.mesh, sim.params.g
        self.r_in = None
        for kind, (edges, *_) in zip(group_kinds(sim), sim._boundary_groups):
            if kind == "transparent":
                q0 = rotate_state(sim.field.q[m.edge_left[edges]], m.edge_thetas[edges])
                self.r_in = q0[:, 1] / q0[:, 0] - 2.0 * np.sqrt(g * q0[:, 0])

    def __call__(self, qL, flux):
        sim = self.sim
        m, params = sim.mesh, sim.params
        inflow = 0.0
        for kind, (edges, _, _, ghosts) in zip(group_kinds(sim), sim._boundary_groups):
            th = m.edge_thetas[edges]
            qhat = rotate_state(qL[edges], th)
            if kind == "wall":
                flux[edges] = rotate_back(wall_flux(qhat, params), th)
                continue
            if kind == "transparent":
                ghost = far_field_ghost(params.g, self.r_in, qhat)
            else:
                ghost = ghosts(qhat, sim.t, params)
            flux[edges] = rotate_back(hllc_flux(qhat, ghost, params), th)
            inflow -= float(np.sum(m.edge_lengths[edges] * flux[edges, 0]))
        return inflow


def stirred_reference(name, seed=5):
    """The dx = 0.05 reference of a preset, with random subcritical flowing
    states."""
    sim = build_reference_sim(presets.preset(name), 0.05)
    rng = np.random.default_rng(seed)
    q = sim.field.q
    q[:, 0] = rng.uniform(0.14, 0.2, len(q))
    q[:, 1:] = q[:, :1] * rng.uniform(-0.15, 0.15, (len(q), 2))
    return sim


@pytest.mark.parametrize("name, kinds", [
    ("test1_sub90", {"wall", "inflow", "transparent"}),
    ("test4_super90", {"wall", "prescribed", "transparent"}),
])
def test_reference_boundary_equals_per_kind_solves(name, kinds):
    sim = stirred_reference(name)
    assert set(group_kinds(sim)) == kinds
    oracle = PerKindBoundary(sim)
    field = sim.field
    for _ in range(8):
        dt = sim.compute_dt()
        field.reconstruct()
        qL, qR = field.edge_states(dt)
        flux = fused_edge_fluxes(field, qL, qR)
        got, want = flux.copy(), flux.copy()
        got_inflow = sim.boundary_fluxes(qL, got)
        want_inflow = oracle(qL, want)
        assert bits(got) == bits(want)
        assert got_inflow == want_inflow != 0.0
        sim.advance(dt)


def test_one_hllc_call_per_reference_step(monkeypatch):
    calls = []

    def counted(qL, qR, params):
        calls.append(len(qL))
        return hllc_flux(qL, qR, params)

    for module in (swnet.riemann, swnet.scheme2d, swnet.simulation):
        monkeypatch.setattr(module, "hllc_flux", counted)
    sim = build_reference_sim(presets.preset("test1_sub90"), 0.05)
    for _ in range(3):
        calls.clear()
        sim.advance(sim.compute_dt())
        assert calls == [len(sim.mesh.boundary)]
