"""One HLLC solve per network step, and one for a reference's boundary.

A network step queues every Riemann problem (interior channel faces,
junction edges, channel ends) on one `RiemannBatch` and solves it in one
HLLC call. The record's `steps` entries hold the bits of the per-producer
solves the step made before that (one HLLC solve for the interior faces,
the junction field's interior edges, its wall and coupling edges, and one
`boundary_flux` batch per boundary kind), and of the full-2D reference's
boundary edges when it made one solve per condition kind.

Channel ends are solved in their outward-normal frame, with the inner state
on the left. The formula they replaced solved them in the +s frame, with the
ghost on the left at a channel start; HLLC is equivariant under that mirror
away from a contact speed of exactly 0, so on random states the two must
give equal values (`flip_formula_flux`).
"""

import numpy as np
import pytest

import swnet.riemann
import swnet.scheme2d
import swnet.simulation
from swnet import DryStateError, NonFiniteError, build_simulation, presets
from swnet.boundaries import GhostStates
from swnet.config import boundary_condition
from swnet.core import physical_flux
from swnet.riemann import RiemannBatch, hllc_flux, hllc_rows
from swnet.studies import build_reference_sim

import bit_record
from generated import SUB90_ENDS, inflow, scenario, step_cases, stirred, with_ends


def wall_flux(inner, params):
    mirror = inner.copy()
    mirror[..., 1] = -mirror[..., 1]
    f = hllc_flux(inner, mirror, params)
    f[..., 0] = 0.0
    f[..., 2] = 0.0
    return f


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


# -- scenarios --------------------------------------------------------------


# Every coupling edge carries one shared flux, which the ids name.
CASES = [pytest.param(label, id=label.replace(" ", "-") + "-shared") for label in step_cases()]


def bits(a):
    return None if a is None else (a.shape, np.ascontiguousarray(a).tobytes())


@pytest.mark.parametrize("label", CASES)
def test_batch_equals_per_producer_solves(label):
    # The record's entry: 12 steps' face fluxes, junction edge fluxes and
    # boundary inflow rates, each from the step's face states.
    assert not bit_record.entry_differences("steps", f"step_fluxes {label}")


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
@pytest.mark.parametrize("cfg", [presets.preset("test1_sub90", strategy="B"),
                                 scenario("test6_network", "A/B")],
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
        _, totals = jf.compute_fluxes(field, dt, batch)
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
        scenario("test6_network", "A/B"),
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
    the "right" side, ch3's end is prescribed, and its ghost, the right state
    of its Riemann problem, is set to that depth once built (a scenario's
    numbers are finite); at the "start", ch1's start is, whose ghost is the
    right state too, as every boundary face puts its inner state on the
    left. On the "left" side, one junction edge state gets it, the left
    state of an edge's problem."""
    h = 0.0 if kind == "dry" else np.nan
    end = ("ch1", "start") if side == "start" else ("ch3", "end")
    ends = {end: {"kind": "prescribed", "h": 0.16, "u": 0.0}}
    sim = build_simulation(with_ends(presets.preset("test1_sub90", strategy="B"), ends))
    if side != "left":
        (ghost,) = [g for *_, g in sim._boundary_groups if getattr(g, "kind", "") == "prescribed"]
        ghost.h[:] = h
    else:
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


@pytest.mark.parametrize("name, kinds", [
    ("test1_sub90", {"wall", "inflow", "transparent"}),
    ("test4_super90", {"wall", "prescribed", "transparent"}),
])
def test_reference_boundary_equals_per_kind_solves(name, kinds):
    # The record's entry: 8 steps' boundary edge fluxes and inflow rates
    # of the stirred reference, whose boundary takes each of `kinds`.
    mesh = build_reference_sim(presets.preset(name), 0.05).mesh
    assert {mesh.edge_tags[e].split(":")[0] for e in mesh.boundary} == kinds
    assert not bit_record.entry_differences("steps", f"boundary_fluxes {name}")


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
