"""Seeded scenarios of one junction at arbitrary angles and widths, and
the seeded and hand-made geometry inputs that `tools/bit_record.py` and the
geometry tests share.

`junction_scenario(seed, strategy)` is the JSON data of a valid scenario:
junction `j1` at the origin joins the starts of two to four channels
`ch1`, `ch2`, ..., whose axes point away from it at angles spread evenly
around it, each moved by up to 0.4 rad. Each channel is 0.2 to 0.5 wide,
LENGTH long and of an even number of cells from 20 to 60, and its mouth
lies 0.3 to 0.5 from the origin. The far ends are reflective, `ch1` holds a
dam break of depths 0.12 / 0.10 at its middle in still water of depth 0.10,
and each channel has one gauge at its middle, a cell face. The same seed
gives the same scenario; whether its junction polygon passes its checks
depends on the seed.

`random_junction(seed)` and `random_patch(seed)` are junction polygons and
fan-refined patches at off-grid angles, and `strip_mesh()` a mesh whose
cell 0 has its centroid exactly at the origin.

The rest are the inputs of the record's kernels and steps: Riemann states
and gradients with signed zeros, ids that repeat, and networks and
references whose states are stirred to flow.

Not a test module: tools and tests import it.
"""

import numpy as np

LENGTH = 2.0


def junction_scenario(seed: int, strategy: str) -> dict:
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi / n * np.arange(n)
    angles += rng.uniform(-0.4, 0.4, n)
    ids = [f"ch{k}" for k in range(1, n + 1)]
    channels = []
    for cid, a in zip(ids, angles.tolist()):
        u = np.array([np.cos(a), np.sin(a)])
        mouth = rng.uniform(0.3, 0.5)
        channels.append({"id": cid, "width": rng.uniform(0.2, 0.5),
                         "cells": 2 * int(rng.integers(10, 31)),
                         "start": (mouth * u).tolist(), "end": ((mouth + LENGTH) * u).tolist()})
    dam = {"type": "dam_break", "split_s": LENGTH / 2.0, "left": {"h": 0.12}, "right": {"h": 0.10}}
    return {
        "name": f"generated_{seed}",
        "channels": channels,
        "junctions": [{"id": "j1", "strategy": strategy, "position": [0.0, 0.0],
                       "connects": [{"channel": cid, "end": "start"} for cid in ids]}],
        "boundaries": [{"channel": cid, "end": "end", "kind": "reflective"} for cid in ids],
        "initial": {"h": 0.10, "u": 0.0, "per_channel": {"ch1": dam}},
        "gauges": [{"id": f"g_{cid}", "channel": cid, "s": LENGTH / 2.0} for cid in ids],
        "t_end": 2.0,
    }


def random_junction(seed: int):
    """(channel ends, position, protrusion) of a junction of two to four
    channels at off-grid angles, widths, offsets and protrusion, where a
    reordered product rounds differently."""
    from swnet.geometry import Channel

    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    centre = rng.uniform(-1.0, 1.0, 2)
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi / k * np.arange(k) + rng.uniform(
        -0.4, 0.4, k)
    ends = []
    for i, a in enumerate(angles):
        u = np.array([np.cos(a), np.sin(a)])
        start, end = centre + rng.uniform(0.1, 0.4) * u, centre + 3.0 * u
        ends.append((Channel(f"c{i}", rng.uniform(0.2, 0.5), 10, start, end), "start"))
    return ends, centre, rng.uniform(0.05, 0.6)


def random_patch(seed: int):
    """`fan_refine_mesh`'s (vertices, cells, tags), refined `seed % 4` times,
    of a junction of three channels at off-grid angles, widths and
    protrusion; a GeometryError where its polygon does not build."""
    from swnet.geometry import Channel, build_junction_polygon
    from swnet.meshing import fan_refine_mesh

    rng = np.random.default_rng(seed)
    centre = rng.uniform(-1.0, 1.0, 2)
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi / 3.0 * np.arange(3)
    angles += rng.uniform(-0.3, 0.3, 3)
    ends = [
        (Channel(f"c{k}", rng.uniform(0.2, 0.5), 10,
                 centre + 0.3 * np.array([np.cos(a), np.sin(a)]),
                 centre + 3.0 * np.array([np.cos(a), np.sin(a)])), "start")
        for k, a in enumerate(angles)
    ]
    return fan_refine_mesh(build_junction_polygon(ends, centre, rng.uniform(0.05, 0.6)), seed % 4)


def strip_mesh():
    """49 separate triangles, every edge a wall, on a 7 x 7 lattice of
    spacing (0.7, 0.35): cell 0's centroid is exactly the origin."""
    from swnet.geometry import TriMesh

    base = np.array([(-0.3, -0.1), (0.3, -0.1), (0.0, 0.2)])
    shifts = [(0.0, 0.0)] + [(0.7 * i, 0.35 * j) for i in range(-3, 4)
                             for j in range(-3, 4) if (i, j) != (0, 0)]
    cells = np.arange(3 * len(shifts)).reshape(-1, 3)
    walls = {(int(c[k]), int(c[(k + 1) % 3])): "wall" for c in cells for k in range(3)}
    return TriMesh(np.concatenate([base + s for s in shifts]), cells, walls)


# -- kernel inputs ----------------------------------------------------------


def random_states(n, seed=0):
    from swnet.core import conserved

    rng = np.random.default_rng(seed)
    h = rng.uniform(0.05, 3.0, n)
    u = rng.uniform(-2, 2, n)
    v = rng.uniform(-2, 2, n)
    return conserved(h, h * u, h * v)


def signed_zero_states(n, seed):
    """Random sub- and supercritical states, one in five momentum entries an
    exact +0.0 and one in five a -0.0."""
    q = random_states(n, seed) * np.array([1.0, 2.0, 1.0])
    pick = np.random.default_rng(seed + 1).integers(0, 5, size=(n, 2))
    q[:, 1:][pick == 0] = 0.0
    q[:, 1:][pick == 1] = -0.0
    return q


HLLC_PAIRINGS = ("random", "mirrored", "wall")


def hllc_pair(pairing, n=100_000):
    """(qL, qR): two sets of `signed_zero_states`; "mirrored" with hR = hL
    and uR = -uL, so that the contact speed is exactly 0; "wall" with qR
    the mirror image of qL."""
    from swnet.riemann import mirrored

    qL = signed_zero_states(n, seed=11)
    if pairing == "wall":
        return qL, mirrored(qL)
    qR = signed_zero_states(n, seed=12)
    if pairing == "mirrored":
        qR[:, :2] = qL[:, :2] * np.array([1.0, -1.0])
    return qL, qR


def jacobian_states(n=400, seed=9):
    """States and gradients with exact zeros of both signs, so that the
    signs of zero products and sums show."""
    rng = np.random.default_rng(seed)
    q = random_states(n, seed=seed)
    q[::5, 1] = 0.0
    q[1::7, 2] = -0.0
    b, c = rng.normal(size=(2, n, 3))
    b[::3, 0] = -0.0
    b[2::9, 1] = -0.0
    c[::4, 1:] = 0.0
    c[2::9, 2] = -0.0
    return q, b, c


def generated_wiring(seed):
    """Channels, junctions, boundaries and gauges whose ids repeat at
    random, some three times or more, every channel end attached to a
    boundary: `junctions.wiring_errors`' arguments."""
    rng = np.random.default_rng(seed)
    pick = lambda prefix, n, pool: [f"{prefix}{i}" for i in rng.integers(0, pool, n)]
    channels = [(cid, 1.0) for cid in pick("c", rng.integers(0, 30), 20)]
    junctions = [(jid, "A", []) for jid in pick("j", rng.integers(0, 12), 8)]
    gauges = [(gid, "c0", 0.5) for gid in pick("g", rng.integers(0, 12), 6)]
    boundaries = [(cid, end) for cid, _ in dict(channels).items() for end in ("start", "end")]
    return channels, junctions, boundaries, gauges


# -- step inputs --------------------------------------------------------------


def with_ends(cfg, ends):
    """The scenario with the boundary entries of `ends` replaced."""
    from swnet import ScenarioConfig

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


def scenario(name, strategy):
    """A preset with every junction of `strategy`, or with its junctions
    alternating between Methods A and B for "A/B"."""
    from swnet import ScenarioConfig, presets

    if strategy != "A/B":
        return presets.preset(name, strategy=strategy)
    data = presets.preset(name, strategy="A").emit()
    for k, junction in enumerate(data["junctions"]):
        junction["strategy"] = "AB"[k % 2]
    return ScenarioConfig(data)


def step_cases() -> dict:
    """{label: scenario}: test1_sub90 with each strategy and each of
    `SUB90_ENDS`, and test6_network alternating between Methods A and B."""
    cases = {f"test1_sub90 {s} {name}": with_ends(scenario("test1_sub90", s), ends)
             for s in ("A", "B", "psfp") for name, ends in SUB90_ENDS.items()}
    return cases | {"test6_network A/B": scenario("test6_network", "A/B")}


def stirred(cfg, seed=3):
    """The network built from `cfg`, with random subcritical flowing states."""
    from swnet import build_simulation

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


# The references with a wall, an open kind and far-field edges each.
STIRRED_REFERENCES = ("test1_sub90", "test4_super90")


def stirred_reference(name, seed=5):
    """The dx = 0.05 reference of a preset, with random subcritical flowing
    states."""
    from swnet import presets
    from swnet.studies import build_reference_sim

    sim = build_reference_sim(presets.preset(name), 0.05)
    rng = np.random.default_rng(seed)
    q = sim.field.q
    q[:, 0] = rng.uniform(0.14, 0.2, len(q))
    q[:, 1:] = q[:, :1] * rng.uniform(-0.15, 0.15, (len(q), 2))
    return sim


SLOPE_NETWORKS = (("test1_sub90", "B"), ("test6_network", "A"), ("test1_sub90", "psfp"),
                  ("test6_network", "A/B"))
SLOPE_STATES = ("initial", "stirred", "signed zeros")


def slope_case(name, strategy, state):
    """The network of `scenario(name, strategy)` with its channel and
    junction cells still ("initial"), stirred to random subcritical flowing
    states, or stirred with a third of the axial momenta then set to -0.0
    and a third to 0.0 ("signed zeros")."""
    from swnet import build_simulation

    sim = build_simulation(scenario(name, strategy))
    jf = sim.junction_field
    rng = np.random.default_rng(4)
    for q in (sim.field.q,) if jf is None else (sim.field.q, jf.mesh_field.q):
        if state != "initial":
            q[:, 0] = rng.uniform(0.14, 0.2, len(q))
            q[:, 1:] = q[:, :1] * rng.uniform(-0.15, 0.15, (len(q), 2))
        if state == "signed zeros":
            q[rng.integers(0, 3, len(q)) == 0, 1] = -0.0
            q[rng.integers(0, 3, len(q)) == 0, 1] = 0.0
    return sim
