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
