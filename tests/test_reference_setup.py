"""The full-2D reference's set-up equals its former formulas to the bit.

Each oracle below is a verbatim copy of the formula that it replaced: the
edge table from two `np.unique` calls, one stencil fit per cell, the
initial state and strip gauges selected by scanning every cell centroid,
the boundary groups from three `np.unique` calls, the point gauge's cell
from a sort of every centroid distance, the footprint rasterized on every
cell centre and its nodes numbered by `np.unique`, and row lengths from
`np.linalg.norm`.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from swnet import preset, studies
from swnet.boundaries import BoundaryCondition, FarField, GhostStates, gaussian_pulse
from swnet.config import build_channels, build_simulation, gauges, initial_profile
from swnet.core import DryStateError, PhysicalParams
from swnet.geometry import (
    Channel,
    GeometryError,
    MeshError,
    TriMesh,
    build_junction_polygon,
    point_in_polygon,
)
from swnet.meshing import fan_refine_mesh, rect_union_mesh
from swnet.riemann import mirrored
from swnet.scheme2d import MeshField, _distinct_rows
from swnet.simulation import Mesh2DSimulation, StripGauge, strip_cells
from swnet.studies import build_reference_sim

# Every preset and size at which `build_reference_sim` builds a reference.
REFERENCES = [
    *[(name, dx) for name in ("appA_angle0", "smooth1d", "test1_sub90", "test4_super90",
                              "test6_network", "test6_network_super") for dx in (0.1, 0.05)],
    ("appA_angle90", 0.05),
    ("test2_asym90", 0.05),
]


def bits(a) -> tuple:
    """dtype, shape and bytes: equal only where every value is, signs of
    zero included."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def recorded(monkeypatch, module, name):
    """Calls of `module.name` (a class) are recorded as (args, kwargs)."""
    real, calls = getattr(module, name), []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


# ---------------------------------------------------------------------------
# Edge table
# ---------------------------------------------------------------------------


def former_edge_table(triangles, boundary_tags):
    """`TriMesh`'s edge table by the former formula: (left, right, va, vb,
    tags, neighbours), or the same `MeshError`."""
    cells = np.asarray(triangles, dtype=int)
    T, K = cells.shape
    corners = np.count_nonzero(cells >= 0, axis=1)
    real = np.arange(K) < corners[:, None]
    nxt = np.where(np.arange(1, K + 1) < corners[:, None], np.arange(1, K + 1), 0)
    hcell, hk = np.nonzero(real)
    ha = cells[hcell, hk]
    hb = cells[hcell, nxt[hcell, hk]]
    tagged = {(min(a, b), max(a, b)): tag for (a, b), tag in boundary_tags.items()}
    tag_keys = np.array(list(tagged), dtype=np.int64).reshape(-1, 2)
    base = 1 + max(int(cells.max()), int(tag_keys.max(initial=0)))
    keys = np.minimum(ha, hb) * base + np.maximum(ha, hb)
    codes, first, uses = np.unique(keys, return_index=True, return_counts=True)
    last = len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]
    tag_codes = tag_keys @ [base, 1]
    tag_edge = np.minimum(np.searchsorted(codes, tag_codes), len(codes) - 1)
    on_boundary = (codes[tag_edge] == tag_codes) & (uses[tag_edge] == 1)
    tag_of = np.full(len(codes), None, dtype=object)
    tag_of[tag_edge[on_boundary]] = np.array(list(tagged.values()), dtype=object)[on_boundary]

    flipped = (ha[first] != ha[last]) | (hb[first] != hb[last])
    bad = (uses > 2) | ((uses == 2) & ~flipped) | ((uses == 1) & np.equal(tag_of, None))
    if bad.any():
        u = np.flatnonzero(bad)[np.argmin(first[bad])]
        key = divmod(int(codes[u]), base)
        if uses[u] > 2:
            raise MeshError(f"non-manifold edge {key}: shared by {uses[u]} triangles")
        if uses[u] == 2:
            raise MeshError(f"inconsistent triangle orientation at edge {key}")
        raise MeshError(f"boundary edge {key} has no tag")
    if not on_boundary.all():
        extra = [key for key, ok in zip(tagged, on_boundary) if not ok]
        raise MeshError(f"tags given for non-boundary edges: {sorted(extra)}")

    order = np.argsort(first)
    h1 = first[order]
    left = hcell[h1]
    right = np.where(uses[order] == 2, hcell[last[order]], -1)
    interior = np.flatnonzero(right >= 0)
    cell = np.stack([left, right], axis=1)[interior].ravel()
    other = np.stack([right, left], axis=1)[interior].ravel()
    by_cell = np.argsort(cell, kind="stable")
    count = np.bincount(cell, minlength=T)
    slot = np.arange(len(cell)) - (np.cumsum(count) - count)[cell[by_cell]]
    neighbors = np.full((T, K), -1)
    neighbors[cell[by_cell], slot] = other[by_cell]
    return left, right, ha[h1], hb[h1], tag_of[order].tolist(), neighbors


def assert_former_edge_table(mesh, triangles, tags):
    left, right, va, vb, edge_tags, neighbors = former_edge_table(triangles, tags)
    for name, want in (("edge_left", left), ("edge_right", right), ("edge_va", va),
                       ("edge_vb", vb), ("neighbors", neighbors)):
        assert bits(getattr(mesh, name)) == bits(want), name
    assert mesh.edge_tags == edge_tags


def random_patch_parts(seed):
    """`fan_refine_mesh`'s (vertices, cells, tags) of a junction of three
    channels at off-grid angles, widths and protrusion, or None if its
    polygon does not build."""
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
    try:
        geom = build_junction_polygon(ends, centre, rng.uniform(0.05, 0.6))
    except GeometryError:
        return None
    return fan_refine_mesh(geom, seed % 4)


def random_patch(seed):
    """(vertices, cells, tags) of the mesh of `random_patch_parts(seed)`,
    its tags keyed by edge ends in edge order, or None."""
    parts = random_patch_parts(seed)
    if parts is None:
        return None
    mesh = TriMesh(*parts)
    tags = {(a, b): mesh.edge_tags[e]
            for a, b, e in zip(mesh.edge_va[mesh.boundary], mesh.edge_vb[mesh.boundary],
                               mesh.boundary)}
    return mesh.vertices, mesh.triangles, tags


class TestEdgeTable:
    def test_random_patches(self):
        built = 0
        for seed in range(16):
            parts = random_patch_parts(seed)
            if parts is None:
                continue
            verts, tris, tags = parts
            assert_former_edge_table(TriMesh(verts, tris, tags), tris, tags)
            built += 1
        assert built >= 12

    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, monkeypatch, name, dx):
        from swnet import meshing

        calls = recorded(monkeypatch, meshing, "TriMesh")
        sim = build_reference_sim(preset(name), dx)
        ((_, tris, tags), _), = calls
        assert_former_edge_table(sim.mesh, tris, tags)

    def test_errors_name_the_same_first_bad_edge(self):
        """Meshes made bad in up to three ways at once: a triangle repeated
        (its interior edges then have three users, its boundary edges two in
        the same direction), a triangle folded back over a boundary edge,
        and a tag dropped. The first bad edge in half-edge order decides the
        message."""
        seen = set()
        for seed in range(40):
            patch = random_patch(seed)
            if patch is None:
                continue
            verts, tris, tags = patch
            rng = np.random.default_rng(100 + seed)
            verts, tris, tags = list(map(tuple, verts)), [list(t) for t in tris], dict(tags)
            ways = rng.permutation(3)[: 1 + rng.integers(3)]
            if 0 in ways:
                t = tris[rng.integers(len(tris))]
                tris.append(t[1:] + t[:1])
            if 1 in ways:
                mesh = TriMesh(*patch)
                e = mesh.boundary[rng.integers(len(mesh.boundary))]
                a, b = np.array(verts[mesh.edge_va[e]]), np.array(verts[mesh.edge_vb[e]])
                inward = np.array([a[1] - b[1], b[0] - a[0]])  # left of a -> b
                verts.append(tuple(0.5 * (a + b) + 0.1 * inward))
                tris.append([int(mesh.edge_va[e]), int(mesh.edge_vb[e]), len(verts) - 1])
            if 2 in ways:
                del tags[list(tags)[rng.integers(len(tags))]]
            with pytest.raises(MeshError) as got:
                TriMesh(verts, tris, tags)
            with pytest.raises(MeshError) as want:
                former_edge_table(tris, tags)
            assert str(got.value) == str(want.value)
            seen.add(str(got.value).split(" ")[0])
        assert seen == {"non-manifold", "inconsistent", "boundary"}


# ---------------------------------------------------------------------------
# Reconstruction stencils
# ---------------------------------------------------------------------------


def former_stencil_groups(mesh, virtual):
    """`MeshField`'s stencil groups by the former formula, one fit per cell:
    (kind, cells, neighbours (c, n), operators (2, c, n), regular flags)."""
    T = mesh.n_cells
    virtual = list(virtual or [])
    counts = np.count_nonzero(mesh.neighbors >= 0, axis=1)
    nbrs = np.concatenate([mesh.neighbors, np.full((T, len(virtual)), -1)], axis=1)
    pos = mesh.centroids.take(nbrs, axis=0)
    for slot, (cell, p) in enumerate(virtual):
        nbrs[cell, counts[cell]] = -(slot + 1)
        pos[cell, counts[cell]] = p
        counts[cell] += 1
    groups = []
    scale = float(np.sqrt(np.mean(mesh.areas)))
    for c in sorted(set(counts[counts >= 2].tolist())):
        cells = np.flatnonzero(counts == c)
        nbr = nbrs[cells, :c]
        offs = pos.take(cells, axis=0)[:, :c] - mesh.centroids.take(cells, axis=0)[:, None, :]
        if c == 3:
            M = np.concatenate([np.ones((len(cells), 3, 1)), offs], axis=2)
            det = np.linalg.det(M)
            good = np.abs(det) > 1e-12 * scale**2
            inv = np.zeros_like(M)
            if good.any():
                inv[good] = np.linalg.inv(M[good])
            op = inv[:, 1:]
        else:
            G = np.einsum("kci,kcj->kij", offs, offs)
            det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
            good = np.abs(det) > 1e-12 * scale**4
            op = np.zeros((len(cells), 2, c))
            if good.any():
                Ginv = np.linalg.inv(G[good])
                op[good] = np.einsum("kij,kcj->kic", Ginv, offs[good])
        kind = "exact" if c == 3 else "lsq"
        groups.append((kind, cells, nbr.T, op.transpose(1, 2, 0), good))
    return groups


def assert_former_stencils(field, mesh, virtual):
    want = former_stencil_groups(mesh, virtual)
    assert [g[0] for g in field._groups] == [g[0] for g in want]
    for got, exp in zip(field._groups, want):
        for a, b in zip(got[1:], exp[1:]):
            assert bits(a) == bits(b)
    return want


def walled(vertices, cells):
    """A mesh whose boundary edges are all walls."""
    uses = {}
    for row in cells:
        row = [v for v in row if v >= 0]
        for a, b in zip(row, row[1:] + row[:1]):
            uses[(min(a, b), max(a, b))] = uses.get((min(a, b), max(a, b)), 0) + 1
    return TriMesh(vertices, cells, {key: "wall" for key, n in uses.items() if n == 1})


class TestStencils:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        sim = build_reference_sim(preset(name), dx)
        assert_former_stencils(sim.field, sim.mesh, [])

    @pytest.mark.parametrize("name", ["test1_sub90", "test6_network"])
    def test_method_b_junction_field(self, monkeypatch, name):
        from swnet import junctions

        calls = recorded(monkeypatch, junctions, "MeshField")
        sim = build_simulation(preset(name, strategy="B"))
        ((mesh, _), kwargs), = calls
        assert kwargs["virtual"]
        assert_former_stencils(sim.junction_field.mesh_field, mesh, kwargs["virtual"])

    def test_singular_three_neighbour_stencil_and_least_squares(self):
        # A 3 x 1 rectangle whose top side carries three unit squares: the
        # rectangle's three neighbours lie on one line, the outer squares
        # have two neighbours each.
        verts = [(0, 0), (3, 0), (3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2)]
        cells = [[0, 1, 2, 3, 4, 5], [5, 4, 7, 6, -1, -1], [4, 3, 8, 7, -1, -1],
                 [3, 2, 9, 8, -1, -1]]
        mesh = walled(verts, cells)
        want = assert_former_stencils(MeshField(mesh, PhysicalParams()), mesh, [])
        groups = {kind: good for kind, *_, good in want}
        assert groups["exact"].tolist() == [False, True] and groups["lsq"].all()

    def test_stencils_that_differ_in_the_sign_of_a_zero(self):
        # Two copies of one triangle, with centroids (0, 1) and (4, 1), each
        # fitted on three virtual neighbours at the same offsets, but for
        # one x offset of -0.0 in the first and +0.0 in the second.
        verts = [(-1, 0), (1, 0), (0, 3), (3, 0), (5, 0), (4, 3)]
        mesh = walled(verts, [[0, 1, 2], [3, 4, 5]])
        assert mesh.centroids.tolist() == [[0.0, 1.0], [4.0, 1.0]]
        assert not np.signbit(mesh.centroids).any()
        virtual = [(0, (-0.0, 3.0)), (0, (2.0, 0.0)), (0, (-2.0, 0.0)),
                   (1, (4.0, 3.0)), (1, (6.0, 0.0)), (1, (2.0, 0.0))]
        assert_former_stencils(MeshField(mesh, PhysicalParams(), virtual=virtual), mesh, virtual)
        rows, inverse = _distinct_rows(np.array([[-0.0, 2.0], [0.0, 2.0], [-0.0, 2.0]]))
        assert len(rows) == 2 and inverse[0] == inverse[2] != inverse[1]


# ---------------------------------------------------------------------------
# Cells selected by channel strip
# ---------------------------------------------------------------------------


def former_strip_coordinates(mesh, channel):
    axis = channel.axis
    rel = mesh.centroids - channel.start
    return rel @ axis, rel @ np.array([-axis[1], axis[0]])


def former_initial_state(cfg, mesh):
    init = cfg.data.get("initial", {})
    q = np.zeros((mesh.n_cells, 3))
    q[:, 0] = initial_profile(init, None, q[:, 0])[0]
    for ch in build_channels(cfg):
        along, across = former_strip_coordinates(mesh, ch)
        inside = (along >= -1e-9) & (along <= ch.length + 1e-9) & (
            np.abs(across) <= ch.width / 2.0 + 1e-9
        )
        h, u = initial_profile(init, ch.id, along[inside])
        q[inside, 0] = h
        q[inside, 1] = h * u * ch.axis[0]
        q[inside, 2] = h * u * ch.axis[1]
    return q


def former_strip_gauge(mesh, channel, s, coordinates=former_strip_coordinates):
    """(cells, weights) of a `StripGauge`, or None where it has no cells."""
    along, across = coordinates(mesh, channel)
    half_width = float(np.sqrt(np.mean(mesh.areas)))
    sel = (np.abs(along - s) <= half_width) & (np.abs(across) <= channel.width / 2.0)
    cells = np.flatnonzero(sel)
    if not len(cells):
        return None
    return cells, mesh.areas[cells] / mesh.areas[cells].sum()


def scanned_strip_coordinates(mesh, channel):
    """`strip_cells`' coordinates on every cell. On an axis-aligned channel
    they equal the former ones; on an oblique one the former matrix product
    rounds differently with the number of rows."""
    axis = channel.axis
    rx, ry = (mesh.centroids - channel.start).T
    return rx * axis[0] + ry * axis[1], ry * axis[0] - rx * axis[1]


def gauge_cells(mesh, channel, s, coordinates):
    """The cells of a `StripGauge`, which must equal those of a scan of
    every centroid with `coordinates`, weights included."""
    want = former_strip_gauge(mesh, channel, s, coordinates)
    if want is None:
        with pytest.raises(ValueError, match="no cells in strip"):
            StripGauge("g", mesh, channel, s)
        return np.array([], dtype=int)
    got = StripGauge("g", mesh, channel, s)
    assert bits(got.cells) == bits(want[0]) and bits(got.weights) == bits(want[1])
    return got.cells


def initial_cells(mesh, ch, coordinates):
    """The cells that the initial state gives to channel `ch` by
    `strip_cells`, which must equal, with their axial positions, those of a
    scan of every centroid with `coordinates`."""
    tests = (-1e-9, ch.length + 1e-9, ch.width / 2.0 + 1e-9)
    cells, along, across = strip_cells(mesh, ch, tests[0], tests[1], tests[2])
    inside = (along >= tests[0]) & (along <= tests[1]) & (np.abs(across) <= tests[2])
    full_along, full_across = coordinates(mesh, ch)
    full = (full_along >= tests[0]) & (full_along <= tests[1]) & (np.abs(full_across) <= tests[2])
    assert bits(cells[inside]) == bits(np.flatnonzero(full))
    assert bits(along[inside]) == bits(full_along[full])
    return cells[inside]


class TestCellSelection:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        cfg = preset(name)
        sim = build_reference_sim(cfg, dx)
        assert bits(sim.field.q) == bits(former_initial_state(cfg, sim.mesh))
        channels = {ch.id: ch for ch in build_channels(cfg)}
        strips = [g for g in sim.gauges if isinstance(g, StripGauge)]
        assert [g.id for g in strips] == [g.id for g in gauges(cfg)]
        for strip, g in zip(strips, gauges(cfg)):
            want = former_strip_gauge(sim.mesh, channels[g.channel], g.s)
            assert bits(strip.cells) == bits(want[0]) and bits(strip.weights) == bits(want[1])

    def test_centroids_on_the_strip_edges(self):
        """Cell 0's centroid is exactly (0, 0). Channels in the four axis
        directions put it exactly on each bound of the initial state's
        tests (1e-9 beyond the channel) and of a gauge's tests (one mean
        cell size along, the half width across), where the former and the
        new coordinates agree. Oblique channels put random cells on their
        bounds to within round-off."""
        base = np.array([(-0.3, -0.1), (0.3, -0.1), (0.0, 0.2)])
        shifts = [(0.0, 0.0)] + [(0.7 * i, 0.35 * j) for i in range(-3, 4)
                                 for j in range(-3, 4) if (i, j) != (0, 0)]
        verts = np.concatenate([base + s for s in shifts])
        mesh = walled(verts, np.arange(len(verts)).reshape(-1, 3))
        assert mesh.centroids[0].tolist() == [0.0, 0.0]
        hw = float(np.sqrt(np.mean(mesh.areas)))
        w = 0.5

        def channel(start, end, turn):
            rot = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turn)
            return Channel("c", w, 4, rot @ np.array(start), rot @ np.array(end))

        axis_aligned = (former_strip_coordinates, scanned_strip_coordinates)
        t = -(1.0 + 1e-9)
        for turn in range(4):
            # along = -1e-9, then along = L + 1e-9 with L = 1, at across 0
            for start, end in (((1e-9, 0.0), (2.0, 0.0)), ((t, 0.0), (t + 1.0, 0.0))):
                for coordinates in axis_aligned:
                    assert 0 in initial_cells(mesh, channel(start, end, turn), coordinates)
            # across = -(w/2 + 1e-9) and +(w/2 + 1e-9)
            for y in (w / 2.0 + 1e-9, -(w / 2.0 + 1e-9)):
                ch = channel((-1.0, y), (1.0, y), turn)
                for coordinates in axis_aligned:
                    assert 0 in initial_cells(mesh, ch, coordinates)
            # a gauge a mean cell size either side, on the axis and at the
            # half width across
            for y in (0.0, w / 2.0, -w / 2.0):
                ch = channel((0.0, y), (2.0, y), turn)
                for s in (hw, -hw):
                    for coordinates in axis_aligned:
                        assert 0 in gauge_cells(mesh, ch, s, coordinates)
        # A random cell's centroid 1e-9 before the start, 1e-9 past the end,
        # a mean cell size from a gauge and on the half width across.
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = mesh.centroids[rng.integers(mesh.n_cells)]
            u = np.array([np.cos(phi := rng.uniform(0, 2 * np.pi)), np.sin(phi)])
            n = np.array([-u[1], u[0]])
            across = rng.uniform(0.05, 0.5)
            start = c + 1e-9 * u - across * n
            ch = Channel("c", 2.0 * across, 4, start, start + rng.uniform(0.5, 2.0) * u)
            initial_cells(mesh, ch, scanned_strip_coordinates)
            end = c - 1e-9 * u - across * n
            ch2 = Channel("c", 2.0 * across, 4, end - ch.length * u, end)
            initial_cells(mesh, ch2, scanned_strip_coordinates)
            along, off = scanned_strip_coordinates(mesh, ch)
            k = int(np.argmin(np.hypot(*(mesh.centroids - c).T)))
            ch = Channel("c", 2.0 * abs(off[k]), 4, ch.start, ch.end)
            for s in (along[k] + hw, along[k] - hw):
                gauge_cells(mesh, ch, s, scanned_strip_coordinates)


# ---------------------------------------------------------------------------
# Boundary groups
# ---------------------------------------------------------------------------


class FormerGhostStates:
    """`GhostStates` by its former formula: row k took condition
    bcs[rows[k]], and an inflow evaluated each condition once."""

    def __init__(self, kind, bcs, rows=slice(None)):
        self.kind, self.rows = kind, rows
        if kind == "inflow":
            self.u_fns = [bc.u_fn for bc in bcs]
        else:
            h = np.array([bc.h for bc in bcs], dtype=float)[rows]
            self.h, self.hu = h, -h * np.array([bc.u for bc in bcs], dtype=float)[rows]

    def __call__(self, q, t: float, params):
        out = np.empty((len(q), 3))
        if self.kind == "inflow":
            g = params.g
            u = [float(u_fn(t)) for u_fn in self.u_fns]
            u_bc = u[0] if len(u) == 1 else np.array(u)[self.rows]
            c_g = 0.5 * (q[:, 1] / q[:, 0] + 2.0 * np.sqrt(g * q[:, 0]) + u_bc)
            if (c_g <= 0.0).any():
                raise DryStateError("inflow ghost state would be dry")
            h_g = c_g * c_g / g
            out[:, 0] = h_g
            out[:, 1] = h_g * (-u_bc)
        else:
            out[:, 0] = self.h
            out[:, 1] = self.hu
        out[:, 2] = 0.0
        return out


def former_boundary_groups(mesh, field, conds):
    """`Mesh2DSimulation`'s boundary groups by the former formula, three
    `np.unique` calls and an `argsort` of first uses: (kind, edges, cosines,
    sines, ghost) per group."""
    tags = np.array([mesh.edge_tags[e] for e in mesh.boundary.tolist()], dtype=object)
    names, tag_of = np.unique(tags, return_inverse=True)
    kinds = np.array([name.split(":")[0] for name in names], dtype=object)
    per_edge = kinds[tag_of]
    kind_names, first, kind_of = np.unique(per_edge, return_index=True, return_inverse=True)
    groups = []
    for k in np.argsort(first):
        sel = kind_of == k
        kind, edges = kind_names[k], mesh.boundary[sel]
        c, s = mesh.edge_cos[edges], mesh.edge_sin[edges]
        if kind == "wall":
            ghost = mirrored
        elif kind == "transparent":
            ghost = FarField(field, mesh.edge_left[edges], c, s)
        else:
            used, rows = np.unique(tag_of[sel], return_inverse=True)
            ghost = FormerGhostStates(kind, [conds[names[i]] for i in used], rows)
        groups.append((kind, edges, c, s, ghost))
    return groups


def assert_former_boundary_groups(sim, conds):
    """Kinds in the same order, the same edges, cosines and sines to the
    bit, the same ghost types, and the same per-edge ghosts of random inner
    states at a few times."""
    former = former_boundary_groups(sim.mesh, sim.field, conds)
    kinds = [{mirrored: "wall"}.get(g, getattr(g, "kind", "transparent"))
             for *_, g in sim._boundary_groups]
    assert kinds == [kind for kind, *_ in former]
    rng = np.random.default_rng(7)
    for (edges, c, s, ghost), (kind, *arrays, was) in zip(sim._boundary_groups, former):
        assert [bits(a) for a in (edges, c, s)] == [bits(a) for a in arrays]
        if kind == "wall":
            assert ghost is mirrored
        elif kind == "transparent":
            assert type(ghost) is FarField and ghost.field is was.field
            assert [bits(a) for a in (ghost.cells, *ghost.cs)] == [
                bits(a) for a in (was.cells, *was.cs)]
        else:
            assert type(ghost) is GhostStates
            q = rng.uniform([0.5, -0.3, -0.1], [1.5, 0.3, 0.1], (len(edges), 3))
            for t in (0.0, 0.9, 3.0):
                assert bits(ghost(q, t, sim.params)) == bits(was(q, t, sim.params))
    return kinds


def compare_runs_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE_RUNS = compare_runs_tool()


class TestBoundaryGroups:
    @pytest.mark.parametrize("name, ends, dx", [run for run in COMPARE_RUNS.REFERENCE_RUNS
                                                if run[2] >= 0.05])
    def test_references(self, monkeypatch, name, ends, dx):
        calls = recorded(monkeypatch, studies, "Mesh2DSimulation")
        cfg = COMPARE_RUNS.boundary_variant(preset, name, None, ends or {}, None)
        sim = build_reference_sim(cfg, dx)
        assert_former_boundary_groups(sim, calls[0][1]["boundary_conditions"])

    def test_interleaved_inflow_and_prescribed_tags(self):
        """Two inflows and two prescribed states alternate along the left
        side, so each kind's edges come from several tags, out of tag order."""
        names = ["inflow:d:start", "prescribed:c:start", "inflow:a:start", "prescribed:b:start"]
        segs = [((0, 0.1 * k), (0, 0.1 * (k + 1)), names[k % 4]) for k in range(8)]
        segs.append(((2, 0), (2, 0.8), "transparent"))
        mesh = rect_union_mesh([(0, 0, 2, 0.8)], 0.1, tag_segments=segs)
        conds = {
            "inflow:d:start": BoundaryCondition("inflow", u_fn=gaussian_pulse(0.2, 0.5, 0.3)),
            "inflow:a:start": BoundaryCondition("inflow", u_fn=gaussian_pulse(0.4, 1.0, 0.5)),
            "prescribed:c:start": BoundaryCondition("prescribed", h=1.1, u=0.1),
            "prescribed:b:start": BoundaryCondition("prescribed", h=0.9, u=-0.05),
        }
        sim = Mesh2DSimulation(mesh, PhysicalParams(), boundary_conditions=conds)
        open_tags = [t for t in (mesh.edge_tags[e] for e in mesh.boundary) if t in conds]
        assert open_tags == [names[k % 4] for k in range(8)]
        assert assert_former_boundary_groups(sim, conds) == [
            "wall", "inflow", "prescribed", "transparent"]


# ---------------------------------------------------------------------------
# Point gauge cells
# ---------------------------------------------------------------------------


def former_cells_holding(mesh, p):
    """Whether each cell holds p, edges included to 1e-12."""
    p = np.asarray(p, dtype=float)
    cells = mesh.triangles
    a = mesh.vertices.take(np.where(cells >= 0, cells, cells[:, :1]), axis=0)  # (T, K, 2)
    e, r = np.roll(a, -1, axis=1) - a, p - a  # edge vectors, p from each corner
    d = e[..., 0] * r[..., 1] - e[..., 1] * r[..., 0]
    return (d >= -1e-12).all(axis=1)


def former_cell_containing(mesh, p) -> int:
    p = np.asarray(p, dtype=float)
    by_distance = np.argsort(np.linalg.norm(mesh.centroids - p, axis=1))
    inside = by_distance[former_cells_holding(mesh, p)[by_distance]]
    if not len(inside):
        raise ValueError(f"point ({p[0]:g}, {p[1]:g}) lies in no cell of the mesh")
    return int(inside[0])


def assert_former_cell(mesh, p):
    """`cell_containing(p)` returns the former cell, or raises the same
    ValueError; the cell, or None."""
    try:
        want = former_cell_containing(mesh, p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            mesh.cell_containing(p)
        return None
    assert mesh.cell_containing(p) == want
    return want


def assert_former_cells(mesh, seed, n=40):
    """Up to `n` corners, edge midpoints and centroids, `n` random points in
    the bounding box and a few points past it."""
    rng = np.random.default_rng(seed)

    def pick(a):
        return a[rng.choice(len(a), min(n, len(a)), replace=False)]

    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    points = [*pick(mesh.vertices), *pick(mesh.edge_midpoints), *pick(mesh.centroids),
              *rng.uniform(lo, hi, (n, 2)), hi + 0.1, lo - 0.1, (lo[0] - 1e-9, hi[1]),
              (np.nan, lo[1])]
    found = [assert_former_cell(mesh, p) for p in points]
    assert sum(c is None for c in found) >= 3
    assert sum(c is not None for c in found) >= min(n, mesh.n_cells)  # the centroids at least


class TestPointGaugeCells:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        assert_former_cells(build_reference_sim(preset(name), dx).mesh, seed=int(100 * dx))

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_junction_fields(self, strategy):
        mesh = build_simulation(preset("test6_network", strategy=strategy)).junction_field.mesh
        assert (mesh.triangles.shape[1] > 3) == (strategy == "A")
        assert_former_cells(mesh, seed=7, n=200)

    def test_split_quad_centre(self):
        """At dx = 0.02, (-1.49, 0.01) is the centre of a split quad: two
        cells contain it, at centroid distances that differ in the last bits."""
        mesh = build_reference_sim(preset("test6_network"), 0.02).mesh
        p = np.array([-1.49, 0.01])
        both = np.flatnonzero(former_cells_holding(mesh, p))
        distance = np.linalg.norm(mesh.centroids[both] - p, axis=1)
        assert len(both) == 2 and distance[0] != distance[1]
        assert abs(distance[0] - distance[1]) < 1e-15
        assert assert_former_cell(mesh, p) == both[np.argmin(distance)]

    def test_tie_in_distance_keeps_the_sort_order(self):
        """Two triangles mirrored about x = 0 both hold points of their
        shared edge, at exactly equal centroid distances."""
        mesh = walled([(-1, 0), (0, -1), (0, 1), (1, 0)], [[0, 1, 2], [3, 2, 1]])
        assert mesh.centroids.tolist() == [[-1 / 3, 0.0], [1 / 3, 0.0]]
        for y in (0.25, -0.5, 0.0, 1.0):
            p = (0.0, y)
            distance = np.linalg.norm(mesh.centroids - p, axis=1)
            assert distance[0] == distance[1] and former_cells_holding(mesh, p).all()
            assert assert_former_cell(mesh, p) is not None


# ---------------------------------------------------------------------------
# Footprint raster and node numbering
# ---------------------------------------------------------------------------


def former_rect_union_nodes(rects, dx, tag_segments=None, polygons=()):
    """(vertices, triangles) of `rect_union_mesh` by the former formula:
    every rectangle and polygon tested on every cell centre, nodes numbered
    by `np.unique`."""
    rects = [tuple(map(float, r)) for r in rects]
    xs = [r[0] for r in rects] + [r[2] for r in rects]
    ys = [r[1] for r in rects] + [r[3] for r in rects]
    for p in polygons:
        xs += list(np.asarray(p)[:, 0])
        ys += list(np.asarray(p)[:, 1])
    x_min, y_min = min(xs), min(ys)
    nx = int(round((max(xs) - x_min) / dx))
    ny = int(round((max(ys) - y_min) / dx))

    cx = x_min + dx * (np.arange(nx) + 0.5)
    cy = y_min + dx * (np.arange(ny) + 0.5)
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    mask = np.zeros((nx, ny), dtype=bool)
    eps = 1e-9 * dx
    for x0, y0, x1, y1 in rects:
        mask |= (CX > x0 - eps) & (CX < x1 + eps) & (CY > y0 - eps) & (CY < y1 + eps)
    for poly in polygons:
        poly = np.asarray(poly, dtype=float)
        # Centres outside the bounding box cross no edge, or an even number.
        (px0, py0), (px1, py1) = poly.min(axis=0) - eps, poly.max(axis=0) + eps
        test = ~mask & (CX > px0) & (CX < px1) & (CY > py0) & (CY < py1)
        mask[test] = point_in_polygon(np.stack([CX[test], CY[test]], axis=1), poly)

    # Corners (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1) of every cell,
    # cells in (i, j) order; nodes are numbered by first use in that list.
    ci, cj = np.nonzero(mask)
    corners = (ci[:, None] + [0, 1, 1, 0]) * (ny + 1) + cj[:, None] + [0, 0, 1, 1]
    keys, first, inverse = np.unique(corners, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    v00, v10, v11, v01 = number[inverse].reshape(-1, 4).T
    node_i, node_j = np.divmod(keys[order], ny + 1)
    verts = np.stack([x_min + node_i * dx, y_min + node_j * dx], axis=1)
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return verts, tris


class TestFootprint:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, monkeypatch, name, dx):
        calls = recorded(monkeypatch, studies, "rect_union_mesh")
        sim = build_reference_sim(preset(name), dx)
        (args, kwargs), = calls
        verts, tris = former_rect_union_nodes(*args, **kwargs)
        assert bits(sim.mesh.vertices) == bits(verts)
        assert bits(sim.mesh.triangles) == bits(tris)

    def test_centres_on_the_box_bounds(self):
        """Polygons whose bounding box, widened by 1e-9 dx, ends a few ulps
        short of, on and past the first and last cell centres of a row."""
        dx, eps = 0.1, 1e-9 * 0.1
        rects = [(0.0, 0.0, 1.0, 0.5), (0.4, 0.5, 0.6, 1.0)]
        cx = dx * (np.arange(10) + 0.5)
        hits = set()
        for k in range(-3, 4):
            x0 = cx[0] + eps + k * np.spacing(cx[0])
            x1 = cx[-1] - eps + k * np.spacing(cx[-1])
            hits |= {side for side, hit in (("low", x0 - eps == cx[0]),
                                            ("high", x1 + eps == cx[-1])) if hit}
            poly = np.array([(x0, 1.0), (x1, 1.0), (x1, 1.2), (x0, 1.3)])
            mesh = rect_union_mesh(rects, dx, polygons=[poly])
            verts, tris = former_rect_union_nodes(rects, dx, polygons=[poly])
            assert bits(mesh.vertices) == bits(verts) and bits(mesh.triangles) == bits(tris)
        assert hits == {"low", "high"}


# ---------------------------------------------------------------------------
# Row lengths
# ---------------------------------------------------------------------------


def test_row_lengths_are_the_norm_to_the_bit():
    # Imported here, so that the oracles above also run on a tree without it.
    from swnet.geometry import row_lengths

    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    rows = np.array([
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (tiny, 0.0), (-tiny, tiny),
        (1e-160, 1e-160), (2.2e-308, -1e-310), (huge, 0.0), (1e200, 1e200), (-huge, -huge),
        (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.nan, np.inf), (3.0, 4.0),
    ])
    rng = np.random.default_rng(0)
    scales = 10.0 ** rng.integers(-300, 300, (1000, 2))
    rows = np.concatenate([rows, rng.standard_normal((1000, 2)) * scales])
    with np.errstate(over="ignore", under="ignore"):
        assert bits(row_lengths(rows)) == bits(np.linalg.norm(rows, axis=1))
        stack = rows[:1014].reshape(-1, 3, 2)
        assert bits(row_lengths(stack)) == bits(np.linalg.norm(stack, axis=2))
