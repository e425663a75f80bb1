"""The full-2D reference's set-up: properties of its edge table, stencils,
cell selection, boundary groups, point gauge cells and footprint.

The bits of each reference, of the random patches and points and of the
cells selected on oblique channels are pinned in `tests/bit_record.json`.
"""

import re

import numpy as np
import pytest

from swnet import ScenarioConfig, preset, studies
from swnet.boundaries import BoundaryCondition, FarField, GhostStates, gaussian_pulse
from swnet.config import build_channels, build_simulation, gauges, initial_profile
from swnet.core import PhysicalParams
from swnet.geometry import Channel, GeometryError, MeshError, TriMesh, build_junction_polygon
from swnet.meshing import rect_union_mesh
from swnet.riemann import mirrored
from swnet.scheme2d import MeshField, _distinct_rows
from swnet.simulation import Mesh2DSimulation, StripGauge, strip_cells
from swnet.studies import build_reference_sim

import compare_runs
from generated import random_patch, strip_mesh
from test_geometry import assert_edge_table, assert_footprint, assert_stencils_fit_linear_fields

# Every preset and size at or above 0.05 at which `build_reference_sim`
# builds a reference.
REFERENCES = [(name, dx) for name, ends, dx in compare_runs.REFERENCE_RUNS
              if ends is None and dx >= 0.05]


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


def walled(vertices, cells):
    """A mesh whose boundary edges are all walls."""
    uses = {}
    for row in cells:
        row = [v for v in row if v >= 0]
        for a, b in zip(row, row[1:] + row[:1]):
            uses[(min(a, b), max(a, b))] = uses.get((min(a, b), max(a, b)), 0) + 1
    return TriMesh(vertices, cells, {key: "wall" for key, n in uses.items() if n == 1})


# ---------------------------------------------------------------------------
# Edge table
# ---------------------------------------------------------------------------


class TestEdgeTable:
    def test_random_patches(self):
        built = 0
        for seed in range(16):
            try:
                parts = random_patch(seed)
            except GeometryError:
                continue
            assert_edge_table(TriMesh(*parts))
            built += 1
        assert built >= 12

    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        assert_edge_table(build_reference_sim(preset(name), dx).mesh)

    def test_errors_name_the_same_first_bad_edge(self):
        """Two unit squares, each split in two, made bad in up to two ways
        at once: a triangle repeated, rotated (so edge (1, 2) has three
        users), or a triangle folded back over boundary edge (2, 3), and a
        tag dropped. Of the bad edges, the first in half-edge order, cell by
        cell and side by side, names the error."""
        verts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (0.5, 0.9)]
        tris = [[0, 1, 2], [0, 2, 3], [1, 4, 5], [1, 5, 2]]
        tags = {key: "wall" for key in [(0, 1), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)]}
        repeated, folded = [[5, 2, 1]], [[2, 3, 6]]
        three = "non-manifold edge (1, 2): shared by 3 triangles"
        inconsistent = "inconsistent triangle orientation at edge (2, 3)"
        cases = [
            ([], [(4, 5)], "boundary edge (4, 5) has no tag"),
            ([], [(4, 5), (0, 1)], "boundary edge (0, 1) has no tag"),
            (repeated, [], three),
            (repeated, [(4, 5)], three),
            (repeated, [(0, 1)], "boundary edge (0, 1) has no tag"),
            (folded, [], inconsistent),
            (folded, [(4, 5)], inconsistent),
            (folded, [(0, 1)], "boundary edge (0, 1) has no tag"),
        ]
        TriMesh(verts[:6], tris, tags)
        for extra, dropped, message in cases:
            with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
                TriMesh(verts, tris + extra, {k: v for k, v in tags.items() if k not in dropped})


# ---------------------------------------------------------------------------
# Reconstruction stencils
# ---------------------------------------------------------------------------


class TestStencils:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        assert_stencils_fit_linear_fields(build_reference_sim(preset(name), dx).field)

    @pytest.mark.parametrize("name", ["test1_sub90", "test6_network"])
    def test_method_b_junction_field(self, monkeypatch, name):
        from swnet import junctions

        calls = recorded(monkeypatch, junctions, "MeshField")
        sim = build_simulation(preset(name, strategy="B"))
        ((_, _), kwargs), = calls
        assert kwargs["virtual"]
        assert_stencils_fit_linear_fields(sim.junction_field.mesh_field, kwargs["virtual"])

    def test_singular_three_neighbour_stencil_and_least_squares(self):
        # A 3 x 1 rectangle whose top side carries three unit squares: the
        # rectangle's three neighbours lie on one line, the outer squares
        # have two neighbours each.
        verts = [(0, 0), (3, 0), (3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2)]
        cells = [[0, 1, 2, 3, 4, 5], [5, 4, 7, 6, -1, -1], [4, 3, 8, 7, -1, -1],
                 [3, 2, 9, 8, -1, -1]]
        field = MeshField(walled(verts, cells), PhysicalParams())
        assert_stencils_fit_linear_fields(field)
        groups = {kind: good for kind, *_, good in field._groups}
        assert groups["exact"].tolist() == [False, True] and groups["lsq"].all()

    def test_stencils_that_differ_in_the_sign_of_a_zero(self):
        # Two copies of one triangle, with centroids (0, 1) and (4, 1), each
        # fitted on three virtual neighbours at the same offsets, but for
        # one x offset of -0.0 in the first and +0.0 in the second: each
        # takes the operator that it takes when fitted on its own.
        verts = [(-1, 0), (1, 0), (0, 3), (3, 0), (5, 0), (4, 3)]
        mesh = walled(verts, [[0, 1, 2], [3, 4, 5]])
        assert mesh.centroids.tolist() == [[0.0, 1.0], [4.0, 1.0]]
        assert not np.signbit(mesh.centroids).any()
        virtual = [(0, (-0.0, 3.0)), (0, (2.0, 0.0)), (0, (-2.0, 0.0)),
                   (1, (4.0, 3.0)), (1, (6.0, 0.0)), (1, (2.0, 0.0))]
        field = MeshField(mesh, PhysicalParams(), virtual=virtual)
        assert_stencils_fit_linear_fields(field, virtual)
        (*_, op, _), = field._groups
        for cell in (0, 1):
            alone = MeshField(walled(verts[3 * cell:3 * cell + 3], [[0, 1, 2]]), PhysicalParams(),
                              virtual=[(0, p) for c, p in virtual if c == cell])
            assert bits(op[:, :, cell]) == bits(alone._groups[0][3][:, :, 0])
        rows, inverse = _distinct_rows(np.array([[-0.0, 2.0], [0.0, 2.0], [-0.0, 2.0]]))
        assert len(rows) == 2 and inverse[0] == inverse[2] != inverse[1]


# ---------------------------------------------------------------------------
# Cells selected by channel strip
# ---------------------------------------------------------------------------


def everywhere(mesh, channel):
    """`strip_cells`' along and across coordinates of every cell."""
    cells, along, across = strip_cells(mesh, channel, -1e6, 1e6, 1e6)
    assert bits(cells) == bits(np.arange(mesh.n_cells))
    return along, across


def initial_cells(mesh, ch):
    """The cells that the initial state gives to channel `ch`, which must
    be those of a scan of every cell, with their axial positions."""
    tests = (-1e-9, ch.length + 1e-9, ch.width / 2.0 + 1e-9)
    cells, along, across = strip_cells(mesh, ch, *tests)
    inside = (along >= tests[0]) & (along <= tests[1]) & (np.abs(across) <= tests[2])
    full_along, full_across = everywhere(mesh, ch)
    full = (full_along >= tests[0]) & (full_along <= tests[1]) & (np.abs(full_across) <= tests[2])
    assert bits(cells[inside]) == bits(np.flatnonzero(full))
    assert bits(along[inside]) == bits(full_along[full])
    return cells[inside]


def gauge_cells(mesh, ch, s):
    """The cells of a `StripGauge`: those within one mean cell size of s
    along the channel and within its half width across, by a scan of every
    cell, weighted by area."""
    along, across = everywhere(mesh, ch)
    hw = float(np.sqrt(np.mean(mesh.areas)))
    want = np.flatnonzero((np.abs(along - s) <= hw) & (np.abs(across) <= ch.width / 2.0))
    got = StripGauge("g", mesh, ch, s)
    assert bits(got.cells) == bits(want)
    assert np.allclose(got.weights * mesh.areas[want].sum(), mesh.areas[want], rtol=1e-14)
    return got.cells


class TestCellSelection:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        """The strip gauges' cells, and the initial state: each channel's
        profile in the cells within its strip alone, and the depth at rest
        in the cells outside every strip."""
        cfg = preset(name)
        sim = build_reference_sim(cfg, dx)
        mesh, q = sim.mesh, sim.field.q
        channels = {ch.id: ch for ch in build_channels(cfg)}
        strips = [g for g in sim.gauges if isinstance(g, StripGauge)]
        assert [g.id for g in strips] == [g.id for g in gauges(cfg)]
        for strip, g in zip(strips, gauges(cfg)):
            assert bits(strip.cells) == bits(gauge_cells(mesh, channels[g.channel], g.s))
        init = cfg.data.get("initial", {})
        inside = {cid: np.isin(np.arange(mesh.n_cells), initial_cells(mesh, ch))
                  for cid, ch in channels.items()}
        owners = np.sum(list(inside.values()), axis=0)
        for cid, ch in channels.items():
            sole = inside[cid] & (owners == 1)
            h, u = initial_profile(init, cid, everywhere(mesh, ch)[0][sole])
            assert np.array_equal(q[sole, 0], h)
            assert np.array_equal(q[sole, 1:], (h * u)[:, None] * ch.axis)
        rest = owners == 0
        assert (q[rest, 0] == initial_profile(init, None, q[rest, 0])[0]).all()
        assert not q[rest, 1:].any()

    def test_centroids_on_the_strip_edges(self):
        """Cell 0's centroid is exactly (0, 0). Channels in the four axis
        directions put it exactly on each bound of the initial state's
        tests (1e-9 beyond the channel) and of a gauge's tests (one mean
        cell size along, the half width across), where it is selected, as
        by a scan of every cell. The cells selected on oblique channels,
        which put random cells on their bounds to within round-off, are
        pinned in `tests/bit_record.json`."""
        mesh = strip_mesh()
        assert mesh.centroids[0].tolist() == [0.0, 0.0]
        hw = float(np.sqrt(np.mean(mesh.areas)))
        w = 0.5

        def channel(start, end, turn):
            rot = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turn)
            return Channel("c", w, 4, rot @ np.array(start), rot @ np.array(end))

        t = -(1.0 + 1e-9)
        for turn in range(4):
            # along = -1e-9, then along = L + 1e-9 with L = 1, at across 0
            for start, end in (((1e-9, 0.0), (2.0, 0.0)), ((t, 0.0), (t + 1.0, 0.0))):
                assert 0 in initial_cells(mesh, channel(start, end, turn))
            # across = -(w/2 + 1e-9) and +(w/2 + 1e-9)
            for y in (w / 2.0 + 1e-9, -(w / 2.0 + 1e-9)):
                assert 0 in initial_cells(mesh, channel((-1.0, y), (1.0, y), turn))
            # a gauge a mean cell size either side, on the axis and at the
            # half width across
            for y in (0.0, w / 2.0, -w / 2.0):
                ch = channel((0.0, y), (2.0, y), turn)
                for s in (hw, -hw):
                    assert 0 in gauge_cells(mesh, ch, s)


# ---------------------------------------------------------------------------
# Boundary groups
# ---------------------------------------------------------------------------


def assert_boundary_groups(sim, conds):
    """The boundary edges grouped by the kind of their tag, kinds in order of
    first appearance and edges in boundary order, with their normals'
    cosines and sines; walls take the mirror, open edges a `FarField` of
    their cells, and each inflow or prescribed edge the ghost state of its
    own condition, here of random inner states at a few times. Returns the
    kinds in group order."""
    mesh = sim.mesh
    tags = [mesh.edge_tags[e] for e in mesh.boundary.tolist()]
    kinds = np.array([tag.split(":")[0] for tag in tags])
    order = list(dict.fromkeys(kinds.tolist()))
    assert len(sim._boundary_groups) == len(order)
    rng = np.random.default_rng(7)
    for kind, (edges, c, s, ghost) in zip(order, sim._boundary_groups):
        assert bits(edges) == bits(mesh.boundary[kinds == kind])
        assert bits(c) == bits(mesh.edge_cos[edges]) and bits(s) == bits(mesh.edge_sin[edges])
        if kind == "wall":
            assert ghost is mirrored
        elif kind == "transparent":
            assert type(ghost) is FarField and ghost.field is sim.field
            assert bits(ghost.cells) == bits(mesh.edge_left[edges])
        else:
            assert type(ghost) is GhostStates
            own = [GhostStates(kind, [conds[mesh.edge_tags[e]]]) for e in edges.tolist()]
            q = rng.uniform([0.5, -0.3, -0.1], [1.5, 0.3, 0.1], (len(edges), 3))
            for t in (0.0, 0.9, 3.0):
                got = ghost(q, t, sim.params)
                for k, one in enumerate(own):
                    assert bits(got[k]) == bits(one(q[k:k + 1], t, sim.params)[0])
    return order


class TestBoundaryGroups:
    @pytest.mark.parametrize("name, ends, dx", [run for run in compare_runs.REFERENCE_RUNS
                                                if run[2] >= 0.05])
    def test_references(self, monkeypatch, name, ends, dx):
        calls = recorded(monkeypatch, studies, "Mesh2DSimulation")
        cfg = compare_runs.boundary_variant(preset, name, None, ends or {}, None)
        sim = build_reference_sim(cfg, dx)
        assert_boundary_groups(sim, calls[0][1]["boundary_conditions"])

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
        assert assert_boundary_groups(sim, conds) == [
            "wall", "inflow", "prescribed", "transparent"]


# ---------------------------------------------------------------------------
# Point gauge cells
# ---------------------------------------------------------------------------


def assert_nearest_holder(mesh, p, cells):
    """p lies in no cell but of `cells` (to the mesh's test, which holds a
    point left of each of a cell's edges, or on it): `cell_containing`
    takes the nearest of those that hold it by centroid distance, the first
    in sort order on a tie, or raises where none does."""
    holders = [c for c in cells if mesh._contains([c], p)[0]]
    if not holders:
        with pytest.raises(ValueError, match="lies in no cell of the mesh"):
            mesh.cell_containing(p)
        return
    by_distance = np.argsort(np.linalg.norm(mesh.centroids - p, axis=1))
    assert mesh.cell_containing(p) == by_distance[np.isin(by_distance, holders)][0]


def assert_nearest_holders(mesh, seed, n=20):
    """A centroid lies in its cell; an edge's midpoint in no cell but the
    edge's, and a corner in none but those that share it; points off the
    mesh lie in no cell."""
    rng = np.random.default_rng(seed)
    for k in rng.choice(mesh.n_cells, min(n, mesh.n_cells), replace=False):
        assert mesh.cell_containing(mesh.centroids[k]) == k
    for e in rng.choice(len(mesh.edge_left), n):
        cells = [c for c in (mesh.edge_left[e], mesh.edge_right[e]) if c >= 0]
        assert_nearest_holder(mesh, mesh.edge_midpoints[e], cells)
    for v in rng.choice(len(mesh.vertices), n):
        assert_nearest_holder(mesh, mesh.vertices[v], np.flatnonzero((mesh.triangles == v).any(1)))
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    for p in (hi + 0.1, lo - 0.1, (np.nan, lo[1])):
        with pytest.raises(ValueError, match="lies in no cell of the mesh"):
            mesh.cell_containing(p)


class TestPointGaugeCells:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, name, dx):
        assert_nearest_holders(build_reference_sim(preset(name), dx).mesh, seed=int(100 * dx))

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_junction_fields(self, strategy):
        mesh = build_simulation(preset("test6_network", strategy=strategy)).junction_field.mesh
        assert (mesh.triangles.shape[1] > 3) == (strategy == "A")
        assert_nearest_holders(mesh, seed=7, n=100)

    def test_split_quad_centre(self):
        """At dx = 0.02, (-1.49, 0.01) is the centre of a split quad, the
        midpoint of its diagonal: its two cells contain it, at centroid
        distances that differ in the last bits, and the nearer is taken."""
        mesh = build_reference_sim(preset("test6_network"), 0.02).mesh
        p = np.array([-1.49, 0.01])
        e = int(np.argmin(np.linalg.norm(mesh.edge_midpoints - p, axis=1)))
        assert np.abs(mesh.edge_midpoints[e] - p).max() < 1e-15
        both = [mesh.edge_left[e], mesh.edge_right[e]]
        distance = np.linalg.norm(mesh.centroids[both] - p, axis=1)
        assert distance[0] != distance[1] and abs(distance[0] - distance[1]) < 1e-15
        assert mesh.cell_containing(p) == both[np.argmin(distance)]

    def test_tie_in_distance_keeps_the_sort_order(self):
        """Two triangles mirrored about x = 0 both hold points of their
        shared edge, at exactly equal centroid distances: the first in
        sort order, cell 0, is taken."""
        mesh = walled([(-1, 0), (0, -1), (0, 1), (1, 0)], [[0, 1, 2], [3, 2, 1]])
        assert mesh.centroids.tolist() == [[-1 / 3, 0.0], [1 / 3, 0.0]]
        for y in (0.25, -0.5, 0.0, 1.0):
            p = (0.0, y)
            distance = np.linalg.norm(mesh.centroids - p, axis=1)
            assert distance[0] == distance[1]
            assert mesh.cell_containing(p) == 0


# ---------------------------------------------------------------------------
# Footprint raster and node numbering
# ---------------------------------------------------------------------------


class TestFootprint:
    @pytest.mark.parametrize("name, dx", REFERENCES)
    def test_references(self, monkeypatch, name, dx):
        calls = recorded(monkeypatch, studies, "rect_union_mesh")
        sim = build_reference_sim(preset(name), dx)
        ((rects, size), kwargs), = calls
        assert_footprint(sim.mesh, rects, size, kwargs["polygons"])

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
            assert_footprint(rect_union_mesh(rects, dx, polygons=[poly]), rects, dx, [poly])
        assert hits == {"low", "high"}


# ---------------------------------------------------------------------------
# Junction cores
# ---------------------------------------------------------------------------


def test_a_core_that_does_not_build_is_an_error():
    """appA_angle0's core, of three parallel channels, has no area: the
    channel rectangles cover it. appA_angle90 with its mouths 0.5 from the
    junction has a core that fails a polygon check, whose hole the
    reference must not leave."""
    cfg = preset("appA_angle0")
    channels = {ch.id: ch for ch in build_channels(cfg)}
    ends = [(channels[ch], end) for ch, end in (("ch1", "end"), ("ch2", "start"), ("ch3", "start"))]
    with pytest.raises(GeometryError):
        build_junction_polygon(ends, (0.0, 0.0), 0.0)
    assert build_reference_sim(cfg, 0.1).mesh.n_cells > 0
    data = preset("appA_angle90").emit()
    for ch in data["channels"]:
        for key in ("start", "end"):
            p = np.array(ch[key])
            if np.isclose(np.hypot(*p), 0.25):
                ch[key] = (2.0 * p).tolist()
    with pytest.raises(MeshError, match="^junction j1: its core polygon does not build: "
                                        "junction edge normal points inward$"):
        build_reference_sim(ScenarioConfig(data), 0.05)


# ---------------------------------------------------------------------------
# Row lengths
# ---------------------------------------------------------------------------


def test_row_lengths_are_the_norm_to_the_bit():
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
