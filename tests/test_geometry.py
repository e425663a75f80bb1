import functools
import itertools
import re

import numpy as np
import pytest

from swnet.core import PhysicalParams
from swnet.geometry import (
    Channel,
    GeometryError,
    JunctionEdge,
    MeshError,
    TriMesh,
    _check_polygons,
    build_junction_polygon,
    build_junction_polygons,
    point_in_polygon,
)
from swnet.meshing import disjoint_union, fan_refine_mesh, rect_union_mesh
from swnet.scheme2d import MeshField

from generated import random_junction


def channel_end(channel, end, mouth, direction, width):
    """(Channel, end): a channel of `width` whose `end` lies at `mouth`,
    running from there along `direction`."""
    mouth = np.asarray(mouth, dtype=float)
    far = mouth + direction
    return Channel(channel, width, 10, *((mouth, far) if end == "start" else (far, mouth))), end


def t_junction(b=0.4, protrusion=0.1):
    half = b / 2.0
    ends = [
        channel_end("ch1", "end", mouth=(-half, 0.0), direction=(-1, 0), width=b),
        channel_end("ch2", "start", mouth=(0.0, half), direction=(0, 1), width=b),
        channel_end("ch3", "start", mouth=(0.0, -half), direction=(0, -1), width=b),
    ]
    return build_junction_polygon(ends, (0.0, 0.0), protrusion)


class TestJunctionPolygon:
    def test_collinear_channels_make_rectangle(self):
        b = 0.4
        ends = [
            channel_end("a", "end", mouth=(0, 0), direction=(-1, 0), width=b),
            channel_end("b", "start", mouth=(0, 0), direction=(1, 0), width=b),
        ]
        g = build_junction_polygon(ends, (0, 0), 0.1)
        assert np.isclose(g.area, 0.2 * b * b, atol=1e-15)
        assert len([e for e in g.edges if e.kind == "coupling"]) == 2

    def test_symmetric_t_junction(self):
        g = t_junction()
        b = 0.4
        assert np.isclose(g.area, b * b + 3 * 0.1 * b * b, atol=1e-14)
        # mirror symmetry across the parent axis: vertex set maps to itself
        mirrored = g.vertices * np.array([1.0, -1.0])
        for v in mirrored:
            assert np.min(np.linalg.norm(g.vertices - v, axis=1)) < 1e-12
        coupling = [e for e in g.edges if e.kind == "coupling"]
        assert len(coupling) == 3
        for e in coupling:
            assert np.isclose(np.hypot(*(e.b - e.a)), b, atol=1e-14)

    def test_shoelace_on_unequal_widths(self):
        th = np.pi / 3
        ends = [
            channel_end("p", "end", mouth=(-0.3, 0), direction=(-1, 0), width=0.4),
            channel_end("d1", "start", mouth=(0.3 * np.cos(th), 0.3 * np.sin(th)),
                        direction=(np.cos(th), np.sin(th)), width=0.3),
            channel_end("d2", "start", mouth=(0.3 * np.cos(th), -0.3 * np.sin(th)),
                        direction=(np.cos(th), -np.sin(th)), width=0.3),
        ]
        g = build_junction_polygon(ends, (0, 0), 0.1)
        # independent shoelace evaluation on the emitted vertex list
        v = g.vertices
        x, y = v[:, 0], v[:, 1]
        area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert np.isclose(g.area, area, rtol=1e-12)
        assert g.area > 0

    def test_outward_normals(self):
        g = t_junction()
        for e in g.edges:
            # a counter-clockwise edge's direction turned clockwise
            dx, dy = e.b - e.a
            assert np.dot([dy, -dx], 0.5 * (e.a + e.b) - g.centroid) > 0.0

    def test_parallel_offset_walls_rejected(self):
        # two channels entering from the same direction with offset
        # centerlines have parallel non-intersecting side walls
        ends = [
            channel_end("a", "end", mouth=(0, 0.3), direction=(-1, 0), width=0.2),
            channel_end("b", "end", mouth=(0, -0.3), direction=(-1, 0), width=0.2),
        ]
        with pytest.raises(GeometryError):
            build_junction_polygon(ends, (0, 0), 0.1)

    def test_single_channel_rejected(self):
        ends = [channel_end("a", "end", mouth=(0, 0), direction=(-1, 0), width=0.2)]
        with pytest.raises(GeometryError):
            build_junction_polygon(ends, (0, 0), 0.1)

    def test_45_degree_bend(self):
        c45 = np.cos(np.pi / 4)
        ends = [
            channel_end("c1", "end", mouth=(-0.25, 0), direction=(-1, 0), width=0.5),
            channel_end("c2", "start", mouth=(0.25 * c45, 0.25 * c45),
                        direction=(c45, c45), width=0.5),
        ]
        g = build_junction_polygon(ends, (0, 0), 0.1)
        assert g.area > 0
        assert len([e for e in g.edges if e.kind == "coupling"]) == 2

    def test_four_way_crossing(self):
        b = 0.2
        ends = [
            channel_end(c, "start", mouth=(0.1 * dx, 0.1 * dy), direction=(dx, dy), width=b)
            for c, (dx, dy) in zip("nesw", [(0, 1), (1, 0), (0, -1), (-1, 0)])
        ]
        g = build_junction_polygon(ends, (0, 0), 0.1)
        assert np.isclose(g.area, b * b + 4 * 0.1 * b * b, atol=1e-14)


class TestAreaDecomposition:
    def test_channels_plus_junction_tile_footprint(self):
        # trimmed channel lengths * width + junction area = full footprint
        from swnet.core import PhysicalParams
        from swnet.scheme1d import ChannelField, ChannelSegment

        b, Lp, Ld = 0.4, 3.0, 2.0
        g = t_junction(b)
        cut = 0.1 * b
        channels = [
            Channel("ch1", b, 60, start=(-b / 2 - Lp, 0), end=(-b / 2, 0)),
            Channel("ch2", b, 40, start=(0, b / 2), end=(0, b / 2 + Ld)),
            Channel("ch3", b, 40, start=(0, -b / 2), end=(0, -b / 2 - Ld)),
        ]
        p = PhysicalParams()
        field = ChannelField(
            channels, p, cuts={("ch1", "end"): cut, ("ch2", "start"): cut, ("ch3", "start"): cut}
        )
        pieces = sum(ChannelSegment(field, c).ds.sum() * b for c in range(3)) + g.area
        footprint = (Lp + 2 * Ld) * b + b * b  # three rectangles + core square
        assert np.isclose(pieces, footprint, rtol=1e-12)


class TestTriMesh:
    def test_single_triangle(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        tris = [(0, 1, 2)]
        tags = {(0, 1): "wall", (1, 2): "wall", (0, 2): "wall"}
        m = TriMesh(verts, tris, tags)
        assert m.n_cells == 1
        assert len(m.boundary) == 3
        assert len(m.interior) == 0

    def test_cell_containing_searches_every_cell(self):
        # A unit square cell and a triangle padded to its four corners.
        verts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0.5)]
        cells = [(0, 1, 2, 3), (1, 4, 2, -1)]
        tags = {(0, 1): "wall", (1, 4): "wall", (4, 2): "wall", (2, 3): "wall", (3, 0): "wall"}
        m = TriMesh(verts, cells, tags)
        assert m.cell_containing((0.1, 0.9)) == 0  # outside the square's first three corners
        assert m.cell_containing((1.5, 0.5)) == 1
        assert m.cell_containing((1.0, 0.5)) in (0, 1)  # on the shared edge
        for p in [(3.0, 3.0), (-0.1, 0.5), (1.9, 0.9)]:
            with pytest.raises(ValueError, match="lies in no cell"):
                m.cell_containing(p)

    def test_cell_containing_keeps_the_nearest_centroid_rule(self):
        # The one containing cell; of several (a point on shared edges or a
        # shared corner), the first in argsort order of centroid distance.
        m = rect_union_mesh([(0, 0, 1, 1)], 0.25)
        k = 5
        assert m.cell_containing(m.centroids[k]) == k
        e = m.interior[3]
        mid = m.edge_midpoints[e]
        by_distance = np.argsort(np.linalg.norm(m.centroids - mid, axis=1))
        both = {int(m.edge_left[e]), int(m.edge_right[e])}
        first = next(int(c) for c in by_distance if int(c) in both)
        assert m.cell_containing(mid) == first
        corner = m.vertices[m.triangles[k, 0]]  # shared by several cells
        by_distance = np.argsort(np.linalg.norm(m.centroids - corner, axis=1))
        users = set(np.flatnonzero((m.triangles == m.triangles[k, 0]).any(axis=1)).tolist())
        assert len(users) > 2
        assert m.cell_containing(corner) == next(int(c) for c in by_distance if c in users)
        with pytest.raises(ValueError, match=r"point \(1.5, 0.5\) lies in no cell"):
            m.cell_containing((1.5, 0.5))

    def test_edge_normals_are_cos_and_sin_of_the_angles(self):
        g = t_junction()
        patch = TriMesh(*fan_refine_mesh(g, refinements=2))
        n = len(g.vertices)
        bound = patch.boundary
        union = disjoint_union([
            (g.vertices, [np.arange(n)], {(k, (k + 1) % n): e.tag for k, e in enumerate(g.edges)}),
            (patch.vertices, patch.triangles,
             {(a, b): patch.edge_tags[e] for a, b, e in zip(patch.edge_va[bound],
                                                            patch.edge_vb[bound], bound)}),
        ])
        for m in (rect_union_mesh([(0, 0, 2, 1), (0, 0, 1, 2)], 0.25), patch, union):
            assert np.array_equal(m.edge_cos, np.cos(m.edge_thetas))
            assert np.array_equal(m.edge_sin, np.sin(m.edge_thetas))
            # As the reference's boundary groups read them: a subset of the
            # normals equals the normals of the subset's angles.
            assert np.array_equal(m.edge_cos[::3], np.cos(m.edge_thetas[::3]))

    def test_two_triangles_share_one_edge(self):
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tris = [(0, 1, 2), (0, 2, 3)]
        tags = {(0, 1): "wall", (1, 2): "wall", (2, 3): "wall", (0, 3): "wall"}
        m = TriMesh(verts, tris, tags)
        assert len(m.interior) == 1
        assert len(m.boundary) == 4

    def test_non_manifold_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1), (0, -1), (0.5, -3)]
        tris = [(0, 1, 2), (0, 3, 1), (1, 0, 4)]  # edge {0,1} used three times
        with pytest.raises(MeshError, match="non-manifold"):
            TriMesh(verts, tris, {})

    def test_clockwise_triangle_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(MeshError, match="counter-clockwise"):
            TriMesh(verts, [(0, 2, 1)], {})

    def test_mesh_without_triangles_rejected(self):
        with pytest.raises(MeshError, match="T > 0"):
            TriMesh([(0, 0), (1, 0), (0, 1)], np.zeros((0, 3), dtype=int), {})

    def test_untagged_boundary_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(MeshError, match="no tag"):
            TriMesh(verts, [(0, 1, 2)], {(0, 1): "wall"})


class TestMeshers:
    def test_rect_union_area_and_tags(self):
        segs = [((0, 0), (0, 0.4), "inflow"), ((2, 0), (2, 0.4), "transparent")]
        m = rect_union_mesh([(0, 0, 2, 0.4)], 0.1, tag_segments=segs)
        assert np.isclose(m.areas.sum(), 0.8, atol=1e-12)
        kinds = {m.edge_tags[e].split(":")[0] for e in m.boundary}
        assert kinds == {"wall", "inflow", "transparent"}
        assert [m.edge_tags[e] for e in m.boundary].count("inflow") == 4

    def test_rect_union_l_shape(self):
        m = rect_union_mesh([(0, 0, 2, 1), (0, 0, 1, 2)], 0.25)
        assert np.isclose(m.areas.sum(), 3.0, atol=1e-12)

    def test_off_grid_coordinate_rejected(self):
        with pytest.raises(MeshError, match="grid"):
            rect_union_mesh([(0, 0, 1.03, 1.0)], 0.1)

    def test_fan_refine_preserves_area_and_symmetry(self):
        g = t_junction()
        m = TriMesh(*fan_refine_mesh(g, refinements=2))
        assert np.isclose(m.areas.sum(), g.area, rtol=1e-12)
        # coupling sub-edges of each channel sum to the channel width
        for ch in ("ch1", "ch2", "ch3"):
            edges = [e for e in m.boundary if m.edge_tags[e] == f"coupling:{ch}:" +
                     ("end" if ch == "ch1" else "start")]
            assert np.isclose(m.edge_lengths[edges].sum(), 0.4, atol=1e-12)
        # mirror symmetry of the cell set
        mirrored = m.centroids * np.array([1.0, -1.0])
        for c in mirrored:
            assert np.min(np.linalg.norm(m.centroids - c, axis=1)) < 1e-12


class TestChannelField:
    def test_uniform_discretization(self):
        from swnet.core import PhysicalParams
        from swnet.scheme1d import ChannelField

        ch = Channel("c", width=1.0, cells=100, start=(0, 0), end=(10, 0))
        f = ChannelField([ch], PhysicalParams())
        assert np.allclose(f.ds, 0.1)
        assert np.allclose(f.centers[:3], [0.05, 0.15, 0.25])

    def test_trim_keeps_total_length(self):
        from swnet.core import PhysicalParams
        from swnet.scheme1d import ChannelField

        ch = Channel("c", width=0.4, cells=40, start=(0, 0), end=(2, 0))
        for cut in (0.02, 0.04, 0.2, 0.23):
            f = ChannelField([ch], PhysicalParams(), cuts={("c", "start"): cut})
            assert np.isclose(f.ds.sum(), 2.0 - cut, atol=1e-14)
            assert f.ds.min() > 0.4 * ch.length / ch.cells  # no sliver cells

    def test_trim_drops_whole_cells(self):
        from swnet.core import PhysicalParams
        from swnet.scheme1d import ChannelField

        ch = Channel("c", width=0.4, cells=40, start=(0, 0), end=(2, 0))
        f = ChannelField([ch], PhysicalParams(), cuts={("c", "start"): 0.2})  # 4 cells of 0.05
        assert f.n == 36
        assert np.isclose(f.centers[0], 0.225, atol=1e-14)


def preset_junction_ends():
    """(label, channel ends, position) of every junction of every preset."""
    from swnet import preset, preset_names

    out = []
    for name, _ in preset_names():
        data = preset(name).data
        channels = {
            c["id"]: Channel(c["id"], c["width"], c["cells"], c["start"], c["end"])
            for c in data["channels"]
        }
        for j in data["junctions"]:
            ends = [(channels[c["channel"]], c["end"]) for c in j["connects"]]
            out.append((f"{name}:{j['id']}", ends, j["position"]))
    return out


def bits(a) -> bytes:
    """The shape and bytes of a float64 array or scalar: equal only where
    every value is, the sign of every zero included."""
    a = np.asarray(a)
    assert a.dtype == np.float64
    return bytes(str(a.shape), "ascii") + a.tobytes()


def assert_same_polygon(g, h, label):
    """Junction polygons `g` and `h` are equal to the bit."""
    assert bits(g.vertices) == bits(h.vertices), label
    assert bits(g.area) == bits(h.area) and bits(g.centroid) == bits(h.centroid), label
    assert [(e.kind, e.channel, e.channel_end) for e in g.edges] == [
        (e.kind, e.channel, e.channel_end) for e in h.edges], label
    for e, f in zip(g.edges, h.edges, strict=True):
        assert bits(e.a) == bits(f.a) and bits(e.b) == bits(f.b), label


class TestJunctionPolygonOracle:
    def test_bow_tie_self_intersects(self):
        # Side (0,3)-(1,-1) crosses side (0,0)-(4,0); the net area is +4.5,
        # so only the crossing test can reject it.
        # `build_junction_polygons` makes no bow tie, so its checks are fed
        # one directly: the edge points, whose chain is the ring v.
        v = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (1.0, -1.0)])
        edges = [JunctionEdge(a=v[k], b=v[(k + 1) % 4], kind="wall") for k in range(4)]
        x, y = v.T
        assert 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) == 4.5
        points = np.array([(e.a, e.b) for e in edges]).reshape(-1, 2)
        with pytest.raises(GeometryError, match="^junction polygon self-intersects$"):
            _check_polygons(points, [4])


def near_corner_t(eps):
    """A T of width 0.4 whose up channel's mouth sits `eps` above its
    neighbours' shared corner: the polygon drops the near-duplicate vertex
    (within 1e-9 x width) that rounding to 12 decimals keeps apart."""
    ends = [channel_end("ch1", "start", (-0.2, 0.0), (-1.0, 0.0), 0.4),
            channel_end("ch2", "start", (0.0, 0.2 + eps), (0.0, 1.0), 0.4),
            channel_end("ch3", "start", (0.0, -0.2), (0.0, -1.0), 0.4)]
    return build_junction_polygon(ends, (0.0, 0.0), 0.0)


def closing_corner_t(eps):
    """A T whose first coupling edge, by angle, starts `eps` right of and
    above the last one's end: the side walls between them meet within
    1e-9 x width of both ends, so neither is pushed, and from eps = 2.9e-10
    the two ends lie farther apart than that."""
    ends = [channel_end("r", "start", (0.2 + eps, eps), (1.0, 0.0), 0.4),
            channel_end("l", "start", (-0.2, 0.0), (-1.0, 0.0), 0.4),
            channel_end("d", "start", (0.0, -0.2), (0.0, -1.0), 0.4)]
    return build_junction_polygon(ends, (0.0, 0.0), 0.0)


def assert_fan_of_the_ring(g):
    """`fan_refine_mesh(g, 0)` is the unrounded centroid, then the rounded
    vertex ring, fanned edge by edge and tagged as `g.ring_tags(1)`."""
    verts, tris, tags = fan_refine_mesh(g, 0)
    want = np.concatenate([g.centroid[None], np.round(g.vertices, 12)])
    assert verts.tobytes() == want.tobytes()
    n = len(g.vertices)
    assert tris.tolist() == [[0, k + 1, (k + 1) % n + 1] for k in range(n)]
    assert list(tags.items()) == list(g.ring_tags(1).items())


# Ts with two edges that nearly meet: from eps > 0 on, one edge's start
# differs in its bits from the end of the edge before it.
NEAR_CORNERS = [(near_corner_t, 0.0), (near_corner_t, 1e-13), (near_corner_t, 3e-12),
                (near_corner_t, 1e-11), (closing_corner_t, 2e-10), (closing_corner_t, 3.2e-10)]


def assert_ring_is_the_edge_chain(g, label):
    """Vertex 0 has the bits of edge 0's start and vertex k those of edge
    k - 1's end."""
    chain = [g.edges[0].a, *(e.b for e in g.edges[:-1])]
    for k, (v, p) in enumerate(zip(g.vertices, chain, strict=True)):
        assert bits(v) == bits(p), (label, k)


class TestVertexRing:
    """A junction polygon's edge k joins its vertices k and k + 1 (mod n),
    and both junction meshes, a Method-A cell and a Method-B fan, are
    numbered from that ring."""

    def test_the_ring_is_the_edge_chain(self):
        from swnet import ConfigError, build_simulation, preset, preset_names

        polygons = {"A": 0, "B": 0, "core": 0, "random": 0}
        for name, _ in preset_names():
            for strategy in ("A", "B"):
                try:
                    sim = build_simulation(preset(name), strategy=strategy)
                except ConfigError:
                    continue
                for j in sim.junction_field.junctions if sim.junction_field else ():
                    assert_ring_is_the_edge_chain(j.geom, (name, strategy, j.id))
                    polygons[strategy] += 1
        # The zero-protrusion cores of the reference footprints, and random
        # junctions of two to four channels.
        cases = [("core", ends, position, 0.0) for _, ends, position in preset_junction_ends()]
        cases += [("random", *random_junction(seed)) for seed in range(300)]
        for kind, ends, position, protrusion in cases:
            try:
                g = build_junction_polygon(ends, position, protrusion)
            except GeometryError:
                continue
            assert_ring_is_the_edge_chain(g, (kind, position, protrusion))
            polygons[kind] += 1
        assert min(polygons.values()) > 10, polygons
        for corner, eps in NEAR_CORNERS:
            assert_ring_is_the_edge_chain(corner(eps), (corner.__name__, eps))

    @pytest.mark.parametrize("corner, eps", NEAR_CORNERS)
    def test_a_near_corner_meshes_into_a_valid_cell_and_patch(self, corner, eps):
        g = corner(eps)
        assert len(g.vertices) == len(g.edges) == 4
        cell = TriMesh(g.vertices, [np.arange(4)], g.ring_tags())
        mesh = TriMesh(*fan_refine_mesh(g, 1))
        assert mesh.n_cells == 16
        for m in (cell, mesh):
            assert np.isclose(m.areas.sum(), g.area, rtol=1e-12)
        assert sorted(mesh.edge_tags[e] for e in mesh.boundary) == sorted(
            [e.tag for e in g.edges for _ in range(2)])

    def test_edge_k_joins_ring_vertices_k_and_k_plus_1(self):
        built = 0
        for seed in range(300):
            ends, position, protrusion = random_junction(seed)
            try:
                g = build_junction_polygon(ends, position, protrusion)
            except GeometryError:
                continue
            built += 1
            n, tol = len(g.vertices), 1e-9 * max(ch.width for ch, _ in ends)
            assert len(g.edges) == n
            a = np.array([e.a for e in g.edges])
            b = np.array([e.b for e in g.edges])
            assert np.abs(a - g.vertices).max() <= 2 * tol
            assert np.abs(b - np.roll(g.vertices, -1, axis=0)).max() <= 2 * tol
            assert_fan_of_the_ring(g)
        assert built > 50

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_preset_junction_meshes_follow_the_ring(self, strategy):
        from swnet import ConfigError, build_simulation, preset, preset_names

        checked = 0
        for name, _ in preset_names():
            try:
                sim = build_simulation(preset(name), strategy=strategy)
            except ConfigError:
                continue
            if sim.junction_field is None:
                continue
            mesh = sim.junction_field.mesh
            for j in sim.junction_field.junctions:
                assert_fan_of_the_ring(j.geom)
                if strategy == "A":
                    cell = j._rows.start
                    first = int(mesh.triangles[cell, 0])
                    own = np.flatnonzero(mesh.edge_left == cell)
                    tags = {tuple(sorted((int(mesh.edge_va[e]) - first,
                                          int(mesh.edge_vb[e]) - first))): mesh.edge_tags[e]
                            for e in own}
                    assert tags == j.geom.ring_tags()
                checked += 1
        assert checked > 10


def random_junctions(n):
    """(label, (ends, position, protrusion)) of random junctions 0 to n - 1."""
    return [(f"random:{seed}", random_junction(seed)) for seed in range(n)]


@functools.cache
def oracle_junctions():
    """(label, (ends, position, protrusion), outcome) of every preset
    junction at three protrusions and of 200 random ones, and of two that
    fail to build: with one channel and with parallel side walls. The
    outcome is the polygon of the one-at-a-time build, whose bits
    `tests/bit_record.json` pins, or the message of its GeometryError."""
    cases = [(label, (ends, position, p)) for p in (0.0, 0.1, 0.5)
             for label, ends, position in preset_junction_ends()]
    cases += random_junctions(200)
    _, (ends, position, _) = cases[0]
    parallel = [channel_end("a", "end", mouth=(0, 0.3), direction=(-1, 0), width=0.2),
                channel_end("b", "end", mouth=(0, -0.3), direction=(-1, 0), width=0.2)]
    cases += [("one channel", (ends[:1], position, 0.1)),
              ("parallel walls", (parallel, (0, 0), 0.1))]
    out = []
    for label, spec in cases:
        ends, position, protrusion = spec
        try:
            outcome = build_junction_polygon(ends, position, protrusion)
        except GeometryError as exc:
            outcome = str(exc)
        out.append((label, spec, outcome))
    return out


CHECK_FAILURES = ("junction polygon is not counter-clockwise or empty",
                  "junction polygon self-intersects", "junction edge normal points inward")


def failing(check=None):
    """The oracle junctions whose build fails: with the message
    `check`, or else in construction, before any check."""
    return [j for j in oracle_junctions() if isinstance(j[2], str)
            and (j[2] == check if check else j[2] not in CHECK_FAILURES)]


def built():
    """The oracle junctions that build."""
    return [j for j in oracle_junctions() if not isinstance(j[2], str)]


def raised_by(batch) -> str:
    with pytest.raises(GeometryError) as exc:
        build_junction_polygons([spec for _, spec, _ in batch])
    return str(exc.value)


class TestBatchedJunctionPolygons:
    """`build_junction_polygons` builds each junction of a batch as the
    one-at-a-time build does, to the bit, and raises the error of the
    first junction in the batch that fails."""

    def test_batches_equal_the_former_build_to_the_bit(self):
        rng = np.random.default_rng(32)
        channels, corners = set(), set()
        for size in [1, 40, *rng.integers(1, 41, 30)]:
            batch = [built()[i] for i in rng.choice(len(built()), size)]
            geoms = build_junction_polygons([spec for _, spec, _ in batch])
            for g, (label, spec, want) in zip(geoms, batch, strict=True):
                assert_same_polygon(g, want, label)
            channels.update(len(spec[0]) for _, spec, _ in batch)
            corners.update(len(g.vertices) for g in geoms)
        assert channels == {2, 3, 4} and len(corners) >= 6

    def test_the_first_failing_junction_raises(self):
        rng = np.random.default_rng(33)
        junctions = oracle_junctions()
        assert {j[2] for j in failing()} == {
            "a junction needs at least two channels",
            "adjacent side walls are parallel and non-intersecting (channels a / b)"}
        assert all(failing(check) for check in CHECK_FAILURES)
        for size in rng.integers(1, 41, 60):
            batch = [junctions[i] for i in rng.choice(len(junctions), size)]
            want = next((o for _, _, o in batch if isinstance(o, str)), None)
            if want is None:
                build_junction_polygons([spec for _, spec, _ in batch])
            else:
                assert raised_by(batch) == want

    @pytest.mark.parametrize("check", CHECK_FAILURES)
    def test_a_check_failure_before_a_construction_failure_raises(self, check):
        good = built()[0]
        for construction in failing():
            assert raised_by([good, failing(check)[0], good, construction]) == check
            assert raised_by([good, construction, failing(check)[0]]) == construction[2]

    def test_of_two_junctions_that_fail_different_checks_the_first_raises(self):
        good = built()[0]
        for first in CHECK_FAILURES:
            for second in CHECK_FAILURES:
                if first != second:
                    batch = [good, failing(first)[0], good, failing(second)[0], good]
                    assert raised_by(batch) == first

    def test_the_order_of_a_junctions_ends_changes_no_bit(self):
        """The builder sorts each junction's ends by angle and then offset,
        so any order of them gives the same polygon, or the same error."""
        rng = np.random.default_rng(35)
        cases = [(label, list(itertools.permutations(ends)), position, p)
                 for p in (0.0, 0.1, 0.5) for label, ends, position in preset_junction_ends()]
        for label, (ends, position, p) in random_junctions(200):
            reordered = [[ends[i] for i in rng.permutation(len(ends))] for _ in range(3)]
            cases.append((label, [ends, *reordered], position, p))
        outcomes = set()
        for label, (ends, *reordered), position, p in cases:
            try:
                g = build_junction_polygon(ends, position, p)
            except GeometryError as exc:
                for other in reordered:
                    with pytest.raises(GeometryError) as got:
                        build_junction_polygon(other, position, p)
                    assert str(got.value) == str(exc), (label, p)
                outcomes.add(str(exc))
                continue
            outcomes.add("built")
            for h in build_junction_polygons([(other, position, p) for other in reordered]):
                assert_same_polygon(h, g, (label, p))
        assert {"built", "junction polygon self-intersects",
                "junction edge normal points inward"} <= outcomes


# ---------------------------------------------------------------------------
# The array builders and the rules that their former per-cell loops stated
# ---------------------------------------------------------------------------


def assert_edge_table(mesh):
    """Each edge runs from va to vb along a side of its left cell, counter-
    clockwise, and back along a side of its right cell, if any, which comes
    later; every side of every cell is one edge's; edges come in order of
    first use, cell by cell and side by side; boundary edges, and only they,
    carry a tag; each cell lists the cells across its interior edges, in
    edge order."""
    cells = mesh.triangles
    T, K = cells.shape
    k = np.arange(K)
    corners = np.count_nonzero(cells >= 0, axis=1)[:, None]
    real = k < corners
    nxt = np.take_along_axis(cells, np.where(k + 1 < corners, k + 1, 0), axis=1)
    left, right, va, vb = mesh.edge_left, mesh.edge_right, mesh.edge_va, mesh.edge_vb
    side = real[left] & (cells[left] == va[:, None]) & (nxt[left] == vb[:, None])
    assert (side.sum(axis=1) == 1).all()
    assert (np.diff(left * K + side.argmax(axis=1)) > 0).all()
    inner = np.flatnonzero(right >= 0)
    r = right[inner]
    back = real[r] & (cells[r] == vb[inner, None]) & (nxt[r] == va[inner, None])
    assert (back.sum(axis=1) == 1).all() and (r > left[inner]).all()
    assert real.sum() == len(left) + len(inner)
    assert [tag is None for tag in mesh.edge_tags] == (right >= 0).tolist()
    cell = np.stack([left[inner], r], axis=1).ravel()
    other = np.stack([r, left[inner]], axis=1).ravel()
    by_cell = np.argsort(cell, kind="stable")
    count = np.bincount(cell, minlength=T)
    want = np.full(mesh.neighbors.shape, -1)
    want[cell[by_cell], np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)] = (
        other[by_cell])
    assert np.array_equal(mesh.neighbors, want)


def assert_stencils_fit_linear_fields(field, virtual=()):
    """Each cell with two or more stencil members, mesh neighbours and then
    virtual ones, is in the group of its size, and a regular operator gives
    the gradient of a linear field exactly, up to round-off: an exact fit from
    the field's values at the members, a least-squares one from their
    differences to the cell's value. A singular operator is zero."""
    mesh = field.mesh
    # Virtual slot s is neighbour -(s + 1): the s-th position from the end.
    pos = np.concatenate([mesh.centroids, np.array([p for _, p in virtual][::-1]).reshape(-1, 2)])
    grad = np.array([0.3, -1.7])
    size = np.count_nonzero(mesh.neighbors >= 0, axis=1) + np.bincount(
        np.array([c for c, _ in virtual], dtype=int), minlength=mesh.n_cells)
    grouped = []
    for kind, cells, nbr, op, good in field._groups:  # nbr (c, n), op (2, c, n)
        assert kind == ("exact" if len(nbr) == 3 else "lsq") and (size[cells] == len(nbr)).all()
        values = 2.0 + pos[nbr] @ grad
        if kind == "lsq":
            values -= 2.0 + mesh.centroids[cells] @ grad
        slopes = np.einsum("rcn,cn->nr", op, values)
        assert np.abs(slopes[good] - grad).max(initial=0.0) < 1e-9
        assert not op[..., ~good].any()
        grouped.append(cells)
    assert np.array_equal(np.sort(np.concatenate(grouped)), np.flatnonzero(size >= 2))


def assert_footprint(mesh, rects, dx, polygons=()):
    """The mesh is two triangles, (v00, v10, v11) and (v00, v11, v01), per
    square of the dx grid over the rectangles and polygons whose centre lies
    in a rectangle, to 1e-9 dx, or in a polygon, squares in (i, j) order, and
    its nodes are numbered by first use."""
    coords = np.concatenate([np.reshape(rects, (-1, 2)), *map(np.asarray, polygons)])
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    nx, ny = np.round((hi - lo) / dx).astype(int)
    CX, CY = np.meshgrid(lo[0] + dx * (np.arange(nx) + 0.5), lo[1] + dx * (np.arange(ny) + 0.5),
                         indexing="ij")
    eps = 1e-9 * dx
    inside = np.zeros((nx, ny), dtype=bool)
    for x0, y0, x1, y1 in rects:
        inside |= (CX > x0 - eps) & (CX < x1 + eps) & (CY > y0 - eps) & (CY < y1 + eps)
    for poly in polygons:
        inside |= point_in_polygon(np.stack([CX, CY], axis=-1).reshape(-1, 2), poly).reshape(nx, ny)
    tris = mesh.triangles
    lower, upper = tris[0::2], tris[1::2]
    assert np.array_equal(upper[:, :2], lower[:, [0, 2]])
    ij = np.round((mesh.vertices - lo) / dx).astype(int)
    assert np.array_equal(ij[lower[:, 0]], np.argwhere(inside))
    for corner, (di, dj) in zip((lower[:, 1], lower[:, 2], upper[:, 2]), ((1, 0), (1, 1), (0, 1))):
        assert np.array_equal(ij[corner] - ij[lower[:, 0]], np.tile((di, dj), (len(lower), 1)))
    first_use = np.unique(tris.ravel(), return_index=True)[1]
    assert len(first_use) == len(mesh.vertices) and (np.diff(first_use) > 0).all()


def diamond(cx, cy, r):
    return np.array([(cx + r, cy), (cx, cy + r), (cx - r, cy), (cx, cy - r)])


def network_cores():
    """The junction core polygons of the test6_network reference footprint."""
    from swnet import preset

    data = preset("test6_network").data
    channels = {
        c["id"]: Channel(c["id"], c["width"], c["cells"], c["start"], c["end"])
        for c in data["channels"]
    }
    cores = []
    for j in data["junctions"]:
        ends = [(channels[c["channel"]], c["end"]) for c in j["connects"]]
        try:
            cores.append(build_junction_polygon(ends, j["position"], 0.0).vertices)
        except GeometryError:
            pass
    assert cores
    return cores


def built_with(monkeypatch, mesher, *args, **kwargs):
    """The mesh of what `mesher` returns and the (vertices, triangles, tags)
    it was built from: the mesh the mesher builds, or of the parts it
    returns without one."""
    from swnet import meshing

    seen = []

    def record(vertices, triangles, tags):
        seen.append((vertices, triangles, tags))
        return TriMesh(vertices, triangles, tags)

    monkeypatch.setattr(meshing, "TriMesh", record)
    mesh = mesher(*args, **kwargs)
    if isinstance(mesh, tuple):
        mesh = record(*mesh)
    (inputs,) = seen
    return mesh, inputs


def strictly_inside_convex(pts, poly, margin=1e-9):
    """Whether each point lies left of every edge of a counter-clockwise
    convex polygon by more than `margin`; and whether it lies right of one
    by more than that."""
    a = poly
    e = np.roll(poly, -1, axis=0) - a
    turn = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert (turn >= 0.0).all()
    d = e[:, 0] * (pts[:, None, 1] - a[:, 1]) - e[:, 1] * (pts[:, None, 0] - a[:, 0])
    d /= np.hypot(*e.T)
    return (d > margin).all(axis=1), (d < -margin).any(axis=1)


class TestPointInPolygon:
    """A point is inside where a ray to +x crosses the polygon's edges an
    odd number of times, an edge counting where one of its ends lies above
    the point and the other not (half-open in y), and where it crosses
    strictly right of the point."""

    POLYGONS = [
        diamond(0.3, -0.2, 0.7),
        np.array([(0, 0), (2, 0), (2, 2), (1, 0.8), (0, 2)]),  # non-convex
        np.array([(0, 0), (1, 0), (1, 1), (0, 1)]),  # horizontal edges
    ]
    # Each as convex pieces, and at each vertex height the x range [x0, x1)
    # of the points inside, or None.
    PIECES = [[POLYGONS[0]],
              [np.array([(0, 0), (1, 0), (1, 0.8), (0, 2)]),
               np.array([(1, 0), (2, 0), (2, 2), (1, 0.8)])],
              [POLYGONS[2]]]
    LEVELS = [{1: None, 0: (POLYGONS[0][2, 0], POLYGONS[0][0, 0]), 3: None},
              {0: (0.0, 2.0), 2: None, 3: (0.0, 2.0)},
              {0: (0.0, 1.0), 2: None}]

    @pytest.mark.parametrize("k", range(3))
    def test_random_points(self, k):
        pts = np.random.default_rng(k).uniform(-1.0, 2.5, size=(2000, 2))
        inside = [strictly_inside_convex(pts, piece) for piece in self.PIECES[k]]
        got = point_in_polygon(pts, self.POLYGONS[k])
        assert got.dtype == bool
        assert got[np.any([i for i, _ in inside], axis=0)].all()
        assert not got[np.all([o for _, o in inside], axis=0)].any()

    @pytest.mark.parametrize("k", range(3))
    def test_points_level_with_vertices(self, k):
        poly = self.POLYGONS[k]
        xs = np.random.default_rng(10 + k).uniform(-1.0, 2.5, 200)
        for v, span in self.LEVELS[k].items():
            got = point_in_polygon(np.stack([xs, np.full_like(xs, poly[v, 1])], axis=1), poly)
            want = np.zeros_like(got) if span is None else (xs >= span[0]) & (xs < span[1])
            clear = np.abs(xs[:, None] - (span or ())).min(axis=1, initial=1.0) > 1e-9
            assert got[clear].tolist() == want[clear].tolist()

    def test_the_unit_squares_sides_and_corners(self):
        """Its bottom and left sides are inside, its top and right ones not."""
        square = self.POLYGONS[2]
        pts = np.array([(0.5, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 0.5), *square])
        assert point_in_polygon(pts, square).tolist() == [True, True, False, False,
                                                          True, False, False, False]

    def test_points_on_junction_cores(self):
        for poly in network_cores():
            rng = np.random.default_rng(len(poly))
            lo, hi = poly.min(axis=0), poly.max(axis=0)
            pts = rng.uniform(lo - 0.05, hi + 0.05, size=(500, 2))
            inside, outside = strictly_inside_convex(pts, poly)
            assert inside.any() and outside.any()
            got = point_in_polygon(pts, poly)
            assert got[inside].all() and not got[outside].any()

    def test_single_point_returns_bool(self):
        poly = self.POLYGONS[0]
        assert point_in_polygon((0.3, -0.2), poly) is True
        assert point_in_polygon(np.array([5.0, 5.0]), poly) is False


class TestArrayBuilders:
    def test_rect_union_mesh_matches_loops(self, monkeypatch):
        """A boundary side takes the tag of the first segment that holds its
        midpoint, else "wall"."""
        rects = [(0, 0, 2, 0.5), (1.5, 0, 2, 2)]
        segs = [((0, 0), (0, 0.5), "inflow"), ((1.5, 2), (2, 2), "transparent"),
                ((1.5, 0), (2, 0), "prescribed"), ((1.5, 0), (2, 0), "inflow")]
        polygons = [diamond(1.5, 0.5, 0.45), diamond(0.2, 0.9, 0.3)]
        mesh, (verts, tris, tags) = built_with(
            monkeypatch, rect_union_mesh, rects, 0.05, tag_segments=segs, polygons=polygons
        )
        assert_footprint(mesh, rects, 0.05, polygons)
        mids = {key: 0.5 * (verts[key[0]] + verts[key[1]]) for key in tags}
        for a, b, tag in segs[:3]:  # the fourth lies on the third
            lo, hi = np.minimum(a, b) - 1e-9, np.maximum(a, b) + 1e-9
            sides = [key for key, m in mids.items() if (lo <= m).all() and (m <= hi).all()]
            assert len(sides) == 10 and {tags[key] for key in sides} == {tag}
        assert list(tags.values()).count("wall") == len(tags) - 30
        assert_edge_table(mesh)
        assert_stencils_fit_linear_fields(MeshField(mesh, PhysicalParams()))

    @pytest.mark.parametrize("refinements", [0, 1, 2, 3])
    def test_fan_refine_mesh_matches_loops(self, refinements):
        mesh = TriMesh(*fan_refine_mesh(t_junction(), refinements))
        assert_edge_table(mesh)
        # Coupling-edge cells take virtual neighbours, some two, out of order.
        cells = mesh.edge_left[mesh.boundary[::2]]
        far = mesh.edge_midpoints[mesh.boundary[::2]] * 1.5
        virtual = list(zip(cells[::-1], far[::-1])) + [(cells[0], far[0] * 1.2)]
        for v in ([], virtual):
            assert_stencils_fit_linear_fields(MeshField(mesh, PhysicalParams(), virtual=v), v)

    @pytest.mark.parametrize("refinements", [1, 2, 3])
    @pytest.mark.parametrize("name", ["test1_sub90", "test6_network", "random"])
    def test_fan_refine_mesh_matches_point_loop(self, name, refinements):
        """The centroid, unrounded, then every corner and midpoint rounded to
        12 decimals, each once: each polygon edge splits into 2^r tagged
        sides, each fan triangle into 4^r triangles, and the area stays."""
        from swnet import build_simulation, preset

        if name == "random":
            geoms = [build_junction_polygon(*random_junction(3 * refinements + 1))]
        else:
            geoms = [j.geom for j in build_simulation(preset(name, strategy="B")).junctions]
        for geom in geoms:
            verts, tris, tags = fan_refine_mesh(geom, refinements)
            assert bits(verts[0]) == bits(geom.centroid)
            assert bits(verts[1:]) == bits(np.round(verts[1:], 12))
            assert len(np.unique(verts, axis=0)) == len(verts)
            assert len(tris) == len(geom.edges) * 4**refinements
            assert sorted(tags.values()) == sorted(
                e.tag for e in geom.edges for _ in range(2**refinements))
            assert np.isclose(TriMesh(verts, tris, tags).areas.sum(), geom.area, rtol=1e-12)

    BAD_MESHES = {
        "non-manifold": ([(0, 1, 2), (0, 3, 1), (1, 0, 4)], {},
                         "non-manifold edge (0, 1): shared by 3 triangles"),
        "inconsistent triangle orientation": ([(0, 1, 2), (0, 1, 5)], {},
                                              "inconsistent triangle orientation at edge (0, 1)"),
        "no tag": ([(0, 1, 2)], {(0, 1): "wall"}, "boundary edge (1, 2) has no tag"),
        "tags given for non-boundary edges": (
            [(0, 1, 2), (0, 2, 5)],
            {(0, 1): "wall", (1, 2): "wall", (2, 5): "wall", (0, 5): "wall", (2, 0): "wall"},
            "tags given for non-boundary edges: [(0, 2)]",
        ),
    }

    @pytest.mark.parametrize("message", BAD_MESHES)
    def test_mesh_errors_match_loops(self, message):
        verts = [(0, 0), (1, 0), (0, 1), (0, -1), (0.5, -3), (-1, 1)]
        tris, tags, text = self.BAD_MESHES[message]
        with pytest.raises(MeshError, match=f"^{re.escape(text)}$"):
            TriMesh(verts, tris, tags)
