import functools
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# build_junction_polygon against the per-vertex code it was rewritten from
# ---------------------------------------------------------------------------


def former_unit(v):
    n = np.hypot(v[0], v[1])
    if n < 1e-12:
        raise GeometryError("zero-length direction vector")
    return np.asarray(v, dtype=float) / n


def former_rot90ccw(v):
    return np.array([-v[1], v[0]])


def former_polygon_area(vertices):
    x, y = vertices[..., 0], vertices[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def former_polygon_centroid(vertices):
    x, y = vertices[..., 0], vertices[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def former_segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper intersection test for open segments (shared endpoints excluded)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass
class FormerEdge:
    a: np.ndarray
    b: np.ndarray
    kind: str
    channel: str | None = None
    channel_end: str | None = None

    @property
    def midpoint(self):
        return 0.5 * (self.a + self.b)

    @property
    def theta(self):
        t = former_unit(self.b - self.a)
        return float(np.arctan2(-t[0], t[1]))


def former_validate(vertices, edges, centroid):
    n = len(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if former_segments_intersect(
                vertices[i],
                vertices[(i + 1) % n],
                vertices[j],
                vertices[(j + 1) % n],
            ):
                raise GeometryError("junction polygon self-intersects")
    for e in edges:
        nvec = np.array([np.cos(e.theta), np.sin(e.theta)])
        if np.dot(nvec, e.midpoint - centroid) <= 0.0:
            raise GeometryError("junction edge normal points inward")


@dataclass
class FormerEnd:
    """One channel end attached to a junction, as the former build read it."""

    channel: str
    end: str  # "start" or "end"
    mouth: np.ndarray  # channel end cross-section center
    direction: np.ndarray  # unit vector from junction into the channel
    width: float


def former_ends(ends):
    """The `FormerEnd` of each (Channel, end) pair of `ends`."""
    return [FormerEnd(ch.id, end, ch.end_point(end), ch.axis if end == "start" else -ch.axis,
                      ch.width) for ch, end in ends]


def former_build_junction_polygon(ends, junction_point, protrusion=0.1):
    """`build_junction_polygon` and `JunctionGeometry`'s checks as they were
    on 2-element arrays, verbatim: (vertices, edges, area, centroid)."""
    if len(ends) < 2:
        raise GeometryError("a junction needs at least two channels")
    P = np.asarray(junction_point, dtype=float)
    scale = max(e.width for e in ends)

    entries = []
    for e in ends:
        d = former_unit(e.direction)
        t = former_rot90ccw(d)
        c = np.asarray(e.mouth, dtype=float) + protrusion * e.width * d
        entries.append(
            {
                "end": e,
                "d": d,
                "t": t,
                "A": c - 0.5 * e.width * t,
                "B": c + 0.5 * e.width * t,
                "angle": np.arctan2(d[1], d[0]) % (2.0 * np.pi),
                "offset": float(np.dot(np.asarray(e.mouth, dtype=float) - P, t)),
            }
        )
    entries.sort(key=lambda r: (r["angle"], r["offset"]))

    tol = 1e-9 * scale
    verts = []
    edges = []

    def push_wall(a, b):
        if np.hypot(*(b - a)) > tol:
            edges.append(FormerEdge(a=a.copy(), b=b.copy(), kind="wall"))
            verts.append(b.copy())

    for k, cur in enumerate(entries):
        if k == 0:
            verts.append(cur["A"].copy())
        edges.append(
            FormerEdge(
                a=cur["A"].copy(),
                b=cur["B"].copy(),
                kind="coupling",
                channel=cur["end"].channel,
                channel_end=cur["end"].end,
            )
        )
        verts.append(cur["B"].copy())
        nxt = entries[(k + 1) % len(entries)]
        Bi, Aj = cur["B"], nxt["A"]
        di, dj = cur["d"], nxt["d"]
        gap = Aj - Bi
        if np.hypot(*gap) <= tol:
            pass  # edges share a vertex
        else:
            cross = di[0] * dj[1] - di[1] * dj[0]
            if abs(cross) < 1e-12:
                if abs(di[0] * gap[1] - di[1] * gap[0]) < tol:
                    push_wall(Bi, Aj)  # collinear side walls
                else:
                    raise GeometryError(
                        "adjacent side walls are parallel and non-intersecting "
                        f"(channels {cur['end'].channel} / {nxt['end'].channel})"
                    )
            else:
                rhs = Bi - Aj
                t1 = (rhs[0] * dj[1] - rhs[1] * dj[0]) / cross
                t2 = (rhs[0] * di[1] - rhs[1] * di[0]) / cross
                if t1 >= -tol and t2 >= -tol:
                    X = Bi - t1 * di
                    push_wall(Bi, X)
                    push_wall(X, Aj)
                else:
                    push_wall(Bi, P)
                    push_wall(P, Aj)

    if np.hypot(*(verts[-1] - verts[0])) <= tol:
        verts.pop()
    vertices = np.array(verts)
    area = float(former_polygon_area(vertices))
    if area <= 0.0:
        raise GeometryError("junction polygon is not counter-clockwise or empty")
    centroid = former_polygon_centroid(vertices)
    former_validate(vertices, edges, centroid)
    return vertices, edges, area, centroid


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


def random_junction(seed):
    """(label, channel ends, position, protrusion) of a junction of two to
    four channels at off-grid angles, widths, offsets and protrusion, where
    a reordered product rounds differently."""
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
    return f"random:{seed}", ends, centre, rng.uniform(0.05, 0.6)


def bits(a) -> bytes:
    """The shape and bytes of a float64 array or scalar: equal only where
    every value is, the sign of every zero included."""
    a = np.asarray(a)
    assert a.dtype == np.float64
    return bytes(str(a.shape), "ascii") + a.tobytes()


def assert_former_bits(g, want, label):
    """`g` is the former build's (vertices, edges, area, centroid) to the bit."""
    vertices, edges, area, centroid = want
    assert bits(g.vertices) == bits(vertices), label
    assert bits(g.area) == bits(area) and bits(g.centroid) == bits(centroid), label
    assert [(e.kind, e.channel, e.channel_end) for e in g.edges] == [
        (e.kind, e.channel, e.channel_end) for e in edges], label
    for e, f in zip(g.edges, edges, strict=True):
        assert bits(e.a) == bits(f.a) and bits(e.b) == bits(f.b), label


class TestJunctionPolygonOracle:
    def test_junctions_equal_the_former_build_to_the_bit(self):
        presets = preset_junction_ends()
        assert len(presets) > 40
        cases = [(*junction, p) for p in (0.0, 0.1, 0.5) for junction in presets]
        cases += [random_junction(seed) for seed in range(100)]
        messages = set()
        for label, ends, position, protrusion in cases:
            try:
                want = former_build_junction_polygon(former_ends(ends), position, protrusion)
            except GeometryError as exc:
                with pytest.raises(GeometryError) as got:
                    build_junction_polygon(ends, position, protrusion)
                assert str(got.value) == str(exc), (label, protrusion)
                messages.add(str(exc))
                continue
            assert_former_bits(build_junction_polygon(ends, position, protrusion), want,
                               (label, protrusion))
        # Both of the polygon checks reject some preset junction.
        assert {"junction polygon self-intersects", "junction edge normal points inward"} <= messages

    def test_bow_tie_self_intersects(self):
        # Side (0,3)-(1,-1) crosses side (0,0)-(4,0); the net area is +4.5,
        # so only the crossing test can reject it.
        # `build_junction_polygons` makes no bow tie, so its checks are fed
        # one directly: the edge points, whose chain is the ring v.
        v = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (1.0, -1.0)])
        edges = [JunctionEdge(a=v[k], b=v[(k + 1) % 4], kind="wall") for k in range(4)]
        assert former_polygon_area(v) == 4.5
        points = np.array([(e.a, e.b) for e in edges]).reshape(-1, 2)
        with pytest.raises(GeometryError, match="^junction polygon self-intersects$"):
            _check_polygons(points, [4])
        with pytest.raises(GeometryError, match="^junction polygon self-intersects$"):
            former_validate(v, edges, former_polygon_centroid(v))


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
        cases += [("random", *random_junction(seed)[1:]) for seed in range(300)]
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
            _, ends, position, protrusion = random_junction(seed)
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


@functools.cache
def oracle_junctions():
    """(label, (ends, position, protrusion), outcome) of every preset
    junction at three protrusions and of 200 random ones, and of two that
    fail to build: with one channel and with parallel side walls. The
    outcome is the former build's (vertices, edges, area, centroid), or the
    message of its GeometryError."""
    cases = [(label, (ends, position, p)) for p in (0.0, 0.1, 0.5)
             for label, ends, position in preset_junction_ends()]
    cases += [(label, (ends, position, p))
              for label, ends, position, p in map(random_junction, range(200))]
    _, (ends, position, _) = cases[0]
    parallel = [channel_end("a", "end", mouth=(0, 0.3), direction=(-1, 0), width=0.2),
                channel_end("b", "end", mouth=(0, -0.3), direction=(-1, 0), width=0.2)]
    cases += [("one channel", (ends[:1], position, 0.1)),
              ("parallel walls", (parallel, (0, 0), 0.1))]
    out = []
    for label, spec in cases:
        ends, position, protrusion = spec
        try:
            outcome = former_build_junction_polygon(former_ends(ends), position, protrusion)
        except GeometryError as exc:
            outcome = str(exc)
        out.append((label, spec, outcome))
    return out


CHECK_FAILURES = ("junction polygon is not counter-clockwise or empty",
                  "junction polygon self-intersects", "junction edge normal points inward")


def failing(check=None):
    """The oracle junctions whose former build fails: with the message
    `check`, or else in construction, before any check."""
    return [j for j in oracle_junctions() if isinstance(j[2], str)
            and (j[2] == check if check else j[2] not in CHECK_FAILURES)]


def built():
    """The oracle junctions that the former build builds."""
    return [j for j in oracle_junctions() if not isinstance(j[2], str)]


def raised_by(batch) -> str:
    with pytest.raises(GeometryError) as exc:
        build_junction_polygons([spec for _, spec, _ in batch])
    return str(exc.value)


class TestBatchedJunctionPolygons:
    """`build_junction_polygons` builds each junction of a batch as the
    former one-at-a-time build did, to the bit, and raises the error of the
    first junction in the batch that fails."""

    def test_batches_equal_the_former_build_to_the_bit(self):
        rng = np.random.default_rng(32)
        channels, corners = set(), set()
        for size in [1, 40, *rng.integers(1, 41, 30)]:
            batch = [built()[i] for i in rng.choice(len(built()), size)]
            geoms = build_junction_polygons([spec for _, spec, _ in batch])
            for g, (label, spec, want) in zip(geoms, batch, strict=True):
                assert_former_bits(g, want, label)
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
        for label, ends, position, p in map(random_junction, range(200)):
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
                assert_former_bits(h, (g.vertices, g.edges, g.area, g.centroid), (label, p))
        assert {"built", "junction polygon self-intersects",
                "junction edge normal points inward"} <= outcomes


# ---------------------------------------------------------------------------
# The array builders against the per-cell loops they replaced
# ---------------------------------------------------------------------------


def loop_point_in_polygon(p, vertices):
    """Scalar ray cast: half-open crossings in y, counted where xi > x."""
    x, y = p
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xi > x:
                inside = not inside
    return inside


def loop_rect_union_mesh(rects, dx, tag_segments=(), polygons=()):
    """(vertices, triangles, boundary tags) of `rect_union_mesh`, one cell at a
    time: every unmasked centre against every polygon, nodes numbered by first
    use, boundary sides tagged by the first segment holding their midpoint."""
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
        for i, j in np.argwhere(~mask):
            if loop_point_in_polygon((CX[i, j], CY[i, j]), poly):
                mask[i, j] = True

    node_index, verts = {}, []

    def node(i, j):
        if (i, j) not in node_index:
            node_index[(i, j)] = len(verts)
            verts.append((x_min + i * dx, y_min + j * dx))
        return node_index[(i, j)]

    tris = []
    for i in range(nx):
        for j in range(ny):
            if mask[i, j]:
                v00, v10 = node(i, j), node(i + 1, j)
                v11, v01 = node(i + 1, j + 1), node(i, j + 1)
                tris += [(v00, v10, v11), (v00, v11, v01)]

    def classify(mid):
        for a, b, tag in tag_segments:
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            L = np.linalg.norm(b - a)
            d = (b - a) / L
            w = mid - a
            t = np.dot(w, d)
            if -eps <= t <= L + eps and abs(w[0] * d[1] - w[1] * d[0]) < 10 * eps:
                return tag
        return "wall"

    tags = {}
    inside = lambda i, j: 0 <= i < nx and 0 <= j < ny and mask[i, j]  # noqa: E731
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j]:
                continue
            for di, dj, a, b in ((-1, 0, (i, j), (i, j + 1)), (1, 0, (i + 1, j), (i + 1, j + 1)),
                                 (0, -1, (i, j), (i + 1, j)), (0, 1, (i, j + 1), (i + 1, j + 1))):
                if not inside(i + di, j + dj):
                    na, nb = node(*a), node(*b)
                    mid = 0.5 * (np.asarray(verts[na]) + np.asarray(verts[nb]))
                    tags[(min(na, nb), max(na, nb))] = classify(mid)
    return np.array(verts), np.array(tris, dtype=int), tags


def loop_edge_table(triangles, boundary_tags):
    """Edge table of `TriMesh` from a dict of half-edges, edges in order of
    first use; (left, right, va, vb, tags, neighbours per cell)."""
    half_edges = {}
    for t, corners in enumerate(np.asarray(triangles).tolist()):
        for k in range(3):
            a, b = corners[k], corners[(k + 1) % 3]
            half_edges.setdefault((min(a, b), max(a, b)), []).append((t, a, b))
    tagged = {(min(a, b), max(a, b)): tag for (a, b), tag in boundary_tags.items()}
    left, right, va, vb, tags = [], [], [], [], []
    for key, uses in half_edges.items():
        if len(uses) > 2:
            raise MeshError(f"non-manifold edge {key}: shared by {len(uses)} triangles")
        (t1, a1, b1) = uses[0]
        if len(uses) == 2:
            (t2, a2, b2) = uses[1]
            if (a1, b1) == (a2, b2):
                raise MeshError(f"inconsistent triangle orientation at edge {key}")
        elif key not in tagged:
            raise MeshError(f"boundary edge {key} has no tag")
        left.append(t1)
        right.append(uses[1][0] if len(uses) == 2 else -1)
        va.append(a1)
        vb.append(b1)
        tags.append(None if len(uses) == 2 else tagged[key])
    boundary = {(min(a, b), max(a, b)) for a, b, r in zip(va, vb, right) if r == -1}
    if set(tagged) - boundary:
        raise MeshError(f"tags given for non-boundary edges: {sorted(set(tagged) - boundary)}")
    neighbors = [[] for _ in range(len(triangles))]
    for l, r in zip(left, right):
        if r >= 0:
            neighbors[l].append(r)
            neighbors[r].append(l)
    return left, right, va, vb, tags, neighbors


def loop_stencil_groups(mesh, virtual):
    """`MeshField` stencil groups from per-cell neighbour and position lists;
    an exact group keeps rows 1-2 of the inverse, which give the slopes.
    Neighbours are stored as (c, n), operators as (2, c, n)."""
    nbr_lists = [[int(j) for j in row if j >= 0] for row in mesh.neighbors]
    pos_lists = [[mesh.centroids[j] for j in row] for row in nbr_lists]
    for slot, (cell, pos) in enumerate(virtual):
        nbr_lists[cell].append(-(slot + 1))
        pos_lists[cell].append(np.asarray(pos, dtype=float))
    counts = np.array([len(v) for v in nbr_lists])
    scale = float(np.sqrt(np.mean(mesh.areas)))
    groups = []
    for c in sorted(set(counts)):
        if c < 2:
            continue
        cells = np.flatnonzero(counts == c)
        nbr = np.array([nbr_lists[t] for t in cells], dtype=int)
        offs = np.array([[p - mesh.centroids[t] for p in pos_lists[t]] for t in cells])
        if c == 3:
            M = np.concatenate([np.ones((len(cells), 3, 1)), offs], axis=2)
            good = np.abs(np.linalg.det(M)) > 1e-12 * scale**2
            op = np.zeros_like(M)
            op[good] = np.linalg.inv(M[good])
            groups.append(("exact", cells, nbr.T, op[:, 1:].transpose(1, 2, 0), good))
        else:
            G = np.einsum("kci,kcj->kij", offs, offs)
            det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
            good = np.abs(det) > 1e-12 * scale**4
            op = np.zeros((len(cells), 2, c))
            op[good] = np.einsum("kij,kcj->kic", np.linalg.inv(G[good]), offs[good])
            groups.append(("lsq", cells, nbr.T, op.transpose(1, 2, 0), good))
    return groups


def loop_fan_refine_mesh(geometry, refinements):
    """(vertices, triangles, boundary tags) of `fan_refine_mesh`, one point
    at a time: every new point rounded by numpy's scalar `round`, midpoints
    cached per edge."""
    center = geometry.centroid
    verts = [tuple(center)]
    index = {tuple(center): 0}

    def vid(p):
        key = (round(p[0], 12), round(p[1], 12))
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    tris = []
    btags = {}
    for e in geometry.edges:
        ia, ib = vid(e.a), vid(e.b)
        tris.append((0, ia, ib))
        btags[(min(ia, ib), max(ia, ib))] = e.tag

    for _ in range(refinements):
        new_tris = []
        new_btags = {}
        mids = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in mids:
                mids[key] = vid(0.5 * (np.asarray(verts[i]) + np.asarray(verts[j])))
            return mids[key]

        for i0, i1, i2 in tris:
            m01, m12, m20 = midpoint(i0, i1), midpoint(i1, i2), midpoint(i2, i0)
            new_tris += [(i0, m01, m20), (m01, i1, m12), (m20, m12, i2), (m01, m12, m20)]
        for (ia, ib), tag in btags.items():
            m = midpoint(ia, ib)
            new_btags[(min(ia, m), max(ia, m))] = tag
            new_btags[(min(m, ib), max(m, ib))] = tag
        tris, btags = new_tris, new_btags
    return np.array(verts, dtype=float), np.array(tris, dtype=int), btags


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


def assert_same_edge_table(mesh, tags):
    left, right, va, vb, edge_tags, neighbors = loop_edge_table(mesh.triangles, tags)
    for name, want in (("edge_left", left), ("edge_right", right), ("edge_va", va),
                       ("edge_vb", vb)):
        got = getattr(mesh, name)
        assert got.dtype == np.int64 and got.tolist() == want, name
    assert mesh.edge_tags == edge_tags
    assert [[j for j in row if j >= 0] for row in mesh.neighbors.tolist()] == neighbors


def assert_same_stencils(mesh, virtual):
    from swnet.core import PhysicalParams
    from swnet.scheme2d import MeshField

    got = MeshField(mesh, PhysicalParams(), virtual=virtual)._groups
    want = loop_stencil_groups(mesh, virtual)
    assert [g[0] for g in got] == [g[0] for g in want]
    for g, w in zip(got, want):
        for a, b in zip(g[1:], w[1:]):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestPointInPolygon:
    POLYGONS = [
        diamond(0.3, -0.2, 0.7),
        np.array([(0, 0), (2, 0), (2, 2), (1, 0.8), (0, 2)]),  # non-convex
        np.array([(0, 0), (1, 0), (1, 1), (0, 1)]),  # horizontal edges
    ]

    def check(self, pts, poly):
        got = point_in_polygon(pts, poly)
        want = [loop_point_in_polygon(p, poly) for p in pts.tolist()]
        assert got.dtype == bool and got.tolist() == want

    @pytest.mark.parametrize("k", range(3))
    def test_random_points(self, k):
        rng = np.random.default_rng(k)
        self.check(rng.uniform(-1.0, 2.5, size=(2000, 2)), self.POLYGONS[k])

    @pytest.mark.parametrize("k", range(3))
    def test_points_level_with_vertices(self, k):
        poly = self.POLYGONS[k]
        rng = np.random.default_rng(10 + k)
        xs = rng.uniform(-1.0, 2.5, size=(200, 1))
        pts = np.concatenate([np.hstack([xs, np.full_like(xs, y)]) for y in poly[:, 1]])
        self.check(np.concatenate([pts, poly]), poly)

    def test_points_on_junction_cores(self):
        for poly in network_cores():
            rng = np.random.default_rng(len(poly))
            lo, hi = poly.min(axis=0), poly.max(axis=0)
            nxt = np.roll(poly, -1, axis=0)
            on_edges = poly + rng.uniform(size=(len(poly), 1)) * (nxt - poly)
            near = rng.uniform(lo - 0.05, hi + 0.05, size=(500, 2))
            self.check(np.concatenate([poly, 0.5 * (poly + nxt), on_edges, near]), poly)

    def test_single_point_returns_bool(self):
        poly = self.POLYGONS[0]
        assert point_in_polygon((0.3, -0.2), poly) is True
        assert point_in_polygon(np.array([5.0, 5.0]), poly) is False


class TestArrayBuilders:
    def test_rect_union_mesh_matches_loops(self, monkeypatch):
        rects = [(0, 0, 2, 0.5), (1.5, 0, 2, 2)]
        segs = [((0, 0), (0, 0.5), "inflow"), ((1.5, 2), (2, 2), "transparent"),
                ((1.5, 0), (2, 0), "prescribed"), ((1.5, 0), (2, 0), "inflow")]
        polygons = [diamond(1.5, 0.5, 0.45), diamond(0.2, 0.9, 0.3)]
        mesh, (verts, tris, tags) = built_with(
            monkeypatch, rect_union_mesh, rects, 0.05, tag_segments=segs, polygons=polygons
        )
        want_verts, want_tris, want_tags = loop_rect_union_mesh(rects, 0.05, segs, polygons)
        assert np.array_equal(verts, want_verts) and np.array_equal(tris, want_tris)
        assert tags == want_tags
        assert set(tags.values()) == {"wall", "inflow", "transparent", "prescribed"}
        assert np.array_equal(mesh.vertices, want_verts)
        assert np.array_equal(mesh.triangles, want_tris)
        assert_same_edge_table(mesh, tags)
        assert_same_stencils(mesh, [])

    @pytest.mark.parametrize("refinements", [0, 1, 2, 3])
    def test_fan_refine_mesh_matches_loops(self, monkeypatch, refinements):
        mesh, (_, _, tags) = built_with(monkeypatch, fan_refine_mesh, t_junction(), refinements)
        assert_same_edge_table(mesh, tags)
        # Coupling-edge cells take virtual neighbours, some two, out of order.
        cells = mesh.edge_left[mesh.boundary[::2]]
        far = mesh.edge_midpoints[mesh.boundary[::2]] * 1.5
        virtual = list(zip(cells[::-1], far[::-1])) + [(cells[0], far[0] * 1.2)]
        assert_same_stencils(mesh, [])
        assert_same_stencils(mesh, virtual)

    @pytest.mark.parametrize("refinements", [1, 2, 3])
    @pytest.mark.parametrize("name", ["test1_sub90", "test6_network", "random"])
    def test_fan_refine_mesh_matches_point_loop(self, monkeypatch, name, refinements):
        from swnet import build_simulation, preset

        if name == "random":
            # Off-grid coordinates, where Python's float `round` would give
            # other points than numpy's.
            rng = np.random.default_rng(refinements)
            centre = rng.uniform(-1.0, 1.0, 2)
            spread = 2.0 * np.pi / 3.0 * np.arange(3) + rng.uniform(-0.2, 0.2, 3)
            angles = rng.uniform(0.0, 2.0 * np.pi) + spread
            ends = [
                (Channel(f"c{k}", rng.uniform(0.3, 0.5), 10,
                         centre + 0.3 * np.array([np.cos(a), np.sin(a)]),
                         centre + 3.0 * np.array([np.cos(a), np.sin(a)])), "start")
                for k, a in enumerate(angles)
            ]
            geoms = [build_junction_polygon(ends, centre, 0.5)]
        else:
            geoms = [j.geom for j in build_simulation(preset(name, strategy="B")).junctions]
        for geom in geoms:
            _, (verts, tris, tags) = built_with(monkeypatch, fan_refine_mesh, geom, refinements)
            want_verts, want_tris, want_tags = loop_fan_refine_mesh(geom, refinements)
            assert verts.dtype == want_verts.dtype and verts.tobytes() == want_verts.tobytes()
            assert np.array_equal(tris, want_tris)
            assert list(tags.items()) == list(want_tags.items())

    BAD_MESHES = {
        "non-manifold": ([(0, 1, 2), (0, 3, 1), (1, 0, 4)], {}),
        "inconsistent triangle orientation": ([(0, 1, 2), (0, 1, 5)], {}),
        "no tag": ([(0, 1, 2)], {(0, 1): "wall"}),
        "tags given for non-boundary edges": (
            [(0, 1, 2), (0, 2, 5)],
            {(0, 1): "wall", (1, 2): "wall", (2, 5): "wall", (0, 5): "wall", (2, 0): "wall"},
        ),
    }

    @pytest.mark.parametrize("message", BAD_MESHES)
    def test_mesh_errors_match_loops(self, message):
        verts = [(0, 0), (1, 0), (0, 1), (0, -1), (0.5, -3), (-1, 1)]
        tris, tags = self.BAD_MESHES[message]
        with pytest.raises(MeshError, match=message) as got:
            TriMesh(verts, tris, tags)
        with pytest.raises(MeshError) as want:
            loop_edge_table(tris, tags)
        assert str(got.value) == str(want.value)
