import numpy as np
import pytest

from swnet.geometry import (
    Channel,
    ConnectedEnd,
    GeometryError,
    MeshError,
    TriMesh,
    build_junction_polygon,
    load_trimesh,
    point_in_polygon,
    polygon_area,
    save_trimesh,
)
from swnet.meshing import fan_refine_mesh, rect_union_mesh


def t_junction(b=0.4, protrusion=0.1):
    half = b / 2.0
    ends = [
        ConnectedEnd("ch1", "end", mouth=(-half, 0.0), direction=(-1, 0), width=b),
        ConnectedEnd("ch2", "start", mouth=(0.0, half), direction=(0, 1), width=b),
        ConnectedEnd("ch3", "start", mouth=(0.0, -half), direction=(0, -1), width=b),
    ]
    return build_junction_polygon(ends, (0.0, 0.0), protrusion)


class TestJunctionPolygon:
    def test_collinear_channels_make_rectangle(self):
        b = 0.4
        ends = [
            ConnectedEnd("a", "end", mouth=(0, 0), direction=(-1, 0), width=b),
            ConnectedEnd("b", "start", mouth=(0, 0), direction=(1, 0), width=b),
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
            assert np.isclose(e.length, b, atol=1e-14)

    def test_shoelace_on_unequal_widths(self):
        th = np.pi / 3
        ends = [
            ConnectedEnd("p", "end", mouth=(-0.3, 0), direction=(-1, 0), width=0.4),
            ConnectedEnd("d1", "start", mouth=(0.3 * np.cos(th), 0.3 * np.sin(th)),
                         direction=(np.cos(th), np.sin(th)), width=0.3),
            ConnectedEnd("d2", "start", mouth=(0.3 * np.cos(th), -0.3 * np.sin(th)),
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
            n = np.array([np.cos(e.theta), np.sin(e.theta)])
            assert np.dot(n, e.midpoint - g.centroid) > 0.0

    def test_parallel_offset_walls_rejected(self):
        # two channels entering from the same direction with offset
        # centerlines have parallel non-intersecting side walls
        ends = [
            ConnectedEnd("a", "end", mouth=(0, 0.3), direction=(-1, 0), width=0.2),
            ConnectedEnd("b", "end", mouth=(0, -0.3), direction=(-1, 0), width=0.2),
        ]
        with pytest.raises(GeometryError):
            build_junction_polygon(ends, (0, 0), 0.1)

    def test_single_channel_rejected(self):
        ends = [ConnectedEnd("a", "end", mouth=(0, 0), direction=(-1, 0), width=0.2)]
        with pytest.raises(GeometryError):
            build_junction_polygon(ends, (0, 0), 0.1)

    def test_45_degree_bend(self):
        c45 = np.cos(np.pi / 4)
        ends = [
            ConnectedEnd("c1", "end", mouth=(-0.25, 0), direction=(-1, 0), width=0.5),
            ConnectedEnd("c2", "start", mouth=(0.25 * c45, 0.25 * c45),
                         direction=(c45, c45), width=0.5),
        ]
        g = build_junction_polygon(ends, (0, 0), 0.1)
        assert g.area > 0
        assert len([e for e in g.edges if e.kind == "coupling"]) == 2

    def test_four_way_crossing(self):
        b = 0.2
        ends = [
            ConnectedEnd(c, "start", mouth=(0.1 * dx, 0.1 * dy), direction=(dx, dy), width=b)
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

    def test_file_round_trip(self, tmp_path):
        m = rect_union_mesh([(0, 0, 1, 1)], 0.5)
        path = tmp_path / "box.mesh"
        tags = {}
        for e in m.boundary:
            key = (min(m.edge_va[e], m.edge_vb[e]), max(m.edge_va[e], m.edge_vb[e]))
            tags[key] = m.edge_tags[e]
        save_trimesh(path, m.vertices, m.triangles, tags)
        m2 = load_trimesh(path)
        assert m2.n_cells == m.n_cells
        assert np.allclose(m2.areas.sum(), m.areas.sum())

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 wall\n1 2 bogus\n0 2 wall\n")
        with pytest.raises(MeshError, match="unknown boundary tag"):
            load_trimesh(path)


class TestMeshers:
    def test_rect_union_area_and_tags(self):
        segs = [((0, 0), (0, 0.4), "inflow"), ((2, 0), (2, 0.4), "transparent")]
        m = rect_union_mesh([(0, 0, 2, 0.4)], 0.1, tag_segments=segs)
        assert np.isclose(m.areas.sum(), 0.8, atol=1e-12)
        kinds = {m.edge_tags[e].split(":")[0] for e in m.boundary}
        assert kinds == {"wall", "inflow", "transparent"}
        assert len(m.boundary_edges_by_tag("inflow")) == 4

    def test_rect_union_l_shape(self):
        m = rect_union_mesh([(0, 0, 2, 1), (0, 0, 1, 2)], 0.25)
        assert np.isclose(m.areas.sum(), 3.0, atol=1e-12)

    def test_off_grid_coordinate_rejected(self):
        with pytest.raises(MeshError, match="grid"):
            rect_union_mesh([(0, 0, 1.03, 1.0)], 0.1)

    def test_fan_refine_preserves_area_and_symmetry(self):
        g = t_junction()
        m = fan_refine_mesh(g, refinements=2)
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
            assert f.ds.min() > 0.4 * ch.ds  # no sliver cells

    def test_trim_drops_whole_cells(self):
        from swnet.core import PhysicalParams
        from swnet.scheme1d import ChannelField

        ch = Channel("c", width=0.4, cells=40, start=(0, 0), end=(2, 0))
        f = ChannelField([ch], PhysicalParams(), cuts={("c", "start"): 0.2})  # 4 cells of 0.05
        assert f.n == 36
        assert np.isclose(f.centers[0], 0.225, atol=1e-14)


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
        ends = [channels[c["channel"]].connected_end(c["end"]) for c in j["connects"]]
        try:
            cores.append(build_junction_polygon(ends, j["position"], 0.0).vertices)
        except GeometryError:
            pass
    assert cores
    return cores


def built_with(monkeypatch, mesher, *args, **kwargs):
    """The mesh `mesher` returns and the (vertices, triangles, tags) it built
    it from."""
    from swnet import meshing

    seen = []

    def record(vertices, triangles, tags):
        seen.append((vertices, triangles, tags))
        return TriMesh(vertices, triangles, tags)

    monkeypatch.setattr(meshing, "TriMesh", record)
    mesh = mesher(*args, **kwargs)
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
                Channel(f"c{k}", rng.uniform(0.3, 0.5), 10,
                        centre + 0.3 * np.array([np.cos(a), np.sin(a)]),
                        centre + 3.0 * np.array([np.cos(a), np.sin(a)])).connected_end("start")
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
