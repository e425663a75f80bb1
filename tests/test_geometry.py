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
        assert len(g.coupling_edges()) == 2

    def test_symmetric_t_junction(self):
        g = t_junction()
        b = 0.4
        assert np.isclose(g.area, b * b + 3 * 0.1 * b * b, atol=1e-14)
        # mirror symmetry across the parent axis: vertex set maps to itself
        mirrored = g.vertices * np.array([1.0, -1.0])
        for v in mirrored:
            assert np.min(np.linalg.norm(g.vertices - v, axis=1)) < 1e-12
        for e in g.coupling_edges():
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
        assert len(g.coupling_edges()) == 2

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
        from swnet.scheme1d import ChannelField

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
        pieces = sum(f.ds.sum() * b for f in field.segments.values()) + g.area
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
        assert np.allclose(m2.total_area(), m.total_area())

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 wall\n1 2 bogus\n0 2 wall\n")
        with pytest.raises(MeshError, match="unknown boundary tag"):
            load_trimesh(path)


class TestMeshers:
    def test_rect_union_area_and_tags(self):
        segs = [((0, 0), (0, 0.4), "inflow"), ((2, 0), (2, 0.4), "transparent")]
        m = rect_union_mesh([(0, 0, 2, 0.4)], 0.1, tag_segments=segs)
        assert np.isclose(m.total_area(), 0.8, atol=1e-12)
        kinds = {m.edge_tags[e].split(":")[0] for e in m.boundary}
        assert kinds == {"wall", "inflow", "transparent"}
        assert len(m.boundary_edges_by_tag("inflow")) == 4

    def test_rect_union_l_shape(self):
        m = rect_union_mesh([(0, 0, 2, 1), (0, 0, 1, 2)], 0.25)
        assert np.isclose(m.total_area(), 3.0, atol=1e-12)

    def test_off_grid_coordinate_rejected(self):
        with pytest.raises(MeshError, match="grid"):
            rect_union_mesh([(0, 0, 1.03, 1.0)], 0.1)

    def test_fan_refine_preserves_area_and_symmetry(self):
        g = t_junction()
        m = fan_refine_mesh(g, refinements=2)
        assert np.isclose(m.total_area(), g.area, rtol=1e-12)
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
