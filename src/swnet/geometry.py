"""Network topology, junction-shaped polygons, and triangular meshes."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-12


class GeometryError(ValueError):
    """Degenerate or inconsistent geometric configuration."""


class MeshError(ValueError):
    """Malformed triangular mesh."""


def _rot90ccw(v):
    return np.array([-v[1], v[0]])


def _unit(v):
    n = np.hypot(v[0], v[1])
    if n < _TOL:
        raise GeometryError("zero-length direction vector")
    return np.asarray(v, dtype=float) / n


def polygon_area(vertices: np.ndarray):
    """Signed shoelace area of (n, 2) vertices, or of each polygon of an
    (..., n, 2) stack; positive for counter-clockwise polygons."""
    x, y = vertices[..., 0], vertices[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    """Centroid of (n, 2) vertices, or (..., 2) of an (..., n, 2) stack."""
    x, y = vertices[..., 0], vertices[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def point_in_polygon(p, vertices: np.ndarray):
    """Ray-casting test of one point (-> bool) or an (N, 2) array (-> bool array).

    An edge toggles the result when exactly one end lies strictly above the
    point (half-open in y) and it crosses the point's row at
    `xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)` with `xi > x` strictly: a
    point on a left or bottom edge is inside, one on a right or top edge not.
    """
    pts = np.asarray(p, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    verts = np.asarray(vertices, dtype=float)
    for (x1, y1), (x2, y2) in zip(verts, np.roll(verts, -1, axis=0)):
        if y1 == y2:
            continue
        crosses = (y1 > y) != (y2 > y)
        xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (xi > x)
    return bool(inside) if inside.ndim == 0 else inside


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper intersection test for open segments (shared endpoints excluded)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass
class Channel:
    """Straight rectangular channel discretized into uniform 1D cells."""

    id: str
    width: float
    cells: int
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
        self.end = np.asarray(self.end, dtype=float)
        self.length = float(np.hypot(*(self.end - self.start)))
        if self.width <= 0.0:
            raise GeometryError(f"channel {self.id}: width must be positive")
        if self.cells < 2:
            raise GeometryError(f"channel {self.id}: need at least 2 cells")
        if self.length <= 0.0:
            raise GeometryError(f"channel {self.id}: zero length")

    @property
    def axis(self) -> np.ndarray:
        """Unit vector along positive s (start -> end)."""
        return _unit(self.end - self.start)

    @property
    def axis_angle(self) -> float:
        a = self.axis
        return float(np.arctan2(a[1], a[0]))

    @property
    def ds(self) -> float:
        return self.length / self.cells

    def end_point(self, which: str) -> np.ndarray:
        return self.start if which == "start" else self.end

    def outward_dir(self, which: str) -> np.ndarray:
        """Unit vector pointing from the attached junction into the channel."""
        return self.axis if which == "start" else -self.axis

    def connected_end(self, which: str) -> ConnectedEnd:
        """This channel's `which` end as seen from the junction attached there."""
        return ConnectedEnd(
            self.id, which, self.end_point(which), self.outward_dir(which), self.width
        )


@dataclass
class JunctionEdge:
    a: np.ndarray
    b: np.ndarray
    kind: str  # "coupling" or "wall"
    channel: str | None = None
    channel_end: str | None = None

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.b - self.a)))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)

    @property
    def theta(self) -> float:
        """Outward normal angle (edges are stored in CCW traversal order)."""
        t = _unit(self.b - self.a)
        return float(np.arctan2(-t[0], t[1]))

    @property
    def tag(self) -> str:
        """The edge's mesh boundary tag: "wall" or "coupling:<channel>:<end>"."""
        return self.kind if self.kind == "wall" else f"coupling:{self.channel}:{self.channel_end}"


@dataclass
class JunctionGeometry:
    """Junction-shaped polygon with typed edges, built by `build_junction_polygon`."""

    vertices: np.ndarray
    edges: list[JunctionEdge]
    area: float = field(init=False)
    centroid: np.ndarray = field(init=False)

    def __post_init__(self):
        self.area = float(polygon_area(self.vertices))
        if self.area <= 0.0:
            raise GeometryError("junction polygon is not counter-clockwise or empty")
        self.centroid = polygon_centroid(self.vertices)
        self._validate()

    def _validate(self):
        n = len(self.vertices)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue
                if _segments_intersect(
                    self.vertices[i],
                    self.vertices[(i + 1) % n],
                    self.vertices[j],
                    self.vertices[(j + 1) % n],
                ):
                    raise GeometryError("junction polygon self-intersects")
        for e in self.edges:
            nvec = np.array([np.cos(e.theta), np.sin(e.theta)])
            if np.dot(nvec, e.midpoint - self.centroid) <= 0.0:
                raise GeometryError("junction edge normal points inward")


@dataclass
class ConnectedEnd:
    """One channel end attached to a junction, as seen from the junction."""

    channel: str
    end: str  # "start" or "end"
    mouth: np.ndarray  # channel end cross-section center
    direction: np.ndarray  # unit vector from junction into the channel
    width: float


def build_junction_polygon(
    ends: list[ConnectedEnd], junction_point, protrusion: float = 0.1
) -> JunctionGeometry:
    """Construct the junction-shaped 2D element.

    Each channel contributes a coupling edge of length equal to its width,
    placed `protrusion * width` inside the channel mouth and perpendicular to
    the channel axis. Consecutive coupling edges (walking counter-clockwise)
    are joined by extending the facing channel side walls until they meet;
    collinear side walls join directly, and walls that diverge are closed
    through an auxiliary vertex at the nominal junction point.
    """
    if len(ends) < 2:
        raise GeometryError("a junction needs at least two channels")
    P = np.asarray(junction_point, dtype=float)
    scale = max(e.width for e in ends)

    entries = []
    for e in ends:
        d = _unit(e.direction)
        t = _rot90ccw(d)
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
    verts: list[np.ndarray] = []
    edges: list[JunctionEdge] = []

    def push_wall(a, b):
        if np.hypot(*(b - a)) > tol:
            edges.append(JunctionEdge(a=a.copy(), b=b.copy(), kind="wall"))
            verts.append(b.copy())

    for k, cur in enumerate(entries):
        if k == 0:
            verts.append(cur["A"].copy())
        edges.append(
            JunctionEdge(
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
                # Bi - t1*di = Aj - t2*dj; both t >= 0 means the walls meet on
                # the junction side of the coupling edges.
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
    return JunctionGeometry(vertices=np.array(verts), edges=edges)


# ---------------------------------------------------------------------------
# Triangular meshes
# ---------------------------------------------------------------------------

BOUNDARY_TAGS = ("wall", "transparent", "inflow", "prescribed")


class TriMesh:
    """Unstructured mesh of triangles and polygons with edge adjacency and boundary tags.

    `triangles` is (T, K) corner indices, K >= 3, each cell counter-clockwise;
    a cell with fewer than K corners ends its row in -1 padding. Triangles
    keep the three-point formulas for area, centroid and perimeter; polygons
    take the shoelace formulas.

    Boundary tags are strings: "wall", "coupling:<channel_id>:<start|end>"
    (junction cells), or "<kind>:<channel_id>:<start|end>" with kind
    "transparent", "inflow" or "prescribed" (reference domains; the kind is
    the part before the first colon, and a bare kind is a tag too).
    """

    def __init__(self, vertices, triangles, boundary_tags: dict):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        if self.triangles.ndim != 2 or self.triangles.shape[1] < 3 or not len(self.triangles):
            raise MeshError("cells must be (T, K >= 3) vertex indices, T > 0")
        self._build(boundary_tags)

    def _build(self, boundary_tags):
        V = self.vertices
        cells = self.triangles
        T, K = cells.shape
        corners = np.count_nonzero(cells >= 0, axis=1)
        real = np.arange(K) < corners[:, None]
        if corners.min() < 3 or not np.array_equal(cells >= 0, real):
            raise MeshError("every cell needs 3 or more corners, padded at the end with -1")
        # A padded corner repeats the cell's last one: it adds nothing to a
        # shoelace sum or a perimeter.
        filled = np.where(real, cells, cells[np.arange(T), corners - 1][:, None])
        p0, p1, p2 = (V.take(filled[:, k], axis=0) for k in range(3))
        cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
            p1[:, 1] - p0[:, 1]
        ) * (p2[:, 0] - p0[:, 0])
        self.areas = 0.5 * cross
        self.centroids = (p0 + p1 + p2) / 3.0
        per = (
            np.linalg.norm(p1 - p0, axis=1)
            + np.linalg.norm(p2 - p1, axis=1)
            + np.linalg.norm(p0 - p2, axis=1)
        )
        poly = np.flatnonzero(corners > 3)
        if len(poly):
            P = V[filled[poly]]
            self.areas[poly] = polygon_area(P)
            self.centroids[poly] = polygon_centroid(P)
            per[poly] = np.linalg.norm(np.roll(P, -1, axis=1) - P, axis=2).sum(axis=1)
        if np.any(self.areas <= 0.0):
            bad = int(np.argmax(self.areas <= 0.0))
            raise MeshError(f"cell {bad} is not counter-clockwise (or degenerate)")
        self.incircle_diameters = 4.0 * self.areas / per

        # Half-edges run from each corner of a cell to the next, cell after
        # cell; the undirected edge {a, b}, a < b, has code a * base + b.
        # Edges are numbered by their first use in half-edge order; the
        # first user is the edge's left cell, the second its right one.
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
        self.edge_left = hcell[h1]
        self.edge_right = np.where(uses[order] == 2, hcell[last[order]], -1)
        self.edge_va = ha[h1]
        self.edge_vb = hb[h1]
        self.edge_tags = tag_of[order].tolist()
        evec = V.take(self.edge_vb, axis=0) - V.take(self.edge_va, axis=0)
        self.edge_lengths = np.linalg.norm(evec, axis=1)
        if np.any(self.edge_lengths <= 0.0):
            raise MeshError("zero-length edge")
        tdir = evec / self.edge_lengths[:, None]
        # Half-edges are stored CCW for the left cell, so the outward normal
        # (from left) is the tangent rotated -90 degrees.
        self.edge_thetas = np.arctan2(-tdir[:, 0], tdir[:, 1])

        self.interior = np.flatnonzero(self.edge_right >= 0)
        self.boundary = np.flatnonzero(self.edge_right < 0)

        # Static geometry of the per-step kernels, laid out so that every x
        # or y row is contiguous: the cell on each side of an edge (the left
        # cell stands in on the right of a boundary edge) and the edge
        # midpoint's (2, E) offset from its centroid; each cell corner's
        # offset from the centroid, as (corner, axis, cell), zero at padded
        # corners, which so limit nothing.
        self.edge_cells = (
            self.edge_left, np.where(self.edge_right >= 0, self.edge_right, self.edge_left)
        )
        cT, midT = self.centroids.T, self.edge_midpoints.T
        self.edge_offsets = tuple(midT - cT.take(cells, axis=1) for cells in self.edge_cells)
        offsets = V.T.take(filled.T, axis=1) - cT[:, None, :]
        self.vertex_offsets = np.where(real.T, offsets, 0.0).transpose(1, 0, 2)

        # Up to K neighbours per cell in interior-edge order, -1 padded.
        cell = np.stack([self.edge_left, self.edge_right], axis=1)[self.interior].ravel()
        other = np.stack([self.edge_right, self.edge_left], axis=1)[self.interior].ravel()
        by_cell = np.argsort(cell, kind="stable")
        count = np.bincount(cell, minlength=T)
        slot = np.arange(len(cell)) - (np.cumsum(count) - count)[cell[by_cell]]
        self.neighbors = np.full((T, K), -1)
        self.neighbors[cell[by_cell], slot] = other[by_cell]

    # Each edge's normal cosine and sine, read by every edge flux kernel;
    # computed on first read, once the field's stencils are built: made
    # with the mesh, they raised the set-up's peak memory.
    @functools.cached_property
    def edge_cos(self) -> np.ndarray:
        return np.cos(self.edge_thetas)

    @functools.cached_property
    def edge_sin(self) -> np.ndarray:
        return np.sin(self.edge_thetas)

    @property
    def n_cells(self) -> int:
        return len(self.triangles)

    @property
    def edge_midpoints(self) -> np.ndarray:
        # Computed on access: stepping reads `edge_offsets`, so no copy is kept.
        V = self.vertices
        return 0.5 * (V.take(self.edge_va, axis=0) + V.take(self.edge_vb, axis=0))

    def boundary_edges_by_tag(self, prefix: str) -> np.ndarray:
        return np.array(
            [e for e in self.boundary if self.edge_tags[e].split(":")[0] == prefix],
            dtype=int,
        )

    def cell_containing(self, p) -> int:
        """Index of the (convex) cell that contains point p, edges included
        to 1e-12; of several, the first in `np.argsort` order of centroid
        distance. A point in no cell is a ValueError."""
        p = np.asarray(p, dtype=float)
        cells = self.triangles
        a = self.vertices.take(np.where(cells >= 0, cells, cells[:, :1]), axis=0)  # (T, K, 2)
        e, r = np.roll(a, -1, axis=1) - a, p - a  # edge vectors, p from each corner
        d = e[..., 0] * r[..., 1] - e[..., 1] * r[..., 0]
        by_distance = np.argsort(np.linalg.norm(self.centroids - p, axis=1))
        inside = by_distance[(d >= -1e-12).all(axis=1)[by_distance]]
        if not len(inside):
            raise ValueError(f"point ({p[0]:g}, {p[1]:g}) lies in no cell of the mesh")
        return int(inside[0])

