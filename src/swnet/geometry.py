"""Network topology, junction-shaped polygons, and triangular meshes.

`build_junction_polygons` builds every junction polygon of a network in one
pass, read from its channel ends, each a (`Channel`, "start" | "end") pair:
each end's unit direction, angle and offset in one array call each over all
ends, each junction's walls joined on Python floats, and the checks of all
polygons (area, crossing sides, edge normals) on one stack per vertex count
and one array of all edges. Every value has the bits of the junction built
alone (`build_junction_polygon`, the batch of one), and the first junction
in spec order that fails raises its error. Both junction meshes are
numbered from a polygon's vertex ring, which is its edge chain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_TOL = 1e-12
_LEFT = np.array([-1.0, 1.0])  # (y, x) * _LEFT: (x, y) turned 90 degrees to the left


class GeometryError(ValueError):
    """Degenerate or inconsistent geometric configuration."""


class MeshError(ValueError):
    """Malformed triangular mesh."""


def _unit(x, y):
    """(x, y) scaled to unit length by libm's `hypot` (numpy's)."""
    n = float(np.hypot(x, y))
    if n < _TOL:
        raise GeometryError("zero-length direction vector")
    return x / n, y / n


_RINGS = {}  # n -> `_ring(n)`


def _ring(n: int):
    """(the index of each vertex's next one, the (n, n) mask of the side
    pairs that share no vertex) of an n-gon, made once per n."""
    if n not in _RINGS:
        gap = np.subtract.outer(np.arange(n), np.arange(n)) % n
        _RINGS[n] = np.roll(np.arange(n), -1), (gap > 1) & (gap < n - 1)
    return _RINGS[n]


def _next(a):
    """`np.roll(a, -1, axis=-1)`: each polygon's next vertex."""
    return a.take(_ring(a.shape[-1])[0], axis=-1)


def row_lengths(d: np.ndarray) -> np.ndarray:
    """Length of each (x, y) row of `d` (..., 2): the bits of
    `np.linalg.norm(d, axis=-1)`, which forms x * x + y * y and takes its
    square root, without its reduction over a 2-long axis."""
    x, y = d[..., 0], d[..., 1]
    return np.sqrt(x * x + y * y)


def polygon_area_centroid(vertices: np.ndarray):
    """(signed shoelace area, centroid) of (n, 2) vertices, or (areas,
    (..., 2) centroids) of each polygon of an (..., n, 2) stack; the area is
    positive for counter-clockwise polygons. Each sum runs over a polygon's
    vertices on the last axis, so a stack rounds as each polygon alone."""
    v = vertices.swapaxes(-1, -2)  # x and y rows
    vn = _next(v)
    cross = v[..., 0, :] * vn[..., 1, :] - vn[..., 0, :] * v[..., 1, :]
    a = 0.5 * cross.sum(axis=-1)
    return a, ((v + vn) * cross[..., None, :]).sum(axis=-1) / (6.0 * a)[..., None]


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

    @functools.cached_property
    def axis(self) -> np.ndarray:
        """Unit vector along positive s (start -> end); one read-only array
        per channel, since `start` and `end` are fixed."""
        a = np.array(_unit(*(self.end - self.start)))
        a.flags.writeable = False
        return a

    @property
    def axis_angle(self) -> float:
        a = self.axis
        return float(np.arctan2(a[1], a[0]))

    def end_point(self, which: str) -> np.ndarray:
        return self.start if which == "start" else self.end


@dataclass
class JunctionEdge:
    a: np.ndarray
    b: np.ndarray
    kind: str  # "coupling" or "wall"
    channel: str | None = None
    channel_end: str | None = None

    @property
    def tag(self) -> str:
        """The edge's mesh boundary tag: "wall" or "coupling:<channel>:<end>"."""
        return self.kind if self.kind == "wall" else f"coupling:{self.channel}:{self.channel_end}"


@dataclass
class JunctionGeometry:
    """Junction-shaped polygon with typed edges, a record made and checked
    only by `build_junction_polygons`: its (n, 2) counter-clockwise vertex
    ring, its n edges, edge k from vertex k to vertex k + 1 (mod n), its
    area and its centroid. The ring is the edge chain: vertex 0 is edge 0's
    start and vertex k edge k - 1's end. Both junction meshes are numbered
    from the ring; where two edges nearly meet, an edge's start may differ
    from its ring vertex by the builder's tolerance."""

    vertices: np.ndarray
    edges: list[JunctionEdge]
    area: float
    centroid: np.ndarray

    def ring_tags(self, first: int = 0) -> dict:
        """Each edge's tag keyed by the numbers (a, b), a < b, of its two
        ring vertices when vertex k is numbered `first + k`; in edge order."""
        *edges, last = self.edges
        tags = {(first + k, first + k + 1): e.tag for k, e in enumerate(edges)}
        tags[first, first + len(edges)] = last.tag
        return tags


def _check_polygons(points, sides):
    """(vertices, areas, centroids) of junction polygons.

    `points` (2 E, 2) holds the two ends of every edge, edge after edge and
    polygon after polygon, and `sides` each polygon's number of edges n. Its
    vertex ring is its edge chain: from its first point p, the points p,
    p + 1, p + 3, ..., p + 2 n - 3, its first edge's start and then the end
    of each edge but the last.
    Polygons of one vertex count are checked as one (m, n, 2) stack, whose
    rows are the returned vertices, and the edges all at once. A polygon
    fails on the first of: an area that is not positive; two sides that
    cross; an edge too short for a direction, or whose outward normal
    points to the centroid's side, the first such edge. The first polygon
    that fails raises its GeometryError.
    """
    count = len(sides)
    vertices, areas = [None] * count, np.empty(count)
    centroids, crossing = np.empty((count, 2)), np.zeros(count, dtype=bool)
    first = 2 * np.cumsum([0, *sides])[:-1]
    groups = {}
    for k, n in enumerate(sides):
        groups.setdefault(n, []).append(k)
    # A polygon without area gets a centroid that no check reads.
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, group in groups.items():
            ring = np.arange(-1, 2 * n - 2, 2).clip(0)  # 0, 1, 3, ..., 2 n - 3
            V = points[first[group, None] + ring]
            for k, v in zip(group, V):
                vertices[k] = v
            areas[group], centroids[group] = polygon_area_centroid(V)
            # left[p, s, v]: vertex v of polygon p lies strictly left of its
            # side s (vertex s to s + 1) by `(b - a) x (c - a) > 0`. Sides
            # that are not adjacent cross when each has the other's two ends
            # on different sides.
            xy = V.swapaxes(1, 2)
            e = _next(xy) - xy
            r = xy[..., None, :] - xy[..., None]  # r[p, :, s, v]: vertex v from vertex s
            left = e[:, 0, :, None] * r[:, 1] - e[:, 1, :, None] * r[:, 0] > 0
            splits = left != _next(left)
            crossing[group] = (splits & splits.transpose(0, 2, 1) & _ring(n)[1]).any(axis=(1, 2))
        # The edge-normal test, over all edges at once.
        a, b = points[0::2], points[1::2]
        d, m = b - a, 0.5 * (a + b) - centroids.repeat(sides, axis=0)
        length = np.hypot(d[:, 0], d[:, 1])
        short = length < _TOL
        t = d / (length + short)[:, None]  # a short edge fails, whatever its direction
        theta = np.arctan2(-t[:, 0], t[:, 1])
        bad = (short | (np.cos(theta) * m[:, 0] + np.sin(theta) * m[:, 1] <= 0.0)).nonzero()[0]
    owner = np.arange(count).repeat(sides)[bad]
    fails = (areas <= 0.0) | crossing
    fails[owner] = True
    if fails.any():
        k = fails.argmax()  # the first that fails
        if areas[k] <= 0.0:
            raise GeometryError("junction polygon is not counter-clockwise or empty")
        if crossing[k]:
            raise GeometryError("junction polygon self-intersects")
        raise GeometryError("zero-length direction vector" if short[bad[owner == k][0]]
                            else "junction edge normal points inward")
    return vertices, areas, centroids


def build_junction_polygon(ends, junction_point, protrusion: float) -> JunctionGeometry:
    """The junction-shaped 2D element of the channel ends `ends`, each a
    (`Channel`, "start" | "end") pair: `build_junction_polygons` of one junction.

    Each channel contributes a coupling edge of length equal to its width,
    placed `protrusion * width` inside the channel mouth and perpendicular to
    the channel axis. Consecutive coupling edges (walking counter-clockwise)
    are joined by extending the facing channel side walls until they meet;
    collinear side walls join directly, and walls that diverge are closed
    through an auxiliary vertex at the nominal junction point.
    """
    return build_junction_polygons([(ends, junction_point, protrusion)])[0]


def build_junction_polygons(specs) -> list[JunctionGeometry]:
    """`build_junction_polygon` of each (ends, junction point, protrusion)
    of `specs`, with the values of every channel end in one array call each
    and the checks of every polygon in one pass (`_check_polygons`).

    Junctions are joined in spec order until one fails: with fewer than two
    ends, or in `_join_walls`. The polygons before it are checked first, so
    the first junction that fails raises its GeometryError, a construction
    failure before any check of its own. Every `JunctionGeometry` is made
    here, after its checks.
    """
    counts = [len(ends) for ends, _, _ in specs]
    ends = [e for es, _, _ in specs for e in es]
    points_at = np.array([point for _, point, _ in specs], dtype=float).reshape(-1, 2)
    # Per end: its junction and the junction point; its mouth and its
    # direction into the channel, the channel's axis negated at its "end",
    # scaled to unit length again in place.
    junction, P = np.repeat(np.arange(len(specs)), counts), points_at.repeat(counts, axis=0)
    md = np.array([(ch.end_point(which), ch.axis) for ch, which in ends]).reshape(-1, 2, 2)
    mouth, u = md[:, 0], md[:, 1]
    u[[which == "end" for _, which in ends]] *= -1.0
    # The bits of `_unit`, `np.arctan2 % 2 pi` and `np.dot` (kept by
    # `np.vecdot`) on one end at a time.
    u /= np.hypot(u[:, 0], u[:, 1])[:, None]
    angle = np.arctan2(u[:, 1], u[:, 0]) % (2.0 * np.pi)
    offset = np.vecdot(mouth - P, u[:, ::-1] * _LEFT)
    # Each junction's ends counter-clockwise, by angle and then offset.
    order = np.lexsort((offset, angle, junction))
    rows = md.take(order, axis=0).tolist()
    ends = [ends[i] for i in order.tolist()]

    points, kinds, sides = [], [], []
    failure, first = None, 0
    for (_, _, protrusion), point, n in zip(specs, points_at.tolist(), counts):
        last = first + n
        try:
            if n < 2:
                raise GeometryError("a junction needs at least two channels")
            edge_points, edge_kinds = _join_walls(
                rows[first:last], ends[first:last], point, protrusion)
        except GeometryError as exc:
            failure = exc
            break
        points += edge_points
        kinds += edge_kinds
        sides.append(len(edge_kinds))
        first = last

    pts = np.array(points, dtype=float).reshape(-1, 2)
    vertices, areas, centroids = _check_polygons(pts, sides)
    if failure:
        raise failure
    edges = [JunctionEdge(a, b, *kind) for a, b, kind in zip(pts[0::2], pts[1::2], kinds)]
    last = np.cumsum(sides).tolist()
    return [JunctionGeometry(v, edges[k - n : k], area, centroid)
            for v, n, k, area, centroid in zip(vertices, sides, last, areas.tolist(), centroids)]


def _join_walls(rows, ends, P, protrusion):
    """(edge points, edge kinds) of one junction polygon.

    `rows` holds, for each (channel, end) of `ends` counter-clockwise, its
    mouth and its unit direction into the channel. Each edge adds its two
    ends to the points and its (kind, channel, channel end) to the kinds,
    from the first coupling edge on. The edges form a closed chain, each
    starting where the one before it ends, or within 2 tol of it, and the
    polygon's vertex ring is the chain (`_check_polygons`). Points are
    (x, y) Python floats, which round + - * / as numpy does; distances are
    `np.hypot`'s.
    """
    tol = 1e-9 * max(ch.width for ch, _ in ends)
    coupling = []  # each end's coupling edge A B, direction d and labels
    for ((mx, my), (dx, dy)), (ch, end) in zip(rows, ends):
        cx, cy = mx + protrusion * ch.width * dx, my + protrusion * ch.width * dy
        hx, hy = 0.5 * ch.width * -dy, 0.5 * ch.width * dx  # along t = (-dy, dx)
        coupling.append(((cx - hx, cy - hy), (cx + hx, cy + hy), (dx, dy), ch.id, end))
    points = []  # each edge's two ends, edge after edge
    kinds = []  # each edge's (kind, channel, channel end)

    def apart(a, b):
        return np.hypot(b[0] - a[0], b[1] - a[1]) > tol

    def push_wall(a, b):
        if apart(a, b):
            points.extend((a, b))
            kinds.append(("wall", None, None))

    for k, (Ai, Bi, (dix, diy), channel, end) in enumerate(coupling):
        points.extend((Ai, Bi))
        kinds.append(("coupling", channel, end))
        Aj, _, (djx, djy), following, _ = coupling[(k + 1) % len(coupling)]
        (bx, by), (ajx, ajy) = Bi, Aj
        if not apart(Bi, Aj):
            continue  # edges share a vertex
        cross = dix * djy - diy * djx
        if abs(cross) < 1e-12:
            if abs(dix * (ajy - by) - diy * (ajx - bx)) < tol:
                push_wall(Bi, Aj)  # collinear side walls
            else:
                raise GeometryError(
                    "adjacent side walls are parallel and non-intersecting "
                    f"(channels {channel} / {following})"
                )
        else:
            # Bi - t1*di = Aj - t2*dj; both t >= 0 means the walls meet on
            # the junction side of the coupling edges.
            rx, ry = bx - ajx, by - ajy
            t1 = (rx * djy - ry * djx) / cross
            t2 = (rx * diy - ry * dix) / cross
            if t1 >= -tol and t2 >= -tol:
                X = (bx - t1 * dix, by - t1 * diy)
                push_wall(Bi, X)
                push_wall(X, Aj)
            else:
                push_wall(Bi, P)
                push_wall(P, Aj)

    return points, kinds


# ---------------------------------------------------------------------------
# Triangular meshes
# ---------------------------------------------------------------------------

def _runs(keys):
    """(codes, first, last, uses): the distinct values of `keys` in
    ascending order, the positions of each one's first and last use, and
    its count. One stable sort keeps each code's positions in order, so its
    first and last uses start and end its run; the sort's temporaries go
    with this call, and a mesh build holds no more than its four results."""
    by_code = np.argsort(keys, kind="stable")
    ordered = keys[by_code]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], len(keys))
    return ordered[starts], by_code[starts], by_code[ends - 1], ends - starts


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
        per = row_lengths(p1 - p0) + row_lengths(p2 - p1) + row_lengths(p0 - p2)
        poly = np.flatnonzero(corners > 3)
        if len(poly):
            P = V[filled[poly]]
            self.areas[poly], self.centroids[poly] = polygon_area_centroid(P)
            per[poly] = row_lengths(np.roll(P, -1, axis=1) - P).sum(axis=1)
        if np.any(self.areas <= 0.0):
            bad = int(np.argmax(self.areas <= 0.0))
            raise MeshError(f"cell {bad} is not counter-clockwise (or degenerate)")
        self.incircle_diameters = 4.0 * self.areas / per

        # Half-edges run from each corner of a cell to the next, cell after
        # cell; the undirected edge {a, b}, a < b, has code a * base + b.
        # Edges are numbered by their first use in half-edge order; the
        # first user is the edge's left cell, the second its right one.
        nxt = np.where(np.arange(1, K + 1) < corners[:, None], np.arange(1, K + 1), 0)
        hcell = np.repeat(np.arange(T), corners)
        ha = cells[real]
        hb = np.take_along_axis(cells, nxt, axis=1)[real]
        tagged = {(min(a, b), max(a, b)): tag for (a, b), tag in boundary_tags.items()}
        tag_keys = np.array(list(tagged), dtype=np.int64).reshape(-1, 2)
        base = 1 + max(int(cells.max()), int(tag_keys.max(initial=0)))
        keys = np.minimum(ha, hb) * base + np.maximum(ha, hb)
        codes, first, last, uses = _runs(keys)
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
        self.edge_lengths = row_lengths(evec)
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

    def cell_containing(self, p) -> int:
        """Index of the (convex) cell that contains point p, edges included
        to 1e-12; of several, the first in `np.argsort` order of centroid
        distance. A point in no cell is a ValueError.

        Only cells whose centroid lies within the largest centroid-to-corner
        distance of p, grown by a margin, are tested first. When one of them
        contains p, every cell farther out is farther from p than it, so the
        nearest of them is the answer unless two tie in distance; a tie, or
        no containing cell among them, takes the full sort."""
        p = np.asarray(p, dtype=float)
        distance = row_lengths(self.centroids - p)
        ox, oy = self.vertex_offsets[:, 0], self.vertex_offsets[:, 1]
        reach = float(np.sqrt((ox * ox + oy * oy).max()))
        near = np.flatnonzero(distance <= reach * (1.0 + 1e-6) + 1e-9)
        inside = near[self._contains(near, p)]
        if len(inside):
            nearest = distance[inside] == distance[inside].min()
            if np.count_nonzero(nearest) == 1:
                return int(inside[nearest.argmax()])
        by_distance = np.argsort(distance)
        inside = by_distance[self._contains(slice(None), p)[by_distance]]
        if not len(inside):
            raise ValueError(f"point ({p[0]:g}, {p[1]:g}) lies in no cell of the mesh")
        return int(inside[0])

    def _contains(self, rows, p) -> np.ndarray:
        """Whether each cell of `rows` holds p: p lies left of each of its
        edges, or on it to 1e-12. Padded corners repeat the first one."""
        cells = self.triangles[rows]
        a = self.vertices.take(np.where(cells >= 0, cells, cells[:, :1]), axis=0)  # (n, K, 2)
        e, r = np.roll(a, -1, axis=1) - a, p - a  # edge vectors, p from each corner
        d = e[..., 0] * r[..., 1] - e[..., 1] * r[..., 0]
        return (d >= -1e-12).all(axis=1)
