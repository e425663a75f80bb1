"""Mesh construction helpers for reference domains and junction patches.

These build the grids consumed through `TriMesh`; scenario presets write them
to mesh files or pass them in memory. Two generators are provided: a
structured split-quad mesher for unions of axis-aligned rectangles (full 2D
reference domains) and a fan-plus-refine mesher for junction-shaped polygons
(local 2D patches). `disjoint_union` joins the cells of a network's
junctions into one mesh.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    GeometryError,
    JunctionGeometry,
    MeshError,
    TriMesh,
    point_in_polygon,
)


def rect_union_mesh(rects, dx, tag_segments=None, polygons=()):
    """Triangulate a union of axis-aligned rectangles with split quads.

    rects: iterable of (x0, y0, x1, y1); all coordinates must sit on the dx
    grid. polygons: extra footprint regions (vertex arrays) rasterized by cell
    center with `point_in_polygon`, whose crossings are half-open in y and
    count only strictly right of the centre (`xi > x`): a centre on a
    polygon's left or bottom edge joins the footprint, one on its right or
    top edge does not. tag_segments: list of ((ax, ay), (bx, by), tag)
    assigning tags to boundary edges whose midpoints lie on those segments,
    the first matching segment winning; anything else becomes a wall.
    """
    rects = [tuple(map(float, r)) for r in rects]
    if not rects:
        raise MeshError("no rectangles given")
    xs = [r[0] for r in rects] + [r[2] for r in rects]
    ys = [r[1] for r in rects] + [r[3] for r in rects]
    for p in polygons:
        xs += list(np.asarray(p)[:, 0])
        ys += list(np.asarray(p)[:, 1])
    x_min, y_min = min(xs), min(ys)
    # Rectangle corners must sit on the grid; a staircase boundary would
    # silently distort the footprint otherwise.
    for ref, vals in ((x_min, (r[0] for r in rects)), (x_min, (r[2] for r in rects)),
                      (y_min, (r[1] for r in rects)), (y_min, (r[3] for r in rects))):
        for v in vals:
            if abs(v - (ref + round((v - ref) / dx) * dx)) > 1e-9 * max(1.0, abs(v)):
                raise MeshError(f"coordinate {v} does not sit on the dx={dx} grid")
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
    if not mask.any():
        raise MeshError("empty footprint")

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

    # Cell sides without a footprint cell behind them: left, right, bottom, top.
    inside = np.pad(mask, 1)
    faces = [
        (~inside[ci, cj + 1], v00, v01),
        (~inside[ci + 2, cj + 1], v10, v11),
        (~inside[ci + 1, cj], v00, v10),
        (~inside[ci + 1, cj + 2], v01, v11),
    ]
    na = np.concatenate([a[open_] for open_, a, _ in faces])
    nb = np.concatenate([b[open_] for open_, _, b in faces])
    mid = 0.5 * (verts[na] + verts[nb])
    tags = np.full(len(na), "wall", dtype=object)
    # Tagged last to first, so that the first segment holding a midpoint wins.
    for a, b, tag in reversed(list(tag_segments or ())):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        L = np.linalg.norm(b - a)
        d = (b - a) / L
        w = mid - a
        t = w[:, 0] * d[0] + w[:, 1] * d[1]
        off_line = np.abs(w[:, 0] * d[1] - w[:, 1] * d[0])
        tags[(t >= -eps) & (t <= L + eps) & (off_line < 10 * eps)] = tag
    keys = zip(np.minimum(na, nb).tolist(), np.maximum(na, nb).tolist())
    return TriMesh(verts, tris, dict(zip(keys, tags.tolist())))


def fan_refine_mesh(geometry: JunctionGeometry, refinements: int = 2) -> TriMesh:
    """Triangulate a junction polygon by fanning from the centroid and refining.

    Uniform refinement (each triangle into four) keeps symmetric polygons
    symmetric and subdivides coupling edges evenly. The polygon must be
    star-shaped with respect to its centroid. Points are rounded to 12
    decimals by `np.round` and merged on equal coordinates, numbered in order
    of first appearance.
    """
    center = geometry.centroid
    verts = [tuple(center)]
    index = {tuple(center): 0}

    def vids(points):
        """Numbers of the rounded points, new ones appended in row order."""
        out = []
        for key in map(tuple, np.round(points, 12).tolist()):
            if key not in index:
                index[key] = len(verts)
                verts.append(key)
            out.append(index[key])
        return out

    tris = []
    btags = {}
    ids = vids([p for e in geometry.edges for p in (e.a, e.b)])
    for e, ia, ib in zip(geometry.edges, ids[0::2], ids[1::2]):
        a, b = np.asarray(verts[ia]), np.asarray(verts[ib])
        cross = (a[0] - center[0]) * (b[1] - center[1]) - (a[1] - center[1]) * (
            b[0] - center[0]
        )
        if cross <= 0.0:
            raise GeometryError("polygon is not star-shaped from its centroid")
        tris.append((0, ia, ib))
        btags[(min(ia, ib), max(ia, ib))] = e.tag
    tris = np.array(tris, dtype=int)

    for _ in range(refinements):
        # Each triangle's edges (0, 1), (1, 2), (2, 0), triangle after
        # triangle; an edge's midpoint comes from its first appearance
        # (a + b == b + a), and new points are numbered in that order.
        n = len(verts)
        a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
        keys, first, edge_of = np.unique(
            np.minimum(a, b) * n + np.maximum(a, b), return_index=True, return_inverse=True
        )
        v = np.array(verts)
        order = np.argsort(first)
        mid = np.empty(len(keys), dtype=int)
        mid[order] = vids(0.5 * (v[a[first[order]]] + v[b[first[order]]]))
        m01, m12, m20 = mid[edge_of].reshape(-1, 3).T
        i0, i1, i2 = tris.T
        tris = np.stack(
            [i0, m01, m20, m01, i1, m12, m20, m12, i2, m01, m12, m20], axis=1
        ).reshape(-1, 3)
        new_btags = {}
        for (ia, ib), tag in btags.items():
            m = int(mid[np.searchsorted(keys, ia * n + ib)])
            new_btags[(min(ia, m), max(ia, m))] = tag
            new_btags[(min(m, ib), max(m, ib))] = tag
        btags = new_btags

    return TriMesh(np.array(verts, dtype=float), tris, btags)


def disjoint_union(parts) -> TriMesh:
    """One mesh of parts that share no node.

    Each part is (vertices, cells, boundary tags) with unpadded (T, K) cells.
    The nodes and cells of each part follow those of the parts before it, in
    their own order, so each part's edges stay contiguous and in the order
    of its own mesh; rows are padded with -1 to the widest part.
    """
    width = max(np.shape(cells)[1] for _, cells, _ in parts)
    rows = np.full((sum(len(cells) for _, cells, _ in parts), width), -1)
    tags = {}
    node = row = 0
    for verts, cells, btags in parts:
        cells = np.asarray(cells)
        rows[row : row + len(cells), : cells.shape[1]] = cells + node
        tags.update({(a + node, b + node): tag for (a, b), tag in btags.items()})
        node += len(verts)
        row += len(cells)
    return TriMesh(np.concatenate([verts for verts, _, _ in parts]), rows, tags)
