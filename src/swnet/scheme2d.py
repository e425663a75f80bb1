"""Second-order finite-volume scheme on unstructured meshes of triangles and polygons.

Per-cell linear reconstruction from neighbor centroid differences (exact
three-neighbor solve, constrained least squares otherwise), Barth-Jespersen
limiting at the vertices, half-step evolution through the flux Jacobians, and
rotated HLLC fluxes on the interior edges in one fused kernel. The owner of
a `MeshField` solves its boundary edges on a `riemann.RiemannBatch`. Also
the building block for local 2D junction patches, which may splice
additional "virtual" stencil neighbors (the adjacent 1D cells) into
boundary cells.
"""

from __future__ import annotations

import numpy as np

from .core import PhysicalParams, apply_update, from_normal, jacobian_rows, max_wave_speed, to_normal
from .geometry import TriMesh
from .riemann import hllc_rows
# Unused here since the boundary edges are solved on a batch; still bound, as
# the benchmark's tracer test wraps it in this module.
from .riemann import hllc_flux  # noqa: F401


class MeshField:
    """Conserved cell averages plus limited gradients on a TriMesh.

    `q` holds one (h, hu, hv) row per cell. The per-step kernels work
    component-major, on one contiguous row of all cells (or edges) per
    component: the gradients are `grad`, (2, 3, T) for (x, y), component, cell.
    """

    def __init__(self, mesh: TriMesh, params: PhysicalParams, order: int = 2, virtual=None):
        self.mesh = mesh
        self.params = params
        self.order = order
        T = mesh.n_cells
        self.q = np.zeros((T, 3))
        self.grad = np.zeros((2, 3, T))
        # Names a cell in the errors of `update`; a junction field names the
        # junction too.
        self.cell_name = "2D cell {}".format

        # Stencil of each cell: its mesh neighbours, then its virtual ones in
        # slot order; virtual slot s is stored as neighbour -(s + 1). The
        # table is padded to the most virtual slots of one cell.
        virtual = list(virtual or [])
        self.n_virtual = len(virtual)
        counts = np.count_nonzero(mesh.neighbors >= 0, axis=1)
        per_cell = np.bincount(np.array([cell for cell, _ in virtual], dtype=int), minlength=T)
        nbrs = np.concatenate([mesh.neighbors, np.full((T, per_cell.max(initial=0)), -1)], axis=1)
        pos = mesh.centroids.take(nbrs, axis=0)  # padding entries are never read
        for slot, (cell, p) in enumerate(virtual):
            nbrs[cell, counts[cell]] = -(slot + 1)
            pos[cell, counts[cell]] = p
            counts[cell] += 1

        # Per stencil size: the cells (n), their neighbours (c, n) and the two
        # slope rows of their reconstruction operator, (2, c, n): rows 1-2 of
        # the inverse of the exact three-neighbour fit, or the least-squares
        # operator. Each distinct set of offsets is fitted once, and its
        # operator and regular flag are gathered back to its cells.
        self._groups = []
        scale = float(np.sqrt(np.mean(mesh.areas)))
        for c in sorted(set(counts[counts >= 2].tolist())):
            cells = np.flatnonzero(counts == c)
            nbr = nbrs[cells, :c]
            offs = pos.take(cells, axis=0)[:, :c] - mesh.centroids.take(cells, axis=0)[:, None, :]
            rows, stencil = _distinct_rows(offs)
            offs = offs[rows]
            if c == 3:
                M = np.concatenate([np.ones((len(offs), 3, 1)), offs], axis=2)
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
                op = np.zeros((len(offs), 2, c))
                if good.any():
                    Ginv = np.linalg.inv(G[good])
                    op[good] = np.einsum("kij,kcj->kic", Ginv, offs[good])
            kind = "exact" if c == 3 else "lsq"
            self._groups.append(
                (kind, cells, nbr.T, op[stencil].transpose(1, 2, 0), good[stencil])
            )
        # Copied contiguous only after the stencil temporaries are released;
        # copied earlier, they made the dx = 0.02 reference build ~6 % slower
        # (heap placement, not work).
        del nbrs, pos
        for k, (kind, cells, nbr, op, good) in enumerate(self._groups):
            self._groups[k] = (kind, cells, nbr.copy(), op.copy(), good)
        # Per group, the positions of its singular stencils: a group with
        # none skips the write that zeroes their slopes.
        self._singular = [np.flatnonzero(~good) for *_, good in self._groups]
        if virtual:
            self._build_junction_tables()

    def _build_junction_tables(self):
        """Static tables of the junction kernels: one padded stencil table
        for `_fit_padded`, and each edge side's cells and midpoint offsets.

        The table holds, per stencil slot (up to the widest stencil, cmax,
        and at least 2) and cell, three columns of the `_fit_padded` source rows
        `[q.T | 0 | virtual values reversed]` (source, centre, bound) and the
        two operator rows. A least-squares entry takes its neighbour minus
        the cell; an exact entry its neighbour minus the zero column. A pad
        takes the zero column minus itself times an operator of -0.0, which
        adds -0.0 and so leaves every sum to the bit; its bound column
        repeats the cell's last real neighbour, which leaves the running
        minimum and maximum to the bit (a pad from the cell itself would
        flip the sign of a zero bound: `np.minimum` and `np.maximum` return
        their second operand when -0.0 and +0.0 tie). Singular stencils and
        cells with fewer than 2 neighbours have their slopes set to +0.0.
        """
        T = self.mesh.n_cells
        cmax = max([2] + [len(nbr) for _, _, nbr, _, _ in self._groups])
        table = np.full((3, cmax, T), T)
        op = np.full((2, cmax, T), -0.0)
        fitted = np.zeros(T, dtype=bool)
        for kind, cells, nbr, gop, good in self._groups:
            c = len(nbr)
            table[0, :c][:, cells] = nbr
            if kind == "lsq":
                table[1, :c][:, cells] = cells
            table[2, :c][:, cells] = nbr
            table[2, c:][:, cells] = nbr[-1]
            op[:, :c][:, :, cells] = gop
            fitted[cells[good]] = True
        self._table, self._op = table, op
        # The flat `put` index of the unfitted cells' six gradient entries.
        self._unfitted = (T * np.arange(6)[:, None] + np.flatnonzero(~fitted)).ravel()
        self._zero_column = np.zeros((3, 1))

        m = self.mesh
        sides = 2 if len(m.interior) else 1
        self._edge_cells = np.array(m.edge_cells[:sides])
        self._edge_offsets = np.array(m.edge_offsets[:sides]).transpose(1, 0, 2).copy()
        # The `update` bin of each component-major weight: k T + cell.
        cells = np.concatenate([m.edge_left, m.edge_right.take(m.interior)])
        self._net_bins = (T * np.arange(3)[:, None] + cells).ravel()

    def volume(self) -> float:
        return float(np.sum(self.q[:, 0] * self.mesh.areas))

    def dt_bound(self) -> float:
        """min over cells of incircle_diameter / wave_speed (no CFL factor)."""
        lam = max_wave_speed(self.q, self.params)
        return float((self.mesh.incircle_diameters / lam).min())

    def reconstruct(self, virtual_values=None):
        """Compute limited gradients; zero for cells with fewer than 2 neighbors.

        Summation order: each slope is accumulated over the operator columns
        in stencil order (mesh neighbours, then virtual ones), left to right,
        `op[r, 0] * v0 + op[r, 1] * v1 + ...`; a cell's bounds are the
        running minimum and maximum of its neighbours in the same order, then
        against its own value. Keeping this order keeps the gradients the
        same to the bit.

        A field with virtual slots (the junction cells) fits every cell on
        one padded stencil table; the 2D reference, at whose size the padded
        table was slower, fits one group per stencil size.
        """
        grad = self.grad
        if self.order < 2:
            grad[:] = 0.0
            return
        if self.n_virtual:
            if virtual_values is None:
                raise ValueError("virtual neighbor values required but not given")
            dmin, dmax = self._fit_padded(virtual_values)
        else:
            grad[:] = 0.0
            src = np.ascontiguousarray(self.q.T)
            dmin = np.zeros(grad[0].shape)
            dmax = np.zeros(grad[0].shape)
            for (kind, cells, nbr, op, _), singular in zip(self._groups, self._singular):
                self._fit(src, kind, cells, nbr, op, singular, dmin, dmax)
            del src  # the limiter's temporaries are the step's largest
        self._limit(dmin, dmax)

    def _fit_padded(self, virtual_values):
        """Slopes of every cell into `grad`, and its neighbour bounds
        (dmin, dmax), from the padded stencil table."""
        # Virtual slot s is neighbour -(s + 1): the s-th column from the end.
        src = np.concatenate([self.q.T, self._zero_column, virtual_values[::-1].T], axis=1)
        vals = src.take(self._table, axis=1)  # (component, column, slot, cell)
        prod = self._op[:, None] * (vals[:, 0] - vals[:, 1])
        grad = np.add(prod[:, :, 0], prod[:, :, 1], out=self.grad)
        for j in range(2, prod.shape[2]):
            grad += prod[:, :, j]
        if len(self._unfitted):
            grad.put(self._unfitted, 0.0)
        bounds = vals[:, 2]
        lo = hi = bounds[:, 0]
        for j in range(1, bounds.shape[1]):
            lo = np.minimum(lo, bounds[:, j])
            hi = np.maximum(hi, bounds[:, j])
        qc = src[:, : self.mesh.n_cells]
        dmin = np.minimum(qc, lo)
        dmin -= qc
        dmax = np.maximum(qc, hi)
        dmax -= qc
        return dmin, dmax

    def _fit(self, src, kind, cells, nbr, op, singular, dmin, dmax):
        """Slopes and neighbour bounds of one stencil group, from the (3, T)
        component rows `src` of the cells; `singular` indexes the group's
        singular stencils."""
        qc = src.take(cells, axis=1)
        vals = [src.take(row, axis=1) for row in nbr]
        terms = vals if kind == "exact" else [v - qc for v in vals]
        # Scattered one component row at a time: at reference size
        # `row[cells] = v` is ~5x faster than the same write along axis 1 of
        # the (3, T) array.
        for i in range(2):
            g = op[i, 0] * terms[0]
            for j in range(1, len(terms)):
                g += op[i, j] * terms[j]
            if len(singular):
                g[:, singular] = 0.0
            for row, v in zip(self.grad[i], g):
                row[cells] = v
        lo, hi = vals[0], vals[0]
        for v in vals[1:]:
            lo = np.minimum(lo, v)
            hi = np.maximum(hi, v)
        for row, v in zip(dmin, np.minimum(qc, lo) - qc):
            row[cells] = v
        for row, v in zip(dmax, np.maximum(qc, hi) - qc):
            row[cells] = v

    def _limit(self, dmin, dmax):
        """Barth-Jespersen: scale each gradient by the largest phi in [0, 1]
        that keeps its value at every vertex within [q + dmin, q + dmax];
        dmin and dmax are (3, T).

        A vertex whose increment dq is zero (or NaN) allows phi = 1, so a
        padded polygon corner (zero offset) limits nothing. The minimum over
        the vertices is clipped once, which equals the minimum of the clipped
        candidates because clipping is monotone.
        """
        off = self.mesh.vertex_offsets[:, :, None, :]
        dq = self.grad[0] * off[:, 0] + self.grad[1] * off[:, 1]
        rising = dq > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(rising, dmax, dmin) / dq
        np.copyto(cand, 1.0, where=~(rising | (dq < 0.0)))
        # np.clip, with the bound first in each call for its signs of zero.
        self.grad *= np.minimum(1.0, np.maximum(0.0, cand.min(axis=0), out=dmin), out=dmin)

    def edge_states(self, dt: float):
        """Evolved boundary-extrapolated states per edge, global frame.

        Returns (qL, qR) as (E, 3) views of (3, E) rows; qR rows of boundary
        edges duplicate qL, and qR is qL when every edge is a boundary edge
        (single-cell junctions). A field with virtual slots evolves both
        sides in one pass, as views of one (3, sides, E) array; the 2D
        reference, whose peak memory that raised, one side at a time.
        """
        qT = np.ascontiguousarray(self.q.T)
        if self.n_virtual:
            qf = self._face_states(qT, self._edge_cells, *self._edge_offsets, dt)
            out = [qf[:, k].T for k in range(qf.shape[1])]
        else:
            m = self.mesh
            sides = 2 if len(m.interior) else 1
            out = [
                self._face_states(qT, cells, dx, dy, dt).T
                for cells, (dx, dy) in zip(m.edge_cells[:sides], m.edge_offsets[:sides])
            ]
        return out[0], out[-1]

    def _face_states(self, qT, cells, dx, dy, dt):
        """(3, *cells.shape) states of `cells`, from the (3, T) rows `qT`,
        extrapolated by the offsets (dx, dy) and evolved by half a step
        through the flux Jacobians."""
        g = self.grad.reshape(6, -1).take(cells, axis=1)
        gx, gy = g[:3], g[3:]
        qf = qT.take(cells, axis=1) + gx * dx + gy * dy
        if self.order >= 2:
            qf -= 0.5 * dt * jacobian_rows(qf, gx, gy, self.params.g)
        return qf

    def update(self, edge_flux_global: np.ndarray, dt: float):
        """Apply per-unit-length global-frame edge fluxes (positive out of left).

        Summation order: each cell's net flux is one running sum from zero
        that subtracts the fluxes of the edges it is left of, then adds those
        of the interior edges it is right of, each in edge order. Keeping
        this order keeps the updated states the same to the bit. The junction
        cells sum all components in one bincount over static bins; the 2D
        reference, whose peak memory stored bins would raise, one at a time.
        """
        m = self.mesh
        interior = m.interior
        if self.n_virtual:
            w = edge_flux_global.T * m.edge_lengths
            w = np.concatenate([-w, w.take(interior, axis=1)], axis=1)
            net = np.bincount(self._net_bins, w.ravel(), 3 * m.n_cells).reshape(3, -1)
        else:
            cells = np.concatenate([m.edge_left, m.edge_right.take(interior)])
            net = np.empty((3, m.n_cells))
            for k, w in enumerate(edge_flux_global.T * m.edge_lengths):
                net[k] = np.bincount(cells, np.concatenate([-w, w.take(interior)]), m.n_cells)
        self.q = apply_update(self.q, (net * (dt / m.areas)).T, dt, self.params, self.cell_name)


def _distinct_rows(a: np.ndarray):
    """(rows, inverse): `a[rows]` are the distinct rows of the float array
    `a` and `a[rows][inverse]` equals `a`. Rows are compared by their bits,
    so +0.0 and -0.0 stay apart and a row's fit is its own to the bit."""
    bits = a.reshape(len(a), -1).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    ordered = bits[order]
    new = np.concatenate([[True], (ordered[1:] != ordered[:-1]).any(axis=1)])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def interior_edge_fluxes(field: MeshField, qL, qR) -> np.ndarray:
    """Rotated HLLC fluxes, global frame, on every edge (the boundary rows
    are invalid), as an (E, 3) view of (3, E) rows.

    One pass over component rows: the global-frame states are rotated into
    each edge's normal frame inline by `to_normal`, solved by `hllc_rows`
    and rotated back by `from_normal`, with the arithmetic of `rotate_state`,
    `hllc_flux` and `rotate_back`.
    """
    c, s = field.mesh.edge_cos, field.mesh.edge_sin
    hL, huL, hvL = qL.T
    hR, huR, hvR = qR.T
    f0, f1, f2 = hllc_rows(
        hL, *to_normal(huL, hvL, c, s), hR, *to_normal(huR, hvR, c, s), field.params.g
    )
    out = np.empty((3, len(c)))
    out[0] = f0
    from_normal(f1, f2, c, s, out=out[1:])
    return out.T

