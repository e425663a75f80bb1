"""Second-order finite-volume scheme on unstructured meshes of triangles and polygons.

Per-cell linear reconstruction from neighbor centroid differences (exact
three-neighbor solve, constrained least squares otherwise), Barth-Jespersen
limiting at the vertices, half-step evolution through the flux Jacobians, and
rotated HLLC edge fluxes. Also the building block for local 2D junction
patches, which may splice additional "virtual" stencil neighbors (the
adjacent 1D cells) into boundary cells.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    friction_source,
    jacobian_dot,
    max_wave_speed,
    rotate_back,
    rotate_state,
)
from .geometry import TriMesh
from .riemann import hllc_flux, wall_flux


class MeshField:
    """Conserved cell averages plus limited gradients on a TriMesh."""

    def __init__(self, mesh: TriMesh, params: PhysicalParams, order: int = 2, virtual=None):
        self.mesh = mesh
        self.params = params
        self.order = order
        T = mesh.n_cells
        self.q = np.zeros((T, 3))
        self.grad_x = np.zeros((T, 3))
        self.grad_y = np.zeros((T, 3))
        # Names a cell in the errors of `update`; a junction field names the
        # junction too.
        self.cell_name = "2D cell {}".format

        # Stencil of each cell: its mesh neighbours, then its virtual ones in
        # slot order; virtual slot s is stored as neighbour -(s + 1).
        virtual = list(virtual or [])
        self.n_virtual = len(virtual)
        counts = np.count_nonzero(mesh.neighbors >= 0, axis=1)
        nbrs = np.concatenate([mesh.neighbors, np.full((T, len(virtual)), -1)], axis=1)
        pos = mesh.centroids.take(nbrs, axis=0)  # padding entries are never read
        for slot, (cell, p) in enumerate(virtual):
            nbrs[cell, counts[cell]] = -(slot + 1)
            pos[cell, counts[cell]] = p
            counts[cell] += 1

        # Per stencil size: the cells, their neighbours and the two slope rows
        # of their reconstruction operator (rows 1-2 of the inverse of the
        # exact three-neighbour fit, or the least-squares operator).
        self._groups = []
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
                self._groups.append(("exact", cells, nbr, inv[:, 1:].copy(), good))
            else:
                G = np.einsum("kci,kcj->kij", offs, offs)
                det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
                good = np.abs(det) > 1e-12 * scale**4
                P = np.zeros((len(cells), 2, c))
                if good.any():
                    Ginv = np.linalg.inv(G[good])
                    P[good] = np.einsum("kij,kcj->kic", Ginv, offs[good])
                self._groups.append(("lsq", cells, nbr, P, good))

    def set_uniform(self, h, u=0.0, v=0.0):
        self.q[:, 0] = h
        self.q[:, 1] = h * u
        self.q[:, 2] = h * v

    def volume(self) -> float:
        return float(np.sum(self.q[:, 0] * self.mesh.areas))

    def dt_bound(self) -> float:
        """min over cells of incircle_diameter / wave_speed (no CFL factor)."""
        lam = max_wave_speed(self.q, self.params)
        return float(np.min(self.mesh.incircle_diameters / lam))

    def reconstruct(self, virtual_values=None):
        """Compute limited gradients; zero for cells with fewer than 2 neighbors.

        Summation order: each slope is accumulated over the operator columns
        in stencil order (mesh neighbours, then virtual ones), left to right,
        `op[:, r, 0] * v0 + op[:, r, 1] * v1 + ...`; a cell's bounds are the
        running minimum and maximum of its neighbours in the same order, then
        against its own value. Keeping this order keeps the gradients the
        same to the bit.
        """
        self.grad_x[:] = 0.0
        self.grad_y[:] = 0.0
        if self.order < 2:
            return
        q = self.q
        src = q
        if self.n_virtual:
            if virtual_values is None:
                raise ValueError("virtual neighbor values required but not given")
            # Virtual slot s is neighbour -(s + 1): the s-th row from the end.
            src = np.concatenate([q, virtual_values[::-1]])
        dmin = np.zeros_like(q)
        dmax = np.zeros_like(q)
        for kind, cells, nbr, op, good in self._groups:
            qc = q.take(cells, axis=0)
            vals = [src.take(nbr[:, j], axis=0) for j in range(nbr.shape[1])]
            terms = vals if kind == "exact" else [v - qc for v in vals]
            for i, grad in enumerate((self.grad_x, self.grad_y)):
                g = op[:, i, 0, None] * terms[0]
                for j in range(1, len(terms)):
                    g += op[:, i, j, None] * terms[j]
                g[~good] = 0.0
                grad[cells] = g
            lo, hi = vals[0], vals[0]
            for v in vals[1:]:
                lo = np.minimum(lo, v)
                hi = np.maximum(hi, v)
            dmin[cells] = np.minimum(qc, lo) - qc
            dmax[cells] = np.maximum(qc, hi) - qc
        self._limit(dmin, dmax)

    def _limit(self, dmin, dmax):
        """Barth-Jespersen: scale each gradient by the largest phi in [0, 1]
        that keeps its value at every vertex within [q + dmin, q + dmax].

        A vertex whose increment dq is zero (or NaN) allows phi = 1, so a
        padded polygon corner (zero offset) limits nothing. The minimum over
        the vertices is clipped once, which equals the minimum of the clipped
        candidates because clipping is monotone.
        """
        ox, oy = self.mesh.vertex_offsets[:, :, :, None].transpose(1, 0, 2, 3)
        dq = self.grad_x * ox + self.grad_y * oy
        rising = dq > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(rising, dmax, dmin) / dq
        np.copyto(cand, 1.0, where=~(rising | (dq < 0.0)))
        phi = np.clip(cand.min(axis=0), 0.0, 1.0, out=dmin)
        self.grad_x *= phi
        self.grad_y *= phi

    def edge_states(self, dt: float):
        """Evolved boundary-extrapolated states per edge, global frame.

        Returns (qL, qR); qR rows of boundary edges duplicate qL, and qR is
        qL when every edge is a boundary edge (single-cell junctions).
        """
        m = self.mesh
        sides = 2 if len(m.interior) else 1
        out = []
        for cells, (dx, dy) in zip(m.edge_cells[:sides], m.edge_offsets[:sides]):
            gx, gy = self.grad_x.take(cells, axis=0), self.grad_y.take(cells, axis=0)
            qf = self.q.take(cells, axis=0) + gx * dx[:, None] + gy * dy[:, None]
            if self.order >= 2:
                qf -= 0.5 * dt * jacobian_dot(qf, gx, gy, self.params)
            out.append(qf)
        return out[0], out[-1]

    def update(self, edge_flux_global: np.ndarray, dt: float):
        """Apply per-unit-length global-frame edge fluxes (positive out of left).

        Summation order: each cell's net flux is one running sum from zero
        that subtracts the fluxes of the edges it is left of, then adds those
        of the interior edges it is right of, each in edge order. Keeping
        this order keeps the updated states the same to the bit.
        """
        m = self.mesh
        interior = m.interior
        cells = np.concatenate([m.edge_left, m.edge_right.take(interior)])
        net = np.empty_like(self.q)
        for k, w in enumerate(edge_flux_global.T * m.edge_lengths):
            net[:, k] = np.bincount(cells, np.concatenate([-w, w.take(interior)]), m.n_cells)
        dq = net * (dt / m.areas)[:, None]
        if self.params.friction_enabled and self.params.manning_n > 0.0:
            dq += dt * friction_source(self.q, self.params)
        self.q = self.q + dq
        if not np.isfinite(self.q).all():
            k = int(np.argmin(np.isfinite(self.q).all(axis=1)))
            raise NonFiniteError(f"non-finite state in {self.cell_name(k)}")
        if np.any(self.q[:, 0] <= 0.0):
            k = int(np.argmin(self.q[:, 0]))
            raise PositivityError(f"negative depth {self.q[k, 0]:.3e} in {self.cell_name(k)}")


def interior_edge_fluxes(field: MeshField, qL, qR, edges=slice(None)) -> np.ndarray:
    """Rotated HLLC fluxes, global frame, on `edges` (default all, where the
    boundary rows are invalid)."""
    thetas = field.mesh.edge_thetas[edges]
    qhL = rotate_state(qL[edges], thetas)
    qhR = rotate_state(qR[edges], thetas)
    fhat = hllc_flux(qhL, qhR, field.params)
    return rotate_back(fhat, thetas)


def boundary_edge_fluxes(mesh: TriMesh, qL, edges, params: PhysicalParams, ghost=None):
    """Global-frame fluxes on boundary `edges`: wall fluxes, or HLLC fluxes
    against `ghost(qhat)`, from the inner states qhat rotated into each
    edge's outward-normal frame."""
    th = mesh.edge_thetas[edges]
    qhat = rotate_state(qL[edges], th)
    fhat = wall_flux(qhat, params) if ghost is None else hllc_flux(qhat, ghost(qhat), params)
    return rotate_back(fhat, th)
