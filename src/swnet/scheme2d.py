"""Second-order finite-volume scheme on unstructured triangular meshes.

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
from .riemann import hllc_flux


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

        # Stencil of each cell: its mesh neighbours, then its virtual ones in
        # slot order; virtual slot s is stored as neighbour -(s + 1).
        virtual = list(virtual or [])
        self.n_virtual = len(virtual)
        counts = np.count_nonzero(mesh.neighbors >= 0, axis=1)
        nbrs = np.concatenate([mesh.neighbors, np.full((T, len(virtual)), -1)], axis=1)
        pos = mesh.centroids[nbrs]  # padding entries are never read
        for slot, (cell, p) in enumerate(virtual):
            nbrs[cell, counts[cell]] = -(slot + 1)
            pos[cell, counts[cell]] = p
            counts[cell] += 1

        self._groups = []
        scale = float(np.sqrt(np.mean(mesh.areas)))
        for c in sorted(set(counts[counts >= 2].tolist())):
            cells = np.flatnonzero(counts == c)
            nbr = nbrs[cells, :c]
            offs = pos[cells, :c] - mesh.centroids[cells][:, None, :]
            if c == 3:
                M = np.concatenate([np.ones((len(cells), 3, 1)), offs], axis=2)
                det = np.linalg.det(M)
                good = np.abs(det) > 1e-12 * scale**2
                inv = np.zeros_like(M)
                if good.any():
                    inv[good] = np.linalg.inv(M[good])
                self._groups.append(("exact", cells, nbr, inv, good))
            else:
                G = np.einsum("kci,kcj->kij", offs, offs)
                det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
                good = np.abs(det) > 1e-12 * scale**4
                P = np.zeros((len(cells), 2, c))
                if good.any():
                    Ginv = np.linalg.inv(G[good])
                    P[good] = np.einsum("kij,kcj->kic", Ginv, offs[good])
                self._groups.append(("lsq", cells, nbr, P, good))

        # Vertex offsets from the centroid, for the limiter.
        self._vert_offs = mesh.vertices[mesh.triangles] - mesh.centroids[:, None, :]

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

    def _gather(self, nbr, virtual_values):
        vals = np.empty(nbr.shape + (3,))
        interior = nbr >= 0
        vals[interior] = self.q[nbr[interior]]
        if not np.all(interior):
            if virtual_values is None:
                raise ValueError("virtual neighbor values required but not given")
            vals[~interior] = virtual_values[-nbr[~interior] - 1]
        return vals

    def reconstruct(self, virtual_values=None):
        """Compute limited gradients; zero for cells with fewer than 2 neighbors."""
        self.grad_x[:] = 0.0
        self.grad_y[:] = 0.0
        if self.order < 2:
            return
        q = self.q
        qmin = q.copy()
        qmax = q.copy()
        for kind, cells, nbr, op, good in self._groups:
            vals = self._gather(nbr, virtual_values)
            if kind == "exact":
                coef = np.einsum("kij,kjv->kiv", op, vals)
                gx, gy = coef[:, 1, :], coef[:, 2, :]
            else:
                dvals = vals - q[cells][:, None, :]
                grad = np.einsum("kic,kcv->kiv", op, dvals)
                gx, gy = grad[:, 0, :], grad[:, 1, :]
            gx = np.where(good[:, None], gx, 0.0)
            gy = np.where(good[:, None], gy, 0.0)
            self.grad_x[cells] = gx
            self.grad_y[cells] = gy
            qmin[cells] = np.minimum(qmin[cells], vals.min(axis=1))
            qmax[cells] = np.maximum(qmax[cells], vals.max(axis=1))
        self._limit(qmin, qmax)

    def _limit(self, qmin, qmax):
        q = self.q
        phi = np.ones_like(q)
        for k in range(self._vert_offs.shape[1]):
            dq = (
                self.grad_x * self._vert_offs[:, k, 0][:, None]
                + self.grad_y * self._vert_offs[:, k, 1][:, None]
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(dq > 0.0, (qmax - q) / dq, 1.0)
                dn = np.where(dq < 0.0, (qmin - q) / dq, 1.0)
            cand = np.where(dq > 0.0, up, np.where(dq < 0.0, dn, 1.0))
            phi = np.minimum(phi, np.clip(cand, 0.0, 1.0))
        self.grad_x *= phi
        self.grad_y *= phi

    def edge_states(self, dt: float):
        """Evolved boundary-extrapolated states per edge, global frame.

        Returns (qL, qR); qR rows of boundary edges duplicate qL.
        """
        m = self.mesh
        right = np.where(m.edge_right >= 0, m.edge_right, m.edge_left)
        out = []
        for cells in (m.edge_left, right):
            d = m.edge_midpoints - m.centroids[cells]
            qf = (
                self.q[cells]
                + self.grad_x[cells] * d[:, 0][:, None]
                + self.grad_y[cells] * d[:, 1][:, None]
            )
            if self.order >= 2:
                qf = qf - 0.5 * dt * jacobian_dot(
                    qf, self.grad_x[cells], self.grad_y[cells], self.params
                )
            out.append(qf)
        return out[0], out[1]

    def update(self, edge_flux_global: np.ndarray, dt: float):
        """Apply per-unit-length global-frame edge fluxes (positive out of left)."""
        m = self.mesh
        net = np.zeros_like(self.q)
        w = edge_flux_global * m.edge_lengths[:, None]
        np.subtract.at(net, m.edge_left, w)
        interior = m.interior
        np.add.at(net, m.edge_right[interior], w[interior])
        dq = net * (dt / m.areas)[:, None]
        if self.params.friction_enabled and self.params.manning_n > 0.0:
            dq += dt * friction_source(self.q, self.params)
        self.q = self.q + dq
        if not np.isfinite(self.q).all():
            k = int(np.argmin(np.isfinite(self.q).all(axis=1)))
            raise NonFiniteError(f"non-finite state in 2D cell {k}")
        if np.any(self.q[:, 0] <= 0.0):
            k = int(np.argmin(self.q[:, 0]))
            raise PositivityError(f"negative depth {self.q[k, 0]:.3e} in 2D cell {k}")


def interior_edge_fluxes(field: MeshField, qL, qR) -> np.ndarray:
    """Rotated HLLC fluxes for all edges, global frame (boundary rows invalid)."""
    thetas = field.mesh.edge_thetas
    qhL = rotate_state(qL, thetas)
    qhR = rotate_state(qR, thetas)
    fhat = hllc_flux(qhL, qhR, field.params)
    return rotate_back(fhat, thetas)
