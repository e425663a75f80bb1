"""Junction treatments coupling 1D channels through local 2D elements.

Strategy A places a single junction-shaped finite volume at the junction;
strategy B replaces it with a small triangulated patch. Both exchange fluxes
with the adjacent 1D cells by solving rotated Riemann problems on the
coupling edges. By default one flux per coupling edge is computed and applied
to both sides, which conserves mass and edge-normal momentum exactly; the
two-pass variant (separate solves per side, as the per-side flux passes are
usually organized) is available for comparison. The coupling mode is fixed
when a junction is built.

Junction protocol. `JunctionA`, `JunctionB` and the algebraic
`simulation.PSFPJunction` expose the same members, so the network stepper
drives every junction the same way:

- `ends`: the attached (channel, end) keys;
- `set_uniform(h)`, `volume()`, `dt_bound()` (inf for a flux-only junction);
- `reconstruct(fields)`;
- `channel_neighbors(fields)`: per channel end, the junction-side stencil
  entry for the 1D end cell; `{}` when the junction has no cells;
- `compute_fluxes(fields, dt)` -> (edge fluxes or None, {end: axial flux});
- `update(edge_fluxes, dt)`.

The benchmark's tracer looks `reconstruct`, `channel_neighbors`,
`compute_fluxes` and `update` up in each class's own `__dict__`, so each
class defines them in its own body rather than inheriting them, and no
second name is bound to a traced function.

Frame conventions: the coupling edge normal points from the 2D element into
the channel. A channel attached at its "start" has sigma=+1 (edge frame and
channel frame coincide); attached at its "end", sigma=-1 (axial components
flip). Fluxes handed to channels are in the +s axial frame.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .geometry import JunctionGeometry, TriMesh
from .riemann import hllc_flux, wall_flux
from .scheme2d import MeshField, interior_edge_fluxes


def project_transverse(q: np.ndarray):
    """Rotate a cell's velocity onto the channel axis, zeroing the transverse part.

    The axial velocity magnitude becomes the full 2D speed with the sign of
    the axial component (sign of +0.0 used when the axial velocity vanishes).
    Returns (projected state, magnitude of the momentum change).
    """
    h, hu, hv = q
    speed_mom = np.hypot(hu, hv)
    hu_new = np.copysign(speed_mom, hu) if speed_mom > 0.0 else 0.0
    out = np.array([h, hu_new, 0.0])
    return out, float(np.hypot(hu_new - hu, hv))


def rotate_gradients(axial_slope: np.ndarray, alpha: float):
    """Map an axial conserved-variable slope to global-frame gradients (b, c).

    The momentum components rotate as a vector and the directional derivative
    along the channel axis projects with (cos a, sin a).
    """
    s_global = rotate_back(axial_slope, alpha)
    return np.cos(alpha) * s_global, np.sin(alpha) * s_global


@dataclass
class Coupling:
    """Binding of one coupling edge (or sub-edge) to a channel end."""

    channel: str
    end: str
    sigma: float
    alpha: float
    length: float
    cell_edge: int = -1  # mesh edge index (patch method only)


def _end_face_states(fields, ends, sigma, dt: float, params, order: int):
    """Evolved 1D face states at the junction-side faces of `ends`, (E, 3).

    Momenta are returned in the coupling edge frame (multiplied by the
    per-end sigma).
    """
    q = np.empty((len(ends), 3))
    slopes = np.empty((len(ends), 3))
    for k, (ch, end) in enumerate(ends):
        f = fields[ch]
        i = f.end_cell(end)
        half = 0.5 * f.ds[i]
        q[k] = f.q[i] + f.slopes[i] * (-half if end == "start" else half)
        slopes[k] = f.slopes[i]
    if order >= 2:
        q = q - 0.5 * dt * jacobian_dot(q, slopes, None, params)
    q[:, 1] *= sigma
    q[:, 2] *= sigma
    return q


def _two_pass(c: Coupling, theta, qhat, cell, d, fields, dt: float, params, order: int):
    """Paper-style separate per-side flux passes on one coupling edge.

    qhat is the evolved 2D face state in the edge frame (normal angle theta);
    cell = (q, grad_x, grad_y) is the 2D cell behind the edge and d the offset
    from its centroid to the edge midpoint. Returns the edge flux in the
    global frame and the axial flux for the channel.
    """
    f1d = fields[c.channel]
    i = f1d.end_cell(c.end)
    side = "left" if c.end == "start" else "right"
    # 2D-side pass: the 1D neighbor is expressed in the global frame and
    # evolved there with its rotated gradients.
    qg = rotate_back(f1d.face_state(i, side, dt, evolve=False), c.alpha)
    if order >= 2:
        b, cg = rotate_gradients(f1d.slopes[i], c.alpha)
        qg = qg - 0.5 * dt * jacobian_dot(qg, b, cg, params)
    fhat_2d = hllc_flux(qhat, rotate_state(qg, theta), params)
    edge_flux = rotate_back(fhat_2d, theta)

    # 1D-side pass: the 2D face state is rotated into the channel frame and
    # evolved along the axis.
    q, gx, gy = cell
    q2c = rotate_state(q + gx * d[0] + gy * d[1], c.alpha)
    if order >= 2:
        slope_n = rotate_state(gx * np.cos(c.alpha) + gy * np.sin(c.alpha), c.alpha)
        q2c = q2c - 0.5 * dt * jacobian_dot(q2c, slope_n, None, params)
    q1 = f1d.face_state(i, side, dt)
    if c.end == "start":
        return edge_flux, hllc_flux(q2c, q1, params)
    return edge_flux, hllc_flux(q1, q2c, params)


class JunctionA:
    """Single junction-shaped 2D finite volume."""

    strategy = "A"

    def __init__(
        self,
        jid: str,
        geometry: JunctionGeometry,
        couplings: list[Coupling],
        fields,
        params: PhysicalParams,
        order: int = 2,
        coupling_mode: str = "shared",
    ):
        self.id = jid
        self.geom = geometry
        self.couplings = couplings
        self.ends = [(c.channel, c.end) for c in couplings]
        self.params = params
        self.order = order
        self.coupling_mode = coupling_mode
        self.q = np.zeros(3)
        self.grad_x = np.zeros(3)
        self.grad_y = np.zeros(3)
        # Static per-edge arrays for the batched flux evaluation.
        self._thetas = np.array([e.theta for e in geometry.edges])
        self._lengths = np.array([e.length for e in geometry.edges])
        self._mid_off = np.array([e.midpoint - geometry.centroid for e in geometry.edges])
        self._wall = np.array([e.kind == "wall" for e in geometry.edges])
        self._coupling_rows = np.flatnonzero(~self._wall)
        self._sigma = np.array([c.sigma for c in couplings])
        self._alphas = np.array([c.alpha for c in couplings])
        self._vert_off = geometry.vertices - geometry.centroid
        # Static stencil of the adjacent 1D end cells: their indices, the
        # projected centroid distances along each channel axis, and the
        # pre-factored reconstruction operator.
        self._nbr_cells = [(c.channel, fields[c.channel].end_cell(c.end)) for c in couplings]
        pos = np.array([fields[ch].positions()[i] for ch, i in self._nbr_cells])
        self._nbr_dists = [
            abs(float(np.dot(geometry.centroid - p, fields[ch].channel.axis)))
            for p, (ch, _) in zip(pos, self._nbr_cells)
        ]
        offs = pos - geometry.centroid
        scale2 = geometry.area
        self._recon_op = None
        if len(offs) == 3:
            M = np.column_stack([np.ones(3), offs])
            if abs(np.linalg.det(M)) > 1e-12 * scale2:
                self._recon_op = ("exact", np.linalg.inv(M))
        elif len(offs) >= 2:
            G = offs.T @ offs
            det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
            if abs(det) > 1e-12 * scale2**2:
                self._recon_op = ("lsq", np.linalg.solve(G, offs.T))

    def set_uniform(self, h, u=0.0, v=0.0):
        self.q[:] = (h, h * u, h * v)

    def volume(self) -> float:
        return float(self.q[0] * self.geom.area)

    def dt_bound(self) -> float:
        return self.geom.incircle_diameter / float(max_wave_speed(self.q, self.params))

    def reconstruct(self, fields):
        self.grad_x[:] = 0.0
        self.grad_y[:] = 0.0
        q1 = np.array([fields[ch].q[i] for ch, i in self._nbr_cells])
        vals = rotate_back(q1, self._alphas)
        if self.order < 2:
            return
        if self._recon_op is not None:
            kind, op = self._recon_op
            if kind == "exact":
                coef = op @ vals
                self.grad_x, self.grad_y = coef[1], coef[2]
            else:
                grad = op @ (vals - self.q)
                self.grad_x, self.grad_y = grad[0], grad[1]
        self._limit(vals)

    def _limit(self, nbr_vals):
        qmin = np.minimum(self.q, nbr_vals.min(axis=0))
        qmax = np.maximum(self.q, nbr_vals.max(axis=0))
        dq = np.outer(self._vert_off[:, 0], self.grad_x) + np.outer(
            self._vert_off[:, 1], self.grad_y
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(dq > 0.0, (qmax - self.q) / dq, 1.0)
            dn = np.where(dq < 0.0, (qmin - self.q) / dq, 1.0)
        cand = np.where(dq > 0.0, up, np.where(dq < 0.0, dn, 1.0))
        phi = np.clip(cand, 0.0, 1.0).min(axis=0)
        self.grad_x *= phi
        self.grad_y *= phi

    def channel_neighbors(self, fields):
        """Per channel end: (junction state in channel frame, projected distance).

        The projected distance is the junction centroid to 1D cell center
        distance along the channel axis, the cross-dimensional stencil spacing.
        """
        qc = rotate_state(np.broadcast_to(self.q, (len(self.ends), 3)), self._alphas)
        return {key: (qc[k], self._nbr_dists[k]) for k, key in enumerate(self.ends)}

    def _face_values(self, dt):
        """Evolved boundary-extrapolated states at all edge midpoints, (E, 3)."""
        qf = (
            self.q
            + self._mid_off[:, 0][:, None] * self.grad_x
            + self._mid_off[:, 1][:, None] * self.grad_y
        )
        if self.order >= 2:
            b = np.broadcast_to(self.grad_x, qf.shape)
            c = np.broadcast_to(self.grad_y, qf.shape)
            qf = qf - 0.5 * dt * jacobian_dot(qf, b, c, self.params)
        return qf

    def compute_fluxes(self, fields, dt: float):
        """Edge fluxes for the polygon plus axial fluxes for the channel ends."""
        qhat = rotate_state(self._face_values(dt), self._thetas)
        fhat = np.empty_like(qhat)
        if self._wall.any():
            fhat[self._wall] = wall_flux(qhat[self._wall], self.params)
        rows = self._coupling_rows
        if self.coupling_mode == "shared":
            q1 = _end_face_states(fields, self.ends, self._sigma, dt, self.params, self.order)
            fc = hllc_flux(qhat[rows], q1, self.params)
            fhat[rows] = fc
            f_ch = fc.copy()
            f_ch[:, 0] *= self._sigma
        else:
            f_ch = np.empty((len(rows), 3))
            cell = (self.q, self.grad_x, self.grad_y)
            for k, (c, row) in enumerate(zip(self.couplings, rows)):
                theta = self._thetas[row]
                edge_flux, f_ch[k] = _two_pass(
                    c, theta, qhat[row], cell, self._mid_off[row], fields, dt,
                    self.params, self.order,
                )
                fhat[row] = rotate_state(edge_flux, theta)
        return rotate_back(fhat, self._thetas), dict(zip(self.ends, f_ch))

    def update(self, edge_fluxes: np.ndarray, dt: float):
        net = (self._lengths[:, None] * edge_fluxes).sum(axis=0)
        dq = -dt / self.geom.area * net
        if self.params.friction_enabled and self.params.manning_n > 0.0:
            dq = dq + dt * friction_source(self.q, self.params)
        self.q = self.q + dq
        if not np.isfinite(self.q).all():
            raise NonFiniteError(f"non-finite state in junction {self.id}")
        if self.q[0] <= 0.0:
            raise PositivityError(
                f"negative depth {self.q[0]:.3e} in junction {self.id}"
            )


class JunctionB:
    """Local 2D unstructured patch replacing the single junction element."""

    strategy = "B"

    def __init__(
        self,
        jid: str,
        mesh: TriMesh,
        couplings: list[Coupling],
        fields,
        params: PhysicalParams,
        order: int = 2,
        coupling_mode: str = "shared",
    ):
        self.id = jid
        self.mesh = mesh
        self.params = params
        self.order = order
        self.coupling_mode = coupling_mode
        self.couplings = couplings
        self._cpl_keys = [(c.channel, c.end) for c in couplings]
        self.ends = list(dict.fromkeys(self._cpl_keys))
        self._end_sigma = np.array([1.0 if end == "start" else -1.0 for _, end in self.ends])
        self._cpl_end = np.array([self.ends.index(key) for key in self._cpl_keys], dtype=int)
        # Each coupling sub-edge's boundary cell sees the adjacent 1D end cell
        # as an extra stencil neighbor.
        virtual = []
        for c in couplings:
            f = fields[c.channel]
            cell = int(mesh.edge_left[c.cell_edge])
            virtual.append((cell, f.positions()[f.end_cell(c.end)]))
        self.field = MeshField(mesh, params, order=order, virtual=virtual)
        # Per channel end: the patch cells along its coupling boundary, their
        # length weights, the projected distance of their weighted centroid
        # from the 1D end cell, and the channel axis angle.
        self._nbr_static = {}
        for key in self.ends:
            f = fields[key[0]]
            subs = [c for c in couplings if (c.channel, c.end) == key]
            w = np.array([c.length for c in subs])
            w = w / w.sum()
            cells = np.array([int(mesh.edge_left[c.cell_edge]) for c in subs])
            cen = w @ mesh.centroids[cells]
            dist = abs(float(np.dot(cen - f.positions()[f.end_cell(key[1])], f.channel.axis)))
            self._nbr_static[key] = (cells, w, dist, f.channel.axis_angle)
        # Batched views of the boundary: wall rows and coupling sub-edges,
        # the latter grouped so each channel end sees one flux accumulation.
        self._wall_edges = np.array(
            [e for e in mesh.boundary if mesh.edge_tags[e] == "wall"], dtype=int
        )
        self._cpl_edges = np.array([c.cell_edge for c in couplings], dtype=int)
        self._cpl_sigma = np.array([c.sigma for c in couplings])
        tagged = set(self._wall_edges) | set(self._cpl_edges)
        missing = [e for e in mesh.boundary if e not in tagged]
        if missing:
            raise ValueError(
                f"junction {jid}: patch boundary edges without wall/coupling tags"
            )

    @property
    def q(self):
        return self.field.q

    def set_uniform(self, h, u=0.0, v=0.0):
        self.field.set_uniform(h, u, v)

    def volume(self) -> float:
        return self.field.volume()

    def dt_bound(self) -> float:
        return self.field.dt_bound()

    def reconstruct(self, fields):
        vv = np.empty((len(self._cpl_keys), 3))
        for slot, (ch, end) in enumerate(self._cpl_keys):
            f = fields[ch]
            vv[slot] = rotate_back(f.q[f.end_cell(end)], f.channel.axis_angle)
        self.field.reconstruct(virtual_values=vv)

    def channel_neighbors(self, fields):
        """Per channel end: width-averaged boundary patch state in the channel frame.

        The stencil entry for each 1D end cell is the length-weighted average
        of the patch cells along that coupling boundary, at the projected
        distance of their weighted centroid.
        """
        out = {}
        for key, (cells, w, dist, alpha) in self._nbr_static.items():
            qavg = w @ self.field.q[cells]
            out[key] = (rotate_state(qavg, alpha), dist)
        return out

    def compute_fluxes(self, fields, dt: float):
        """Patch edge fluxes plus width-averaged axial fluxes for the channel ends."""
        m = self.mesh
        qL, qR = self.field.edge_states(dt)
        flux = interior_edge_fluxes(self.field, qL, qR)
        if len(self._wall_edges):
            th = m.edge_thetas[self._wall_edges]
            fh = wall_flux(rotate_state(qL[self._wall_edges], th), self.params)
            flux[self._wall_edges] = rotate_back(fh, th)

        edges = self._cpl_edges
        if self.coupling_mode == "shared":
            q1 = _end_face_states(
                fields, self.ends, self._end_sigma, dt, self.params, self.order
            )[self._cpl_end]
            th = m.edge_thetas[edges]
            fhat = hllc_flux(rotate_state(qL[edges], th), q1, self.params)
            flux[edges] = rotate_back(fhat, th)
            f_ch = fhat.copy()
            f_ch[:, 0] *= self._cpl_sigma
        else:
            f_ch = np.empty((len(edges), 3))
            fq, gx, gy = self.field.q, self.field.grad_x, self.field.grad_y
            for k, (c, e) in enumerate(zip(self.couplings, edges)):
                cell = int(m.edge_left[e])
                theta = m.edge_thetas[e]
                flux[e], f_ch[k] = _two_pass(
                    c, theta, rotate_state(qL[e], theta), (fq[cell], gx[cell], gy[cell]),
                    m.edge_midpoints[e] - m.centroids[cell], fields, dt,
                    self.params, self.order,
                )
        contrib = f_ch * m.edge_lengths[edges][:, None]
        end_fluxes = {}
        for key, row in zip(self._cpl_keys, contrib):
            end_fluxes[key] = end_fluxes.get(key, 0.0) + row
        return flux, {
            key: total / fields[key[0]].channel.width for key, total in end_fluxes.items()
        }

    def update(self, edge_fluxes: np.ndarray, dt: float):
        try:
            self.field.update(edge_fluxes, dt)
        except (PositivityError, NonFiniteError) as exc:
            raise type(exc)(f"junction {self.id}: {exc}") from exc
