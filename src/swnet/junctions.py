"""Junction treatments coupling 1D channels through local 2D elements.

Strategy A places a single junction-shaped finite volume at the junction;
strategy B replaces it with a small triangulated patch. Both exchange fluxes
with the adjacent 1D cells by solving rotated Riemann problems on the
coupling edges. By default one flux per coupling edge is computed and applied
to both sides, which conserves mass and edge-normal momentum exactly; the
two-pass variant (separate solves per side, as the per-side flux passes are
usually organized) is available for comparison. The coupling mode is fixed
when a junction is built.

`JunctionA` holds every Method-A junction of a network as one batch: states
(J, 3), reconstruction operators (J, 2, Kmax), vertex offsets (J, Vmax, 2)
zero-padded so padded vertices limit nothing, and one flat list of polygon
edges, so each stage of a step is one numpy call for all of them. The
simulation lists each Method-A junction as a `JunctionAView` of the batch.
`JunctionB` and the algebraic `simulation.PSFPJunction` are one object per
junction.

Junction protocol. `JunctionA`, `JunctionB` and `simulation.PSFPJunction`
expose the same members, so the network stepper drives them the same way.
Channel ends are the end numbers of the network's `scheme1d.ChannelField`:

- `ends`: the attached (channel, end) keys;
- `volume()`, `dt_bound()` (inf for a flux-only junction);
- `reconstruct(field)`;
- `channel_neighbors(field)` -> (ends, states, distances): the junction-side
  stencil entry of each adjacent 1D end cell, in the channel frame, at the
  projected centroid distance beyond the end face; empty arrays when the
  junction has no cells;
- `compute_fluxes(field, dt)` -> (edge fluxes or None, (ends, axial fluxes));
  it reads the evolved face states of the field's last `face_state` call;
- `update(edge_fluxes, dt)`.

The per-junction objects (`JunctionAView`, `JunctionB`, `PSFPJunction`) also
have `id`, `strategy`, `ends` and `set_uniform(h)`.

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
from .scheme2d import MeshField, boundary_edge_fluxes, interior_edge_fluxes


def project_transverse(q: np.ndarray):
    """Rotate cell velocities onto the channel axis, zeroing the transverse part.

    The axial velocity magnitude becomes the full 2D speed with the sign of
    the axial component (sign of +0.0 used when the axial velocity vanishes).
    q is (..., 3). Returns (projected states, magnitudes of the momentum change).
    """
    h, hu, hv = q[..., 0], q[..., 1], q[..., 2]
    speed_mom = np.hypot(hu, hv)
    hu_new = np.where(speed_mom > 0.0, np.copysign(speed_mom, hu), 0.0)
    out = np.stack([h, hu_new, np.zeros_like(h)], axis=-1)
    return out, np.hypot(hu_new - hu, hv)


def rotate_gradients(axial_slope: np.ndarray, alpha):
    """Map axial conserved-variable slopes to global-frame gradients (b, c).

    The momentum components rotate as a vector and the directional derivative
    along the channel axis projects with (cos a, sin a). Broadcasts over a
    leading axis of slopes (..., 3) and angles (...).
    """
    s_global = rotate_back(axial_slope, alpha)
    return np.cos(alpha)[..., None] * s_global, np.sin(alpha)[..., None] * s_global


@dataclass
class Coupling:
    """Binding of one coupling edge (or sub-edge) to a channel end."""

    channel: str
    end: str
    sigma: float
    alpha: float
    length: float
    cell_edge: int = -1  # mesh edge index (patch method only)


def _coupling_states(field, ends, sigma):
    """Evolved 1D face states at the junction-side faces of `ends`, (E, 3),
    with momenta in the coupling edge frame (multiplied by sigma)."""
    q = field.faces[field.end_slot[ends]]
    q[:, 1:] *= sigma[:, None]
    return q


def _two_pass(field, ends, alpha, theta, qhat, cell, d, dt: float, params, order: int):
    """Paper-style separate per-side flux passes on coupling edges, batched.

    qhat holds the evolved 2D face states in the edge frames (normal angles
    theta); cell = (q, grad_x, grad_y) are the 2D cells behind the edges and
    d the offsets from their centroids to the edge midpoints. Returns the
    edge fluxes in the global frame and the axial fluxes for the channels.
    """
    # 2D-side pass: the 1D neighbor is expressed in the global frame and
    # evolved there with its rotated gradients.
    qg = rotate_back(field.end_states(ends), alpha)
    if order >= 2:
        b, cg = rotate_gradients(field.slopes[field.end_cell[ends]], alpha)
        qg = qg - 0.5 * dt * jacobian_dot(qg, b, cg, params)
    edge_flux = rotate_back(hllc_flux(qhat, rotate_state(qg, theta), params), theta)

    # 1D-side pass: the 2D face state is rotated into the channel frame and
    # evolved along the axis.
    q, gx, gy = cell
    q2c = rotate_state(q + gx * d[:, 0, None] + gy * d[:, 1, None], alpha)
    if order >= 2:
        slope_n = rotate_state(
            gx * np.cos(alpha)[:, None] + gy * np.sin(alpha)[:, None], alpha
        )
        q2c = q2c - 0.5 * dt * jacobian_dot(q2c, slope_n, None, params)
    q1 = field.faces[field.end_slot[ends]]
    start = (field.end_sign[ends] < 0.0)[:, None]
    return edge_flux, hllc_flux(np.where(start, q2c, q1), np.where(start, q1, q2c), params)


class JunctionA:
    """Every single-cell junction-shaped 2D finite volume of a network, batched."""

    strategy = "A"

    def __init__(
        self,
        junctions: list[tuple[str, JunctionGeometry, list[Coupling]]],
        field,
        params: PhysicalParams,
        order: int = 2,
        coupling_mode: str = "shared",
    ):
        """`junctions` lists (id, polygon, couplings) per junction; `field`
        is the network's ChannelField."""
        J = len(junctions)
        geoms = [g for _, g, _ in junctions]
        cpls = [c for _, _, c in junctions]
        self.ids = [jid for jid, _, _ in junctions]
        self.params = params
        self.order = order
        self.coupling_mode = coupling_mode
        self.couplings = [c for cs in cpls for c in cs]
        self.ends = [(c.channel, c.end) for c in self.couplings]
        self.q = np.zeros((J, 3))
        self.grad_x = np.zeros((J, 3))
        self.grad_y = np.zeros((J, 3))
        self._area = np.array([g.area for g in geoms])
        self._rho = np.array([g.incircle_diameter for g in geoms])
        centroids = np.array([g.centroid for g in geoms])

        # All polygon edges in one list; each junction's edges are contiguous.
        n_edges = [len(g.edges) for g in geoms]
        self._edge_start = np.concatenate([[0], np.cumsum(n_edges)[:-1]])
        self._edge_j = np.repeat(np.arange(J), n_edges)
        edges = [e for g in geoms for e in g.edges]
        self._thetas = np.array([e.theta for e in edges])
        self._lengths = np.array([e.length for e in edges])
        self._mid_off = np.array([e.midpoint for e in edges]) - centroids[self._edge_j]
        wall = np.array([e.kind == "wall" for e in edges])
        self._wall_rows = np.flatnonzero(wall)
        self._cpl_rows = np.flatnonzero(~wall)  # in coupling order

        # Couplings, flat; the static stencil of the adjacent 1D end cells:
        # their cells, the projected centroid distances along each channel
        # axis, and the junction and slot each fills.
        n_cpl = [len(cs) for cs in cpls]
        self._cpl_j = np.repeat(np.arange(J), n_cpl)
        self._cpl_slot = np.arange(len(self.couplings)) - np.repeat(
            np.cumsum(n_cpl) - n_cpl, n_cpl
        )
        self._cpl_ends = np.array(
            [field.end_index(c.channel, c.end) for c in self.couplings], dtype=int
        )
        self._cpl_cells = field.end_cell[self._cpl_ends]
        self._sigma = np.array([c.sigma for c in self.couplings])
        self._alphas = np.array([c.alpha for c in self.couplings])
        axes = np.array([field.channels[field.index[c.channel]].axis for c in self.couplings])
        offs = field.positions(self._cpl_cells) - centroids[self._cpl_j]
        self._nbr_dists = np.abs(np.sum(-offs * axes, axis=1))

        # Pre-factored reconstruction operators, zero-padded to Kmax
        # neighbors: with three neighbors the exact fit inv(M)[1:3] @ vals,
        # otherwise least squares on vals - q ("lsq subtracts q"). A
        # degenerate stencil keeps a zero operator and so zero gradients.
        self._kmax = max(n_cpl)
        self._recon = np.zeros((J, 2, self._kmax))
        self._lsq = np.zeros(J)
        for k, g in enumerate(geoms):
            o = offs[self._cpl_j == k]
            if len(o) == 3:
                M = np.column_stack([np.ones(3), o])
                if abs(np.linalg.det(M)) > 1e-12 * g.area:
                    self._recon[k, :, :3] = np.linalg.inv(M)[1:3]
            elif len(o) >= 2:
                G = o.T @ o
                det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
                if abs(det) > 1e-12 * g.area**2:
                    self._recon[k, :, : len(o)] = np.linalg.solve(G, o.T)
                    self._lsq[k] = 1.0
        vmax = max(len(g.vertices) for g in geoms)
        self._vert_off = np.zeros((J, vmax, 2))
        for k, g in enumerate(geoms):
            self._vert_off[k, : len(g.vertices)] = g.vertices - g.centroid

        self.junctions = [
            JunctionAView(self, k, jid, g, cs) for k, (jid, g, cs) in enumerate(junctions)
        ]

    def volume(self) -> float:
        return float(np.sum(self.q[:, 0] * self._area))

    def dt_bound(self) -> float:
        return float(np.min(self._rho / max_wave_speed(self.q, self.params)))

    def reconstruct(self, field):
        if self.order < 2:
            self.grad_x = np.zeros_like(self.q)
            self.grad_y = np.zeros_like(self.q)
            return
        # Neighbor values per junction, padded with the junction's own state.
        vals = np.repeat(self.q[:, None, :], self._kmax, axis=1)
        vals[self._cpl_j, self._cpl_slot] = rotate_back(
            field.q[self._cpl_cells], self._alphas
        )
        grad = np.einsum(
            "jdk,jkv->jdv", self._recon, vals - self._lsq[:, None, None] * self.q[:, None, :]
        )
        self.grad_x, self.grad_y = grad[:, 0], grad[:, 1]
        self._limit(vals)

    def _limit(self, nbr_vals):
        q = self.q[:, None, :]
        qmin = np.minimum(q, nbr_vals.min(axis=1, keepdims=True))
        qmax = np.maximum(q, nbr_vals.max(axis=1, keepdims=True))
        dq = (
            self._vert_off[:, :, 0, None] * self.grad_x[:, None, :]
            + self._vert_off[:, :, 1, None] * self.grad_y[:, None, :]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(dq > 0.0, (qmax - q) / dq, 1.0)
            dn = np.where(dq < 0.0, (qmin - q) / dq, 1.0)
        cand = np.where(dq > 0.0, up, np.where(dq < 0.0, dn, 1.0))
        phi = np.clip(cand, 0.0, 1.0).min(axis=1)
        self.grad_x *= phi
        self.grad_y *= phi

    def channel_neighbors(self, field):
        """Per coupling: the junction state in the channel frame and the
        junction centroid to 1D cell center distance along the channel axis,
        the cross-dimensional stencil spacing."""
        qc = rotate_state(self.q[self._cpl_j], self._alphas)
        return self._cpl_ends, qc, self._nbr_dists

    def compute_fluxes(self, field, dt: float):
        """Fluxes on every polygon edge plus axial fluxes for the channel ends."""
        e = self._edge_j
        gx, gy = self.grad_x[e], self.grad_y[e]
        qf = self.q[e] + self._mid_off[:, 0, None] * gx + self._mid_off[:, 1, None] * gy
        if self.order >= 2:
            qf = qf - 0.5 * dt * jacobian_dot(qf, gx, gy, self.params)
        qhat = rotate_state(qf, self._thetas)
        fhat = np.empty_like(qhat)
        if len(self._wall_rows):
            fhat[self._wall_rows] = wall_flux(qhat[self._wall_rows], self.params)
        rows = self._cpl_rows
        if self.coupling_mode == "shared":
            q1 = _coupling_states(field, self._cpl_ends, self._sigma)
            fc = hllc_flux(qhat[rows], q1, self.params)
            fhat[rows] = fc
            f_ch = fc.copy()
            f_ch[:, 0] *= self._sigma
        else:
            j = self._cpl_j
            edge_flux, f_ch = _two_pass(
                field, self._cpl_ends, self._alphas, self._thetas[rows], qhat[rows],
                (self.q[j], self.grad_x[j], self.grad_y[j]), self._mid_off[rows], dt,
                self.params, self.order,
            )
            fhat[rows] = rotate_state(edge_flux, self._thetas[rows])
        return rotate_back(fhat, self._thetas), (self._cpl_ends, f_ch)

    def update(self, edge_fluxes: np.ndarray, dt: float):
        net = np.add.reduceat(self._lengths[:, None] * edge_fluxes, self._edge_start, axis=0)
        dq = (-dt / self._area)[:, None] * net
        if self.params.friction_enabled and self.params.manning_n > 0.0:
            dq = dq + dt * friction_source(self.q, self.params)
        self.q = self.q + dq
        if not np.isfinite(self.q).all():
            k = int(np.argmin(np.isfinite(self.q).all(axis=1)))
            raise NonFiniteError(f"non-finite state in junction {self.ids[k]}")
        if (self.q[:, 0] <= 0.0).any():
            k = int(np.argmin(self.q[:, 0]))
            raise PositivityError(
                f"negative depth {self.q[k, 0]:.3e} in junction {self.ids[k]}"
            )


class JunctionAView:
    """One junction of a `JunctionA` batch.

    `q` slices the batch's states on every access, so it follows the batch
    through its updates and through `copy.deepcopy`.
    """

    strategy = "A"

    def __init__(self, batch: JunctionA, k: int, jid: str, geometry, couplings):
        self.batch = batch
        self.id = jid
        self.geom = geometry
        self.couplings = couplings
        self.ends = [(c.channel, c.end) for c in couplings]
        self._k = k

    @property
    def q(self) -> np.ndarray:
        return self.batch.q[self._k]

    def set_uniform(self, h, u=0.0, v=0.0):
        self.batch.q[self._k] = (h, h * u, h * v)

    def volume(self) -> float:
        return float(self.q[0] * self.geom.area)

    def dt_bound(self) -> float:
        lam = float(max_wave_speed(self.q, self.batch.params))
        return self.geom.incircle_diameter / lam


class JunctionB:
    """Local 2D unstructured patch replacing the single junction element."""

    strategy = "B"

    def __init__(
        self,
        jid: str,
        mesh: TriMesh,
        couplings: list[Coupling],
        field,
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
        cpl_keys = [(c.channel, c.end) for c in couplings]
        self.ends = list(dict.fromkeys(cpl_keys))
        self._ends = np.array([field.end_index(*key) for key in self.ends], dtype=int)
        self._end_sigma = -field.end_sign[self._ends]
        self._end_widths = np.array([field.channels[field.index[ch]].width for ch, _ in self.ends])
        self._cpl_end = np.array([self.ends.index(key) for key in cpl_keys], dtype=int)
        self._cpl_cells = field.end_cell[self._ends][self._cpl_end]
        self._cpl_alpha = np.array([c.alpha for c in couplings])
        self._cpl_edges = np.array([c.cell_edge for c in couplings], dtype=int)
        self._cpl_sigma = np.array([c.sigma for c in couplings])
        # Each coupling sub-edge's boundary cell sees the adjacent 1D end cell
        # as an extra stencil neighbor.
        end_pos = field.positions(field.end_cell[self._ends])
        virtual = list(zip(mesh.edge_left[self._cpl_edges], end_pos[self._cpl_end]))
        self.patch = MeshField(mesh, params, order=order, virtual=virtual)
        # Per channel end: the patch cells along its coupling boundary, their
        # length weights, the projected distance of their weighted centroid
        # from the 1D end cell, and the channel axis angle.
        self._nbr_cells = []
        dists = []
        for k, key in enumerate(self.ends):
            axis = field.channels[field.index[key[0]]].axis
            subs = [c for c in couplings if (c.channel, c.end) == key]
            w = np.array([c.length for c in subs])
            w = w / w.sum()
            cells = np.array([int(mesh.edge_left[c.cell_edge]) for c in subs])
            cen = w @ mesh.centroids[cells]
            dists.append(abs(float(np.dot(cen - end_pos[k], axis))))
            self._nbr_cells.append((cells, w))
        self._nbr_dists = np.array(dists)
        self._end_alpha = self._cpl_alpha[[cpl_keys.index(key) for key in self.ends]]
        self._wall_edges = mesh.boundary_edges_by_tag("wall")
        tagged = set(self._wall_edges) | set(self._cpl_edges)
        missing = [e for e in mesh.boundary if e not in tagged]
        if missing:
            raise ValueError(
                f"junction {jid}: patch boundary edges without wall/coupling tags"
            )

    @property
    def q(self):
        return self.patch.q

    def set_uniform(self, h, u=0.0, v=0.0):
        self.patch.set_uniform(h, u, v)

    def volume(self) -> float:
        return self.patch.volume()

    def dt_bound(self) -> float:
        return self.patch.dt_bound()

    def reconstruct(self, field):
        vv = rotate_back(field.q[self._cpl_cells], self._cpl_alpha)
        self.patch.reconstruct(virtual_values=vv)

    def channel_neighbors(self, field):
        """Per channel end: width-averaged boundary patch state in the channel frame.

        The stencil entry for each 1D end cell is the length-weighted average
        of the patch cells along that coupling boundary, at the projected
        distance of their weighted centroid.
        """
        qavg = np.array([w @ self.patch.q[cells] for cells, w in self._nbr_cells])
        return self._ends, rotate_state(qavg, self._end_alpha), self._nbr_dists

    def compute_fluxes(self, field, dt: float):
        """Patch edge fluxes plus width-averaged axial fluxes for the channel ends."""
        m = self.mesh
        qL, qR = self.patch.edge_states(dt)
        flux = interior_edge_fluxes(self.patch, qL, qR)
        if len(self._wall_edges):
            flux[self._wall_edges] = boundary_edge_fluxes(m, qL, self._wall_edges, self.params)

        edges = self._cpl_edges
        th = m.edge_thetas[edges]
        if self.coupling_mode == "shared":
            q1 = _coupling_states(field, self._ends, self._end_sigma)[self._cpl_end]
            fhat = hllc_flux(rotate_state(qL[edges], th), q1, self.params)
            flux[edges] = rotate_back(fhat, th)
            f_ch = fhat.copy()
            f_ch[:, 0] *= self._cpl_sigma
        else:
            cells = m.edge_left[edges]
            pf = self.patch
            flux[edges], f_ch = _two_pass(
                field, self._ends[self._cpl_end], self._cpl_alpha, th,
                rotate_state(qL[edges], th), (pf.q[cells], pf.grad_x[cells], pf.grad_y[cells]),
                m.edge_offsets[0][:, edges].T, dt, self.params, self.order,
            )
        totals = np.zeros((len(self.ends), 3))
        np.add.at(totals, self._cpl_end, f_ch * m.edge_lengths[edges][:, None])
        return flux, (self._ends, totals / self._end_widths[:, None])

    def update(self, edge_fluxes: np.ndarray, dt: float):
        try:
            self.patch.update(edge_fluxes, dt)
        except (PositivityError, NonFiniteError) as exc:
            raise type(exc)(f"junction {self.id}: {exc}") from exc
