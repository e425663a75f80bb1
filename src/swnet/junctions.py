"""The 2D junction cells of a network: Methods A and B as one finite-volume field.

Methods A and B solve the 2D shallow-water equations on the junction region
and differ only in how finely it is meshed: A uses one junction-shaped
polygon cell, B a fan-refined triangular patch. `JunctionField` holds every
A and B junction of a network as one `scheme2d.MeshField` on one mesh of
their cells, junction after junction (`meshing.disjoint_union`). Each step
is then one call per stage for all of them: reconstruction, the channel
stencil entries, the edge fluxes and the update.

The field exchanges fluxes with the adjacent 1D cells by solving rotated
Riemann problems on the coupling edges (a B patch splits each channel's
coupling edge into sub-edges). By default one flux per coupling edge is
computed and applied to both sides, which conserves mass and edge-normal
momentum exactly; the two-pass variant (separate solves per side, as the
per-side flux passes are usually organized) is available for comparison. The
coupling mode is fixed when the field is built.

The network stepper calls, in channel end numbers of the network's
`scheme1d.ChannelField`:

- `reconstruct(field)`;
- `channel_neighbors(field)` -> (ends, states, distances): per channel end,
  the length-weighted average of the junction cells along its coupling
  edges, in the channel frame, at the projected distance of their weighted
  centroid beyond the end face;
- `compute_fluxes(field, dt)` -> (edge fluxes, (ends, axial fluxes)); it
  reads the evolved face states of the field's last `face_state` call;
- `update(edge_fluxes, dt)`, whose errors name the junction and its cell;
- `volume()`, `dt_bound()` and `ends`.

`junctions` lists one `JunctionView` per junction: `id`, `strategy`, `ends`,
its polygon `geom`, `q` (its rows of the field's states), `set_uniform`,
`volume` and `dt_bound`; a Method-B view also has its patch `mesh`.

The benchmark's tracer looks `reconstruct`, `channel_neighbors`,
`compute_fluxes` and `update` up in the own `__dict__` of the classes
`JunctionA` and `JunctionB`, which were the two implementations before they
merged; both names are bound to `JunctionField` until the benchmark binds
the protocol instead (ROADMAP item 1 drops the aliases).

Frame conventions: the coupling edge normal points from the 2D cell into
the channel. A channel attached at its "start" has sigma=+1 (edge frame and
channel frame coincide); attached at its "end", sigma=-1 (axial components
flip). Fluxes handed to channels are in the +s axial frame.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import PhysicalParams, jacobian_dot, max_wave_speed, rotate_back, rotate_state
from .geometry import TriMesh
from .riemann import hllc_flux
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


class JunctionField:
    """Every Method-A polygon and Method-B patch of a network, stepped as one field."""

    def __init__(
        self,
        junctions: list,
        mesh: TriMesh,
        field,
        params: PhysicalParams,
        order: int = 2,
        coupling_mode: str = "shared",
    ):
        """`junctions` lists (id, strategy, polygon, patch mesh or None for a
        single polygon cell) per junction, in the order of their cells in
        `mesh`; `field` is the network's ChannelField."""
        self.mesh = mesh
        self.params = params
        self.order = order
        self.coupling_mode = coupling_mode
        n_cells = [1 if patch is None else patch.n_cells for *_, patch in junctions]
        self._first_cell = np.cumsum([0] + n_cells)
        junction_of = np.repeat(np.arange(len(junctions)), n_cells)

        # Coupling edges (or sub-edges) in edge order; the channel ends in
        # order of their first coupling edge, so junction after junction.
        edges = np.array([e for e in mesh.boundary if mesh.edge_tags[e].startswith("coupling:")])
        keys = [tuple(mesh.edge_tags[e].split(":")[1:]) for e in edges]
        self.ends = list(dict.fromkeys(keys))
        slot = {key: k for k, key in enumerate(self.ends)}
        self._cpl_edges = edges
        self._cpl_end = np.array([slot[key] for key in keys], dtype=int)
        self._ends = np.array([field.end_index(*key) for key in self.ends], dtype=int)
        self._end_sigma = -field.end_sign[self._ends]
        self._cpl_sigma = self._end_sigma[self._cpl_end]
        chans = [field.channels[field.index[ch]] for ch, _ in self.ends]
        self._end_widths = np.array([ch.width for ch in chans])
        self._end_alpha = np.array([ch.axis_angle for ch in chans])
        self._cpl_alpha = self._end_alpha[self._cpl_end]
        self._cpl_cells = field.end_cell[self._ends][self._cpl_end]
        self._wall_edges = mesh.boundary_edges_by_tag("wall")
        # Shared coupling solves the wall and coupling edges in one HLLC call.
        self._outer_edges = np.concatenate([self._wall_edges, edges])

        # Each coupling edge's cell sees the adjacent 1D end cell as an extra
        # stencil neighbour.
        end_pos = field.positions(field.end_cell[self._ends])
        virtual = list(zip(mesh.edge_left[edges], end_pos[self._cpl_end]))
        self.mesh_field = MeshField(mesh, params, order=order, virtual=virtual)
        ids = [jid for jid, *_ in junctions]
        self.mesh_field.cell_name = partial(_cell_name, ids, self._first_cell)

        # Per channel end: the cells along its coupling edges and their
        # length weights, grouped by the number of edges, so that each group
        # averages with one stacked product; the projected distance of their
        # weighted centroid from the 1D end cell.
        by_end = np.argsort(self._cpl_end, kind="stable")
        counts = np.bincount(self._cpl_end, minlength=len(self.ends))
        first = np.cumsum(counts) - counts
        axes = np.array([ch.axis for ch in chans])
        self._nbr_groups = []
        self._nbr_dists = np.empty(len(self.ends))
        for n in np.unique(counts):
            group = np.flatnonzero(counts == n)
            sub = edges[by_end[first[group, None] + np.arange(n)]]
            lengths = mesh.edge_lengths[sub]
            w = (lengths / lengths.sum(axis=1, keepdims=True))[:, None, :]
            cells = mesh.edge_left[sub]
            cen = np.matmul(w, mesh.centroids[cells])
            d = np.matmul(cen - end_pos[group, None, :], axes[group, :, None])
            self._nbr_dists[group] = np.abs(d[:, 0, 0])
            self._nbr_groups.append((group, cells, w))

        end_junction = junction_of[mesh.edge_left[edges[by_end[first]]]]
        self.junctions = [
            JunctionView(
                self.mesh_field, slice(self._first_cell[k], self._first_cell[k + 1]),
                jid, strategy, geom, [self.ends[e] for e in np.flatnonzero(end_junction == k)],
                patch,
            )
            for k, (jid, strategy, geom, patch) in enumerate(junctions)
        ]

    def volume(self) -> float:
        return sum(j.volume() for j in self.junctions)

    def dt_bound(self) -> float:
        return self.mesh_field.dt_bound()

    def reconstruct(self, field):
        vv = rotate_back(field.q[self._cpl_cells], self._cpl_alpha)
        self.mesh_field.reconstruct(virtual_values=vv)

    def channel_neighbors(self, field):
        """Per channel end: the width-averaged junction state along its
        coupling edges in the channel frame, and its stencil distance."""
        q = self.mesh_field.q
        qavg = np.empty((len(self.ends), 3))
        for group, cells, w in self._nbr_groups:
            qavg[group] = np.matmul(w, q[cells])[:, 0]
        return self._ends, rotate_state(qavg, self._end_alpha), self._nbr_dists

    def compute_fluxes(self, field, dt: float):
        """Edge fluxes plus width-averaged axial fluxes for the channel ends."""
        m = self.mesh
        qL, qR = self.mesh_field.edge_states(dt)
        flux = np.empty_like(qL)
        if len(m.interior):
            flux[m.interior] = interior_edge_fluxes(self.mesh_field, qL, qR, m.interior)

        edges = self._cpl_edges
        if self.coupling_mode == "shared":
            # One Riemann solve over the wall edges, against their mirrored
            # states as in `wall_flux`, and the coupling edges, against the
            # evolved 1D face states at the junction-side faces with momenta
            # in the coupling edge frame.
            nw = len(self._wall_edges)
            th = m.edge_thetas[self._outer_edges]
            qhat = rotate_state(qL[self._outer_edges], th)
            q1 = field.faces[field.end_slot[self._ends]]
            q1[:, 1:] *= self._end_sigma[:, None]
            mirror = qhat[:nw].copy()
            mirror[:, 1] = -mirror[:, 1]
            fhat = hllc_flux(qhat, np.concatenate([mirror, q1[self._cpl_end]]), self.params)
            fhat[:nw, 0] = 0.0
            fhat[:nw, 2] = 0.0
            flux[self._outer_edges] = rotate_back(fhat, th)
            f_ch = fhat[nw:]
            f_ch[:, 0] *= self._cpl_sigma
        else:
            if len(self._wall_edges):
                flux[self._wall_edges] = boundary_edge_fluxes(m, qL, self._wall_edges, self.params)
            th = m.edge_thetas[edges]
            cells = m.edge_left[edges]
            c = self.mesh_field
            flux[edges], f_ch = _two_pass(
                field, self._ends[self._cpl_end], self._cpl_alpha, th,
                rotate_state(qL[edges], th), (c.q[cells], c.grad_x[cells], c.grad_y[cells]),
                m.edge_offsets[0][:, edges].T, dt, self.params, self.order,
            )
        totals = np.zeros((len(self.ends), 3))
        np.add.at(totals, self._cpl_end, f_ch * m.edge_lengths[edges][:, None])
        return flux, (self._ends, totals / self._end_widths[:, None])

    def update(self, edge_fluxes: np.ndarray, dt: float):
        self.mesh_field.update(edge_fluxes, dt)


# The benchmark's tracer binds these two names (see the module docstring).
JunctionA = JunctionB = JunctionField


def _cell_name(ids, first_cell, k) -> str:
    j = np.searchsorted(first_cell, k, side="right") - 1
    return f"junction {ids[j]}, 2D cell {k - first_cell[j]}"


class JunctionView:
    """One junction of a `JunctionField`: rows `rows` of its cell states.

    `q` slices the field's states on every access, so it follows the field
    through its updates and through `copy.deepcopy`. A view refers to the
    field's `MeshField`, not to the `JunctionField` that lists it, so that a
    released network frees its arrays without waiting for the cycle
    collector.
    """

    def __init__(self, cells: MeshField, rows: slice, jid, strategy, geom, ends, patch=None):
        self.id = jid
        self.strategy = strategy
        self.geom = geom
        self.ends = ends
        self._cells = cells
        self._rows = rows
        if patch is not None:
            self.mesh = patch

    @property
    def q(self) -> np.ndarray:
        return self._cells.q[self._rows]

    def set_uniform(self, h, u=0.0, v=0.0):
        self.q[:] = (h, h * u, h * v)

    def volume(self) -> float:
        return float(np.sum(self.q[:, 0] * self._cells.mesh.areas[self._rows]))

    def dt_bound(self) -> float:
        lam = max_wave_speed(self.q, self._cells.params)
        return float(np.min(self._cells.mesh.incircle_diameters[self._rows] / lam))
