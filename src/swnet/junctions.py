"""The junctions of a network: the 2D cells of Methods A and B as one
finite-volume field, the algebraic PSFP junction, and their wiring.

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
- `compute_fluxes(field, dt, batch)` -> (edge fluxes, (ends, axial
  fluxes)); it reads the evolved face states of the field's last
  `face_state` call and queues the Riemann problem of every edge on the
  step's `riemann.RiemannBatch`, whose one solve fills the returned arrays;
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

`PSFPJunction` is the flux-only junction of three channels: it holds no
cells and, after the step's batch solve, supplies its channel end fluxes
from the star states of `psfp.psfp_solve` (`compute_end_fluxes`, which the
benchmark's tracer times). `build_junctions` turns a network's
`JunctionSpec`s into one object per junction and the `JunctionField` of its
A and B junctions.

Frame conventions: the coupling edge normal points from the 2D cell into
the channel. A channel attached at its "start" has sigma=+1 (edge frame and
channel frame coincide); attached at its "end", sigma=-1 (axial components
flip). Fluxes handed to channels are in the +s axial frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    from_normal,
    jacobian_dot,
    max_wave_speed,
    rotate_back,
    rotate_state,
    to_normal,
)
from .geometry import TriMesh, build_junction_polygon
from .meshing import disjoint_union, fan_refine_mesh
from .psfp import PSFPFailure, PSFPProblem, psfp_boundary_fluxes, psfp_solve
from .riemann import mirrored
# Unused here since the network step batches its Riemann problems; still
# bound, as the benchmark's tracer test wraps it in this module.
from .riemann import hllc_flux  # noqa: F401
from .scheme2d import MeshField


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


def _two_pass(field, ends, alpha, cell, d, dt: float, params, order: int):
    """Paper-style separate per-side flux passes on coupling edges, batched.

    cell = (q, grad_x, grad_y) are the 2D cells behind the edges and d the
    offsets from their centroids to the edge midpoints. Returns the 2D side's
    neighbour states in the global frame, and the 1D side's left and right
    states in the channel frames.
    """
    # 2D-side pass: the 1D neighbor is expressed in the global frame and
    # evolved there with its rotated gradients.
    qg = rotate_back(field.end_states(ends), alpha)
    if order >= 2:
        b, cg = rotate_gradients(field.slopes[field.end_cell[ends]], alpha)
        qg = qg - 0.5 * dt * jacobian_dot(qg, b, cg, params)

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
    return qg, np.where(start, q2c, q1), np.where(start, q1, q2c)


def _normal_rows(q, c, s):
    """(3, n) normal-frame component rows of global-frame states q (n, 3) on
    edges whose normals have cosines c and sines s."""
    h, hu, hv = q.T
    return np.stack([h, *to_normal(hu, hv, c, s)])


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
        self._cos, self._sin = np.cos(mesh.edge_thetas), np.sin(mesh.edge_thetas)

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

    def compute_fluxes(self, field, dt: float, batch):
        """Queue the Riemann problem of every edge on `batch` (a
        `riemann.RiemannBatch`); returns (edge fluxes, (ends, width-averaged
        axial fluxes)), which its solve fills.

        Every edge's left state is its cell's evolved face state in the
        edge's normal frame. The right state is the neighbour's on interior
        edges, the mirrored left state on walls (whose mass and tangential
        fluxes are then zeroed, as in `wall_flux`), and on coupling edges
        the evolved 1D face state at the junction-side face with momenta in
        the coupling edge frame (shared coupling) or the 1D neighbour
        evolved in the global frame (two-pass coupling, which also queues
        the 1D side's own solves).
        """
        m = self.mesh
        c, s = self._cos, self._sin
        qL, qR = self.mesh_field.edge_states(dt)
        left = _normal_rows(qL, c, s)
        right = _normal_rows(qR, c, s)
        walls, edges = self._wall_edges, self._cpl_edges
        right[:, walls] = mirrored(left[:, walls].T).T
        shared = self.coupling_mode == "shared"
        if shared:
            q1 = field.faces[field.end_slot[self._ends]]
            q1[:, 1:] *= self._end_sigma[:, None]
            right[:, edges] = q1[self._cpl_end].T
        else:
            cells = m.edge_left[edges]
            mf = self.mesh_field
            qg, q1L, q1R = _two_pass(
                field, self._ends[self._cpl_end], self._cpl_alpha,
                (mf.q[cells], mf.grad_x[cells], mf.grad_y[cells]),
                m.edge_offsets[0][:, edges].T, dt, self.params, self.order,
            )
            right[:, edges] = _normal_rows(qg, c[edges], s[edges])

        flux = np.empty((3, len(c)))
        totals = np.empty((len(self.ends), 3))

        def read_edges(f):
            f[walls, ::2] = 0.0
            flux[0] = f[:, 0]
            from_normal(f[:, 1], f[:, 2], c, s, out=flux[1:])
            if shared:
                f_ch = f[edges]
                f_ch[:, 0] *= self._cpl_sigma
                read_ends(f_ch)

        def read_ends(f_ch):
            sums = np.zeros_like(totals)
            np.add.at(sums, self._cpl_end, f_ch * m.edge_lengths[edges][:, None])
            np.divide(sums, self._end_widths[:, None], out=totals)

        batch.add(left.T, right.T, read_edges)
        if not shared:
            batch.add(q1L, q1R, read_ends)
        return flux.T, (self._ends, totals)

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


@dataclass
class JunctionSpec:
    id: str
    strategy: str  # "A" | "B" | "psfp"
    position: tuple
    connects: list  # [(channel_id, "start"|"end"), ...]; parent first for psfp
    merging: bool = False
    protrusion: float = 0.1
    patch_protrusion: float = 0.5
    patch_refine: int = 2

    def __post_init__(self):
        if self.strategy not in ("A", "B", "psfp"):
            raise ValueError(f"unknown junction strategy {self.strategy!r}")
        if self.strategy == "psfp" and len(self.connects) != 3:
            raise ValueError("the algebraic junction solver handles exactly 3 channels")

    @property
    def depth_factor(self) -> float:
        """Protrusion of the 2D region into each channel, in channel widths."""
        if self.strategy == "psfp":
            return 0.0
        return self.protrusion if self.strategy == "A" else self.patch_protrusion


class PSFPJunction:
    """Flux-only junction: star states from the six-equation algebraic system."""

    strategy = "psfp"

    def __init__(self, jid, connects, merging, field, params):
        self.id = jid
        self.ends = list(connects)
        self.merging = merging
        self.params = params
        self.widths = np.array([field.channels[field.index[ch]].width for ch, _ in self.ends])
        self._ends = np.array([field.end_index(ch, end) for ch, end in self.ends], dtype=int)
        # Solver velocities point toward the junction in the parent channel
        # (the first end) and away from it in the daughters: along +s at the
        # parent's "end" and at a daughter's "start".
        self.tau = np.array([1.0 if (end == "end") == (k == 0) else -1.0
                             for k, (_, end) in enumerate(self.ends)])

    def compute_end_fluxes(self, field, dt):
        q = field.end_states(self._ends).tolist()
        try:
            # A zero depth passes its discharge as velocity: the problem
            # rejects the depth, and a NaN discharge still reads as NaN.
            problem = PSFPProblem(
                self.widths,
                [h for h, _, _ in q],
                [t * hu / h if h else hu for t, (h, hu, _) in zip(self.tau.tolist(), q)],
                merging=self.merging,
            )
            star = psfp_solve(problem, self.params)
        except PSFPFailure as exc:
            raise PSFPFailure(
                exc.kind,
                f"junction {self.id}: {exc.message}",
                residual_norm=exc.residual_norm,
                iterations=exc.iterations,
            ) from exc
        except (NonFiniteError, DryStateError) as exc:
            raise type(exc)(f"junction {self.id}: {exc}") from exc
        fluxes = psfp_boundary_fluxes(star, self.params)
        fluxes[:, 0] *= self.tau
        return self._ends, fluxes


def build_junctions(specs: list[JunctionSpec], channels, field, params, order, coupling_mode):
    """The junctions of a network: (one object per spec, in spec order; the
    `JunctionField` of every Method-A and Method-B junction, or None).

    The field's mesh is the disjoint union of each A junction's polygon, one
    cell with edges tagged "wall" or "coupling:<channel>:<end>", and each B
    junction's fan-refined patch, in spec order; the per-spec objects are
    its `JunctionView`s and the `PSFPJunction`s.
    """
    out = []
    members = []  # (id, strategy, polygon, patch) per A or B junction
    parts = []  # (vertices, cells, boundary tags) of their meshes
    for spec in specs:
        if spec.strategy == "psfp":
            out.append(PSFPJunction(spec.id, spec.connects, spec.merging, field, params))
            continue
        out.append(None)
        ends = [channels[ch].connected_end(end) for ch, end in spec.connects]
        geom = build_junction_polygon(ends, spec.position, spec.depth_factor)
        if spec.strategy == "A":
            n = len(geom.vertices)
            patch = None
            parts.append((geom.vertices, [np.arange(n)],
                          {(k, (k + 1) % n): e.tag for k, e in enumerate(geom.edges)}))
        else:
            patch = fan_refine_mesh(geom, spec.patch_refine)
            bound = patch.boundary
            tags = zip(patch.edge_va[bound], patch.edge_vb[bound], (patch.edge_tags[e] for e in bound))
            parts.append((patch.vertices, patch.triangles, {(a, b): t for a, b, t in tags}))
        members.append((spec.id, spec.strategy, geom, patch))
    if not members:
        return out, None
    jf = JunctionField(members, disjoint_union(parts), field, params, order, coupling_mode)
    views = iter(jf.junctions)
    return [next(views) if j is None else j for j in out], jf
