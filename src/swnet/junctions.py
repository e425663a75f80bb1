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
coupling edge into sub-edges). One flux per coupling edge is computed and
applied to both sides, which conserves mass and edge-normal momentum
exactly. The stencil, the coupling edges' face rows, signs and lengths and
the averaging groups are built once; a step follows `scheme1d`'s per-call rule.

The network stepper calls, in channel end numbers of the network's
`scheme1d.ChannelField`:

- `reconstruct(field)`;
- `channel_neighbors()` -> (`stencil`, states): per channel end, the
  length-weighted average of the junction cells along its coupling edges, in
  the channel frame; `stencil` is the field's `junction_stencil` of the
  ends, at the projected distance of that weighted centroid;
- `compute_fluxes(field, dt, batch)` -> (edge fluxes, (ends, axial
  fluxes)); it reads the evolved face states of the field's last
  `face_state` call and queues the Riemann problem of every edge on the
  step's `riemann.RiemannBatch`, whose one solve fills the returned arrays;
- `update(edge_fluxes, dt)`, whose errors name the junction and its cell;
- `volume()`, `dt_bound()` and `ends`.

`junctions` lists one `JunctionView` per junction: `id`, `strategy`, `ends`,
its polygon `geom`, `q` (its rows of the field's states), `set_uniform` and
`volume`; a Method-B view also has its patch `mesh`.

The benchmark's tracer looks `reconstruct`, `channel_neighbors`,
`compute_fluxes` and `update` up in the own `__dict__` of the classes
`JunctionA` and `JunctionB`, which were the two implementations before they
merged; both names are bound to `JunctionField` until the benchmark binds
the protocol instead (ROADMAP item 1 drops the aliases).

`PSFPJunction` is the flux-only junction of three channels: it holds no
cells and, after the step's batch solve, turns the states at its three
channel ends, which the network stepper reads for it, into their fluxes
through the star states of `psfp.psfp_solve` (`compute_end_fluxes`, which
the benchmark's tracer times). `build_junctions` turns a network's
`JunctionSpec`s into one object per junction and the `JunctionField` of its
A and B junctions, and `wiring_errors` holds the rules of a network's wiring
that the scenario schema and the network stepper both check.

Frame conventions: the coupling edge normal points from the 2D cell into
the channel. A channel attached at its "start" has sigma=+1 (edge frame and
channel frame coincide); attached at its "end", sigma=-1 (axial components
flip). Fluxes handed to channels are in the +s axial frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from numbers import Real

import numpy as np

from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    flat_rows,
    from_normal,
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
    the axial component, positive when that is +0.0 or -0.0.
    q is (..., 3). Returns (projected states, magnitudes of the momentum change).
    """
    hu, hv = q[..., 1], q[..., 2]
    speed_mom = np.hypot(hu, hv)
    hu_new = np.where(hu < 0.0, -speed_mom, speed_mom)
    out = np.zeros(q.shape)
    out[..., 0], out[..., 1] = q[..., 0], hu_new
    return out, np.hypot(hu_new - hu, hv)


def _normal_rows(q, c, s):
    """(3, n) normal-frame component rows of global-frame states q (n, 3) on
    edges whose normals have cosines c and sines s."""
    h, hu, hv = q.T
    return np.array([h, *to_normal(hu, hv, c, s)])


class JunctionField:
    """Every Method-A polygon and Method-B patch of a network, stepped as one field."""

    def __init__(
        self,
        junctions: list,
        mesh: TriMesh,
        field,
        params: PhysicalParams,
        order: int = 2,
    ):
        """`junctions` lists (id, strategy, polygon, patch mesh or None for a
        single polygon cell) per junction, in the order of their cells in
        `mesh`; `field` is the network's ChannelField."""
        self.mesh = mesh
        self.params = params
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
        # Axis cosines and sines; the coupling edges' (sine negated) rotate back.
        alpha = np.array([ch.axis_angle for ch in chans])
        self._end_cs = np.cos(alpha), np.sin(alpha)
        self._cpl_back = np.cos(alpha)[self._cpl_end], -np.sin(alpha)[self._cpl_end]
        self._cpl_cells = field.end_cell[self._ends][self._cpl_end]
        # Per coupling edge: its row of `field.faces`, and the weights of its
        # fluxes in the end totals (sigma * length is exact: sigma is +-1) and
        # their bins, k * ends + end for component k.
        self._cpl_slot = field.end_slot[self._ends][self._cpl_end]
        lengths = mesh.edge_lengths[edges]
        self._cpl_weights = np.array([self._cpl_sigma * lengths, lengths, lengths])
        self._cpl_bins = (len(self.ends) * np.arange(3)[:, None] + self._cpl_end).ravel()
        self._wall_edges = mesh.boundary_edges_by_tag("wall")
        # Flat `put` indices of the wall and coupling columns of the (3, E)
        # right states, and of the walls' mass and tangential fluxes.
        cols = len(mesh.edge_lengths) * np.arange(3)[:, None]
        self._wall_put, self._cpl_put = (cols + self._wall_edges).ravel(), (cols + edges).ravel()
        self._wall_zero = (3 * self._wall_edges[:, None] + np.array([0, 2])).ravel()

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
            self._nbr_groups.append((flat_rows(group), cells, w))
        self.stencil = field.junction_stencil(self._ends, self._nbr_dists)

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
        vv = _normal_rows(field.q.take(self._cpl_cells, axis=0), *self._cpl_back).T
        self.mesh_field.reconstruct(virtual_values=vv)

    def channel_neighbors(self):
        """(`stencil`, per channel end the width-averaged junction state along
        its coupling edges in the channel frame)."""
        q = self.mesh_field.q
        qavg = np.empty((len(self.ends), 3))
        for put, cells, w in self._nbr_groups:
            qavg.put(put, np.matmul(w, q.take(cells, axis=0)))
        return self.stencil, _normal_rows(qavg, *self._end_cs).T

    def compute_fluxes(self, field, dt: float, batch):
        """Queue the Riemann problem of every edge on `batch` (a
        `riemann.RiemannBatch`); returns (edge fluxes, (ends, width-averaged
        axial fluxes)), which its solve fills.

        Every edge's left state is its cell's evolved face state in the
        edge's normal frame. The right state is the neighbour's on interior
        edges, the mirrored left state on walls (whose mass and tangential
        fluxes are then zeroed, as in `wall_flux`), and on coupling edges
        the evolved 1D face state at the junction-side face with momenta in
        the coupling edge frame: one flux per coupling edge serves both
        sides.
        """
        c, s = self.mesh.edge_cos, self.mesh.edge_sin
        qL, qR = self.mesh_field.edge_states(dt)
        left = _normal_rows(qL, c, s)
        right = _normal_rows(qR, c, s)
        walls, edges = self._wall_edges, self._cpl_edges
        right.put(self._wall_put, mirrored(left.take(walls, axis=1).T).T)
        q1 = field.faces.take(self._cpl_slot, axis=0)
        q1[:, 1:] *= self._cpl_sigma[:, None]
        right.put(self._cpl_put, q1.T)

        flux = np.empty((3, len(c)))
        totals = np.empty((3, len(self.ends)))

        def read_edges(f):
            f.put(self._wall_zero, 0.0)
            flux[0] = f[:, 0]
            from_normal(f[:, 1], f[:, 2], c, s, out=flux[1:])
            # One running sum per end and component in edge order, as np.add.at sums.
            w = f.take(edges, axis=0).T * self._cpl_weights
            sums = np.bincount(self._cpl_bins, w.ravel(), totals.size).reshape(totals.shape)
            np.divide(sums, self._end_widths, out=totals)

        batch.add(left.T, right.T, read_edges)
        return flux.T, (self._ends, totals.T)

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
        # Solver velocities point toward the junction in the parent channel
        # (the first end) and away from it in the daughters: along +s at the
        # parent's "end" and at a daughter's "start".
        self.tau = np.array([1.0 if (end == "end") == (k == 0) else -1.0
                             for k, (_, end) in enumerate(self.ends)])

    def compute_end_fluxes(self, q):
        """+s-frame fluxes (3, 3) at the junction's channel ends, in `ends`
        order, from their boundary-extrapolated states `q` (3, 3)."""
        q = q.tolist()
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
        return fluxes


def wiring_errors(channels, junctions, boundary_ends, gauges) -> list[str]:
    """One message per broken wiring rule of a network; none when it is sound.

    `channels` lists (id, length or None where unknown) per channel,
    `junctions` (id, strategy, [(channel, end), ...]) per junction,
    `boundary_ends` the (channel, end) of each boundary condition and
    `gauges` (id, channel, s) per gauge. The rules: channel ids are unique; a
    junction's strategy is "A", "B" or "psfp"; it joins at least 2 channel
    ends, and a PSFP junction exactly 3; each end names a known channel and
    is its "start" or "end"; every channel end is attached to exactly one
    junction or boundary; every gauge sits on a known channel, at
    0 <= s <= its length.
    """
    errors = []
    known = {}
    for cid, length in channels:
        if cid in known:
            errors.append(f"duplicate channel id {cid!r}")
        known[cid] = length
    attached = {}

    def attach(channel, end, where):
        if channel not in known:
            errors.append(f"{where}: unknown channel {channel!r}")
        if end not in ("start", "end"):
            errors.append(f"{where}: end must be start|end")
            return
        key = (channel, end)
        if key in attached:
            errors.append(f"channel end {key} attached twice, by {attached[key]} and {where}")
        attached[key] = where

    for jid, strategy, connects in junctions:
        if strategy not in ("A", "B", "psfp"):
            errors.append(f"junction {jid}: unknown strategy {strategy!r}")
        if strategy == "psfp" and len(connects) != 3:
            errors.append(
                f"junction {jid}: the algebraic solver needs exactly 3 "
                f"channels, got {len(connects)}"
            )
        if len(connects) < 2:
            errors.append(f"junction {jid}: needs at least 2 channel ends")
        where = f"junction {jid}"
        for channel, end in connects:
            attach(channel, end, where)
    for channel, end in boundary_ends:
        attach(channel, end, "boundary")
    for cid in known:
        for end in ("start", "end"):
            if (cid, end) not in attached:
                errors.append(f"channel end ({cid}, {end}) unattached")
    for gid, channel, s in gauges:
        length = known.get(channel)
        if channel not in known:
            errors.append(f"gauge {gid}: unknown channel {channel!r}")
        elif length is not None and not (isinstance(s, Real) and 0.0 <= s <= length):
            errors.append(f"gauge {gid}: s={s!r} outside channel {channel!r} of length {length:g}")
    return errors


def build_junctions(specs: list[JunctionSpec], channels, field, params, order):
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
    jf = JunctionField(members, disjoint_union(parts), field, params, order)
    views = iter(jf.junctions)
    return [next(views) if j is None else j for j in out], jf
