"""The junctions of a network: the 2D cells of Methods A and B as one
finite-volume field, the algebraic PSFP junction, and their wiring.

Methods A and B solve the 2D shallow-water equations on the junction region
and differ only in how finely it is meshed: A uses one junction-shaped
polygon cell, B a fan-refined triangular patch. `JunctionField` builds every
A and B junction of a network from its `JunctionSpec`, their polygons in one
call (`geometry.build_junction_polygons`), and holds them as one
`scheme2d.MeshField` on one mesh of their cells, junction after junction in
spec order (`meshing.disjoint_union`). Each step is then one call per stage
for all of them: reconstruction, the junction states the channel end cells
see, the edge fluxes and the update.

The field exchanges fluxes with the adjacent 1D cells by solving rotated
Riemann problems on the coupling edges (a B patch splits each channel's
coupling edge into sub-edges). One flux per coupling edge is computed and
applied to both sides, which conserves mass and edge-normal momentum
exactly. The coupling edges' face rows, signs and lengths and the
averaging groups are built once; a step follows `scheme1d`'s per-call rule.

The network stepper calls, in channel end numbers of the network's
`scheme1d.ChannelField`:

- `reconstruct(field)`;
- `channel_neighbors()` -> states: per channel end, the length-weighted
  average of the junction cells along its coupling edges, in the channel
  frame, for the channel field's `reconstruct`; the build attaches the ends
  there at the projected distance of that weighted centroid;
- `compute_fluxes(field, dt, batch)` -> (edge fluxes, axial fluxes per
  channel end); it reads the evolved face states of the field's last
  `face_state` call and queues the Riemann problem of every edge on the
  step's `riemann.RiemannBatch`, whose one solve fills the returned arrays;
- `update(edge_fluxes, dt)`, whose errors name the junction and its cell;
- `volume()`, `dt_bound()` and `ends`.

`junctions` lists one `JunctionView` per junction: `id`, `strategy`, `ends`,
its polygon `geom`, `q` (its rows of the field's states), `set_uniform` and
`volume`; a Method-B view also has its patch `mesh`, a `TriMesh` built on
first read: the field steps one mesh of all its junctions and needs none
per patch.

The benchmark's tracer looks `reconstruct`, `channel_neighbors`,
`compute_fluxes` and `update` up in the own `__dict__` of the classes
`JunctionA` and `JunctionB`, which were the two implementations before they
merged; both names are bound to `JunctionField` until the benchmark binds
the protocol instead (ROADMAP item 1 drops the aliases).

`PSFPJunction` is the flux-only junction of three channels: it holds no
cells and, after the step's batch solve, turns the states at its three
channel ends, which the network stepper reads for it, into their fluxes
through the star states of `psfp.psfp_solve` (`compute_end_fluxes`, which
the benchmark's tracer times). A junction's strategy fixes how far its 2D
region protrudes into the channels (`DEPTH_FACTORS`), and `wiring_errors`
holds the rules of a network's wiring that the scenario schema and the
network stepper both check.

Frame conventions: the coupling edge normal points from the 2D cell into
the channel. A channel attached at its "start" has sigma=+1 (edge frame and
channel frame coincide); attached at its "end", sigma=-1 (axial components
flip). Fluxes handed to channels are in the +s axial frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    flat_rows,
    from_normal,
    rotate_back,
    rotate_state,
)
from .geometry import TriMesh, build_junction_polygons
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


class JunctionField:
    """Every Method-A polygon and Method-B patch of a network, stepped as one field."""

    def __init__(self, specs: list, channels: dict, field, params: PhysicalParams, order: int):
        """The cells of the Method-A and Method-B `specs`, in their order: an
        A junction's polygon, one cell with edges tagged "wall" or
        "coupling:<channel>:<end>", or a B junction's fan-refined patch of it.
        `channels` maps ids to `Channel`s; `field` is the network's ChannelField."""
        geoms = build_junction_polygons([
            ([(channels[ch], end) for ch, end in spec.connects],
             spec.position, spec.depth_factor) for spec in specs])
        # (vertices, cells, boundary tags) of each junction's mesh
        parts = [(geom.vertices, [np.arange(len(geom.vertices))], geom.ring_tags())
                 if spec.strategy == "A" else fan_refine_mesh(geom, spec.patch_refine)
                 for spec, geom in zip(specs, geoms)]
        self.mesh = mesh = disjoint_union(parts)
        self.params = params
        n_cells = [len(cells) for _, cells, _ in parts]
        self._first_cell = np.cumsum([0] + n_cells)
        junction_of = np.repeat(np.arange(len(specs)), n_cells)

        # Coupling edges (or sub-edges) and wall edges, every other boundary
        # edge, in edge order; the channel ends in order of their first
        # coupling edge, so junction after junction.
        bound = mesh.boundary
        coupling = np.array([mesh.edge_tags[e].startswith("coupling:") for e in bound.tolist()])
        edges, self._wall_edges = bound[coupling], bound[~coupling]
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
        # Axis cosines and sines per end and per coupling edge.
        alpha = np.array([ch.axis_angle for ch in chans])
        self._end_cs = np.cos(alpha), np.sin(alpha)
        self._cpl_cs = np.cos(alpha)[self._cpl_end], np.sin(alpha)[self._cpl_end]
        self._cpl_cells = field.end_cell[self._ends][self._cpl_end]
        # Per coupling edge: its row of `field.faces`, and the weights of its
        # fluxes in the end totals (sigma * length is exact: sigma is +-1) and
        # their bins, k * ends + end for component k.
        self._cpl_slot = field.end_slot[self._ends][self._cpl_end]
        lengths = mesh.edge_lengths[edges]
        self._cpl_weights = np.array([self._cpl_sigma * lengths, lengths, lengths])
        self._cpl_bins = (len(self.ends) * np.arange(3)[:, None] + self._cpl_end).ravel()
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
        ids = [spec.id for spec in specs]
        self.mesh_field.cell_name = functools.partial(_cell_name, ids, self._first_cell)

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
        field.attach_junctions(self._ends, self._nbr_dists)

        end_junction = junction_of[mesh.edge_left[edges[by_end[first]]]]
        self.junctions = [
            JunctionView(
                self.mesh_field, slice(self._first_cell[k], self._first_cell[k + 1]),
                spec.id, spec.strategy, geom,
                [self.ends[e] for e in np.flatnonzero(end_junction == k)],
                None if spec.strategy == "A" else part,
            )
            for k, (spec, geom, part) in enumerate(zip(specs, geoms, parts))
        ]

    def volume(self) -> float:
        return sum(j.volume() for j in self.junctions)

    def dt_bound(self) -> float:
        return self.mesh_field.dt_bound()

    def reconstruct(self, field):
        vv = rotate_back(field.q.take(self._cpl_cells, axis=0), *self._cpl_cs)
        self.mesh_field.reconstruct(virtual_values=vv)

    def channel_neighbors(self):
        """Per channel end, the width-averaged junction state along its
        coupling edges in the channel frame."""
        q = self.mesh_field.q
        qavg = np.empty((len(self.ends), 3))
        for put, cells, w in self._nbr_groups:
            qavg.put(put, np.matmul(w, q.take(cells, axis=0)))
        return rotate_state(qavg, *self._end_cs)

    def compute_fluxes(self, field, dt: float, batch):
        """Queue the Riemann problem of every edge on `batch` (a
        `riemann.RiemannBatch`); returns (edge fluxes, width-averaged axial
        fluxes per channel end), which its solve fills.

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
        left, right = rotate_state(qL, c, s).T, rotate_state(qR, c, s).T
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
        return flux.T, totals.T

    def update(self, edge_fluxes: np.ndarray, dt: float):
        self.mesh_field.update(edge_fluxes, dt)


# The benchmark's tracer binds these two names (see the module docstring).
JunctionA = JunctionB = JunctionField


def _cell_name(ids, first_cell, k) -> str:
    j = np.searchsorted(first_cell, k, side="right") - 1
    return f"junction {ids[j]}, 2D cell {k - first_cell[j]}"


class JunctionView:
    """One junction of a `JunctionField`: rows `rows` of its cell states;
    `patch` holds the (vertices, triangles, boundary tags) of a Method-B
    junction's patch, and is None for a Method-A one.

    `q` slices the field's states on every access, so it follows the field
    through its updates and through `copy.deepcopy`. A view refers to the
    field's `MeshField`, not to the `JunctionField` that lists it, so that a
    released network frees its arrays without waiting for the cycle
    collector.
    """

    def __init__(self, cells: MeshField, rows: slice, jid, strategy, geom, ends, patch):
        self.id = jid
        self.strategy = strategy
        self.geom = geom
        self.ends = ends
        self._cells = cells
        self._rows = rows
        self._patch = patch

    @functools.cached_property
    def mesh(self) -> TriMesh:
        """The `TriMesh` of a Method-B junction's patch, built on first read."""
        if self._patch is None:
            raise AttributeError(f"junction {self.id} ({self.strategy}) has no patch mesh")
        return TriMesh(*self._patch)

    @property
    def q(self) -> np.ndarray:
        return self._cells.q[self._rows]

    def set_uniform(self, h, u=0.0, v=0.0):
        self.q[:] = (h, h * u, h * v)

    def volume(self) -> float:
        return float(np.sum(self.q[:, 0] * self._cells.mesh.areas[self._rows]))


# The protrusion of each strategy's 2D region into every channel it joins,
# in channel widths: the Method-A polygon's, the Method-B patch's, and none
# for the algebraic junction.
DEPTH_FACTORS = {"A": 0.1, "B": 0.5, "psfp": 0.0}
STRATEGIES = tuple(DEPTH_FACTORS)


@dataclass
class JunctionSpec:
    id: str
    strategy: str  # one of STRATEGIES
    position: tuple
    connects: list  # [(channel_id, "start"|"end"), ...]; parent first for psfp
    merging: bool = False
    patch_refine: int = 2

    @property
    def depth_factor(self) -> float:
        """Protrusion of the 2D region into each channel, in channel widths."""
        return DEPTH_FACTORS[self.strategy]


class PSFPJunction:
    """Flux-only junction: star states from the six-equation algebraic system."""

    strategy = "psfp"

    def __init__(self, spec: JunctionSpec, field, params):
        self.id = spec.id
        self.ends = list(spec.connects)
        self.merging = spec.merging
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
    `gauges` (id, channel, s) per gauge. The rules: channel, junction and
    gauge ids are each unique; a junction's strategy is "A", "B" or "psfp";
    it joins at least 2 channel ends, and a PSFP junction exactly 3; each end
    names a known channel and is its "start" or "end"; every channel end is
    attached to exactly one junction or boundary; every gauge sits on a known
    channel, at 0 <= s <= its length.
    """
    errors = []
    for kind, entries in (("channel", channels), ("junction", junctions), ("gauge", gauges)):
        seen = set()
        for entry in entries:
            if entry[0] in seen:
                errors.append(f"duplicate {kind} id {entry[0]!r}")
            seen.add(entry[0])
    known = dict(channels)
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
        if strategy not in STRATEGIES:
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

