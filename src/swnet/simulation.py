"""Time integration of channel networks and of full 2D reference domains.

Each step runs fixed phases: reconstruction everywhere, face states and
interior, coupling and boundary fluxes, conservative updates, transverse
projection in junction-adjacent 1D cells, then gauge sampling and the
conservation ledger. The global time step is the minimum of the per-cell CFL
bounds, with the 2D limit at half the 1D CFL number.

`NetworkSimulation` holds every channel cell in one `scheme1d.ChannelField`
(`field`; `fields` maps channel ids to their `ChannelSegment`s) and steps it
with one call per stage. Coupling and boundary fluxes land on the field's
face array through channel end numbers, so `advance` has no loop over
channels. Every Riemann problem of a step (interior faces, junction edges,
boundary ends) is queued on one `riemann.RiemannBatch` and solved in one
HLLC call (`step_fluxes`). One `junctions.JunctionField` (`junction_field`)
holds the cells of every Method-A and Method-B junction and is stepped
through the calls described in `junctions`; `advance` loops only over the
algebraic `PSFPJunction`s, which supply end fluxes after that solve and hold
no cells. `junctions` lists one object per junction, in the order of the
specs, and `elements` everything besides the channels that holds volume or
bounds the step: the junction field, then the PSFP junctions. The benchmark's tracer times PSFP
junctions through `PSFPJunction.compute_end_fluxes`.

Both solvers share one `TimeStepper.run` loop: the gauge stride, the typed
failures that end a run as "failed", and the per-run volume ledger.

One `GhostStates` builds the inflow and prescribed ghosts of channel ends
and of 2D reference edges (keyed by tag, "<kind>:<channel>:<end>") in the
outward-normal frame; both solvers group their boundaries by condition kind
when built, with one `GhostStates` per inflow or prescribed group, and call
it once per group and step. Transparent differs: zero gradient at a channel
end, a pinned incoming Riemann invariant on a 2D edge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    physical_flux,
    rotate_state,
)
from .geometry import BOUNDARY_TAGS, Channel, TriMesh, build_junction_polygon
from .junctions import JunctionField, project_transverse
from .meshing import disjoint_union, fan_refine_mesh
from .psfp import PSFPFailure, PSFPProblem, psfp_boundary_fluxes, psfp_solve
from .riemann import RiemannBatch, mirrored
# Unused here since the network step batches its Riemann problems; still
# bound, as the benchmark's tracer test wraps it in this module.
from .riemann import hllc_flux  # noqa: F401
from .scheme1d import ChannelField, ChannelSegment
from .scheme2d import MeshField, boundary_edge_fluxes, interior_edge_fluxes


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------


@dataclass
class BoundaryCondition:
    kind: str  # "reflective" | "transparent" | "inflow" | "prescribed"
    u_fn: object = None  # inflow velocity as a function of time
    h: float = None
    u: float = 0.0

    def __post_init__(self):
        if self.kind not in ("reflective", "transparent", "inflow", "prescribed"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "inflow" and self.u_fn is None:
            raise ValueError("inflow boundary needs a velocity time-function")
        if self.kind == "prescribed" and self.h is None:
            raise ValueError("prescribed boundary needs a state")


def gaussian_pulse(amplitude: float, center: float, width: float = 1.0):
    """u(t) = A exp(-((t - c) / w)^2 / 2), the standard inflow wave."""

    def u_fn(t):
        z = (t - center) / width
        return amplitude * np.exp(-0.5 * z * z)

    return u_fn


class GhostStates:
    """Outward-normal-frame ghost states of one group of "inflow" or
    "prescribed" faces, as `ghosts(q, t, params)`.

    q (K, 3) are the inner states, component 1 along the outward normal; row
    k has condition bcs[rows[k]], by default bcs[k]. Inflow pairs the inward
    velocity u_fn(t) with the interior's outgoing Riemann invariant; a
    prescribed face holds (h, u), u positive into the domain, read once here.
    """

    def __init__(self, kind, bcs, rows=slice(None)):
        self.kind, self.rows = kind, rows
        if kind == "inflow":
            self.u_fns = [bc.u_fn for bc in bcs]
        else:
            h = np.array([bc.h for bc in bcs], dtype=float)[rows]
            self.h, self.hu = h, -h * np.array([bc.u for bc in bcs], dtype=float)[rows]

    def __call__(self, q, t: float, params):
        out = np.empty((len(q), 3))
        if self.kind == "inflow":
            g = params.g
            u = [float(u_fn(t)) for u_fn in self.u_fns]
            u_bc = u[0] if len(u) == 1 else np.array(u)[self.rows]
            c_g = 0.5 * (q[:, 1] / q[:, 0] + 2.0 * np.sqrt(g * q[:, 0]) + u_bc)
            if (c_g <= 0.0).any():
                raise DryStateError("inflow ghost state would be dry")
            h_g = c_g * c_g / g
            out[:, 0] = h_g
            out[:, 1] = h_g * (-u_bc)
        else:
            out[:, 0] = self.h
            out[:, 1] = self.hu
        out[:, 2] = 0.0
        return out


class BoundaryEnds:
    """Channel outer faces that share one condition kind, with what their
    fluxes read every step, set once.

    bcs are the K conditions (all of one kind) and the boolean array at_start
    (K,) marks faces at a channel's start, whose outward normal is -s.
    `flip` (K, 3) holds -1.0 at those faces' axial momentum and 1.0
    elsewhere: multiplying by it turns +s-frame states into the
    outward-normal frame and back, exactly.
    """

    def __init__(self, bcs, at_start):
        self.kind = bcs[0].kind
        self.bcs = bcs
        self.start = at_start[:, None]
        self.flip = np.where(self.start, (1.0, -1.0, 1.0), 1.0)
        self.ghosts = GhostStates(self.kind, bcs) if self.kind in ("inflow", "prescribed") else None


def boundary_flux(q_face, group: BoundaryEnds, t: float, params, batch):
    """Axial (+s frame) fluxes at the channel outer faces of `group`.

    q_face (K, 3) are the inner face states. Transparent ends feed the face
    value back to itself, at once. The other kinds queue their Riemann
    problems on `batch` (a `riemann.RiemannBatch`), whose solve fills the
    returned rows: reflective walls against the mirrored outward-frame inner
    state, with mass and transverse fluxes zeroed as in `wall_flux`; inflow
    and prescribed ends against the `GhostStates` ghost, turned back into the
    +s frame and placed on the outer side of each face.
    """
    kind = group.kind
    if kind == "transparent":
        return physical_flux(q_face, params)
    q = q_face * group.flip
    if kind == "reflective":
        qL, qR = q, mirrored(q)
    else:
        ghost = group.ghosts(q, t, params)
        ghost *= group.flip
        qL, qR = np.where(group.start, ghost, q_face), np.where(group.start, q_face, ghost)
    out = np.empty_like(q_face)

    def read(f):
        out[:] = f
        if kind == "reflective":
            out[:, ::2] = 0.0

    batch.add(qL, qR, read)
    return out


# ---------------------------------------------------------------------------
# Junction wiring
# ---------------------------------------------------------------------------


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
        # and away from it in the daughters.
        self.tau = np.array(
            [
                (1.0 if end == "end" else -1.0)
                if k == 0
                else (1.0 if end == "start" else -1.0)
                for k, (ch, end) in enumerate(self.ends)
            ]
        )

    def set_uniform(self, h):
        pass

    def volume(self):
        return 0.0

    def dt_bound(self):
        return np.inf

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


# ---------------------------------------------------------------------------
# Gauges
# ---------------------------------------------------------------------------


@dataclass
class Gauge:
    id: str
    channel: str = None
    s: float = None
    point: tuple = None  # 2D domains: sample the containing cell


class GaugeRecorder:
    def __init__(self, gauges):
        self.gauges = list(gauges)
        self.times = []
        self.h = {g.id: [] for g in self.gauges}
        self.u = {g.id: [] for g in self.gauges}

    def series(self, gid):
        return np.array(self.times), np.array(self.h[gid]), np.array(self.u[gid])


# ---------------------------------------------------------------------------
# Network simulation
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    status: str  # "completed" | "failed"
    t: float
    steps: int
    gauges: GaugeRecorder
    diagnostics: dict
    wall_time: float
    failure: Exception = None


def _checked_dt(bounds, t: float) -> float:
    """The smallest of the step bounds; a NaN bound (one np.min, so a NaN
    anywhere reaches the check) or a non-positive step is an error."""
    dt = np.min(bounds)
    if not dt > 0.0:
        if np.isnan(dt):
            raise NonFiniteError(f"non-finite wave speed at t={t:.6g}")
        raise RuntimeError(f"non-positive time step dt={dt}")
    return float(dt)


class TimeStepper:
    """The time loop of both solvers.

    A solver provides `t`, `steps`, `recorder`, `diagnostics`,
    `_reset_diagnostics()` (the entries that cover one run), `total_volume()`,
    `compute_dt(t_target)`, `advance(dt)` and `sample_gauges()`.
    """

    def run(self, t_end: float, output_stride: int = 1, max_steps: int = 10**7) -> RunResult:
        """Step to t_end (or max_steps), sampling the gauges every
        output_stride steps. A typed numerical failure ends the run as
        "failed"; the volume ledger covers this run."""
        start = time.perf_counter()
        self._reset_diagnostics()
        v0 = self.diagnostics["initial_volume"] = self.total_volume()
        self.sample_gauges()
        failure = None
        try:
            while self.t < t_end - 1e-12 and self.steps < max_steps:
                self.advance(self.compute_dt(t_target=t_end))
                if self.steps % output_stride == 0:
                    self.sample_gauges()
        except (PSFPFailure, PositivityError, DryStateError, NonFiniteError) as exc:
            failure = exc
            if isinstance(exc, PSFPFailure):
                self.diagnostics["psfp_failures"].append(
                    {"t": self.t, "kind": exc.kind, "message": str(exc)}
                )
        wall = time.perf_counter() - start
        d = self.diagnostics
        d["final_volume"] = self.total_volume()
        d["volume_defect"] = d["final_volume"] - v0 - d["boundary_influx"]
        return RunResult(
            status="failed" if failure else "completed",
            t=self.t,
            steps=self.steps,
            gauges=self.recorder,
            diagnostics=dict(d),
            wall_time=wall,
            failure=failure,
        )


class NetworkSimulation(TimeStepper):
    """Coupled 1D channels + junction elements."""

    def __init__(
        self,
        channels: list[Channel],
        junction_specs: list[JunctionSpec],
        boundaries: dict,
        params: PhysicalParams,
        order: int = 2,
        cfl: float = 0.9,
        coupling_mode: str = "shared",
        transverse_mode: str = "project",
        gauges=(),
    ):
        if not 0.0 < cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {cfl}")
        if coupling_mode not in ("shared", "two-pass"):
            raise ValueError(f"unknown coupling mode {coupling_mode!r}")
        if transverse_mode not in ("project", "zero"):
            raise ValueError(f"unknown transverse mode {transverse_mode!r}")
        self.params = params
        self.order = order
        self.cfl = cfl
        self.transverse_mode = transverse_mode
        self.channels = {ch.id: ch for ch in channels}
        if len(self.channels) != len(channels):
            raise ValueError("duplicate channel ids")

        # Wiring: every channel end belongs to exactly one junction or boundary.
        owners = {}
        for spec in junction_specs:
            for ch, end in spec.connects:
                if ch not in self.channels:
                    raise ValueError(f"junction {spec.id}: unknown channel {ch!r}")
                key = (ch, end)
                if key in owners:
                    raise ValueError(f"channel end {key} attached twice")
                owners[key] = spec
        for key in boundaries:
            if key[0] not in self.channels:
                raise ValueError(f"boundary on unknown channel {key[0]!r}")
            if key in owners:
                raise ValueError(f"channel end {key} attached twice")
            owners[key] = boundaries[key]
        for ch in self.channels.values():
            for end in ("start", "end"):
                if (ch.id, end) not in owners:
                    raise ValueError(f"channel end ({ch.id}, {end}) unattached")

        cuts = {
            (ch, end): spec.depth_factor * self.channels[ch].width
            for spec in junction_specs
            for ch, end in spec.connects
        }
        self.field = ChannelField(channels, params, order=order, cuts=cuts)
        # One view per channel; the field does not list them, so a released
        # network frees its arrays without the cycle collector.
        self.fields = {
            ch.id: ChannelSegment(self.field, c) for c, ch in enumerate(self.field.channels)
        }
        self.junctions, self.junction_field = build_junctions(
            junction_specs, self.channels, self.field, params, order, coupling_mode
        )
        self.psfp_junctions = [j for j in self.junctions if isinstance(j, PSFPJunction)]
        # Everything that holds volume or bounds dt besides the channels.
        cells = [] if self.junction_field is None else [self.junction_field]
        self.elements = cells + self.psfp_junctions
        # Boundary ends grouped by condition kind: (end numbers,
        # `BoundaryEnds`, ledger weights +-width).
        by_kind = {}
        for key, bc in boundaries.items():
            by_kind.setdefault(bc.kind, []).append((key, bc))
        self._boundary_groups = []
        for group in by_kind.values():
            ends = np.array([self.field.end_index(*key) for key, _ in group])
            sign = self.field.end_sign[ends]  # the outward normal, +-s
            width = np.array([self.channels[cid].width for (cid, _), _ in group])
            self._boundary_groups.append(
                (ends, BoundaryEnds([bc for _, bc in group], sign < 0.0), -sign * width)
            )

        self.t = 0.0
        self.steps = 0
        self.recorder = GaugeRecorder(gauges)
        self._gauge_cells = np.array(
            [
                self.fields[g.channel].first + self.fields[g.channel].cell_at(g.s)
                for g in self.recorder.gauges
            ],
            dtype=int,
        )
        self._reset_diagnostics()

    def _reset_diagnostics(self):
        self.diagnostics = {
            "boundary_influx": 0.0,
            "transverse_momentum_discarded": 0.0,
            "psfp_failures": [],
        }

    # -- state helpers ----------------------------------------------------

    def set_uniform(self, h, u=0.0, per_channel=None):
        """Uniform initial state; per_channel overrides as {id: (h, u)}."""
        per_channel = per_channel or {}
        for cid, f in self.fields.items():
            hc, uc = per_channel.get(cid, (h, u))
            f.set_uniform(hc, uc)
        self.init_junctions()

    def init_junctions(self):
        """Start every junction at rest at the mean depth of its channel end cells."""
        field = self.field
        for j in self.junctions:
            cells = field.end_cell[[field.end_index(ch, end) for ch, end in j.ends]]
            j.set_uniform(float(np.mean(field.q[cells, 0])))

    def total_volume(self) -> float:
        return float(self.field.volume() + sum(el.volume() for el in self.elements))

    # -- stepping ----------------------------------------------------------

    def compute_dt(self, t_target=np.inf) -> float:
        return _checked_dt(
            [
                self.cfl * self.field.dt_bound(),
                *(0.5 * self.cfl * el.dt_bound() for el in self.elements),
                t_target - self.t,
            ],
            self.t,
        )

    def advance(self, dt: float):
        field = self.field
        cells = self.junction_field
        # Phase 1: reconstruction (the junction cells first supply the
        # cross-dimensional stencil entries for the channel end cells).
        nbr = None
        if cells is not None:
            cells.reconstruct(field)
            nbr = cells.channel_neighbors(field)
        field.reconstruct(nbr)

        # Phase 2: face states, then every flux of the step.
        field.face_state(dt)
        flux, edge_fluxes, boundary_mass = self.step_fluxes(dt)

        # Phase 3: updates.
        if cells is not None:
            cells.update(edge_fluxes, dt)
        field.update(flux, dt)

        # Phase 4: transverse handling in the 1D cells next to junction cells.
        if nbr is not None:
            cells = field.end_cell[nbr[0]]
            if self.transverse_mode == "project":
                field.q[cells], discarded = project_transverse(field.q[cells])
            else:
                discarded = np.abs(field.q[cells, 2])
                field.q[cells, 2] = 0.0
            self.diagnostics["transverse_momentum_discarded"] += float(np.sum(discarded))

        # Phase 5: bookkeeping.
        self.diagnostics["boundary_influx"] += boundary_mass * dt
        self.t += dt
        self.steps += 1

    def step_fluxes(self, dt: float):
        """(face flux array, junction edge fluxes or None, boundary inflow
        rate) of a step, from the face states of the last `face_state` call.

        Every Riemann problem of the step (the interior faces, the junction
        edges, the boundary ends) is queued on one batch and solved in one
        HLLC call, which fills the arrays its producers returned; the
        algebraic junctions and transparent ends need none.
        """
        field, params = self.field, self.params
        cells = self.junction_field
        batch = RiemannBatch()
        flux = field.interior_fluxes(batch)
        edge_fluxes = None
        if cells is not None:
            edge_fluxes, (cell_ends, cell_f) = cells.compute_fluxes(field, dt, batch)
        bounds = [
            (ends, weight, boundary_flux(field.end_states(ends), group, self.t, params, batch))
            for ends, group, weight in self._boundary_groups
        ]
        batch.solve(params)
        if cells is not None:
            flux[field.end_face[cell_ends]] = cell_f
        for j in self.psfp_junctions:
            ends, f = j.compute_end_fluxes(field, dt)
            flux[field.end_face[ends]] = f
        boundary_mass = 0.0
        for ends, weight, f in bounds:
            flux[field.end_face[ends]] = f
            boundary_mass += float(np.sum(weight * f[:, 0]))
        return flux, edge_fluxes, boundary_mass

    def sample_gauges(self):
        self.recorder.times.append(self.t)
        q = self.field.q[self._gauge_cells]
        for g, (h, hu) in zip(self.recorder.gauges, q[:, :2].tolist()):
            self.recorder.h[g.id].append(h)
            self.recorder.u[g.id].append(hu / h)


# ---------------------------------------------------------------------------
# Full 2D reference simulation
# ---------------------------------------------------------------------------


class StripGauge:
    """Cross-section-averaged depth in a channel strip of a 2D mesh."""

    def __init__(self, gid, mesh: TriMesh, channel: Channel, s: float, half_width=None):
        self.id = gid
        axis = channel.axis
        perp = np.array([-axis[1], axis[0]])
        rel = mesh.centroids - channel.start
        along = rel @ axis
        across = rel @ perp
        if half_width is None:
            half_width = float(np.sqrt(np.mean(mesh.areas)))
        sel = (
            (np.abs(along - s) <= half_width)
            & (np.abs(across) <= channel.width / 2.0)
        )
        self.cells = np.flatnonzero(sel)
        if len(self.cells) == 0:
            raise ValueError(f"gauge {gid}: no cells in strip at s={s}")
        self.weights = mesh.areas[self.cells] / mesh.areas[self.cells].sum()


class PointGauge:
    def __init__(self, gid, mesh: TriMesh, point):
        self.id = gid
        self.cells = np.array([mesh.cell_containing(point)])
        self.weights = np.array([1.0])


class Mesh2DSimulation(TimeStepper):
    """Second-order unstructured solver used as the verification reference."""

    def __init__(
        self,
        mesh: TriMesh,
        params: PhysicalParams,
        order: int = 2,
        cfl: float = 0.9,
        boundary_conditions: dict = None,
        gauges=(),
    ):
        if not 0.0 < cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {cfl}")
        self.mesh = mesh
        self.params = params
        self.order = order
        self.cfl = cfl
        conds = boundary_conditions or {}
        self.field = MeshField(mesh, params, order=order)
        self.t = 0.0
        self.steps = 0
        self.gauges = list(gauges)
        self.recorder = GaugeRecorder(self.gauges)
        # Boundary edges grouped by kind (tag up to the first colon), kinds in
        # order of first appearance and edges in boundary order; an inflow or
        # prescribed group holds the `GhostStates` of its tags' conditions.
        tags = np.array(mesh.edge_tags, dtype=object)[mesh.boundary]
        names, tag_of = np.unique(tags, return_inverse=True)
        kinds = np.array([name.split(":")[0] for name in names], dtype=object)
        for name, kind in zip(names, kinds):
            if kind not in BOUNDARY_TAGS:
                raise ValueError(f"unsupported boundary tag {name!r} in 2D domain")
            if kind in ("inflow", "prescribed") and getattr(conds.get(name), "kind", None) != kind:
                raise ValueError(f"mesh has {name} edges but no {kind} condition for them")
        per_edge = kinds[tag_of]
        kind_names, first, kind_of = np.unique(per_edge, return_index=True, return_inverse=True)
        self._boundary_groups = []
        for k in np.argsort(first):
            sel = kind_of == k
            kind, ghosts = kind_names[k], None
            if kind in ("inflow", "prescribed"):
                used, rows = np.unique(tag_of[sel], return_inverse=True)
                ghosts = GhostStates(kind, [conds[names[i]] for i in used], rows)
            self._boundary_groups.append((kind, mesh.boundary[sel], ghosts))
        # Incoming invariant behind the transparent edges, set on the first step.
        self._far_field_r = None
        self._reset_diagnostics()

    def _reset_diagnostics(self):
        self.diagnostics = {"boundary_influx": 0.0}

    def set_uniform(self, h, u=0.0, v=0.0):
        self.field.set_uniform(h, u, v)

    def total_volume(self) -> float:
        return self.field.volume()

    def compute_dt(self, t_target=np.inf) -> float:
        return _checked_dt([0.5 * self.cfl * self.field.dt_bound(), t_target - self.t], self.t)

    def advance(self, dt: float):
        self.field.reconstruct()
        qL, qR = self.field.edge_states(dt)
        flux = interior_edge_fluxes(self.field, qL, qR)
        boundary_mass = self.boundary_fluxes(qL, flux)
        self.field.update(flux, dt)
        self.diagnostics["boundary_influx"] += boundary_mass * dt
        self.t += dt
        self.steps += 1

    def boundary_fluxes(self, qL, flux) -> float:
        """Write the fluxes of every boundary edge into `flux`, one call per
        kind; returns the volume inflow rate through the open edges."""
        m, params = self.mesh, self.params
        inflow = 0.0
        for kind, edges, ghosts in self._boundary_groups:
            ghost = None  # a wall
            if kind == "transparent":
                ghost = partial(self._far_field_ghost, edges)
            elif ghosts is not None:
                ghost = partial(ghosts, t=self.t, params=params)
            flux[edges] = boundary_edge_fluxes(m, qL, edges, params, ghost)
            if ghost is not None:
                inflow -= float(np.sum(m.edge_lengths[edges] * flux[edges, 0]))
        return inflow

    def _far_field_ghost(self, edges, q):
        """Transparent edges: ghosts that pin the incoming Riemann invariant to
        the initial data, so strong fronts do not reflect at open boundaries."""
        g, m = self.params.g, self.mesh
        if self._far_field_r is None:
            q0 = rotate_state(self.field.q[m.edge_left[edges]], m.edge_thetas[edges])
            self._far_field_r = q0[:, 1] / q0[:, 0] - 2.0 * np.sqrt(g * q0[:, 0])
        r_out = q[:, 1] / q[:, 0] + 2.0 * np.sqrt(g * q[:, 0])
        u_g = 0.5 * (r_out + self._far_field_r)
        c_g = 0.25 * (r_out - self._far_field_r)
        h_g = c_g * c_g / g
        return np.stack([h_g, h_g * u_g, np.zeros_like(h_g)], axis=-1)

    def sample_gauges(self):
        self.recorder.times.append(self.t)
        for g in self.gauges:
            q = self.field.q[g.cells]
            h = float(q[:, 0] @ g.weights)
            speed = float(np.hypot(q[:, 1] / q[:, 0], q[:, 2] / q[:, 0]) @ g.weights)
            self.recorder.h[g.id].append(h)
            self.recorder.u[g.id].append(speed)


def write_gauge_csv(path, recorder: GaugeRecorder):
    """Gauge CSV: header t,gauge_id,h,u; time-major, gauge-minor rows."""
    with open(path, "w") as f:
        f.write("t,gauge_id,h,u\n")
        for k, t in enumerate(recorder.times):
            for g in recorder.gauges:
                f.write(
                    f"{t!r},{g.id},{recorder.h[g.id][k]!r},{recorder.u[g.id][k]!r}\n"
                )
