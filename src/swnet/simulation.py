"""The two time steppers: channel networks and full 2D reference domains.

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
HLLC call (`step_fluxes`). The channels and one `junctions.JunctionField`
(`junction_field`, the cells of every Method-A and Method-B junction) hold
all the volume and bound the step; `advance` loops only over the algebraic
`junctions.PSFPJunction`s, which supply end fluxes after that solve.
`junctions` lists one object per junction, in the order of the specs.

`Mesh2DSimulation` steps one `scheme2d.MeshField`: the interior edges in one
fused HLLC kernel, and every boundary edge on one `RiemannBatch`
(`boundary_fluxes`). Both solvers share one `TimeStepper.run` loop: the
gauge stride, the typed failures that end a run as "failed", and the
per-run volume ledger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boundaries import BoundaryEnds, GhostStates, boundary_flux
from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    from_normal,
    to_normal,
)
from .geometry import BOUNDARY_TAGS, Channel, TriMesh
from .junctions import JunctionSpec, PSFPJunction, build_junctions, project_transverse
from .psfp import PSFPFailure
from .riemann import RiemannBatch, mirrored
# Unused here since the network step batches its Riemann problems; still
# bound, as the benchmark's tracer test wraps it in this module.
from .riemann import hllc_flux  # noqa: F401
from .scheme1d import ChannelField, ChannelSegment
from .scheme2d import MeshField, interior_edge_fluxes


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
        """Start every junction cell at rest at the mean depth of its
        junction's channel end cells."""
        if self.junction_field is None:
            return
        field = self.field
        for j in self.junction_field.junctions:
            cells = field.end_cell[[field.end_index(ch, end) for ch, end in j.ends]]
            j.set_uniform(float(np.mean(field.q[cells, 0])))

    def total_volume(self) -> float:
        volume = self.field.volume()
        if self.junction_field is not None:
            volume += self.junction_field.volume()
        return float(volume)

    # -- stepping ----------------------------------------------------------

    def compute_dt(self, t_target=np.inf) -> float:
        bounds = [self.cfl * self.field.dt_bound(), t_target - self.t]
        if self.junction_field is not None:
            bounds.append(0.5 * self.cfl * self.junction_field.dt_bound())
        return _checked_dt(bounds, self.t)

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
        # order of first appearance and edges in boundary order, with the
        # cosines and sines of their normals; an inflow or prescribed group
        # holds the `GhostStates` of its tags' conditions.
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
            kind, edges, ghosts = kind_names[k], mesh.boundary[sel], None
            if kind in ("inflow", "prescribed"):
                used, rows = np.unique(tag_of[sel], return_inverse=True)
                ghosts = GhostStates(kind, [conds[names[i]] for i in used], rows)
            th = mesh.edge_thetas[edges]
            self._boundary_groups.append((kind, edges, np.cos(th), np.sin(th), ghosts))
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
        """Write the fluxes of every boundary edge into `flux`; returns the
        volume inflow rate through the open edges.

        Each edge is one Riemann problem in its outward-normal frame with the
        inner state on the left, and all of them are queued on one
        `RiemannBatch`: walls against the mirrored state (their mass and
        tangential fluxes are then zeroed, as in `wall_flux`), inflow and
        prescribed edges against their `GhostStates`, and transparent edges
        against the far-field ghost.
        """
        batch = RiemannBatch()
        solved = []
        for kind, edges, c, s, ghosts in self._boundary_groups:
            h, hu, hv = qL[edges].T
            q = np.stack([h, *to_normal(hu, hv, c, s)], axis=-1)
            if kind == "wall":
                ghost = mirrored(q)
            elif kind == "transparent":
                ghost = self._far_field_ghost(edges, c, s, q)
            else:
                ghost = ghosts(q, self.t, self.params)
            batch.add(q, ghost, solved.append)
        batch.solve(self.params)
        inflow = 0.0
        for (kind, edges, c, s, _), f in zip(self._boundary_groups, solved):
            if kind == "wall":
                f[:, ::2] = 0.0
            else:
                inflow -= float(np.sum(self.mesh.edge_lengths[edges] * f[:, 0]))
            flux[edges] = np.stack([f[:, 0], *from_normal(f[:, 1], f[:, 2], c, s)], axis=-1)
        return inflow

    def _far_field_ghost(self, edges, c, s, q):
        """Transparent edges: ghosts that pin the incoming Riemann invariant to
        the initial data, so strong fronts do not reflect at open boundaries."""
        g = self.params.g
        if self._far_field_r is None:
            h0, hu0, hv0 = self.field.q[self.mesh.edge_left[edges]].T
            self._far_field_r = to_normal(hu0, hv0, c, s)[0] / h0 - 2.0 * np.sqrt(g * h0)
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
