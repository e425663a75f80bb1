"""The two time steppers: channel networks and full 2D reference domains.

Each step runs fixed phases: reconstruction everywhere, face states and
interior, coupling and boundary fluxes, conservative updates, transverse
projection in junction-adjacent 1D cells, then gauge sampling and the
conservation ledger. The global time step is the minimum of the per-cell CFL
bounds, with the 2D limit at half the 1D CFL number.

`NetworkSimulation` holds every channel cell in one `scheme1d.ChannelField`
(`field`; `fields` maps channel ids to their `ChannelSegment`s) and steps it
with one call per stage. Coupling and boundary fluxes land on the field's
face array through one channel-end table, `end_table`, built once: it lists
every channel end once (the junction field's, each boundary group's, each
PSFP junction's), so a step reads the boundary and PSFP end states in one
call and writes every end flux in one `put`, and `advance` has no loop over
channels. Every Riemann problem of a step (interior faces, junction edges,
boundary ends) is queued on one `riemann.RiemannBatch` and solved in one
HLLC call (`step_fluxes`). The channels and one `junctions.JunctionField`
(`junction_field`, the cells of every Method-A and Method-B junction) hold
all the volume and bound the step; `advance` loops only over the algebraic
`junctions.PSFPJunction`s, which supply end fluxes after that solve.
`junctions` lists one object per junction, in the order of the specs.

`Mesh2DSimulation` steps one `scheme2d.MeshField`: the interior edges in one
fused HLLC kernel, and every boundary edge on one `RiemannBatch`
(`boundary_fluxes`). Both solve their boundary faces in the outward-normal
frame through `boundaries.boundary_flux` and count inflow as -sum(length *
outward mass flux), a channel end's length being its width. Both share one
`TimeStepper.run` loop: the gauge stride, the typed failures that end a run
as "failed", and the per-run volume ledger.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .boundaries import BOUNDARY_TAGS, FarField, GhostStates, boundary_flux
from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    flat_rows,
    rotate_back,
    rotate_state,
)
from .geometry import Channel, MeshError, TriMesh
from .junctions import JunctionField, JunctionSpec, PSFPJunction, project_transverse, wiring_errors
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
    channel: str
    s: float


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
    """The smallest of the step bounds (a list of 2 or 3 floats); a NaN bound
    or a non-positive step is an error. NaN is tested in every place: the
    builtin `min` returns a NaN only when it comes first."""
    if any(map(math.isnan, bounds)):
        raise NonFiniteError(f"non-finite wave speed at t={t:.6g}")
    dt = min(bounds)
    if not dt > 0.0:
        raise RuntimeError(f"non-positive time step dt={dt}")
    return float(dt)


class TimeStepper:
    """The time loop of both solvers, whose `__init__` takes and checks their
    order and CFL number, the keyword arguments that each solver passes on
    to it. A solver provides `recorder`, `diagnostics`,
    `_reset_diagnostics()` (the entries that cover one run), `total_volume()`,
    `compute_dt(t_target)`, `advance(dt)` and `sample_gauges()`.
    """

    def __init__(self, order: int = 2, cfl: float = 0.9):
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        if not 0.0 < cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {cfl}")
        self.order = order
        self.cfl = cfl
        self.t = 0.0
        self.steps = 0

    def run(self, t_end: float, output_stride: int = 1, max_steps: int = 10**7) -> RunResult:
        """Step to t_end (or max_steps), sampling the gauges every
        output_stride steps. A typed numerical failure ends the run as
        "failed"; the volume ledger covers this run."""
        if output_stride < 1:
            raise ValueError(f"output_stride must be at least 1, got {output_stride}")
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
    """Coupled 1D channels and junctions; a network that breaks a wiring
    rule raises a ValueError listing each (`junctions.wiring_errors`)."""

    def __init__(
        self,
        channels: list[Channel],
        junction_specs: list[JunctionSpec],
        boundaries: dict,
        params: PhysicalParams,
        gauges=(),
        **numerics,
    ):
        super().__init__(**numerics)
        self.params = params
        self.channels = {ch.id: ch for ch in channels}
        self.recorder = GaugeRecorder(gauges)
        errors = wiring_errors(
            [(ch.id, ch.length) for ch in channels],
            [(spec.id, spec.strategy, spec.connects) for spec in junction_specs],
            boundaries,
            [(g.id, g.channel, g.s) for g in self.recorder.gauges],
        )
        if errors:
            raise ValueError("; ".join(errors))

        cuts = {
            (ch, end): spec.depth_factor * self.channels[ch].width
            for spec in junction_specs
            for ch, end in spec.connects
        }
        self.field = ChannelField(channels, params, order=self.order, cuts=cuts)
        # One view per channel; the field does not list them, so a released
        # network frees its arrays without the cycle collector.
        self.fields = {
            ch.id: ChannelSegment(self.field, c) for c, ch in enumerate(self.field.channels)
        }
        # One field holds the cells of every Method-A and Method-B junction;
        # `junctions` lists its views and the PSFP junctions in spec order.
        cells = [spec for spec in junction_specs if spec.strategy != "psfp"]
        self.junction_field = (JunctionField(cells, self.channels, self.field, params, self.order)
                               if cells else None)
        self.psfp_junctions = [PSFPJunction(spec, self.field, params)
                               for spec in junction_specs if spec.strategy == "psfp"]
        views, psfp = iter(self.junction_field.junctions if cells else ()), iter(self.psfp_junctions)
        self.junctions = [next(psfp if spec.strategy == "psfp" else views) for spec in junction_specs]
        # The channel-end table of `step_fluxes`: the junction field's ends,
        # then `read`, the ends whose states it reads.
        cell_ends = [] if self.junction_field is None else self.junction_field.ends
        read = []
        # Boundary ends grouped by condition kind: (rows of `read`, widths,
        # sign tables from +s-frame states to the outward-normal frame and
        # from outward fluxes back to +s fluxes, `boundary_flux` ghost).
        by_kind = {}
        for key, bc in boundaries.items():
            by_kind.setdefault(bc.kind, []).append((key, bc))
        self._boundary_groups = []
        for kind, group in by_kind.items():
            ends = [self.field.end_index(*key) for key, _ in group]
            rows, read = slice(len(read), len(read) + len(ends)), read + ends
            width = np.array([self.channels[cid].width for (cid, _), _ in group])
            sign = self.field.end_sign[ends, None]  # the outward normal, -s at a start
            to_out = np.where([False, True, False], sign, 1.0)  # the axial momentum flips
            to_s = np.where([True, False, True], sign, 1.0)  # the mass and tangential fluxes
            ghost = mirrored if kind == "reflective" else None  # transparent: zero gradient
            if kind in ("inflow", "prescribed"):
                ghost = GhostStates(kind, [bc for _, bc in group])
            self._boundary_groups.append((rows, width, to_out, to_s, ghost))
        self._psfp_rows = [(j, slice(len(read) + 3 * k, len(read) + 3 * k + 3))
                           for k, j in enumerate(self.psfp_junctions)]
        read += [self.field.end_index(*key) for j in self.psfp_junctions for key in j.ends]
        self.end_table = np.array([self.field.end_index(*key) for key in cell_ends] + read)
        self._end_read = self.end_table[len(cell_ends):]
        self._end_put = flat_rows(self.field.end_face.take(self.end_table))

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
        # junction states in the stencils of the channel end cells).
        nbr = None
        if cells is not None:
            cells.reconstruct(field)
            nbr = cells.channel_neighbors()
        field.reconstruct(nbr)

        # Phase 2: face states, then every flux of the step.
        field.face_state(dt)
        flux, edge_fluxes, boundary_mass = self.step_fluxes(dt)

        # Phase 3: updates.
        if cells is not None:
            cells.update(edge_fluxes, dt)
        field.update(flux, dt)

        # Phase 4: transverse projection in the 1D cells next to junction
        # cells, whose stencils reach the junction states.
        if nbr is not None:
            projected, discarded = project_transverse(field.q.take(field.junction_cells, axis=0))
            field.q.put(field.junction_put, projected)
            self.diagnostics["transverse_momentum_discarded"] += float(discarded.sum())

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

        The channel-end table `end_table`, built once, lists every channel
        end once: the junction field's, each boundary group's, each PSFP
        junction's. One `end_states` call reads the boundary and PSFP ends,
        each group and junction on its own static rows; every end flux lands
        on the face array in one `put`. The NaN of `interior_fluxes` stays
        on any face the table would miss.
        """
        field, params = self.field, self.params
        cells = self.junction_field
        batch = RiemannBatch()
        flux = field.interior_fluxes(batch)
        q = field.end_states(self._end_read)
        edge_fluxes, end_fluxes = None, []
        if cells is not None:
            edge_fluxes, cell_f = cells.compute_fluxes(field, dt, batch)
            end_fluxes.append(cell_f)
        bounds = []
        for rows, width, to_out, to_s, ghost in self._boundary_groups:
            f = boundary_flux(q[rows] * to_out, ghost, self.t, params, batch)
            bounds.append((width, to_s, f))
        batch.solve(params)
        boundary_mass = 0.0
        for width, to_s, f in bounds:
            end_fluxes.append(f * to_s)
            boundary_mass -= float((width * f[:, 0]).sum())
        end_fluxes += [j.compute_end_fluxes(q[rows]) for j, rows in self._psfp_rows]
        flux.put(self._end_put, np.concatenate(end_fluxes))
        return flux, edge_fluxes, boundary_mass

    def sample_gauges(self):
        self.recorder.times.append(self.t)
        q = self.field.q[self._gauge_cells]
        for g, (h, hu) in zip(self.recorder.gauges, q[:, :2].tolist()):
            self.recorder.h[g.id].append(h)
            self.recorder.u[g.id].append(hu / h)


def strip_cells(mesh: TriMesh, channel: Channel, s0: float, s1: float, half: float):
    """(cells, along, across) of the cells whose centroids may lie within
    [s0, s1] along a channel's axis and within `half` across it: those in
    that rectangle's bounding box, grown far beyond round-off, narrower side
    first. `along` is a centroid's distance along the axis from the start,
    `across` its offset to the left; neither takes a matrix product, whose
    rounding on an oblique axis depends on the number of rows."""
    axis = channel.axis
    mid = channel.start + 0.5 * (s0 + s1) * axis
    ext = 0.5 * (s1 - s0) * np.abs(axis) + half * np.abs(axis[::-1])
    ext += 1e-9 * (1.0 + np.abs(mid).max() + ext.max())
    k = int(np.argmin(ext))
    c = mesh.centroids
    cells = np.flatnonzero(np.abs(c[:, k] - mid[k]) <= ext[k])
    cells = cells[np.abs(c[cells, 1 - k] - mid[1 - k]) <= ext[1 - k]]
    rx, ry = (c.take(cells, axis=0) - channel.start).T
    return cells, rx * axis[0] + ry * axis[1], ry * axis[0] - rx * axis[1]


class StripGauge:
    """Cross-section-averaged depth in a channel strip of a 2D mesh: the
    cells across the channel within one mean cell size of s."""

    def __init__(self, gid, mesh: TriMesh, channel: Channel, s: float):
        self.id = gid
        half_width = float(np.sqrt(np.mean(mesh.areas)))
        half = channel.width / 2.0
        cells, along, across = strip_cells(mesh, channel, s - half_width, s + half_width, half)
        self.cells = cells[(np.abs(along - s) <= half_width) & (np.abs(across) <= half)]
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
        boundary_conditions: dict = None,
        gauges=(),
        **numerics,
    ):
        super().__init__(**numerics)
        self.mesh = mesh
        self.params = params
        conds = boundary_conditions or {}
        self.field = MeshField(mesh, params, order=self.order)
        self.gauges = list(gauges)
        self.recorder = GaugeRecorder(self.gauges)
        # Boundary edges grouped by kind (tag up to the first colon), kinds in
        # order of first appearance and edges in boundary order, with the
        # cosines and sines of their normals and their `boundary_flux`
        # ghost: the mirror at walls, a `FarField` on open edges, and the
        # `GhostStates` of each edge's condition on inflow and prescribed ones.
        # This reads `mesh.edge_cos` first, so it must follow the MeshField
        # build above: normals made before the stencils raise the peak memory.
        tags = [mesh.edge_tags[e] for e in mesh.boundary.tolist()]
        for name in sorted(set(tags)):
            kind = name.split(":")[0]
            if kind not in BOUNDARY_TAGS:
                raise ValueError(f"unsupported boundary tag {name!r} in 2D domain")
            if kind in ("inflow", "prescribed") and getattr(conds.get(name), "kind", None) != kind:
                raise ValueError(f"mesh has {name} edges but no {kind} condition for them")
        by_kind = {}
        for k, name in enumerate(tags):
            by_kind.setdefault(name.split(":")[0], []).append(k)
        self._boundary_groups = []
        for kind, rows in by_kind.items():
            edges = mesh.boundary[rows]
            c, s = mesh.edge_cos[edges], mesh.edge_sin[edges]
            if kind == "wall":
                ghost = mirrored
            elif kind == "transparent":
                ghost = FarField(self.field, mesh.edge_left[edges], c, s)
            else:
                ghost = GhostStates(kind, [conds[tags[k]] for k in rows])
            self._boundary_groups.append((edges, c, s, ghost))
        # A condition whose tag marks no boundary edge would go unused. This
        # check comes last: made before the groups above, it raised the peak
        # memory of the dx = 0.02 reference by 2.4 MB.
        unused = sorted(set(conds).difference(tags))
        if unused:
            raise MeshError(f"no boundary edge carries the tag of condition {', '.join(unused)}")
        self._reset_diagnostics()

    def _reset_diagnostics(self):
        self.diagnostics = {"boundary_influx": 0.0}

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
        volume inflow rate, -sum(length * outward mass flux). Each group is
        one `boundary_flux` call in its edges' outward-normal frames, all on
        one `RiemannBatch`."""
        batch = RiemannBatch()
        solved = []
        for edges, c, s, ghost in self._boundary_groups:
            q = rotate_state(qL[edges], c, s)
            solved.append(boundary_flux(q, ghost, self.t, self.params, batch))
        batch.solve(self.params)
        inflow = 0.0
        for (edges, c, s, _), f in zip(self._boundary_groups, solved):
            inflow -= float(np.sum(self.mesh.edge_lengths[edges] * f[:, 0]))
            flux[edges] = rotate_back(f, c, s)
        return inflow

    def sample_gauges(self):
        self.recorder.times.append(self.t)
        for g in self.gauges:
            q = self.field.q[g.cells]
            h = float(q[:, 0] @ g.weights)
            speed = float(np.hypot(q[:, 1] / q[:, 0], q[:, 2] / q[:, 0]) @ g.weights)
            self.recorder.h[g.id].append(h)
            self.recorder.u[g.id].append(speed)


def write_gauge_csv(path, recorder: GaugeRecorder):
    """Gauge CSV: header t,gauge_id,h,u; time-major, gauge-minor rows; a
    gauge id that holds a comma, a quote or a line break is quoted."""
    with open(path, "w") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(("t", "gauge_id", "h", "u"))
        for k, t in enumerate(recorder.times):
            out.writerows((t, g.id, recorder.h[g.id][k], recorder.u[g.id][k])
                          for g in recorder.gauges)
