"""Time integration of channel networks and of full 2D reference domains.

Each step runs fixed phases: reconstruction everywhere, coupling/boundary
fluxes, interior fluxes, conservative updates, transverse projection in
junction-adjacent 1D cells, then gauge sampling and the conservation ledger.
The global time step is the minimum of the per-cell CFL bounds, with the 2D
limit at half the 1D CFL number.

`NetworkSimulation` drives every junction through the protocol described in
`junctions` (`ends`, `set_uniform`, `volume`, `dt_bound`, `reconstruct`,
`channel_neighbors`, `compute_fluxes`, `update`) and never asks which
strategy a junction uses. The algebraic `PSFPJunction` lives here and keeps
`compute_end_fluxes` in its own class body, which its `compute_fluxes`
calls on every step: the benchmark's tracer times PSFP junctions through
that name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DryStateError,
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    physical_flux,
    rotate_back,
    rotate_state,
)
from .geometry import Channel, TriMesh, build_junction_polygon
from .junctions import Coupling, JunctionA, JunctionB, project_transverse
from .meshing import fan_refine_mesh
from .psfp import PSFPFailure, PSFPProblem, psfp_boundary_fluxes, psfp_solve
from .riemann import hllc_flux, wall_flux
from .scheme1d import ChannelField
from .scheme2d import MeshField, interior_edge_fluxes


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


def _reflect(q):
    return np.array([q[0], -q[1], q[2]])


def boundary_flux(q_face, bc: BoundaryCondition, end: str, t: float, params):
    """Axial (+s frame) flux at a channel's outer face.

    Reflective walls mirror the inner state; transparent ends feed the face
    value back to itself; inflow builds a ghost state from the prescribed
    velocity and the outgoing Riemann invariant of the interior.
    """
    g = params.g
    if bc.kind == "reflective":
        inner = _reflect(q_face) if end == "start" else q_face
        f = wall_flux(inner, params)
        return f if end == "end" else np.array([0.0, f[1], 0.0])
    if bc.kind == "transparent":
        return physical_flux(q_face, params)
    h_i = q_face[0]
    u_i = q_face[1] / h_i
    c_i = np.sqrt(g * h_i)
    if bc.kind == "inflow":
        u_bc = float(bc.u_fn(t))
        if end == "start":
            c_g = 0.5 * (u_bc - (u_i - 2.0 * c_i))
            if c_g <= 0.0:
                raise DryStateError("inflow ghost state would be dry")
            ghost = np.array([c_g * c_g / g, c_g * c_g / g * u_bc, 0.0])
            return hllc_flux(ghost, q_face, params)
        c_g = 0.5 * ((u_i + 2.0 * c_i) - (-u_bc))
        if c_g <= 0.0:
            raise DryStateError("inflow ghost state would be dry")
        ghost = np.array([c_g * c_g / g, c_g * c_g / g * (-u_bc), 0.0])
        return hllc_flux(q_face, ghost, params)
    # prescribed state, velocity positive into the domain
    u_g = bc.u if end == "start" else -bc.u
    ghost = np.array([bc.h, bc.h * u_g, 0.0])
    if end == "start":
        return hllc_flux(ghost, q_face, params)
    return hllc_flux(q_face, ghost, params)


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

    def __init__(self, jid, connects, merging, channels, params):
        self.id = jid
        self.ends = list(connects)
        self.merging = merging
        self.params = params
        self.widths = np.array([channels[ch].width for ch, _ in self.ends])
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

    def reconstruct(self, fields):
        pass

    def channel_neighbors(self, fields):
        return {}

    def compute_fluxes(self, fields, dt):
        return None, self.compute_end_fluxes(fields, dt)

    def compute_end_fluxes(self, fields, dt):
        depths = np.empty(3)
        velocities = np.empty(3)
        for k, (ch, end) in enumerate(self.ends):
            f = fields[ch]
            side = "left" if end == "start" else "right"
            qf = f.face_state(f.end_cell(end), side, dt, evolve=False)
            depths[k] = qf[0]
            velocities[k] = self.tau[k] * qf[1] / qf[0]
        problem = PSFPProblem(self.widths, depths, velocities, merging=self.merging)
        try:
            star = psfp_solve(problem, self.params)
        except PSFPFailure as exc:
            raise PSFPFailure(
                exc.kind,
                f"junction {self.id}: {exc.message}",
                residual_norm=exc.residual_norm,
                iterations=exc.iterations,
            ) from exc
        rows = psfp_boundary_fluxes(star, self.params)
        return {
            key: np.array([self.tau[k] * rows[k, 0], rows[k, 1], 0.0])
            for k, key in enumerate(self.ends)
        }

    def update(self, edge_fluxes, dt):
        pass


def build_junction(spec: JunctionSpec, channels, fields, params, order, coupling_mode):
    """The junction object for a spec: Method A, Method B or algebraic PSFP."""
    if spec.strategy == "psfp":
        return PSFPJunction(spec.id, spec.connects, spec.merging, channels, params)
    ends = [channels[ch].connected_end(end) for ch, end in spec.connects]
    geom = build_junction_polygon(ends, spec.position, spec.depth_factor)
    # (channel, end, length, patch mesh edge) per coupling edge or sub-edge.
    if spec.strategy == "A":
        bound = [(e.channel, e.channel_end, e.length, -1) for e in geom.coupling_edges()]
    else:
        mesh = fan_refine_mesh(geom, spec.patch_refine)
        bound = [
            (*mesh.edge_tags[e].split(":")[1:], float(mesh.edge_lengths[e]), int(e))
            for e in mesh.boundary
            if mesh.edge_tags[e].startswith("coupling:")
        ]
    couplings = [
        Coupling(
            channel=ch,
            end=end,
            sigma=1.0 if end == "start" else -1.0,
            alpha=channels[ch].axis_angle,
            length=length,
            cell_edge=e,
        )
        for ch, end, length, e in bound
    ]
    if spec.strategy == "A":
        return JunctionA(spec.id, geom, couplings, fields, params, order, coupling_mode)
    return JunctionB(spec.id, mesh, couplings, fields, params, order, coupling_mode)


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


class NetworkSimulation:
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
        self.fields = {
            ch.id: ChannelField(
                ch,
                params,
                order=order,
                start_cut=cuts.get((ch.id, "start"), 0.0),
                end_cut=cuts.get((ch.id, "end"), 0.0),
            )
            for ch in channels
        }
        self.junctions = [
            build_junction(spec, self.channels, self.fields, params, order, coupling_mode)
            for spec in junction_specs
        ]
        self.boundaries = dict(boundaries)

        self.t = 0.0
        self.steps = 0
        self.recorder = GaugeRecorder(gauges)
        self._gauge_cells = {
            g.id: (g.channel, self.fields[g.channel].cell_at(g.s))
            for g in self.recorder.gauges
        }
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
        for j in self.junctions:
            hs = [self.fields[ch].q[self.fields[ch].end_cell(end), 0] for ch, end in j.ends]
            j.set_uniform(float(np.mean(hs)))

    def total_volume(self) -> float:
        v = sum(f.volume() for f in self.fields.values())
        v += sum(j.volume() for j in self.junctions)
        return float(v)

    # -- stepping ----------------------------------------------------------

    def compute_dt(self, t_target=np.inf) -> float:
        dt = min(self.cfl * f.dt_bound() for f in self.fields.values())
        for j in self.junctions:
            dt = min(dt, 0.5 * self.cfl * j.dt_bound())
        if t_target < np.inf:
            dt = min(dt, t_target - self.t)
        if not dt > 0.0:
            if np.isnan(dt):
                raise NonFiniteError(f"non-finite wave speed at t={self.t:.6g}")
            raise RuntimeError(f"non-positive time step dt={dt}")
        return float(dt)

    def advance(self, dt: float):
        fields = self.fields
        # Phase 1: reconstruction (junction elements first supply the
        # cross-dimensional stencil entries for the channel end cells).
        nbr = {}
        for j in self.junctions:
            j.reconstruct(fields)
            nbr.update(j.channel_neighbors(fields))
        for cid, f in fields.items():
            f.reconstruct(
                nbr_start=nbr.get((cid, "start")), nbr_end=nbr.get((cid, "end"))
            )

        # Phase 2: coupling, junction, and boundary fluxes.
        end_flux = {}
        junction_edge_fluxes = []
        for j in self.junctions:
            ef, endf = j.compute_fluxes(fields, dt)
            junction_edge_fluxes.append(ef)
            end_flux.update(endf)
        boundary_mass = 0.0
        for (cid, end), bc in self.boundaries.items():
            f = fields[cid]
            side = "left" if end == "start" else "right"
            qf = f.face_state(f.end_cell(end), side, dt, evolve=False)
            flx = boundary_flux(qf, bc, end, self.t, self.params)
            end_flux[(cid, end)] = flx
            sign = 1.0 if end == "start" else -1.0
            boundary_mass += sign * flx[0] * f.channel.width

        # Phase 3: interior fluxes.
        interior = {cid: f.interior_fluxes(dt) for cid, f in fields.items()}

        # Phase 4: updates.
        for j, ef in zip(self.junctions, junction_edge_fluxes):
            j.update(ef, dt)
        for cid, f in fields.items():
            f.update(end_flux[(cid, "start")], interior[cid], end_flux[(cid, "end")], dt)

        # Phase 5: transverse handling in the 1D cells next to junction cells.
        for ch, end in nbr:
            f = fields[ch]
            i = f.end_cell(end)
            if self.transverse_mode == "project":
                f.q[i], discarded = project_transverse(f.q[i])
            else:
                discarded = abs(f.q[i, 2])
                f.q[i, 2] = 0.0
            self.diagnostics["transverse_momentum_discarded"] += discarded

        # Phase 6: bookkeeping.
        self.diagnostics["boundary_influx"] += boundary_mass * dt
        self.t += dt
        self.steps += 1

    def sample_gauges(self):
        self.recorder.times.append(self.t)
        for g in self.recorder.gauges:
            cid, i = self._gauge_cells[g.id]
            q = self.fields[cid].q[i]
            self.recorder.h[g.id].append(float(q[0]))
            self.recorder.u[g.id].append(float(q[1] / q[0]))

    def run(self, t_end: float, output_stride: int = 1, max_steps: int = 10**7) -> RunResult:
        start = time.perf_counter()
        v0 = self.total_volume()
        self.diagnostics["initial_volume"] = v0
        self.sample_gauges()
        failure = None
        try:
            while self.t < t_end - 1e-12 and self.steps < max_steps:
                dt = self.compute_dt(t_target=t_end)
                self.advance(dt)
                if self.steps % output_stride == 0:
                    self.sample_gauges()
        except (PSFPFailure, PositivityError, DryStateError, NonFiniteError) as exc:
            failure = exc
            if isinstance(exc, PSFPFailure):
                self.diagnostics["psfp_failures"].append(
                    {"t": self.t, "kind": exc.kind, "message": str(exc)}
                )
        wall = time.perf_counter() - start
        self.diagnostics["final_volume"] = self.total_volume()
        self.diagnostics["volume_defect"] = (
            self.diagnostics["final_volume"] - v0 - self.diagnostics["boundary_influx"]
        )
        return RunResult(
            status="failed" if failure else "completed",
            t=self.t,
            steps=self.steps,
            gauges=self.recorder,
            diagnostics=dict(self.diagnostics),
            wall_time=wall,
            failure=failure,
        )


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


class Mesh2DSimulation:
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
        self.bcs = dict(boundary_conditions or {})
        self.field = MeshField(mesh, params, order=order)
        self.t = 0.0
        self.steps = 0
        self.gauges = list(gauges)
        self.recorder = GaugeRecorder(self.gauges)
        self._tag_groups = {}
        for e in mesh.boundary:
            kind = mesh.edge_tags[e].split(":")[0]
            self._tag_groups.setdefault(kind, []).append(e)
        self._tag_groups = {k: np.array(v) for k, v in self._tag_groups.items()}
        unknown = set(self._tag_groups) - {"wall", "transparent", "inflow", "prescribed"}
        if unknown:
            raise ValueError(f"unsupported boundary tags in 2D domain: {unknown}")
        for kind in ("inflow", "prescribed"):
            if kind in self._tag_groups and kind not in self.bcs:
                raise ValueError(f"mesh has {kind} edges but no {kind} condition given")
        # Far-field state behind transparent edges, captured from the initial
        # data on the first step; pinning the incoming invariant to it keeps
        # strong fronts from reflecting at open boundaries.
        self._transparent_bg = None

    def set_uniform(self, h, u=0.0, v=0.0):
        self.field.set_uniform(h, u, v)

    def compute_dt(self, t_target=np.inf) -> float:
        dt = 0.5 * self.cfl * self.field.dt_bound()
        dt = min(dt, t_target - self.t)
        if not dt > 0.0:
            if np.isnan(dt):
                raise NonFiniteError(f"non-finite wave speed at t={self.t:.6g}")
            raise RuntimeError(f"non-positive time step dt={dt}")
        return float(dt)

    def advance(self, dt: float):
        self.field.reconstruct()
        qL, qR = self.field.edge_states(dt)
        flux = interior_edge_fluxes(self.field, qL, qR)
        m = self.mesh
        for kind, edges in self._tag_groups.items():
            thetas = m.edge_thetas[edges]
            qhat = rotate_state(qL[edges], thetas)
            if kind == "wall":
                fhat = wall_flux(qhat, self.params)
            elif kind == "transparent":
                g = self.params.g
                if self._transparent_bg is None:
                    q0 = rotate_state(self.field.q[m.edge_left[edges]], thetas)
                    self._transparent_bg = q0[:, 1] / q0[:, 0] - 2.0 * np.sqrt(
                        g * q0[:, 0]
                    )
                r_out = qhat[:, 1] / qhat[:, 0] + 2.0 * np.sqrt(g * qhat[:, 0])
                u_g = 0.5 * (r_out + self._transparent_bg)
                c_g = 0.25 * (r_out - self._transparent_bg)
                h_g = c_g * c_g / g
                ghost = np.stack([h_g, h_g * u_g, np.zeros_like(h_g)], axis=-1)
                fhat = hllc_flux(qhat, ghost, self.params)
            elif kind == "inflow":
                g = self.params.g
                u_bc = float(self.bcs["inflow"].u_fn(self.t))
                h_i = qhat[:, 0]
                u_i = qhat[:, 1] / h_i
                c_g = 0.5 * (u_i + 2.0 * np.sqrt(g * h_i) + u_bc)
                if np.any(c_g <= 0.0):
                    raise DryStateError("inflow ghost state would be dry")
                h_g = c_g * c_g / g
                ghost = np.stack([h_g, h_g * (-u_bc), np.zeros_like(h_g)], axis=-1)
                fhat = hllc_flux(qhat, ghost, self.params)
            else:  # prescribed state, velocity positive into the domain
                bc = self.bcs["prescribed"]
                ghost = np.broadcast_to(
                    np.array([bc.h, -bc.h * bc.u, 0.0]), qhat.shape
                )
                fhat = hllc_flux(qhat, ghost, self.params)
            flux[edges] = rotate_back(fhat, thetas)
        self.field.update(flux, dt)
        self.t += dt
        self.steps += 1

    def sample_gauges(self):
        self.recorder.times.append(self.t)
        for g in self.gauges:
            q = self.field.q[g.cells]
            h = float(q[:, 0] @ g.weights)
            speed = float(np.hypot(q[:, 1] / q[:, 0], q[:, 2] / q[:, 0]) @ g.weights)
            self.recorder.h[g.id].append(h)
            self.recorder.u[g.id].append(speed)

    def run(self, t_end: float, output_stride: int = 1, max_steps: int = 10**7) -> RunResult:
        start = time.perf_counter()
        v0 = self.field.volume()
        self.sample_gauges()
        failure = None
        try:
            while self.t < t_end - 1e-12 and self.steps < max_steps:
                self.advance(self.compute_dt(t_target=t_end))
                if self.steps % output_stride == 0:
                    self.sample_gauges()
        except (PositivityError, DryStateError, NonFiniteError) as exc:
            failure = exc
        wall = time.perf_counter() - start
        diags = {"initial_volume": v0, "final_volume": self.field.volume()}
        return RunResult(
            status="failed" if failure else "completed",
            t=self.t,
            steps=self.steps,
            gauges=self.recorder,
            diagnostics=diags,
            wall_time=wall,
            failure=failure,
        )


def write_gauge_csv(path, recorder: GaugeRecorder):
    """Gauge CSV: header t,gauge_id,h,u; time-major, gauge-minor rows."""
    with open(path, "w") as f:
        f.write("t,gauge_id,h,u\n")
        for k, t in enumerate(recorder.times):
            for g in recorder.gauges:
                f.write(
                    f"{t!r},{g.id},{recorder.h[g.id][k]!r},{recorder.u[g.id][k]!r}\n"
                )
