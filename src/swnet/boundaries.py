"""Boundary conditions of channel ends and of 2D reference edges.

One `GhostStates` builds the inflow and prescribed ghosts of both, in the
outward-normal frame; both solvers group their boundaries by condition kind
when built and call it once per group and step. Transparent differs: zero
gradient at a channel end, a pinned incoming Riemann invariant on a 2D edge
(`simulation.Mesh2DSimulation`). `boundary_flux` queues a `BoundaryEnds`
group's Riemann problems on the network step's `riemann.RiemannBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DryStateError, physical_flux
from .riemann import mirrored


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
