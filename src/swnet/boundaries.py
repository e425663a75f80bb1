"""Boundary conditions of channel ends and of 2D reference edges.

Both solvers group their boundary faces by condition kind and call
`boundary_flux` once per group and step, on inner states in the faces'
outward-normal frames. `GhostStates` builds the inflow and prescribed ghosts
of both; open ends take zero gradient at a channel end and a `FarField`
ghost on a 2D edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DryStateError, physical_flux, to_normal
from .riemann import mirrored


BOUNDARY_KINDS = ("reflective", "transparent", "inflow", "prescribed")
# The kinds of 2D reference edge tags, the part before the first colon;
# "wall" is the reflective kind.
BOUNDARY_TAGS = ("wall", *BOUNDARY_KINDS[1:])


@dataclass
class BoundaryCondition:
    kind: str  # one of BOUNDARY_KINDS
    u_fn: object = None  # inflow velocity as a function of time
    h: float = None
    u: float = 0.0

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
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
    k has condition bcs[k]. Inflow pairs the inward velocity u_fn(t) with the
    interior's outgoing Riemann invariant; a prescribed face holds (h, u), u
    positive into the domain, read once here.
    """

    def __init__(self, kind, bcs):
        self.kind = kind
        if kind == "inflow":
            self.u_fns = [bc.u_fn for bc in bcs]
        else:
            h = np.array([bc.h for bc in bcs], dtype=float)
            self.h, self.hu = h, -h * np.array([bc.u for bc in bcs], dtype=float)

    def __call__(self, q, t: float, params):
        out = np.empty((len(q), 3))
        if self.kind == "inflow":
            g = params.g
            u_bc = np.array([float(u_fn(t)) for u_fn in self.u_fns])
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


class FarField:
    """Ghost states of open 2D edges, as `ghosts(q, t, params)`, that pin the
    incoming Riemann invariant u - 2 sqrt(g h), so that strong fronts leave
    without reflecting, to `r_in`: its value in field.q[cells] at the first
    call, the initial state, in the frames of normal cosines c and sines s."""

    def __init__(self, field, cells, c, s):
        self.field, self.cells, self.cs, self.r_in = field, cells, (c, s), None

    def __call__(self, q, t: float, params):
        g = params.g
        if self.r_in is None:
            h0, hu0, hv0 = self.field.q[self.cells].T
            self.r_in = to_normal(hu0, hv0, *self.cs)[0] / h0 - 2.0 * np.sqrt(g * h0)
        r_out = q[:, 1] / q[:, 0] + 2.0 * np.sqrt(g * q[:, 0])
        u_g = 0.5 * (r_out + self.r_in)
        c_g = 0.25 * (r_out - self.r_in)
        h_g = c_g * c_g / g
        return np.stack([h_g, h_g * u_g, np.zeros_like(h_g)], axis=-1)


def boundary_flux(q, ghost, t: float, params, batch):
    """Outward-normal-frame fluxes (K, 3) of boundary faces with inner
    states q (K, 3) in that frame.

    A None ghost marks zero-gradient ends: q's own `physical_flux`, at once.
    Any other face is one Riemann problem, inner state on the left, queued on
    `batch` (a `riemann.RiemannBatch`), whose solve fills the returned rows:
    against `riemann.mirrored` at walls, whose mass and tangential fluxes are
    then zeroed as in `wall_flux`, else against `ghost(q, t, params)`.
    """
    if ghost is None:
        return physical_flux(q, params)
    wall = ghost is mirrored
    out = np.empty_like(q)

    def read(f):
        out[:] = f
        if wall:
            out[:, ::2] = 0.0

    batch.add(q, mirrored(q) if wall else ghost(q, t, params), read)
    return out
