"""Second-order finite-volume scheme on 1D channel grids.

One-step ADER update: limited linear reconstruction, half-time-step evolution
of the boundary-extrapolated states through the flux Jacobian, HLLC interface
fluxes, conservative update. States are (n, 3) conserved arrays in the
channel's axial frame; the transverse component stays zero away from
junction-adjacent cells.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    friction_source,
    jacobian_dot,
    max_wave_speed,
)
from .geometry import Channel
from .riemann import hllc_flux


class ChannelField:
    """Cell averages and reconstruction data for one channel."""

    def __init__(
        self,
        channel: Channel,
        params: PhysicalParams,
        order: int = 2,
        start_cut: float = 0.0,
        end_cut: float = 0.0,
    ):
        ds = channel.ds

        def trimmed(cut):
            # Junction elements protrude into the channel by `cut`; drop the
            # swallowed cells and keep the partial end cell within
            # [ds/2, 3ds/2] so it cannot become a CFL sliver.
            k = int(np.floor(cut / ds + 1e-9))
            rem = cut - k * ds
            if rem > 0.5 * ds:
                k += 1
            return k

        k0, k1 = trimmed(start_cut), trimmed(end_cut)
        n = channel.cells - k0 - k1
        if n < 2:
            raise ValueError(
                f"channel {channel.id}: junction protrusions leave {n} cells "
                f"(need at least 2)"
            )
        edges = np.concatenate(
            [[start_cut], ds * np.arange(k0 + 1, channel.cells - k1), [channel.length - end_cut]]
        )
        self.channel = channel
        self.params = params
        self.order = order
        self.ds = np.diff(edges)
        self.centers = 0.5 * (edges[:-1] + edges[1:])
        if np.any(self.ds <= 0.0):
            raise ValueError(f"channel {channel.id}: non-positive trimmed cell")
        self.q = np.zeros((n, 3))
        self.slopes = np.zeros((n, 3))
        # Static stencil geometry for the interior least-squares slopes.
        self._dL = (self.centers[1:-1] - self.centers[:-2])[:, None]
        self._dR = (self.centers[2:] - self.centers[1:-1])[:, None]
        self._denom = self._dL * self._dL + self._dR * self._dR
        self._half = 0.5 * self.ds[:, None]

    @property
    def n(self) -> int:
        return len(self.q)

    def set_uniform(self, h, u=0.0):
        self.q[:, 0] = h
        self.q[:, 1] = h * u
        self.q[:, 2] = 0.0

    def positions(self) -> np.ndarray:
        """Global (x, y) coordinates of the cell centers."""
        if not hasattr(self, "_positions"):
            self._positions = (
                self.channel.start[None, :] + self.centers[:, None] * self.channel.axis
            )
        return self._positions

    def end_cell(self, end: str) -> int:
        """Index of the cell at the channel's "start" or "end"."""
        return 0 if end == "start" else self.n - 1

    def cell_at(self, s: float) -> int:
        return int(np.clip(np.searchsorted(self.centers, s), 0, self.n - 1))

    def volume(self) -> float:
        return float(np.sum(self.q[:, 0] * self.ds) * self.channel.width)

    def dt_bound(self) -> float:
        lam = max_wave_speed(self.q, self.params)
        return float(np.min(self.ds / lam))

    def reconstruct(self, nbr_start=None, nbr_end=None):
        """Limited least-squares slopes of the conserved variables.

        nbr_start / nbr_end optionally supply a junction-side neighbor as a
        (state, centroid_distance) pair expressed in the channel frame; cells
        at plain boundary ends keep zero slope.
        """
        q, n = self.q, self.n
        self.slopes[:] = 0.0
        if self.order < 2 or n < 2:
            return

        diffL = q[:-2] - q[1:-1]
        diffR = q[2:] - q[1:-1]
        self.slopes[1:-1] = (self._dR * diffR - self._dL * diffL) / self._denom

        lo = np.minimum(np.minimum(q[:-2], q[2:]), q[1:-1])
        hi = np.maximum(np.maximum(q[:-2], q[2:]), q[1:-1])
        qmin = np.empty_like(q)
        qmax = np.empty_like(q)
        qmin[1:-1], qmax[1:-1] = lo, hi
        qmin[0] = qmax[0] = q[0]
        qmin[-1] = qmax[-1] = q[-1]

        for idx, nbr, inner in ((0, nbr_start, 1), (n - 1, nbr_end, n - 2)):
            if nbr is None:
                continue
            nbr_q, nbr_d = nbr
            diff_in = q[inner] - q[idx]
            diff_nb = nbr_q - q[idx]
            # Least squares over the interior neighbor and the junction
            # element; the junction centroid sits beyond the end face, at the
            # projected distance nbr_d along the axis.
            off_in = self.centers[inner] - self.centers[idx]
            off_nb = (-1.0 if idx == 0 else 1.0) * nbr_d
            denom = off_in**2 + off_nb**2
            self.slopes[idx] = (off_in * diff_in + off_nb * diff_nb) / denom
            qmin[idx] = np.minimum(np.minimum(q[inner], nbr_q), q[idx])
            qmax[idx] = np.maximum(np.maximum(q[inner], nbr_q), q[idx])

        self._limit(qmin, qmax)

    def _limit(self, qmin, qmax):
        """Barth-Jespersen: face values must not exceed stencil bounds."""
        dq = self.slopes * self._half
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = (qmin - self.q) / dq
            hi = (qmax - self.q) / dq
        pos = dq > 0.0
        neg = dq < 0.0
        # Both faces at once: the -dq face swaps the roles of lo and hi.
        cand = np.where(pos, np.minimum(hi, -lo), np.where(neg, np.minimum(lo, -hi), 1.0))
        self.slopes *= np.clip(cand, 0.0, 1.0)

    def face_state(self, i: int, side: str, dt: float, evolve: bool = True):
        """Boundary-extrapolated (and optionally half-step evolved) state."""
        off = 0.5 * self.ds[i] if side == "right" else -0.5 * self.ds[i]
        qf = self.q[i] + self.slopes[i] * off
        if evolve and self.order >= 2:
            qf = qf - 0.5 * dt * jacobian_dot(qf, self.slopes[i], None, self.params)
        return qf

    def interior_fluxes(self, dt: float) -> np.ndarray:
        """HLLC fluxes at the n-1 interior interfaces."""
        qL = self.q[:-1] + self.slopes[:-1] * self._half[:-1]
        qR = self.q[1:] - self.slopes[1:] * self._half[1:]
        if self.order >= 2:
            qL = qL - 0.5 * dt * jacobian_dot(qL, self.slopes[:-1], None, self.params)
            qR = qR - 0.5 * dt * jacobian_dot(qR, self.slopes[1:], None, self.params)
        return hllc_flux(qL, qR, self.params)

    def update(self, flux_start, interior, flux_end, dt: float):
        """Conservative update with explicit pointwise friction."""
        F = np.vstack([flux_start[None, :], interior, flux_end[None, :]])
        dq = -(dt / self.ds)[:, None] * (F[1:] - F[:-1])
        if self.params.friction_enabled and self.params.manning_n > 0.0:
            dq += dt * friction_source(self.q, self.params)
        self.q = self.q + dq
        if not np.isfinite(self.q).all():
            i = int(np.argmin(np.isfinite(self.q).all(axis=1)))
            raise NonFiniteError(
                f"non-finite state in channel {self.channel.id} cell {i}"
            )
        if (self.q[:, 0] <= 0.0).any():
            i = int(np.argmin(self.q[:, 0]))
            raise PositivityError(
                f"negative depth {self.q[i, 0]:.3e} in channel "
                f"{self.channel.id} cell {i}"
            )

    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.q[:, 0]))))
