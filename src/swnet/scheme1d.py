"""Second-order finite-volume scheme on the 1D channel grids of a network.

One-step ADER update: limited linear reconstruction, half-time-step evolution
of the boundary-extrapolated states through the flux Jacobian, HLLC interface
fluxes, conservative update. States are (n, 3) conserved arrays in each
channel's axial frame; the transverse component stays zero away from
junction-adjacent cells.

Ragged layout. `ChannelField` holds the cells of every channel of a network
in one (N, 3) array, channel after channel; `offsets[c]:offsets[c + 1]` are
the cells of channel c. Each channel has one more face than cells, so the
network has N + C faces and cell i of channel c lies between faces i + c and
i + c + 1. Each step then runs every stage (reconstruction, limiting, face
states, update, CFL bound) as one numpy call over all cells, and queues the
interior Riemann problems on the network step's one HLLC batch.
Channel ends are numbered 2c ("start") and 2c + 1 ("end"); the `end_*`
arrays map an end to its cell, its face and the side of the cell it lies on,
and junctions and boundaries address the field only through these numbers.

The per-call rule. At network size a step pays per numpy call, not per cell:
a step method does only the state's arithmetic, in ufuncs and array methods,
not numpy's Python-level wrappers (listed in `tests/test_layout.py`). Its
static tables are built once: the face rows of `interior_fluxes` and the
two stencil neighbours of every cell, with which `reconstruct` is one gather,
slope and bound pass over interior, boundary and junction end cells alike.
A step moves rows through them with `x.take(rows, axis=0)` and
`x.put(flat, v)`, where `flat` is the `core.flat_rows` table (3 row +
component) of the rows, not with `x[rows]`, which costs a few times more at
network size. The network stepper keeps one such table of every channel end
(`NetworkSimulation.step_fluxes`): one `end_states` call reads its boundary
and PSFP ends, and one `put` writes every end flux.

`ChannelSegment` is one channel's window onto the field. Its `q` slices
the owner's array on every access instead of holding a numpy view taken at
construction: `copy.deepcopy` turns a view into an independent array, so a
copied simulation would otherwise read stale cells.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    flat_rows,
    friction_source,
    jacobian_dot,
    max_wave_speed,
)
from .geometry import Channel
# Unused here since the network step batches its Riemann problems; still
# bound, as the benchmark's tracer test wraps it in this module.
from .riemann import hllc_flux  # noqa: F401


def _trim(channel: Channel, start_cut: float, end_cut: float):
    """(cell width, swallowed start cells, remaining cells, axial position of
    the last face) of a channel whose ends the junction elements protrude
    into by the cuts."""
    length = channel.length
    ds = length / channel.cells

    def swallowed(cut):
        # Drop the swallowed cells and keep the partial end cell within
        # [ds/2, 3ds/2] so it cannot become a CFL sliver.
        k = math.floor(cut / ds + 1e-9)
        return k + 1 if cut - k * ds > 0.5 * ds else k

    k0 = swallowed(start_cut)
    n = channel.cells - k0 - swallowed(end_cut)
    if n < 2:
        raise ValueError(
            f"channel {channel.id}: junction protrusions leave {n} cells "
            f"(need at least 2)"
        )
    return ds, k0, n, length - end_cut


class ChannelField:
    """Cell averages and reconstruction data of every channel of a network."""

    def __init__(
        self,
        channels: list[Channel],
        params: PhysicalParams,
        order: int = 2,
        cuts: dict | None = None,
    ):
        """`cuts` maps (channel id, "start" | "end") to the protrusion of the
        junction element attached there; missing ends are not trimmed."""
        cuts = cuts or {}
        start_cut = [cuts.get((ch.id, "start"), 0.0) for ch in channels]
        cell_ds, k0, counts, end_pos = np.array(
            [_trim(ch, a, cuts.get((ch.id, "end"), 0.0)) for ch, a in zip(channels, start_cut)]
        ).T
        counts = counts.astype(int)
        N, C = int(counts.sum()), len(channels)
        self.channels = list(channels)
        self.params = params
        self.order = order
        self.index = {ch.id: c for c, ch in enumerate(channels)}
        self.offsets = np.zeros(C + 1, dtype=int)
        np.cumsum(counts, out=self.offsets[1:])
        self._chan = np.repeat(np.arange(C), counts)
        first, last = self.offsets[:-1], self.offsets[1:] - 1

        # Faces along each channel axis: uniform, except where a junction
        # element cuts the first and last cell. Cell i of channel c lies
        # between faces i + c and i + c + 1.
        face_chan = np.repeat(np.arange(C), counts + 1)
        first_face = first + np.arange(C)
        faces = cell_ds[face_chan] * (np.arange(N + C) - (first_face - k0)[face_chan])
        faces[first_face] = start_cut
        faces[first_face + counts] = end_pos
        self._left_face = np.arange(N) + self._chan
        left, right = faces[self._left_face], faces[self._left_face + 1]
        self.ds = right - left
        if self.ds.min() <= 0.0:
            c = self._chan[np.argmin(self.ds)]
            raise ValueError(f"channel {channels[c].id}: non-positive trimmed cell")
        self.centers = 0.5 * (left + right)
        self.widths = np.array([ch.width for ch in channels])
        self.q = np.zeros((N, 3))
        self.slopes = np.zeros((N, 3))
        # Face states of every cell, set by `face_state`: rows [0, N) hold the
        # left faces, rows [N, 2N) the right faces.
        self.faces = None

        # Channel ends: 2c is the start of channel c, 2c + 1 its end.
        self.end_cell = np.empty(2 * C, dtype=int)
        self.end_cell[0::2], self.end_cell[1::2] = first, last
        self.end_face = self.end_cell + (np.arange(2 * C) + 1) // 2
        self.end_sign = np.ones(2 * C)  # side of the cell the end face lies on
        self.end_sign[0::2] = -1.0
        self.end_slot = self.end_cell + N * (self.end_sign > 0.0)  # row in `faces`
        self.end_off = self.end_sign * (0.5 * self.ds[self.end_cell])

        self._half = 0.5 * self.ds[:, None]
        # Cells with a right neighbor in the same channel; the face between
        # cell i and i + 1 of the flat array is face i + c + 1.
        has_right = np.ones(N, dtype=bool)
        has_right[last] = False
        self._lcell = np.arange(N)[has_right]
        self._inner_face = self._left_face[has_right] + 1
        self._inner_put = flat_rows(self._inner_face)
        # The rows of `faces` that `interior_fluxes` queues as (left, right) states.
        self._face_rows = N + self._lcell, self._lcell + 1
        # Two least-squares stencil neighbours per cell, rows of the source
        # array of `reconstruct`, at signed axial offsets: an interior cell's
        # left and right cells, and an end cell itself twice at offset 1
        # (slope +0.0, bounds q) unless `attach_junctions` gives it a junction.
        # Built from 1D arrays: fancy writes to 2D ones cost ~10x more.
        a, b = np.arange(-1, N - 1), np.arange(1, N + 1)
        a[self.end_cell] = b[self.end_cell] = self.end_cell
        off_a, off_b = self.centers.take(a) - self.centers, self.centers.take(b) - self.centers
        off_a[self.end_cell] = off_b[self.end_cell] = 1.0
        self._nbr, self._off = (a, b), (off_a[:, None], off_b[:, None])
        self._denom = self._off[0] ** 2 + self._off[1] ** 2
        self.junction_cells = self.junction_put = np.empty(0, dtype=int)

    @property
    def n(self) -> int:
        return len(self.q)

    def end_index(self, channel_id: str, end: str) -> int:
        """Number of the channel end ("start" or "end") of a channel."""
        return 2 * self.index[channel_id] + (end == "end")

    def volume(self) -> float:
        per_channel = np.add.reduceat(self.q[:, 0] * self.ds, self.offsets[:-1])
        return float(np.sum(per_channel * self.widths))

    def dt_bound(self) -> float:
        lam = max_wave_speed(self.q, self.params)
        return float((self.ds / lam).min())

    def attach_junctions(self, ends, dists):
        """Give the cells at channel ends `ends` their junction neighbour:
        row N + k of `reconstruct`'s source, the junction state of end k,
        whose centroid sits `dists[k]` beyond the end face. Static; the
        junction field calls it once. Keeps the cells as `junction_cells` and
        their `flat_rows` as `junction_put`."""
        cells, sign = self.end_cell[ends], self.end_sign[ends]
        inner = cells - sign.astype(int)
        off_in = (self.centers[inner] - self.centers[cells])[:, None]
        off_nb = (sign * dists)[:, None]
        (a, b), (off_a, off_b) = self._nbr, self._off
        a[cells], b[cells] = inner, self.n + np.arange(len(cells))
        off_a[cells], off_b[cells] = off_in, off_nb
        self._denom[cells] = off_in**2 + off_nb**2
        self.junction_cells, self.junction_put = cells, flat_rows(cells)

    def reconstruct(self, nbr=None):
        """Limited least-squares slopes of the conserved variables, each from
        the cell's two neighbours in the stencil table.

        `nbr` holds the junction states of the ends given to
        `attach_junctions`, one row per end in its channel's frame; a field
        with attached junctions needs them.
        """
        q = self.q
        if self.order < 2:
            self.slopes = np.zeros(q.shape)
            return
        src = q if nbr is None else np.concatenate([q, nbr])
        (a, b), (off_a, off_b) = self._nbr, self._off
        qa, qb = src.take(a, axis=0), src.take(b, axis=0)
        self.slopes = (off_a * (qa - q) + off_b * (qb - q)) / self._denom
        self._limit(np.minimum(np.minimum(qa, qb), q), np.maximum(np.maximum(qa, qb), q))

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
        # np.clip, with the bound first in each call for its signs of zero.
        self.slopes *= np.minimum(1.0, np.maximum(0.0, cand, out=cand), out=cand)

    def face_state(self, dt: float) -> np.ndarray:
        """Boundary-extrapolated, half-step evolved states at both faces of
        every cell, (2N, 3); also kept as `faces`."""
        step = self.slopes * self._half
        faces = np.concatenate([self.q - step, self.q + step])
        if self.order >= 2:
            slopes = np.concatenate([self.slopes, self.slopes])
            faces = faces - 0.5 * dt * jacobian_dot(faces, slopes, None, self.params)
        self.faces = faces
        return faces

    def end_states(self, ends) -> np.ndarray:
        """Boundary-extrapolated states at channel end faces, not evolved."""
        cells, off = self.end_cell.take(ends), self.end_off.take(ends)[:, None]
        return self.q.take(cells, axis=0) + self.slopes.take(cells, axis=0) * off

    def interior_fluxes(self, batch) -> np.ndarray:
        """Face flux array (N + C, 3), whose interior faces get their HLLC
        fluxes when `batch` (a `riemann.RiemannBatch`) is solved.

        Queues the face states of the last `face_state` call on the batch.
        The channel end faces hold NaN until the junction and boundary fluxes
        fill them.
        """
        flux = np.full((self.n + len(self.channels), 3), np.nan)

        def read(f):
            flux.put(self._inner_put, f)

        left, right = self._face_rows
        batch.add(self.faces.take(left, axis=0), self.faces.take(right, axis=0), read)
        return flux

    def update(self, flux, dt: float):
        """Conservative update from the face flux array, with explicit pointwise friction."""
        dq = -(dt / self.ds)[:, None] * (flux[1:] - flux[:-1]).take(self._left_face, axis=0)
        if self.params.manning_n > 0.0:
            dq += dt * friction_source(self.q, self.params)
        self.q = self.q + dq
        if not np.isfinite(self.q).all():
            raise NonFiniteError(
                f"non-finite state in {self._cell_name(np.argmin(np.isfinite(self.q).all(axis=1)))}"
            )
        if (self.q[:, 0] <= 0.0).any():
            i = int(np.argmin(self.q[:, 0]))
            raise PositivityError(f"negative depth {self.q[i, 0]:.3e} in {self._cell_name(i)}")

    def positions(self, cells) -> np.ndarray:
        """Global (x, y) coordinates of the centers of `cells`."""
        chs = [self.channels[c] for c in self._chan[cells]]
        return (
            np.array([ch.start for ch in chs])
            + self.centers[cells][:, None] * np.array([ch.axis for ch in chs])
        )

    def _cell_name(self, i) -> str:
        c = self._chan[i]
        return f"channel {self.channels[c].id} cell {int(i - self.offsets[c])}"


class ChannelSegment:
    """One channel of a `ChannelField`: slices of its cells, read on access."""

    def __init__(self, field: ChannelField, c: int):
        self.field = field
        self.channel = field.channels[c]
        self.first = int(field.offsets[c])  # flat index of the first cell
        self._cells = slice(self.first, int(field.offsets[c + 1]))

    @property
    def q(self) -> np.ndarray:
        return self.field.q[self._cells]

    @property
    def ds(self) -> np.ndarray:
        return self.field.ds[self._cells]

    @property
    def centers(self) -> np.ndarray:
        return self.field.centers[self._cells]

    @property
    def n(self) -> int:
        return self._cells.stop - self._cells.start

    def cell_at(self, s: float) -> int:
        """The cell whose faces bracket s, where s within 1e-9 ds below a face
        counts as past it, as in `_trim`; clamped to the channel's cells."""
        right = self.centers + (0.5 - 1e-9) * self.ds  # each right face, less 1e-9 ds
        return min(int(right.searchsorted(s, side="right")), self.n - 1)
