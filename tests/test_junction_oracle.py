"""Per-step oracle for the Method-A junction cells.

Methods A and B step as one `JunctionField`. Before that, Method A had its
own batched single-cell solver; `OracleA` keeps those kernels (the exact or
least-squares reconstruction, the limiter over the polygon corners, the
edge extrapolation with the half-step, the wall and coupling fluxes, the
update) as the reference. From the same state at every step, the field's
edge fluxes, axial end fluxes, channel stencil entries and updated junction
states must match the oracle's to round-off.
"""

import numpy as np
import pytest

from swnet import presets
from swnet.config import build_simulation
from swnet.core import friction_source, jacobian_dot, rotate_back, rotate_state
from swnet.riemann import RiemannBatch, hllc_flux, wall_flux

RTOL = 1e-14


class OracleA:
    """Every single-cell junction of a network, from its polygon."""

    def __init__(self, views, field, params, order):
        geoms = [j.geom for j in views]
        J = len(geoms)
        self.params, self.order = params, order
        self.q = np.zeros((J, 3))
        self._area = np.array([g.area for g in geoms])
        self._rho = np.array([4.0 * g.area / sum(np.hypot(*(e.b - e.a)) for e in g.edges)
                              for g in geoms])
        centroids = np.array([g.centroid for g in geoms])
        n_edges = [len(g.edges) for g in geoms]
        self._edge_start = np.concatenate([[0], np.cumsum(n_edges)[:-1]])
        self._edge_j = np.repeat(np.arange(J), n_edges)
        edges = [e for g in geoms for e in g.edges]
        d = np.array([e.b - e.a for e in edges])
        self._lengths = np.hypot(d[:, 0], d[:, 1])
        t = d / self._lengths[:, None]
        self._thetas = np.arctan2(-t[:, 0], t[:, 1])  # outward normals of CCW edges
        self._mid_off = np.array([0.5 * (e.a + e.b) for e in edges]) - centroids[self._edge_j]
        wall = np.array([e.kind == "wall" for e in edges])
        self._wall_rows = np.flatnonzero(wall)
        self._cpl_rows = np.flatnonzero(~wall)
        cpls = [[e for e in g.edges if e.kind == "coupling"] for g in geoms]
        n_cpl = [len(cs) for cs in cpls]
        flat = [c for cs in cpls for c in cs]
        self._cpl_j = np.repeat(np.arange(J), n_cpl)
        self._cpl_slot = np.arange(len(flat)) - np.repeat(np.cumsum(n_cpl) - n_cpl, n_cpl)
        self._cpl_ends = np.array([field.end_index(c.channel, c.channel_end) for c in flat])
        self._cpl_cells = field.end_cell[self._cpl_ends]
        self._sigma = np.array([1.0 if c.channel_end == "start" else -1.0 for c in flat])
        chans = [field.channels[field.index[c.channel]] for c in flat]
        self._alphas = np.array([ch.axis_angle for ch in chans])
        offs = field.positions(self._cpl_cells) - centroids[self._cpl_j]
        self._nbr_dists = np.abs(np.sum(-offs * np.array([ch.axis for ch in chans]), axis=1))
        self._kmax = max(n_cpl)
        self._recon = np.zeros((J, 2, self._kmax))
        self._lsq = np.zeros(J)
        for k, g in enumerate(geoms):
            o = offs[self._cpl_j == k]
            if len(o) == 3:
                M = np.column_stack([np.ones(3), o])
                if abs(np.linalg.det(M)) > 1e-12 * g.area:
                    self._recon[k, :, :3] = np.linalg.inv(M)[1:3]
            elif len(o) >= 2:
                G = o.T @ o
                det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
                if abs(det) > 1e-12 * g.area**2:
                    self._recon[k, :, : len(o)] = np.linalg.solve(G, o.T)
                    self._lsq[k] = 1.0
        vmax = max(len(g.vertices) for g in geoms)
        self._vert_off = np.zeros((J, vmax, 2))
        for k, g in enumerate(geoms):
            self._vert_off[k, : len(g.vertices)] = g.vertices - g.centroid

    def reconstruct(self, field):
        if self.order < 2:
            self.grad_x = np.zeros_like(self.q)
            self.grad_y = np.zeros_like(self.q)
            return
        vals = np.repeat(self.q[:, None, :], self._kmax, axis=1)
        c, s = np.cos(self._alphas), np.sin(self._alphas)
        vals[self._cpl_j, self._cpl_slot] = rotate_back(field.q[self._cpl_cells], c, s)
        grad = np.einsum(
            "jdk,jkv->jdv", self._recon, vals - self._lsq[:, None, None] * self.q[:, None, :]
        )
        self.grad_x, self.grad_y = grad[:, 0], grad[:, 1]
        q = self.q[:, None, :]
        qmin = np.minimum(q, vals.min(axis=1, keepdims=True))
        qmax = np.maximum(q, vals.max(axis=1, keepdims=True))
        dq = (
            self._vert_off[:, :, 0, None] * self.grad_x[:, None, :]
            + self._vert_off[:, :, 1, None] * self.grad_y[:, None, :]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(dq > 0.0, (qmax - q) / dq, 1.0)
            dn = np.where(dq < 0.0, (qmin - q) / dq, 1.0)
        cand = np.where(dq > 0.0, up, np.where(dq < 0.0, dn, 1.0))
        phi = np.clip(cand, 0.0, 1.0).min(axis=1)
        self.grad_x = self.grad_x * phi
        self.grad_y = self.grad_y * phi

    def channel_neighbors(self):
        c, s = np.cos(self._alphas), np.sin(self._alphas)
        return self._cpl_ends, rotate_state(self.q[self._cpl_j], c, s), self._nbr_dists

    def compute_fluxes(self, field, dt):
        e = self._edge_j
        gx, gy = self.grad_x[e], self.grad_y[e]
        qf = self.q[e] + self._mid_off[:, 0, None] * gx + self._mid_off[:, 1, None] * gy
        if self.order >= 2:
            qf = qf - 0.5 * dt * jacobian_dot(qf, gx, gy, self.params)
        c, s = np.cos(self._thetas), np.sin(self._thetas)
        qhat = rotate_state(qf, c, s)
        fhat = np.empty_like(qhat)
        if len(self._wall_rows):
            fhat[self._wall_rows] = wall_flux(qhat[self._wall_rows], self.params)
        rows = self._cpl_rows
        q1 = field.faces[field.end_slot[self._cpl_ends]]
        q1[:, 1:] *= self._sigma[:, None]
        fc = hllc_flux(qhat[rows], q1, self.params)
        fhat[rows] = fc
        f_ch = fc.copy()
        f_ch[:, 0] *= self._sigma
        return rotate_back(fhat, c, s), (self._cpl_ends, f_ch)

    def update(self, edge_fluxes, dt):
        net = np.add.reduceat(self._lengths[:, None] * edge_fluxes, self._edge_start, axis=0)
        dq = (-dt / self._area)[:, None] * net
        if self.params.manning_n > 0.0:
            dq = dq + dt * friction_source(self.q, self.params)
        self.q = self.q + dq


def rel(got, want):
    """Largest deviation relative to the largest magnitude of `want`."""
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / scale if scale > 0.0 else np.max(np.abs(got))


def by_end(ends, values):
    return values[np.argsort(ends)]


# Every coupling edge carries one shared flux, which the ids name.
@pytest.mark.parametrize("name", ["test1_sub90", "test3_shock45"], ids=lambda n: f"{n}-shared")
def test_field_matches_single_cell_oracle_per_step(name):
    cfg = presets.preset(name, strategy="A")
    sim = build_simulation(cfg)
    jf, field = sim.junction_field, sim.field
    oracle = OracleA(sim.junctions, field, sim.params, sim.order)
    worst = dict.fromkeys(("stencil", "edge", "end", "state"), 0.0)
    steps = 0
    while steps < 100 and sim.t < cfg.t_end:
        dt = sim.compute_dt(cfg.t_end)
        oracle.q = jf.mesh_field.q.copy()
        jf.reconstruct(field)
        oracle.reconstruct(field)
        nbr = jf.channel_neighbors()
        o_ends, o_q, o_d = oracle.channel_neighbors()
        worst["stencil"] = max(worst["stencil"], rel(by_end(jf._ends, nbr), by_end(o_ends, o_q)),
                               rel(by_end(jf._ends, jf._nbr_dists), by_end(o_ends, o_d)))
        field.reconstruct(nbr)
        field.face_state(dt)
        batch = RiemannBatch()
        edge, end = jf.compute_fluxes(field, dt, batch)
        batch.solve(sim.params)
        o_edge, (o_ends, o_end) = oracle.compute_fluxes(field, dt)
        worst["edge"] = max(worst["edge"], rel(edge, o_edge))
        worst["end"] = max(worst["end"], rel(by_end(jf._ends, end), by_end(o_ends, o_end)))
        sim.advance(dt)  # the whole step, from the same junction state
        oracle.update(o_edge, dt)
        worst["state"] = max(worst["state"], rel(jf.mesh_field.q, oracle.q))
        steps += 1
    assert steps == 100
    assert max(worst.values()) <= RTOL, worst
