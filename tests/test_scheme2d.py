import numpy as np
import pytest

from swnet.core import NonFiniteError, PhysicalParams, PositivityError, rotate_state
from swnet.geometry import TriMesh
from swnet.meshing import rect_union_mesh
from swnet.scheme2d import MeshField, interior_edge_fluxes
from swnet.simulation import Mesh2DSimulation

P = PhysicalParams()


def box_mesh(dx=0.1, size=1.0):
    return rect_union_mesh([(0, 0, size, size)], dx)


class TestReconstruct2D:
    def test_constant_field(self):
        f = MeshField(box_mesh(), P)
        f.set_uniform(0.8, 0.1, -0.2)
        f.reconstruct()
        assert np.abs(f.grad_x).max() == 0.0
        assert np.abs(f.grad_y).max() == 0.0

    def test_linear_field_recovered_interior(self):
        # The limiter keeps vertex values within neighbor-centroid bounds, so
        # it can clip linear fields whose gradient points into a stencil gap;
        # this gradient direction is untouched on the interior stencils here.
        m = box_mesh(0.1)
        f = MeshField(m, P)
        x, y = m.centroids[:, 0], m.centroids[:, 1]
        f.q[:, 0] = 1.0 + 0.2 * x - 0.1 * y
        f.q[:, 1] = 0.0
        f.q[:, 2] = 0.0
        f.reconstruct()
        interior = np.array([len(m.neighbors[t]) == 3 for t in range(m.n_cells)])
        assert np.abs(f.grad_x[interior, 0] - 0.2).max() < 1e-12
        assert np.abs(f.grad_y[interior, 0] + 0.1).max() < 1e-12

    def test_local_maximum_fully_limited(self):
        m = box_mesh(0.25)
        f = MeshField(m, P)
        f.set_uniform(1.0)
        k = int(np.argmin(np.linalg.norm(m.centroids - 0.5, axis=1)))
        f.q[k, 0] = 2.0  # exceeds every neighbor
        f.reconstruct()
        assert f.grad_x[k, 0] == 0.0 and f.grad_y[k, 0] == 0.0

    def test_virtual_neighbors_enter_stencil(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        m = TriMesh(verts, [(0, 1, 2)], {(0, 1): "wall", (1, 2): "wall", (0, 2): "wall"})
        # two virtual neighbors make the gradient computable on a single cell
        virt = [(0, np.array([1.0, 1.0])), (0, np.array([-1.0, 0.3]))]
        f = MeshField(m, P, virtual=virt)
        f.set_uniform(1.0)
        grad_fn = lambda p: 1.0 + 0.2 * p[0] + 0.1 * p[1]
        c = m.centroids[0]
        f.q[0, 0] = grad_fn(c)
        vv = np.array([[grad_fn(p), 0, 0] for _, p in virt])
        f.reconstruct(virtual_values=vv)
        assert abs(f.grad_x[0, 0] - 0.2) < 1e-12
        assert abs(f.grad_y[0, 0] - 0.1) < 1e-12


class TestUpdate2D:
    def test_uniform_closed_box_stationary(self):
        sim = Mesh2DSimulation(box_mesh(0.1), P)
        sim.set_uniform(1.0)
        for _ in range(50):
            sim.advance(sim.compute_dt())
        assert np.abs(sim.field.q[:, 0] - 1.0).max() < 1e-13
        assert np.abs(sim.field.q[:, 1:]).max() < 1e-13

    def test_single_triangle_update_formula(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        m = TriMesh(verts, [(0, 1, 2)], {(0, 1): "wall", (1, 2): "wall", (0, 2): "wall"})
        f = MeshField(m, P)
        f.set_uniform(1.0)
        fluxes = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.05, 0.0, 0.1]])
        q0 = f.q.copy()
        f.update(fluxes, 0.01)
        net = (fluxes * m.edge_lengths[:, None]).sum(axis=0)
        expected = q0[0] - 0.01 / m.areas[0] * net
        assert np.allclose(f.q[0], expected, atol=1e-16)

    def test_closed_box_conservation_dam_break(self):
        sim = Mesh2DSimulation(box_mesh(0.1), P)
        sim.set_uniform(1.0)
        sim.field.q[sim.mesh.centroids[:, 0] < 0.5, 0] = 2.0
        v0 = sim.field.volume()
        for _ in range(1000):
            sim.advance(sim.compute_dt())
        assert abs(sim.field.volume() - v0) / v0 < 1e-12

    def test_still_water_preserved_1000_steps(self):
        sim = Mesh2DSimulation(box_mesh(0.2), P)
        sim.set_uniform(0.7)
        for _ in range(1000):
            sim.advance(sim.compute_dt())
        vel = np.abs(sim.field.q[:, 1:] / sim.field.q[:, :1]).max()
        assert vel < 1e-12

    def test_limiter_no_new_extrema_one_step(self):
        sim = Mesh2DSimulation(box_mesh(0.1), P)
        sim.set_uniform(1.0)
        sim.field.q[sim.mesh.centroids[:, 0] < 0.5, 0] = 2.0
        lo, hi = sim.field.q[:, 0].min(), sim.field.q[:, 0].max()
        sim.advance(sim.compute_dt())
        assert sim.field.q[:, 0].max() <= hi + 1e-10
        assert sim.field.q[:, 0].min() >= lo - 1e-10

    def test_positivity_abort(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        m = TriMesh(verts, [(0, 1, 2)], {(0, 1): "wall", (1, 2): "wall", (0, 2): "wall"})
        f = MeshField(m, P)
        f.set_uniform(1e-4)
        out = np.array([[1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(PositivityError):
            f.update(out, 0.1)

    def test_hydrostatic_edge_fluxes(self):
        m = box_mesh(0.5)
        f = MeshField(m, P)
        f.set_uniform(1.0)
        f.reconstruct()
        qL, qR = f.edge_states(0.01)
        flux = interior_edge_fluxes(f, qL, qR)
        p = 4.905
        expected = p * np.stack(
            [np.zeros_like(m.edge_thetas), np.cos(m.edge_thetas), np.sin(m.edge_thetas)],
            axis=-1,
        )
        assert np.abs(flux - expected).max() < 1e-13


def rotated_copy(mesh: TriMesh, phi: float):
    c, s = np.cos(phi), np.sin(phi)
    R = np.array([[c, -s], [s, c]])
    verts = mesh.vertices @ R.T
    tags = {}
    for e in mesh.boundary:
        key = (min(mesh.edge_va[e], mesh.edge_vb[e]), max(mesh.edge_va[e], mesh.edge_vb[e]))
        tags[key] = mesh.edge_tags[e]
    return TriMesh(verts, mesh.triangles, tags), R


class TestRotationalEquivariance:
    # Limiting per conserved variable is not equivariant once the momentum
    # limiter engages (the rotated components mix), so the second-order check
    # uses data whose momentum gradients vanish; the first-order scheme is
    # equivariant unconditionally.

    def test_second_order_step_equivariant(self):
        mesh = box_mesh(0.125)
        phi = 0.37
        mesh_r, R = rotated_copy(mesh, phi)
        x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
        h = 1.0 + 0.2 * np.exp(-(((x - 0.5) ** 2 + (y - 0.45) ** 2) / 0.05))
        mom = np.array([0.06, -0.04])

        sim = Mesh2DSimulation(mesh, P)
        sim.field.q[:, 0] = h
        sim.field.q[:, 1:] = mom

        sim_r = Mesh2DSimulation(mesh_r, P)
        sim_r.field.q[:, 0] = h
        sim_r.field.q[:, 1:] = R @ mom

        dt = 0.5 * sim.compute_dt()
        sim.advance(dt)
        sim_r.advance(dt)
        rotated = np.empty_like(sim.field.q)
        rotated[:, 0] = sim.field.q[:, 0]
        rotated[:, 1:] = sim.field.q[:, 1:] @ R.T
        assert np.abs(sim_r.field.q - rotated).max() < 1e-11

    def test_first_order_steps_equivariant(self):
        mesh = box_mesh(0.125)
        phi = -1.1
        mesh_r, R = rotated_copy(mesh, phi)
        x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
        h = 1.0 + 0.2 * np.exp(-(((x - 0.5) ** 2 + (y - 0.45) ** 2) / 0.05))
        u = 0.1 * np.sin(2 * np.pi * x)
        v = -0.05 * np.cos(2 * np.pi * y)

        sim = Mesh2DSimulation(mesh, P, order=1)
        sim.field.q[:, 0] = h
        sim.field.q[:, 1] = h * u
        sim.field.q[:, 2] = h * v

        sim_r = Mesh2DSimulation(mesh_r, P, order=1)
        sim_r.field.q[:, 0] = h
        sim_r.field.q[:, 1:] = np.stack([h * u, h * v], axis=-1) @ R.T

        dt = 0.5 * sim.compute_dt()
        for _ in range(5):
            sim.advance(dt)
            sim_r.advance(dt)
        rotated = np.empty_like(sim.field.q)
        rotated[:, 0] = sim.field.q[:, 0]
        rotated[:, 1:] = sim.field.q[:, 1:] @ R.T
        assert np.abs(sim_r.field.q - rotated).max() < 1e-11


@pytest.mark.parametrize("cfl", [0.0, 1.01])
def test_reference_rejects_cfl_outside_unit_interval(cfl):
    with pytest.raises(ValueError, match="cfl"):
        Mesh2DSimulation(box_mesh(), P, cfl=cfl)


def test_nan_flux_is_non_finite_failure():
    f = MeshField(box_mesh(), P)
    f.set_uniform(1.0)
    flux = np.zeros((len(f.mesh.edge_lengths), 3))
    flux[7, 1] = np.nan
    with pytest.raises(NonFiniteError, match="2D cell"):
        f.update(flux, 0.01)
