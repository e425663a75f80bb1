import numpy as np
import pytest

from swnet.core import PhysicalParams, PositivityError
from swnet.geometry import Channel
from swnet.riemann import RiemannBatch, hllc_flux, mirrored
from swnet.scheme1d import ChannelField
from swnet.boundaries import BoundaryCondition, boundary_flux

import bit_record
from generated import SLOPE_NETWORKS, SLOPE_STATES

P = PhysicalParams()


def make_field(cells=50, length=10.0, order=2):
    ch = Channel("c", width=1.0, cells=cells, start=(0, 0), end=(length, 0))
    return ChannelField([ch], P, order=order)


def closed_fluxes(f, bc, dt):
    """Face fluxes of a field with condition `bc` ("reflective" or
    "transparent") at every channel end, each solved in its outward-normal
    frame, whose normal is -s at a channel start."""
    f.face_state(dt)
    batch = RiemannBatch()
    flux = f.interior_fluxes(batch)
    sign = f.end_sign[:, None]
    q = f.end_states(np.arange(len(f.end_cell))) * np.where([False, True, False], sign, 1.0)
    ghost = mirrored if bc.kind == "reflective" else None
    end_flux = boundary_flux(q, ghost, 0.0, P, batch)
    batch.solve(P)
    flux[f.end_face] = end_flux * np.where([True, False, True], sign, 1.0)
    return flux


def total_variation(f):
    return float(np.sum(np.abs(np.diff(f.q[:, 0]))))


class TestReconstruct:
    def test_constant_field_zero_slopes(self):
        f = make_field()
        f.q[:] = (0.7, 0.7 * 0.2, 0.0)
        f.reconstruct()
        assert np.all(f.slopes == 0.0)

    def test_linear_field_exact_interior(self):
        f = make_field()
        f.q[:, 0] = 1.0 + 0.1 * f.centers
        f.q[:, 1] = 0.5 * f.q[:, 0]
        f.q[:, 2] = 0.0
        f.reconstruct()
        assert np.abs(f.slopes[1:-1, 0] - 0.1).max() < 1e-13

    def test_local_extremum_limited_to_zero(self):
        f = make_field(cells=5)
        f.q[:] = (1.0, 0.0, 0.0)
        f.q[2, 0] = 1.5  # neighbors both lower
        f.reconstruct()
        assert f.slopes[2, 0] == 0.0

    def test_junction_neighbor_uses_projected_distance(self):
        # a linear profile extended to the junction value at distance d is
        # reconstructed exactly in the end cell
        f = make_field(cells=20, length=2.0)
        slope = 0.25
        f.q[:, 0] = 1.0 + slope * f.centers
        f.q[:, 1] = 0.0
        d = 0.17
        nbr_val = np.array([1.0 + slope * (f.centers[0] - d), 0.0, 0.0])
        f.attach_junctions(np.array([f.end_index("c", "start")]), np.array([d]))
        f.reconstruct(nbr_val[None])
        assert abs(f.slopes[0, 0] - slope) < 1e-12

    def test_boundary_cells_zero_slope_without_neighbor(self):
        f = make_field()
        f.q[:, 0] = 1.0 + 0.1 * f.centers
        f.reconstruct()
        assert np.all(f.slopes[0] == 0.0) and np.all(f.slopes[-1] == 0.0)


class TestHalfStepEvolution:
    def test_zero_slopes_unchanged(self):
        f = make_field()
        f.q[:] = (0.9, 0.9 * 0.4, 0.0)
        f.reconstruct()
        q = f.face_state(dt=0.05)[f.n + 10]  # right face of cell 10
        assert np.allclose(q, f.q[10], atol=1e-15)

    def test_still_water_unchanged(self):
        f = make_field()
        f.q[:] = (1.3, 0.0, 0.0)
        f.reconstruct()
        assert np.allclose(f.face_state(0.1)[5], f.q[5], atol=1e-15)  # left face of cell 5


class TestUpdate:
    def test_uniform_state_stationary(self):
        f = make_field()
        f.q[:] = (1.0, 0.5, 0.0)
        f.reconstruct()
        dt = 0.01
        bc = BoundaryCondition("transparent")
        q0 = f.q.copy()
        f.update(closed_fluxes(f, bc, dt), dt)
        assert np.abs(f.q - q0).max() < 1e-14

    def test_update_formula_exact(self):
        f = make_field(cells=2, length=1.0)
        f.q[:] = (1.0, 0.0, 0.0)
        dt = 0.01
        fl = np.array([0.3, 0.1, 0.0])
        fm = np.array([[0.2, 0.4, 0.0]])
        fr = np.array([0.1, 0.2, 0.0])
        q0 = f.q.copy()
        f.update(np.vstack([fl, fm, fr]), dt)
        expected0 = q0[0] - dt / 0.5 * (fm[0] - fl)
        expected1 = q0[1] - dt / 0.5 * (fr - fm[0])
        assert np.allclose(f.q[0], expected0, atol=1e-16)
        assert np.allclose(f.q[1], expected1, atol=1e-16)

    def test_closed_channel_conserves_volume(self):
        f = make_field(cells=100)
        f.q[:, 0] = np.where(f.centers < 5.0, 1.0, 0.5)
        f.q[:, 1:] = 0.0
        bc = BoundaryCondition("reflective")
        v0 = f.volume()
        for _ in range(1000):
            dt = 0.9 * f.dt_bound()
            f.reconstruct()
            f.update(closed_fluxes(f, bc, dt), dt)
        assert abs(f.volume() - v0) / v0 < 1e-12

    def test_first_order_total_variation_bounded(self):
        # TV(h) on the dam break: a small start-up bump forms at the initial
        # discontinuity (system effect, not a limiter defect) and boundary
        # crossings cause micro-increases of order 1e-7; beyond those floors
        # the variation only decays and no oscillations build up.
        f = make_field(cells=100, order=1)
        f.q[:, 0] = np.where(f.centers < 5.0, 1.0, 0.5)
        f.q[:, 1:] = 0.0
        bc = BoundaryCondition("transparent")
        tv0 = total_variation(f)

        def step():
            dt = 0.9 * f.dt_bound()
            f.reconstruct()
            f.update(closed_fluxes(f, bc, dt), dt)

        for _ in range(60):
            step()
        tv = total_variation(f)
        for _ in range(140):
            step()
            tv_new = total_variation(f)
            assert tv_new <= tv + 1e-6 * tv0
            tv = tv_new
        assert tv < 0.05 * tv0  # both waves left the domain; no residue

    def test_positivity_abort(self):
        f = make_field(cells=4, length=1.0)
        f.q[:] = (1e-3, 0.0, 0.0)
        huge = np.array([10.0, 0.0, 0.0])
        zero = np.zeros((3, 3))
        with pytest.raises(PositivityError):
            f.update(np.vstack([-huge, zero, huge]), 0.1)

    def test_friction_applied_pointwise(self):
        p = PhysicalParams(manning_n=0.02)
        ch = Channel("c", width=1.0, cells=10, start=(0, 0), end=(1, 0))
        f = ChannelField([ch], p)
        f.q[:] = (1.0, 1.0, 0.0)
        f.reconstruct()
        dt = 0.01
        flux = hllc_flux(f.q[:1], f.q[:1], p)[0]
        f.update(np.tile(flux, (11, 1)), dt)
        # uniform state: only friction acts
        expected = 1.0 - dt * p.g * p.manning_n**2  # h=1, u=1
        assert np.allclose(f.q[:, 1], expected, atol=1e-14)


def test_channels_step_as_if_alone():
    # The ragged field steps each channel exactly as a field holding that
    # channel alone: no stencil, face or flux reaches across channels.
    chs = [
        Channel("a", width=1.0, cells=12, start=(0, 0), end=(3, 0)),
        Channel("b", width=0.5, cells=7, start=(5, 1), end=(5, 4)),
    ]
    cuts = {("b", "start"): 0.1}
    both = ChannelField(chs, P, cuts=cuts)
    alone = [ChannelField([chs[0]], P), ChannelField([chs[1]], P, cuts=cuts)]
    rng = np.random.default_rng(7)
    q = np.column_stack([rng.uniform(0.5, 1.5, both.n), rng.uniform(-0.3, 0.3, (both.n, 2))])
    both.q[:] = q
    alone[0].q[:], alone[1].q[:] = q[:12], q[12:]
    # a junction-side stencil entry at the start of channel b
    nbr_q, nbr_d = np.array([[1.2, 0.1, 0.0]]), np.array([0.2])
    bc = BoundaryCondition("reflective")
    for f in (both, *alone):
        nbr = None
        if "b" in f.index:
            f.attach_junctions(np.array([f.end_index("b", "start")]), nbr_d)
            nbr = nbr_q
        f.reconstruct(nbr)
        f.update(closed_fluxes(f, bc, 0.01), 0.01)
    assert np.array_equal(both.slopes, np.concatenate([f.slopes for f in alone]))
    assert np.array_equal(both.q, np.concatenate([f.q for f in alone]))


# -- reconstruct against the per-call junction geometry it replaced ---------


@pytest.mark.parametrize("state", SLOPE_STATES)
@pytest.mark.parametrize("name, strategy", SLOPE_NETWORKS)
def test_reconstruct_with_build_time_stencil_equals_former_formula(name, strategy, state):
    # The record's entry holds the slopes of the reconstruction as it was
    # when the stencil geometry was worked out on every call: with junction
    # neighbours (Methods A and B) and without (PSFP, every end slope 0).
    label = f"slopes {name} {strategy} {state}"
    assert not bit_record.entry_differences("steps", label)
