import numpy as np
import pytest

from swnet.core import (
    DryStateError,
    H_DRY,
    NonFiniteError,
    PhysicalParams,
    friction_source,
    froude,
    jacobian_dot,
    jacobian_rows,
    max_wave_speed,
    physical_flux,
    physical_flux_y,
    primitives,
    rotate_back,
    rotate_state,
)

import bit_record
from generated import jacobian_states, random_states

P = PhysicalParams()


class TestPhysicalFlux:
    def test_still_water_is_pure_pressure(self):
        f = physical_flux(np.array([1.0, 0.0, 0.0]), P)
        assert np.allclose(f, [0.0, 4.905, 0.0], atol=1e-14)

    def test_hand_evaluated_moving_state(self):
        # h=0.2, u=0.96: hu^2/h + g h^2/2 = 0.18432 + 0.19620
        f = physical_flux(np.array([0.2, 0.192, 0.0]), P)
        assert np.allclose(f, [0.192, 0.38052, 0.0], atol=1e-12)

    def test_direct_formula(self):
        f = physical_flux(np.array([1.0, 2.0, 3.0]), P)
        assert np.allclose(f, [2.0, 8.905, 6.0], atol=1e-12)

    def test_dry_state_raises(self):
        with pytest.raises(DryStateError):
            physical_flux(np.array([0.0, 0.0, 0.0]), P)
        with pytest.raises(DryStateError):
            physical_flux(np.array([H_DRY / 2, 0.0, 0.0]), P)


class TestFriction:
    def test_zero_manning_gives_zero(self):
        q = np.array([1.0, 2.0, 3.0])
        assert np.all(friction_source(q, P) == 0.0)

    def test_no_motion_no_friction(self):
        p = PhysicalParams(manning_n=0.05)
        assert np.all(friction_source(np.array([1.0, 0.0, 0.0]), p) == 0.0)

    def test_hand_value(self):
        # h=1, u=1, v=0, n=0.01: -g h n^2 u sqrt(u^2+v^2)/h^(4/3) = -9.81e-4
        p = PhysicalParams(manning_n=0.01)
        f = friction_source(np.array([1.0, 1.0, 0.0]), p)
        assert np.allclose(f, [0.0, -9.81e-4, 0.0], atol=1e-16)

    def test_opposes_motion(self):
        p = PhysicalParams(manning_n=0.03)
        q = random_states(200, seed=3)
        f = friction_source(q, p)
        moving = np.hypot(q[:, 1], q[:, 2]) > 1e-12
        assert np.all(np.sign(f[moving, 1]) == -np.sign(q[moving, 1]))
        assert np.all(np.sign(f[moving, 2]) == -np.sign(q[moving, 2]))


class TestRotation:
    def test_identity(self):
        q = np.array([1.0, 2.0, 3.0])
        assert np.allclose(rotate_state(q, 0.0), q, atol=0.0)

    def test_quarter_turn(self):
        out = rotate_state(np.array([1.0, 1.0, 0.0]), np.pi / 2)
        assert np.allclose(out, [1.0, 0.0, -1.0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        q = random_states(500, seed=1)
        th = rng.uniform(-7, 7, 500)
        back = rotate_back(rotate_state(q, th), th)
        assert np.abs(back - q).max() < 1e-14

    def test_preserves_depth_and_momentum_norm(self):
        rng = np.random.default_rng(2)
        q = random_states(500, seed=2)
        th = rng.uniform(0, 2 * np.pi, 500)
        r = rotate_state(q, th)
        assert np.all(r[:, 0] == q[:, 0])
        n0 = np.hypot(q[:, 1], q[:, 2])
        n1 = np.hypot(r[:, 1], r[:, 2])
        assert np.abs(n0 - n1).max() < 1e-14

    def test_rotate_back_pure_pressure(self):
        p = 4.905
        th = 0.7
        out = rotate_back(np.array([0.0, p, 0.0]), th)
        assert np.allclose(out, [0.0, p * np.cos(th), p * np.sin(th)], atol=1e-14)

    def test_rotational_invariance_identity(self):
        # cos(th) F(Q) + sin(th) G(Q) = T^-1 F(T Q) for random states and angles
        rng = np.random.default_rng(4)
        q = random_states(1000, seed=4)
        th = rng.uniform(0, 2 * np.pi, 1000)
        lhs = np.cos(th)[:, None] * physical_flux(q, P) + np.sin(th)[:, None] * physical_flux_y(q, P)
        rhs = rotate_back(physical_flux(rotate_state(q, th), P), th)
        scale = np.abs(physical_flux(q, P)).max()
        assert np.abs(lhs - rhs).max() < 1e-12 * scale


class TestWaveSpeedsAndFroude:
    def test_still_water_celerity(self):
        assert np.isclose(max_wave_speed(np.array([1.0, 0, 0]), P), np.sqrt(9.81), atol=1e-4)

    def test_moving_state(self):
        lam = max_wave_speed(np.array([0.2, 0.2 * 0.96, 0.0]), P)
        assert np.isclose(lam, 2.3607, atol=1e-4)

    def test_dry_error(self):
        with pytest.raises(DryStateError):
            max_wave_speed(np.array([0.0, 0.0, 0.0]), P)

    def test_froude_paper_values(self):
        assert abs(froude(0.2, 0.96, P) - 0.685) < 1e-3
        assert abs(froude(0.1, 0.08, P) - 0.081) < 1e-3

    def test_froude_zero_velocity(self):
        assert froude(0.5, 0.0, P) == 0.0

    def test_froude_wave_speed_consistency(self):
        # Fr < 1 exactly when |u| < sqrt(g h)
        q = random_states(300, seed=5)
        h, u, _ = primitives(q)
        fr = froude(h, u, P)
        assert np.array_equal(fr < 1.0, np.abs(u) < np.sqrt(P.g * h))


class TestJacobians:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        q = random_states(20, seed=6)
        b = rng.normal(size=(20, 3))
        c = rng.normal(size=(20, 3))
        got = jacobian_dot(q, b, c, P)
        eps = 1e-7
        fd = (
            physical_flux(q + eps * b, P)
            - physical_flux(q - eps * b, P)
            + physical_flux_y(q + eps * c, P)
            - physical_flux_y(q - eps * c, P)
        ) / (2 * eps)
        assert np.abs(got - fd).max() < 1e-5

    @pytest.mark.parametrize("with_c", [True, False])
    def test_rows_equal_the_former_formula_bit_for_bit(self, with_c):
        # The record's entry holds the bits of the (..., 3) formula that
        # `jacobian_rows` replaced; `jacobian_dot` gives the rows' bits.
        label = f"jacobian_rows {'with' if with_c else 'without'} c"
        assert not bit_record.entry_differences("kernels", label)
        q, b, c = jacobian_states()
        c = c if with_c else None
        rows = jacobian_rows(q.T.copy(), b.T.copy(), None if c is None else c.T.copy(), P.g)
        got = jacobian_dot(q, b, c, P)
        assert got.shape == q.shape
        assert np.array_equal(got.view(np.int64), rows.T.view(np.int64))
        assert (rows == 0.0).any() and np.signbit(rows[rows == 0.0]).any()

    @pytest.mark.parametrize(
        "depth, error, message",
        [
            (0.0, DryStateError, "dry depth in jacobian_dot: min h = 0.000000e+00"),
            (np.nan, NonFiniteError, "non-finite depth in jacobian_dot"),
        ],
    )
    def test_rows_and_wrapper_raise_the_same_error(self, depth, error, message):
        q, b, c = jacobian_states(n=30)
        q[11, 0] = depth
        for call in (
            lambda: jacobian_rows(q.T, b.T, c.T, P.g),
            lambda: jacobian_dot(q, b, c, P),
            lambda: jacobian_dot(q, b, None, P),
        ):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message
