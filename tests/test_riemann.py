import numpy as np
import pytest

from swnet.core import DryStateError, PhysicalParams, conserved, physical_flux
from swnet.riemann import hllc_flux, wall_flux

import bit_record
from exact_riemann import RiemannConvergenceError, exact_riemann_sample, exact_riemann_star
from generated import HLLC_PAIRINGS, random_states

P = PhysicalParams()
G = P.g


class TestHLLC:
    def test_consistency(self):
        q = random_states(1000, seed=7)
        err = np.abs(hllc_flux(q, q, P) - physical_flux(q, P)).max()
        assert err < 1e-13 * max(1.0, np.abs(physical_flux(q, P)).max())

    def test_still_water(self):
        q = np.array([1.0, 0.0, 0.0])
        assert np.allclose(hllc_flux(q, q, P), [0.0, 4.905, 0.0], atol=1e-14)

    def test_dam_break_mass_flux_positive(self):
        f = hllc_flux(np.array([1.0, 0, 0]), np.array([0.5, 0, 0]), P)
        assert f[0] > 0.0

    def test_flux_symmetry(self):
        # Swapping sides and negating normal velocity negates the mass flux
        # and preserves the momentum flux.
        qL = random_states(400, seed=8)
        qR = random_states(400, seed=9)
        f = hllc_flux(qL, qR, P)
        qLm, qRm = qR.copy(), qL.copy()
        qLm[:, 1] *= -1.0
        qRm[:, 1] *= -1.0
        fm = hllc_flux(qLm, qRm, P)
        assert np.abs(f[:, 0] + fm[:, 0]).max() < 1e-12
        assert np.abs(f[:, 1] - fm[:, 1]).max() < 1e-11

    def test_transverse_passivity(self):
        # The tangential flux is the mass flux times the transverse velocity
        # of one side, the upwind side of the contact.
        qL = random_states(400, seed=10)
        qR = random_states(400, seed=11)
        f = hllc_flux(qL, qR, P)
        vL, vR = qL[:, 2] / qL[:, 0], qR[:, 2] / qR[:, 0]
        err = np.minimum(np.abs(f[:, 2] - f[:, 0] * vL), np.abs(f[:, 2] - f[:, 0] * vR))
        assert err.max() < 1e-14
        # Pure shear layer: equal depth and normal velocity on both sides, so
        # the contact moves with that velocity and picks the side it leaves.
        qR[:, :2] = qL[:, :2]
        vR = qR[:, 2] / qR[:, 0]
        f = hllc_flux(qL, qR, P)
        v_up = np.where(qL[:, 1] > 0.0, vL, vR)
        assert np.abs(f[:, 2] - f[:, 0] * v_up).max() < 1e-14

    def test_dry_raises(self):
        with pytest.raises(DryStateError):
            hllc_flux(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]), P)


class TestWallFlux:
    def test_still_water_pressure(self):
        f = wall_flux(np.array([1.0, 0.0, 0.0]), P)
        assert np.allclose(f, [0.0, 4.905, 0.0], atol=1e-14)

    def test_mass_flux_exactly_zero(self):
        q = random_states(500, seed=12)
        f = wall_flux(q, P)
        assert np.all(f[:, 0] == 0.0)
        assert np.all(f[:, 2] == 0.0)

    def test_compression_exceeds_hydrostatic(self):
        f = wall_flux(np.array([1.0, 0.5, 0.0]), P)
        assert f[1] > 0.5 * G        # > g h^2 / 2


def bisect_star_depth(hL, uL, hR, uR, tol=1e-13):
    """Independent star-depth root finder (bisection on the depth function)."""

    def fK(h, hK):
        if h <= hK:
            return 2.0 * (np.sqrt(G * h) - np.sqrt(G * hK))
        return (h - hK) * np.sqrt(0.5 * G * (h + hK) / (h * hK))

    def f(h):
        return fK(h, hL) + fK(h, hR) + uR - uL

    lo, hi = 1e-12, 10.0 * max(hL, hR) + (abs(uL) + abs(uR)) ** 2 / G
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestExactRiemann:
    def test_equal_states(self):
        h, u = exact_riemann_star(0.7, 0.3, 0.7, 0.3, P)
        assert np.isclose(h, 0.7, atol=1e-12) and np.isclose(u, 0.3, atol=1e-12)
        q = np.array([0.7, 0.21, 0.07])
        out = exact_riemann_sample(q, q, 0.2, P)
        assert np.allclose(out, q, atol=1e-12)

    def test_symmetric_divergence(self):
        h, u = exact_riemann_star(1.0, -1.0, 1.0, 1.0, P)
        assert h < 1.0
        assert abs(u) < 1e-12

    def test_newton_matches_bisection(self):
        cases = [
            (1.0, 0.0, 0.5, 0.0),
            (0.3, 0.5, 0.2, -0.1),
            (2.0, -0.5, 1.0, 0.8),
            (0.16, 0.0, 0.4, 0.0),
        ]
        for hL, uL, hR, uR in cases:
            h_newton, _ = exact_riemann_star(hL, uL, hR, uR, P)
            h_bisect = bisect_star_depth(hL, uL, hR, uR)
            assert abs(h_newton - h_bisect) < 1e-10

    def test_positivity_violation_raises(self):
        with pytest.raises(RiemannConvergenceError):
            exact_riemann_star(0.1, -5.0, 0.1, 5.0, P)

    def test_transverse_advected_with_contact(self):
        qL = np.array([1.0, 0.0, 1.0 * 0.7])
        qR = np.array([0.5, 0.0, 0.5 * (-0.4)])
        _, us = exact_riemann_star(1.0, 0.0, 0.5, 0.0, P)
        left = exact_riemann_sample(qL, qR, us - 1e-6, P)
        right = exact_riemann_sample(qL, qR, us + 1e-6, P)
        assert np.isclose(left[2] / left[0], 0.7, atol=1e-9)
        assert np.isclose(right[2] / right[0], -0.4, atol=1e-9)


class TestGodunovConvergence:
    def test_first_order_converges_to_exact_dam_break(self):
        # L1 error of the first-order Godunov scheme against the sampled
        # exact solution shrinks monotonically under refinement.
        hL, hR = 1.0, 0.5
        t_end = 0.5
        errors = []
        for n in (50, 100, 200):
            x = np.linspace(-2.5, 2.5, n + 1)
            xc = 0.5 * (x[:-1] + x[1:])
            dx = x[1] - x[0]
            q = conserved(np.where(xc < 0, hL, hR))
            t = 0.0
            while t < t_end - 1e-12:
                lam = np.abs(q[:, 1] / q[:, 0]) + np.sqrt(G * q[:, 0])
                dt = min(0.45 * dx / lam.max(), t_end - t)
                f = hllc_flux(q[:-1], q[1:], P)
                full = np.vstack([physical_flux(q[:1], P), f, physical_flux(q[-1:], P)])
                q = q - dt / dx * (full[1:] - full[:-1])
                t += dt
            exact = np.array(
                [exact_riemann_sample(conserved(hL), conserved(hR), xi / t_end, P) for xi in xc]
            )
            errors.append(np.sum(np.abs(q[:, 0] - exact[:, 0])) * dx)
        assert errors[0] > errors[1] > errors[2]


# -- hllc_rows against the formula it was rewritten from ---------------------


@pytest.mark.parametrize("pairing", HLLC_PAIRINGS)
def test_hllc_rows_equals_former_formula_to_the_bit(pairing):
    # The record's entry holds the bits of the formula `hllc_rows` was
    # rewritten from, on `generated.hllc_pair`'s 100 000 problems with
    # signed zeros, among them 0 contact speeds and mirrored walls.
    assert not bit_record.entry_differences("kernels", f"hllc_rows {pairing}")
