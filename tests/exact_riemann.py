"""The exact Riemann solution of the shallow-water equations, the oracle
of `tests/test_riemann.py`: Toro's two-wave solution, its star state found
by Newton iteration on the depth function, sampled at a similarity
coordinate with the transverse velocity advected by the contact."""

import numpy as np

from swnet.core import H_DRY, DryStateError, PhysicalParams

EXACT_TOL = 1e-12
EXACT_MAX_ITER = 100


class RiemannConvergenceError(RuntimeError):
    """Exact Riemann iteration failed to converge."""


def _depth_fn(h, hK, aK, g):
    """Toro's f_K(h): rarefaction branch for h <= hK, shock branch above."""
    rare = 2.0 * (np.sqrt(g * h) - aK)
    shock = (h - hK) * np.sqrt(0.5 * g * (h + hK) / (h * hK))
    return np.where(h <= hK, rare, shock)


def _depth_fn_deriv(h, hK, g):
    rare = g / np.sqrt(g * h)
    gk = np.sqrt(0.5 * g * (h + hK) / (h * hK))
    shock = gk - 0.25 * g * (h - hK) / (gk * h * h)
    return np.where(h <= hK, rare, shock)


def exact_riemann_star(hL, uL, hR, uR, params: PhysicalParams):
    """Star depth and velocity of the exact two-wave solution.

    Newton iteration on the depth function starting from the two-rarefaction
    estimate. Raises if depth positivity fails or the iteration stalls.
    """
    g = params.g
    if hL <= H_DRY or hR <= H_DRY:
        raise DryStateError(f"dry state in Riemann data: hL={hL:.3e}, hR={hR:.3e}")
    aL, aR = np.sqrt(g * hL), np.sqrt(g * hR)
    if uR - uL >= 2.0 * (aL + aR):
        raise RiemannConvergenceError(
            "dry state would be generated (depth positivity violated)"
        )
    h = max((0.5 * (aL + aR) + 0.25 * (uL - uR)) ** 2 / g, H_DRY * 10.0)
    for _ in range(EXACT_MAX_ITER):
        f = _depth_fn(h, hL, aL, g) + _depth_fn(h, hR, aR, g) + uR - uL
        df = _depth_fn_deriv(h, hL, g) + _depth_fn_deriv(h, hR, g)
        dh = f / df
        h_new = h - dh
        if h_new <= 0.0:
            h_new = 0.5 * h
        if abs(h_new - h) <= EXACT_TOL * max(h_new, 1.0) and abs(f) < 1e-10:
            h = h_new
            break
        h = h_new
    else:
        raise RiemannConvergenceError(f"no convergence after {EXACT_MAX_ITER} iterations")
    u = 0.5 * (uL + uR) + 0.5 * (_depth_fn(h, hR, aR, g) - _depth_fn(h, hL, aL, g))
    return float(h), float(u)


def exact_riemann_sample(qL, qR, xi, params: PhysicalParams):
    """Sample the exact Riemann solution at similarity coordinate xi = s/t.

    The transverse velocity is advected with the contact. Returns a conserved
    state (h, hu, hv) in the edge-normal frame.
    """
    g = params.g
    hL, hR = float(qL[0]), float(qR[0])
    uL, uR = float(qL[1]) / hL, float(qR[1]) / hR
    vL, vR = float(qL[2]) / hL, float(qR[2]) / hR
    hs, us = exact_riemann_star(hL, uL, hR, uR, params)
    aL, aR, a_s = np.sqrt(g * hL), np.sqrt(g * hR), np.sqrt(g * hs)

    if xi <= us:  # left of contact
        v = vL
        if hs > hL:  # left shock
            sL = uL - aL * np.sqrt(0.5 * hs * (hs + hL)) / hL
            h, u = (hL, uL) if xi <= sL else (hs, us)
        else:  # left rarefaction
            head, tail = uL - aL, us - a_s
            if xi <= head:
                h, u = hL, uL
            elif xi >= tail:
                h, u = hs, us
            else:
                a = (uL + 2.0 * aL - xi) / 3.0
                h, u = a * a / g, xi + a
    else:
        v = vR
        if hs > hR:  # right shock
            sR = uR + aR * np.sqrt(0.5 * hs * (hs + hR)) / hR
            h, u = (hR, uR) if xi >= sR else (hs, us)
        else:  # right rarefaction
            head, tail = uR + aR, us + a_s
            if xi >= head:
                h, u = hR, uR
            elif xi <= tail:
                h, u = hs, us
            else:
                a = (xi - uR + 2.0 * aR) / 3.0
                h, u = a * a / g, xi - a
    return np.array([h, h * u, h * v])
