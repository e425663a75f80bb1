"""Interface flux solvers for the edge-normal shallow-water system.

All states here live in the edge-normal frame: component 1 is the momentum
along the edge normal, component 2 the tangential momentum, which the contact
wave advects passively.
"""

from __future__ import annotations

import numpy as np

from .core import H_DRY, DryStateError, PhysicalParams, check_wet


def hllc_flux(qL: np.ndarray, qR: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """HLLC numerical flux for left/right states in the edge-normal frame.

    The first two components come from the standard two-equation HLLC; the
    tangential component is the mass flux times the transverse velocity
    upwinded by the sign of the contact speed.
    """
    out = np.empty(np.broadcast_shapes(qL.shape, qR.shape), dtype=float)
    rows = hllc_rows(
        qL[..., 0], qL[..., 1], qL[..., 2], qR[..., 0], qR[..., 1], qR[..., 2], params.g
    )
    for k, f in enumerate(rows):
        out[..., k] = f
    return out


def hllc_rows(hL, huL, hvL, hR, huR, hvR, g: float):
    """The HLLC flux of `hllc_flux` from the state components, one array
    each (normal momentum hu, tangential momentum hv); returns the three flux
    components. Every other HLLC evaluation goes through here."""
    check_wet(hL, "hllc left state")
    check_wet(hR, "hllc right state")
    uL, uR = huL / hL, huR / hR
    aL, aR = np.sqrt(g * hL), np.sqrt(g * hR)

    h_star = np.maximum(0.5 * (aL + aR) + 0.25 * (uL - uR), 0.0) ** 2 / g
    qfL = np.where(h_star > hL, np.sqrt(0.5 * (h_star + hL) * h_star / (hL * hL)), 1.0)
    qfR = np.where(h_star > hR, np.sqrt(0.5 * (h_star + hR) * h_star / (hR * hR)), 1.0)
    sL = uL - aL * qfL
    sR = uR + aR * qfR
    # At reference size the kernel is bound by memory traffic: dropping each
    # temporary once it is used lets the next one reuse its cache-warm buffer.
    del aL, aR, h_star, qfL, qfR
    s_star = (sL * hR * (uR - sR) - sR * hL * (uL - sL)) / (
        hR * (uR - sR) - hL * (uL - sL)
    )

    fL0, fL1 = huL, huL * uL + 0.5 * g * hL * hL
    fR0, fR1 = huR, huR * uR + 0.5 * g * hR * hR

    # Star-region states (h, hu) on each side of the contact.
    hsL = hL * (sL - uL) / (sL - s_star)
    hsR = hR * (sR - uR) / (sR - s_star)
    fsL0 = fL0 + sL * (hsL - hL)
    fsL1 = fL1 + sL * (hsL * s_star - huL)
    fsR0 = fR0 + sR * (hsR - hR)
    fsR1 = fR1 + sR * (hsR * s_star - huR)
    del hsL, hsR

    cond_L = sL >= 0.0
    cond_s = s_star >= 0.0
    cond_R = sR >= 0.0
    f0 = np.where(cond_L, fL0, np.where(cond_s, fsL0, np.where(cond_R, fsR0, fR0)))
    f1 = np.where(cond_L, fL1, np.where(cond_s, fsL1, np.where(cond_R, fsR1, fR1)))
    v_up = np.where(cond_s, hvL / hL, hvR / hR)
    return f0, f1, f0 * v_up


def mirrored(q: np.ndarray) -> np.ndarray:
    """A reflective wall's mirror image of normal-frame states q: the normal
    momentum negated."""
    m = q.copy()
    m[..., 1] = -m[..., 1]
    return m


def wall_flux(inner: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Reflective-wall flux from the symmetric (mirrored) Riemann problem.

    The mirrored problem has zero mass and tangential fluxes by symmetry;
    those components are set to exact zeros and only the wall pressure is
    taken from the HLLC evaluation.
    """
    f = hllc_flux(inner, mirrored(inner), params)
    f[..., ::2] = 0.0
    return f


class RiemannBatch:
    """Normal-frame Riemann problems of several producers, solved in one
    `hllc_flux` call.

    Each producer `add`s its left and right states, (n, 3), with a function
    that takes its n rows of the fluxes; `solve` solves every block at once
    and hands each function its rows, in the order the blocks were added.
    HLLC works row by row, so a row's flux does not depend on the rest of the
    batch; a dry or non-finite depth in any block fails the whole solve.
    """

    def __init__(self):
        self._blocks = []

    def add(self, qL: np.ndarray, qR: np.ndarray, read):
        self._blocks.append((qL, qR, read))

    def solve(self, params: PhysicalParams):
        if not self._blocks:
            return
        left, right, reads = zip(*self._blocks)
        flux = hllc_flux(np.concatenate(left), np.concatenate(right), params)
        stop = 0
        for q, read in zip(left, reads):
            start, stop = stop, stop + len(q)
            read(flux[start:stop])


class RiemannConvergenceError(RuntimeError):
    """Exact Riemann iteration failed to converge."""


def _depth_fn(h, hK, aK, g):
    """Toro's f_K(h): rarefaction branch for h <= hK, shock branch above."""
    rare = 2.0 * (np.sqrt(g * h) - aK)
    shock = (h - hK) * np.sqrt(0.5 * g * (h + hK) / (h * hK))
    return np.where(h <= hK, rare, shock)


def _depth_fn_deriv(h, hK, aK, g):
    rare = g / np.sqrt(g * h)
    gk = np.sqrt(0.5 * g * (h + hK) / (h * hK))
    shock = gk - 0.25 * g * (h - hK) / (gk * h * h)
    return np.where(h <= hK, rare, shock)


def exact_riemann_star(hL, uL, hR, uR, params: PhysicalParams, tol=1e-12, max_iter=100):
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
    for _ in range(max_iter):
        f = _depth_fn(h, hL, aL, g) + _depth_fn(h, hR, aR, g) + uR - uL
        df = _depth_fn_deriv(h, hL, aL, g) + _depth_fn_deriv(h, hR, aR, g)
        dh = f / df
        h_new = h - dh
        if h_new <= 0.0:
            h_new = 0.5 * h
        if abs(h_new - h) <= tol * max(h_new, 1.0) and abs(f) < 1e-10:
            h = h_new
            break
        h = h_new
    else:
        raise RiemannConvergenceError(f"no convergence after {max_iter} iterations")
    u = 0.5 * (uL + uR) + 0.5 * (_depth_fn(h, hR, aR, g) - _depth_fn(h, hL, aL, g))
    return float(h), float(u)


def exact_riemann_sample(qL, qR, xi, params: PhysicalParams, tol=1e-12):
    """Sample the exact Riemann solution at similarity coordinate xi = s/t.

    The transverse velocity is advected with the contact. Returns a conserved
    state (h, hu, hv) in the edge-normal frame.
    """
    g = params.g
    hL, hR = float(qL[0]), float(qR[0])
    uL, uR = float(qL[1]) / hL, float(qR[1]) / hR
    vL, vR = float(qL[2]) / hL, float(qR[2]) / hR
    hs, us = exact_riemann_star(hL, uL, hR, uR, params, tol=tol)
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
