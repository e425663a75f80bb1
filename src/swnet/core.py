"""Shallow-water physics: conserved states, fluxes, sources, rotations, wave speeds.

Conserved states are numpy arrays whose last axis has length 3 and holds
(h, hu, hv): water depth [m] and the two momentum components per unit area
[m^2/s]. 1D channel fields use the same layout in the channel's axial frame,
with the third component (transverse momentum) identically zero away from
junctions. All functions broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Depths at or below this are treated as dry; primitive recovery then fails
# loudly instead of being regularized.
H_DRY = 1e-8


class DryStateError(ValueError):
    """Raised when a primitive conversion or flux is requested on a dry state."""


class PositivityError(RuntimeError):
    """Raised when a finite-volume update produces a negative depth."""


class NonFiniteError(RuntimeError):
    """Raised when a state or a time step holds NaN or infinity."""


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants: gravity, Manning friction coefficient (friction
    applies when `manning_n > 0`)."""

    g: float = 9.81
    manning_n: float = 0.0

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.manning_n < 0.0:
            raise ValueError(f"manning_n must be >= 0, got {self.manning_n}")


def conserved(h, hu=0.0, hv=0.0) -> np.ndarray:
    """Stack depth and momenta into a conserved-state array (..., 3)."""
    h = np.asarray(h, dtype=float)
    hu = np.broadcast_to(np.asarray(hu, dtype=float), h.shape)
    hv = np.broadcast_to(np.asarray(hv, dtype=float), h.shape)
    return np.stack([h, hu, hv], axis=-1)


def check_wet(h, context="state"):
    # NaN compares false, so one reduction also rejects invalid depths; the
    # error type is only worked out once the check has failed.
    if not (np.asarray(h) > H_DRY).all():
        if np.isnan(h).any():
            raise NonFiniteError(f"non-finite depth in {context}")
        raise DryStateError(f"dry depth in {context}: min h = {np.asarray(h).min():.6e}")


def primitives(q: np.ndarray, context="state"):
    """Return (h, u, v) from a conserved array; errors on dry states."""
    h = q[..., 0]
    check_wet(h, context)
    return h, q[..., 1] / h, q[..., 2] / h


def physical_flux(q: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """x-direction flux F(Q) = (hu, hu^2/h + g h^2 / 2, hu hv / h)."""
    h, u, v = primitives(q, "physical_flux")
    hu = q[..., 1]
    out = np.empty(np.shape(q))
    out[..., 0] = hu
    out[..., 1] = hu * u + 0.5 * params.g * h * h
    out[..., 2] = hu * v
    return out


def physical_flux_y(q: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """y-direction flux G(Q) = (hv, hu hv / h, hv^2/h + g h^2 / 2)."""
    h, u, v = primitives(q, "physical_flux_y")
    hv = q[..., 2]
    return np.stack([hv, hv * u, hv * v + 0.5 * params.g * h * h], axis=-1)


def friction_source(q: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Manning bed-friction source (0, -g h S_fx, -g h S_fy).

    S_f = n^2 (u, v) sqrt(u^2 + v^2) / h^(4/3); opposes the velocity.
    """
    h, u, v = primitives(q, "friction_source")
    if params.manning_n == 0.0:
        return np.zeros_like(q)
    speed = np.sqrt(u * u + v * v)
    coef = params.g * h * params.manning_n**2 * speed / h ** (4.0 / 3.0)
    zero = np.zeros_like(h)
    return np.stack([zero, -coef * u, -coef * v], axis=-1)


def to_normal(hu, hv, c, s):
    """A momentum-like vector (hu, hv) in the frame whose normal has cosine c
    and sine s: (c hu + s hv, -s hu + c hv), normal then tangential. The
    one rotation formula; `from_normal` inverts it."""
    return c * hu + s * hv, -s * hu + c * hv


def from_normal(fn, ft, c, s, out=(None, None)):
    """Inverse of `to_normal`: (c fn - s ft, s fn + c ft) on global axes,
    written into the two arrays of `out` when given."""
    return np.subtract(c * fn, s * ft, out=out[0]), np.add(s * fn, c * ft, out=out[1])


def flat_rows(rows: np.ndarray) -> np.ndarray:
    """Flat indices 3 row + component of `rows` of an (n, 3) array: a `put` index."""
    return (3 * rows[:, None] + np.arange(3)).ravel()


def rotate_state(q: np.ndarray, theta) -> np.ndarray:
    """Rotate momenta into the frame whose normal is at angle theta.

    Depth is unchanged; (hu, hv) -> (hu_n, hu_t) by `to_normal`.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([q[..., 0], *to_normal(q[..., 1], q[..., 2], c, s)], axis=-1)


def rotate_back(f: np.ndarray, theta) -> np.ndarray:
    """Inverse rotation: map a vector from the normal frame back to global axes."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([f[..., 0], *from_normal(f[..., 1], f[..., 2], c, s)], axis=-1)


def max_wave_speed(q: np.ndarray, params: PhysicalParams):
    """|velocity| + sqrt(g h), the largest characteristic speed. Used for CFL."""
    h, u, v = primitives(q, "max_wave_speed")
    return np.sqrt(u * u + v * v) + np.sqrt(params.g * h)


def froude(h, u, params: PhysicalParams):
    """Froude number |u| / sqrt(g h)."""
    h = np.asarray(h, dtype=float)
    check_wet(h, "froude")
    return np.abs(u) / np.sqrt(params.g * h)


def jacobian_rows(q, b, c, g: float) -> np.ndarray:
    """A(q) . b + B(q) . c without forming the matrices, on component rows.

    q, b and c hold the (h, hu, hv) components along their first axis: q the
    states, b and c the conserved-variable gradient rows along x and y (pass
    c=None for purely one-dimensional evolution along the local axis).
    Returns (3, ...) rows. The one Jacobian formula; `jacobian_dot` is its
    (..., 3) wrapper.
    """
    h = q[0]
    check_wet(h, "jacobian_dot")
    u, v = q[1] / h, q[2] / h
    gh = g * h
    nuv = -u * v
    out = np.empty(np.shape(b))
    out[0] = b[1]
    out[1] = (gh - u * u) * b[0] + 2.0 * u * b[1]
    out[2] = nuv * b[0] + v * b[1] + u * b[2]
    if c is not None:
        out[0] += c[2]
        out[1] += nuv * c[0] + v * c[1] + u * c[2]
        out[2] += (gh - v * v) * c[0] + 2.0 * v * c[2]
    return out


def jacobian_dot(q: np.ndarray, b: np.ndarray, c, params: PhysicalParams) -> np.ndarray:
    """A(q) . b + B(q) . c for states and gradients in (..., 3) rows; see
    `jacobian_rows`, which takes their transposes."""
    return jacobian_rows(q.T, b.T, None if c is None else c.T, params.g).T
