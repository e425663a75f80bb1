"""Algebraic three-channel junction solver (Riemann invariants + mass + head).

Six unknowns (star depth and velocity per channel) satisfy three Riemann
invariants, mass conservation through the junction, and continuity of total
head between the parent and each daughter channel. The system is solved by a
damped Newton iteration; data outside the method's validity region (notably
supercritical or strongly asymmetric states, for which the algebraic system
has no real root) produce a structured failure instead of a state. Non-finite
data raise `NonFiniteError` and a non-positive interior depth `DryStateError`.

Velocity sign convention: positive toward the junction in channel 1 (parent)
and away from it in channels 2 and 3.

The iteration runs on Python floats with `math.sqrt`: on three channels a
numpy call costs more than its arithmetic. The equations are written once, as
float formulas (`_residual`, `_jacobian`). Each residual, Jacobian entry,
line-search step and norm keeps the operand order of the array iteration kept
as the oracle in tests/test_psfp.py, and +, -, *, / and sqrt round alike in
numpy and in Python, so every iterate, iteration count and residual norm
equals the oracle's. The Newton step stays one `np.linalg.solve` per
iteration: LAPACK's pivoted elimination fixes how the step rounds, and a
hand-written elimination would round it differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DryStateError, NonFiniteError, PhysicalParams

NEWTON_TOL = 1e-10
# After reaching NEWTON_TOL keep polishing toward round-off so the mass
# equation holds far below the conservation budget of long runs.
POLISH_TOL = 1e-14
MAX_ITER = 50


def _signs(merging: bool) -> tuple:
    return (1.0, -1.0, 1.0 if merging else -1.0)


@dataclass
class PSFPProblem:
    widths: np.ndarray
    depths: np.ndarray
    velocities: np.ndarray
    merging: bool = False  # flips the sign in the third invariant

    def __post_init__(self):
        self.widths = np.asarray(self.widths, dtype=float)
        self.depths = np.asarray(self.depths, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if not (len(self.widths) == len(self.depths) == len(self.velocities) == 3):
            raise ValueError("the junction system is defined for exactly 3 channels")
        depths, velocities = self.depths.tolist(), self.velocities.tolist()
        if not all(map(math.isfinite, depths + velocities)):
            raise NonFiniteError(
                f"non-finite interior state: depths {depths}, velocities {velocities}"
            )
        if any(h <= 0.0 for h in depths):
            raise DryStateError(f"non-positive interior depth: depths {depths}")


@dataclass
class PSFPStarState:
    h: np.ndarray
    u: np.ndarray
    iterations: int = 0
    residual_norm: float = 0.0


class PSFPFailure(RuntimeError):
    """Structured solver failure; `kind` is one of the class constants."""

    NON_CONVERGENCE = "non_convergence"
    COMPLEX_ROOT_REGIME = "complex_root_regime"
    SUPERCRITICAL_DATA = "supercritical_data"

    def __init__(self, kind, message, residual_norm=np.nan, iterations=0):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.residual_norm = residual_norm
        self.iterations = iterations


def _invariants(depths, velocities, g, s) -> list:
    """The interior Riemann invariants, u + s 2 sqrt(g h) per channel."""
    return [u + si * 2.0 * math.sqrt(g * h) for h, u, si in zip(depths, velocities, s)]


def _residual(x, k, b, s, g) -> list:
    """The six residuals at x = [h1*, h2*, h3*, u1*, u2*, u3*] (floats, star
    depths positive); k are the interior invariants, b the widths."""
    h1, h2, h3, u1, u2, u3 = x
    head = h1 + u1 * u1 / (2.0 * g)
    return [
        u1 + s[0] * 2.0 * math.sqrt(g * h1) - k[0],
        u2 + s[1] * 2.0 * math.sqrt(g * h2) - k[1],
        u3 + s[2] * 2.0 * math.sqrt(g * h3) - k[2],
        h1 * u1 * b[0] - h2 * u2 * b[1] - h3 * u3 * b[2],
        head - (h2 + u2 * u2 / (2.0 * g)),
        head - (h3 + u3 * u3 / (2.0 * g)),
    ]


def _jacobian(x, b, s, g) -> list:
    """The 6 x 6 Jacobian of `_residual` at x, as rows of floats."""
    h1, h2, h3, u1, u2, u3 = x
    return [
        [s[0] * math.sqrt(g / h1), 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, s[1] * math.sqrt(g / h2), 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, s[2] * math.sqrt(g / h3), 0.0, 0.0, 1.0],
        [u1 * b[0], -u2 * b[1], -u3 * b[2], h1 * b[0], -h2 * b[1], -h3 * b[2]],
        [1.0, -1.0, 0.0, u1 / g, -u2 / g, 0.0],
        [1.0, 0.0, -1.0, u1 / g, 0.0, -u3 / g],
    ]


def _norm(r) -> float:
    """max |r_i|, NaN when some r_i is NaN, as np.max(np.abs(r))."""
    total = sum(r)
    if total != total and any(v != v for v in r):
        return math.nan
    return max(map(abs, r))


def _froude(h, u, g) -> list:
    return [abs(ui) / math.sqrt(g * hi) for hi, ui in zip(h, u)]


def psfp_solve(p: PSFPProblem, params: PhysicalParams) -> PSFPStarState:
    """Damped Newton from the interior states; raises PSFPFailure on failure."""
    g, s, b = params.g, _signs(p.merging), p.widths.tolist()
    x = p.depths.tolist() + p.velocities.tolist()
    froude = _froude(x[:3], x[3:], g)
    if any(fr >= 1.0 for fr in froude):
        raise PSFPFailure(
            PSFPFailure.SUPERCRITICAL_DATA,
            f"interior Froude numbers {np.round(froude, 3)} not all < 1",
        )

    k = _invariants(x[:3], x[3:], g, s)
    r = _residual(x, k, b, s, g)
    rnorm = _norm(r)
    newton_iters = 0
    for it in range(1, MAX_ITER + 1):
        if rnorm < POLISH_TOL:
            break
        newton_iters = it
        try:
            dx = np.linalg.solve(_jacobian(x, b, s, g), [-v for v in r]).tolist()
        except np.linalg.LinAlgError:
            raise PSFPFailure(
                PSFPFailure.COMPLEX_ROOT_REGIME,
                "singular Jacobian",
                residual_norm=rnorm,
                iterations=it,
            ) from None
        lam, accepted = 1.0, False
        for _ in range(11):
            x_new = [xi + lam * di for xi, di in zip(x, dx)]
            if x_new[0] > 0.0 and x_new[1] > 0.0 and x_new[2] > 0.0:
                r_new = _residual(x_new, k, b, s, g)
                n_new = _norm(r_new)
                if n_new < rnorm or n_new < POLISH_TOL:
                    x, r, rnorm = x_new, r_new, n_new
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            if rnorm < NEWTON_TOL:
                break  # converged; line search only fails to polish further
            raise PSFPFailure(
                PSFPFailure.COMPLEX_ROOT_REGIME,
                "residual cannot decrease (negative-depth or stalled iterates)",
                residual_norm=rnorm,
                iterations=it,
            )
    else:
        if rnorm >= NEWTON_TOL:
            raise PSFPFailure(
                PSFPFailure.NON_CONVERGENCE,
                f"residual {rnorm:.3e} after {MAX_ITER} iterations",
                residual_norm=rnorm,
                iterations=MAX_ITER,
            )

    star_froude = _froude(x[:3], x[3:], g)
    if any(fr >= 1.0 for fr in star_froude):
        raise PSFPFailure(
            PSFPFailure.COMPLEX_ROOT_REGIME,
            f"converged to supercritical star state (Fr={np.round(star_froude, 3)})",
            residual_norm=rnorm,
        )
    x = np.array(x)
    return PSFPStarState(h=x[:3], u=x[3:], iterations=newton_iters, residual_norm=rnorm)


def psfp_boundary_fluxes(star: PSFPStarState, params: PhysicalParams) -> np.ndarray:
    """Axial fluxes (3 channels x 3 components) at the star states.

    Rows follow the solver's velocity convention; the caller reorients them
    into each channel's +s frame.
    """
    g = params.g
    return np.array([[h * u, h * u * u + 0.5 * g * h * h, 0.0]
                     for h, u in zip(star.h.tolist(), star.u.tolist())])
