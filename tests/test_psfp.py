import numpy as np
import pytest

from swnet.core import DryStateError, NonFiniteError, PhysicalParams
from swnet.psfp import (
    MAX_ITER,
    NEWTON_TOL,
    POLISH_TOL,
    PSFPFailure,
    PSFPProblem,
    PSFPStarState,
    _norm,
    psfp_boundary_fluxes,
    psfp_solve,
)

P = PhysicalParams()
G = P.g

PAPER_FAILING = PSFPProblem(
    widths=[0.4, 0.3, 0.3],
    depths=[0.2, 0.1, 0.1],
    velocities=[0.96, 0.08, 0.08],
)


def compatible_problem():
    # b1 = b2 + b3 with equal depths and velocities solves the system exactly
    return PSFPProblem(widths=[0.6, 0.3, 0.3], depths=[0.16] * 3, velocities=[0.2] * 3)


class TestResidual:
    def test_identity_on_compatible_data(self):
        p = compatible_problem()
        x = np.concatenate([p.depths, p.velocities])
        assert np.abs(oracle_residual(x, p, P)).max() < 1e-14

    def test_mass_row_linear_in_depth(self):
        p = compatible_problem()
        x = np.concatenate([p.depths, p.velocities]) * 1.07
        delta = 1e-6
        x2 = x.copy()
        x2[0] += delta
        dr = oracle_residual(x2, p, P)[3] - oracle_residual(x, p, P)[3]
        assert np.isclose(dr, x[3] * p.widths[0] * delta, rtol=1e-6)

    def test_merging_flips_third_invariant_sign(self):
        p_div = PSFPProblem([0.4, 0.2, 0.2], [0.2, 0.2, 0.2], [0.1, 0.1, 0.1])
        p_mer = PSFPProblem([0.4, 0.2, 0.2], [0.2, 0.2, 0.2], [0.1, 0.1, 0.1], merging=True)
        x = np.array([0.2, 0.2, 0.25, 0.1, 0.1, 0.1])  # perturbed h3*
        r_div = oracle_residual(x, p_div, P)
        r_mer = oracle_residual(x, p_mer, P)
        assert np.isclose(
            r_div[2], 0.1 - 2.0 * np.sqrt(G * 0.25) - (0.1 - 2.0 * np.sqrt(G * 0.2))
        )
        assert np.isclose(
            r_mer[2], 0.1 + 2.0 * np.sqrt(G * 0.25) - (0.1 + 2.0 * np.sqrt(G * 0.2))
        )

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            h = rng.uniform(0.05, 0.5, 3)
            fr = rng.uniform(-0.6, 0.6, 3)
            u = fr * np.sqrt(G * h)
            p = PSFPProblem(rng.uniform(0.1, 0.6, 3), h, u)
            x = np.concatenate([h * rng.uniform(0.9, 1.1, 3), u + rng.normal(0, 0.05, 3)])
            J = oracle_jacobian(x, p, P)
            eps = 1e-7
            for k in range(6):
                xp, xm = x.copy(), x.copy()
                xp[k] += eps
                xm[k] -= eps
                fd = (oracle_residual(xp, p, P) - oracle_residual(xm, p, P)) / (2 * eps)
                denom = np.maximum(np.abs(J[:, k]), 1.0)
                assert np.abs(J[:, k] - fd).max() / denom.max() < 1e-6


def multistart_oracle(p, n=6):
    """Independent damped Newton from a coarse grid of initial guesses."""
    best = None
    h_grid = np.linspace(0.5, 1.5, n)
    u_grid = np.linspace(0.5, 1.5, n)
    for fh in h_grid:
        for fu in u_grid:
            x = np.concatenate([p.depths * fh, p.velocities * fu + 0.01])
            for _ in range(80):
                try:
                    r = oracle_residual(x, p, P)
                except ValueError:
                    break
                if np.abs(r).max() < 1e-12:
                    break
                try:
                    dx = np.linalg.solve(oracle_jacobian(x, p, P), -r)
                except np.linalg.LinAlgError:
                    break
                lam = 1.0
                for _ in range(12):
                    xn = x + lam * dx
                    if np.all(xn[:3] > 0):
                        rn = oracle_residual(xn, p, P)
                        if np.abs(rn).max() < np.abs(r).max():
                            x = xn
                            break
                    lam *= 0.5
                else:
                    break
            else:
                continue
            r = oracle_residual(x, p, P)
            if np.abs(r).max() < 1e-10 and np.all(x[:3] > 0):
                if best is None:
                    best = x
                else:
                    assert np.allclose(best, x, atol=1e-7), "multiple distinct roots"
    return best


class TestSolve:
    def test_identity_converges_immediately(self):
        p = compatible_problem()
        star = psfp_solve(p, P)
        assert np.abs(star.h - p.depths).max() < 1e-10
        assert np.abs(star.u - p.velocities).max() < 1e-10
        assert star.iterations <= 3

    def test_paper_failing_data(self):
        with pytest.raises(PSFPFailure) as exc:
            psfp_solve(PAPER_FAILING, P)
        assert exc.value.kind in (
            PSFPFailure.COMPLEX_ROOT_REGIME,
            PSFPFailure.NON_CONVERGENCE,
        )
        # deterministic failure
        with pytest.raises(PSFPFailure) as exc2:
            psfp_solve(PAPER_FAILING, P)
        assert exc2.value.kind == exc.value.kind

    def test_supercritical_data_reported_before_iterating(self):
        p = PSFPProblem([0.4, 0.2, 0.2], [0.1, 0.1, 0.1], [1.5, 0.1, 0.1])
        with pytest.raises(PSFPFailure) as exc:
            psfp_solve(p, P)
        assert exc.value.kind == PSFPFailure.SUPERCRITICAL_DATA
        assert exc.value.iterations == 0

    def test_asymmetric_subcritical_case_verified_by_oracle(self):
        p = PSFPProblem([0.4, 0.3, 0.25], [0.2, 0.17, 0.15], [0.4, 0.25, 0.2])
        star = psfp_solve(p, P)
        x = np.concatenate([star.h, star.u])
        assert np.abs(oracle_residual(x, p, P)).max() < 1e-10
        oracle = multistart_oracle(p)
        assert oracle is not None
        assert np.allclose(x, oracle, atol=1e-8)

    def test_energy_continuity(self):
        p = PSFPProblem([0.4, 0.3, 0.25], [0.2, 0.18, 0.16], [0.3, 0.2, 0.15])
        star = psfp_solve(p, P)
        head = star.h + star.u**2 / (2 * G)
        assert np.abs(head - head[0]).max() < 1e-10


class TestBoundaryFluxes:
    def test_still_water_pure_pressure(self):
        from swnet.psfp import PSFPStarState

        star = PSFPStarState(h=np.array([0.2, 0.2, 0.2]), u=np.zeros(3))
        f = psfp_boundary_fluxes(star, P)
        assert np.allclose(f[:, 0], 0.0)
        assert np.allclose(f[:, 1], 0.5 * G * 0.04, atol=1e-15)

    def test_symmetric_case_daughters_identical(self):
        p = PSFPProblem([0.4, 0.2, 0.2], [0.2, 0.18, 0.18], [0.3, 0.1, 0.1])
        star = psfp_solve(p, P)
        f = psfp_boundary_fluxes(star, P)
        assert np.allclose(f[1], f[2], atol=1e-12)

    def test_mass_closure(self):
        p = PSFPProblem([0.4, 0.3, 0.25], [0.2, 0.17, 0.15], [0.4, 0.25, 0.2])
        star = psfp_solve(p, P)
        f = psfp_boundary_fluxes(star, P)
        b = p.widths
        assert abs(b[0] * f[0, 0] - b[1] * f[1, 0] - b[2] * f[2, 0]) < 1e-10


class TestNoRealRootScan:
    def test_paper_data_has_no_real_root_coarse_scan(self):
        # u* follow from the invariants of a dividing junction, signs
        # (+1, -1, -1), given (h1*, h2*, h3*); the remaining mass/energy
        # residuals stay bounded away from zero on a coarse grid
        p = PAPER_FAILING
        s = np.array([1.0, -1.0, -1.0])
        K = p.velocities + s * 2.0 * np.sqrt(G * p.depths)
        hs = np.linspace(0.01, 0.8, 40)
        H1, H2, H3 = np.meshgrid(hs, hs, hs, indexing="ij")
        U1 = K[0] - 2.0 * np.sqrt(G * H1)
        U2 = K[1] + 2.0 * np.sqrt(G * H2)
        U3 = K[2] + 2.0 * np.sqrt(G * H3)
        mass = H1 * U1 * p.widths[0] - H2 * U2 * p.widths[1] - H3 * U3 * p.widths[2]
        e1 = H1 + U1**2 / (2 * G) - H2 - U2**2 / (2 * G)
        e2 = H1 + U1**2 / (2 * G) - H3 - U3**2 / (2 * G)
        norm = np.maximum(np.abs(mass), np.maximum(np.abs(e1), np.abs(e2)))
        assert norm.min() > 0.01


class TestInvalidData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["depths", "velocities"])
    def test_non_finite_data(self, field, bad):
        data = {"widths": [0.4, 0.2, 0.2], "depths": [0.2, 0.2, 0.2], "velocities": [0.1] * 3}
        data[field][1] = bad
        with pytest.raises(NonFiniteError, match="non-finite interior state"):
            PSFPProblem(**data)

    @pytest.mark.parametrize("depth", [0.0, -0.0, -0.1])
    def test_non_positive_depth(self, depth):
        with pytest.raises(DryStateError, match="non-positive interior depth"):
            PSFPProblem([0.4, 0.2, 0.2], [0.2, depth, 0.2], [0.1] * 3)
        # still a ValueError for callers that caught the untyped one
        with pytest.raises(ValueError):
            PSFPProblem([0.4, 0.2, 0.2], [0.2, depth, 0.2], [0.1] * 3)


# -- the array Newton iteration, kept as the float solver's oracle ----------


def oracle_signs(p):
    s3 = 1.0 if p.merging else -1.0
    return np.array([1.0, -1.0, s3])


def oracle_residual(x, p, params):
    h, u = x[:3], x[3:]
    if np.any(h <= 0.0):
        raise ValueError("non-positive star depth in residual evaluation")
    g = params.g
    s = oracle_signs(p)
    inv = u + s * 2.0 * np.sqrt(g * h) - (p.velocities + s * 2.0 * np.sqrt(g * p.depths))
    b = p.widths
    mass = h[0] * u[0] * b[0] - h[1] * u[1] * b[1] - h[2] * u[2] * b[2]
    head = h + u * u / (2.0 * g)
    return np.array([inv[0], inv[1], inv[2], mass, head[0] - head[1], head[0] - head[2]])


def oracle_jacobian(x, p, params):
    h, u = x[:3], x[3:]
    g = params.g
    s = oracle_signs(p)
    b = p.widths
    J = np.zeros((6, 6))
    for i in range(3):
        J[i, i] = s[i] * np.sqrt(g / h[i])
        J[i, 3 + i] = 1.0
    J[3, :3] = (u[0] * b[0], -u[1] * b[1], -u[2] * b[2])
    J[3, 3:] = (h[0] * b[0], -h[1] * b[1], -h[2] * b[2])
    J[4, 0], J[4, 1] = 1.0, -1.0
    J[4, 3], J[4, 4] = u[0] / g, -u[1] / g
    J[5, 0], J[5, 2] = 1.0, -1.0
    J[5, 3], J[5, 5] = u[0] / g, -u[2] / g
    return J


def oracle_solve(p, params):
    froude = np.abs(p.velocities) / np.sqrt(params.g * p.depths)
    if np.any(froude >= 1.0):
        raise PSFPFailure(
            PSFPFailure.SUPERCRITICAL_DATA,
            f"interior Froude numbers {np.round(froude, 3)} not all < 1",
        )

    x = np.concatenate([p.depths, p.velocities]).astype(float)
    r = oracle_residual(x, p, params)
    rnorm = float(np.max(np.abs(r)))
    newton_iters = 0
    for it in range(1, MAX_ITER + 1):
        if rnorm < POLISH_TOL:
            break
        newton_iters = it
        try:
            dx = np.linalg.solve(oracle_jacobian(x, p, params), -r)
        except np.linalg.LinAlgError:
            raise PSFPFailure(
                PSFPFailure.COMPLEX_ROOT_REGIME,
                "singular Jacobian",
                residual_norm=rnorm,
                iterations=it,
            ) from None
        lam, accepted = 1.0, False
        for _ in range(11):
            x_new = x + lam * dx
            if np.all(x_new[:3] > 0.0):
                r_new = oracle_residual(x_new, p, params)
                n_new = float(np.max(np.abs(r_new)))
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

    star = PSFPStarState(
        h=x[:3].copy(), u=x[3:].copy(), iterations=newton_iters, residual_norm=rnorm
    )
    star_froude = np.abs(star.u) / np.sqrt(params.g * star.h)
    if np.any(star_froude >= 1.0):
        raise PSFPFailure(
            PSFPFailure.COMPLEX_ROOT_REGIME,
            f"converged to supercritical star state (Fr={np.round(star_froude, 3)})",
            residual_norm=rnorm,
        )
    return star


def random_problems(n, seed):
    """Subcritical data with |Fr| up to 0.99, diverging or merging at random;
    every tenth problem has one supercritical channel."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        h = rng.uniform(0.02, 0.6, 3)
        fr = rng.uniform(-0.99, 0.99, 3)
        if k % 10 == 9:
            fr[rng.integers(3)] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1.5)
        yield PSFPProblem(rng.uniform(0.05, 0.8, 3), h, fr * np.sqrt(G * h),
                          merging=bool(rng.integers(2)))


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


def outcome(solve, p):
    """Everything a solve reports, with the floats as their bytes."""
    try:
        star = solve(p, P)
    except PSFPFailure as exc:
        return ("failure", exc.kind, exc.message, exc.iterations, bits(exc.residual_norm))
    return ("star", bits(star.h), bits(star.u), star.iterations, bits(star.residual_norm))


class TestFloatSolverOracle:
    def test_bit_identical_to_array_iteration(self):
        kinds = {}
        for p in random_problems(3000, seed=2017):
            want = outcome(oracle_solve, p)
            assert outcome(psfp_solve, p) == want, p
            key = (want[0] if want[0] == "star" else want[1], p.merging)
            kinds[key] = kinds.get(key, 0) + 1
        # both merging values reach converged stars and every failure kind
        # the data can give
        for merging in (False, True):
            assert kinds.get(("star", merging), 0) > 100
            assert kinds.get((PSFPFailure.SUPERCRITICAL_DATA, merging), 0) > 100
            assert kinds.get((PSFPFailure.COMPLEX_ROOT_REGIME, merging), 0) > 10

    @pytest.mark.parametrize("r", [
        [1e-3, -2e-3, 0.0, -0.0, 5e-4, 1e-9],
        [1.0, np.nan, 2.0, 0.0, 0.0, 0.0],
        [np.nan, 1.0, 2.0, 0.0, 0.0, 0.0],
        [np.inf, -np.inf, 1.0, 0.0, 0.0, 0.0],
    ])
    def test_norm_as_array_max(self, r):
        assert bits(_norm(r)) == bits(np.max(np.abs(r)))
