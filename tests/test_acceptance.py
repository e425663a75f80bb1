"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Desk-scale scenario sizes are chosen so the whole suite
completes in minutes while every tolerance stays as stated.
"""

import numpy as np
import pytest

from swnet import presets
from swnet.config import build_simulation
from swnet.core import PhysicalParams, conserved, froude, physical_flux, physical_flux_y, rotate_back, rotate_state
from swnet.psfp import PSFPFailure, PSFPProblem, psfp_solve
from swnet.studies import compare_methods, convergence_order, grid_independence

P = PhysicalParams()
G = P.g


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_froude_reproduction():
    fr1 = froude(0.2, 0.96, P)
    fr23 = froude(0.1, 0.08, P)
    assert abs(fr1 - 0.685) <= 1e-3
    assert abs(fr23 - 0.081) <= 1e-3
    report(1, f"Fr1={fr1:.4f} (0.685±0.001), Fr2=Fr3={fr23:.4f} (0.081±0.001)")


def test_criterion_02_psfp_failure_case():
    problem = PSFPProblem([0.4, 0.3, 0.3], [0.2, 0.1, 0.1], [0.96, 0.08, 0.08])
    with pytest.raises(PSFPFailure) as exc:
        psfp_solve(problem, P)
    # independent oracle: eliminate the velocities through the invariants of
    # a dividing junction, signs (+1, -1, -1), and scan the remaining real
    # candidates on a fine depth grid
    s = np.array([1.0, -1.0, -1.0])
    K = problem.velocities + s * 2.0 * np.sqrt(G * problem.depths)
    hs = np.linspace(0.005, 1.0, 80)
    H1, H2, H3 = np.meshgrid(hs, hs, hs, indexing="ij")
    U1 = K[0] - 2.0 * np.sqrt(G * H1)
    U2 = K[1] + 2.0 * np.sqrt(G * H2)
    U3 = K[2] + 2.0 * np.sqrt(G * H3)
    b = problem.widths
    mass = H1 * U1 * b[0] - H2 * U2 * b[1] - H3 * U3 * b[2]
    e1 = H1 + U1**2 / (2 * G) - H2 - U2**2 / (2 * G)
    e2 = H1 + U1**2 / (2 * G) - H3 - U3**2 / (2 * G)
    norm = np.maximum(np.abs(mass), np.maximum(np.abs(e1), np.abs(e2)))
    assert norm.min() > 0.01
    report(2, f"solver failure kind={exc.value.kind}; grid-scan min residual {norm.min():.4f} > 0.01")


def test_criterion_03_psfp_identity():
    problem = PSFPProblem([0.6, 0.3, 0.3], [0.16] * 3, [0.2] * 3)
    star = psfp_solve(problem, P)
    err = max(np.abs(star.h - problem.depths).max(), np.abs(star.u - problem.velocities).max())
    assert err < 1e-10
    assert star.iterations <= 3
    report(3, f"star == interior to {err:.1e} in {star.iterations} Newton iterations")


def closed_test1_cfg():
    cfg = presets.preset("test1_sub90")
    for b in cfg.data["boundaries"]:
        b.pop("inflow", None)
        b["kind"] = "reflective"
    cfg.data["initial"]["per_channel"] = {
        "ch1": {"type": "dam_break", "split_s": 1.5,
                "left": {"h": 0.2, "u": 0.0}, "right": {"h": 0.16, "u": 0.0}}
    }
    return cfg


def test_criterion_04_conservation_closed_networks():
    drifts = {}
    for strategy in ("A", "B", "psfp"):
        sim = build_simulation(closed_test1_cfg(), strategy=strategy)
        v0 = sim.total_volume()
        for _ in range(1000):
            sim.advance(sim.compute_dt())
        drifts[strategy] = abs(sim.total_volume() - v0) / v0
        assert drifts[strategy] < 1e-12, f"strategy {strategy}"
    report(4, "relative volume drift over 1000 steps: " +
           ", ".join(f"{k}={v:.2e}" for k, v in drifts.items()))


def test_criterion_05_still_water_preservation():
    worst = {}
    for strategy in ("A", "B", "psfp"):
        cfg = presets.preset("test1_sub90")
        for b in cfg.data["boundaries"]:
            b.pop("inflow", None)
            b["kind"] = "reflective"
        sim = build_simulation(cfg, strategy=strategy)
        for _ in range(1000):
            sim.advance(sim.compute_dt())
        vel = max(np.abs(f.q[:, 1:] / f.q[:, :1]).max() for f in sim.fields.values())
        worst[strategy] = vel
        assert vel < 1e-12, f"strategy {strategy}"
    report(5, "max |velocity| after 1000 lake-at-rest steps: " +
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_06_symmetric_bifurcation():
    worst = {}
    for strategy in ("A", "B", "psfp"):
        sim = build_simulation(presets.preset("test1_sub90"), strategy=strategy)
        res = sim.run(8.0)
        assert res.status == "completed"
        h2 = np.array(res.gauges.h["g_ch2"])
        h3 = np.array(res.gauges.h["g_ch3"])
        u2 = np.array(res.gauges.u["g_ch2"])
        u3 = np.array(res.gauges.u["g_ch3"])
        worst[strategy] = max(np.abs(h2 - h3).max(), np.abs(u2 - u3).max())
        assert worst[strategy] < 1e-10, f"strategy {strategy}"
    report(6, "max daughter-gauge asymmetry: " +
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_07_convergence_orders():
    rep2 = convergence_order(order=2, base_cells=50, levels=4)
    final2 = rep2["orders"][-1]
    assert final2 >= 1.8
    rep1 = convergence_order(order=1, base_cells=50, levels=4)
    mean1 = float(np.mean(rep1["orders"]))
    assert 0.7 <= mean1 <= 1.1
    report(7, f"second-order observed orders {np.round(rep2['orders'], 3)} (final >= 1.8); "
              f"first-order mean {mean1:.3f} in [0.7, 1.1]")


def test_criterion_08_rotational_invariance():
    rng = np.random.default_rng(42)
    h = rng.uniform(0.05, 3.0, 1000)
    u = rng.uniform(-2, 2, 1000)
    v = rng.uniform(-2, 2, 1000)
    q = conserved(h, h * u, h * v)
    th = rng.uniform(0, 2 * np.pi, 1000)
    lhs = np.cos(th)[:, None] * physical_flux(q, P) + np.sin(th)[:, None] * physical_flux_y(q, P)
    rhs = rotate_back(physical_flux(rotate_state(q, th), P), th)
    scale = np.abs(physical_flux(q, P)).max()
    identity_err = np.abs(lhs - rhs).max() / scale
    assert identity_err < 1e-12

    # full-step equivariance on a rotated mesh (momentum limiter inactive;
    # componentwise limiting is not equivariant once it engages)
    from swnet.geometry import TriMesh
    from swnet.meshing import rect_union_mesh
    from swnet.simulation import Mesh2DSimulation

    mesh = rect_union_mesh([(0, 0, 1, 1)], 0.125)
    phi = 0.81
    c, s = np.cos(phi), np.sin(phi)
    R = np.array([[c, -s], [s, c]])
    tags = {}
    for e in mesh.boundary:
        key = (min(mesh.edge_va[e], mesh.edge_vb[e]), max(mesh.edge_va[e], mesh.edge_vb[e]))
        tags[key] = mesh.edge_tags[e]
    mesh_r = TriMesh(mesh.vertices @ R.T, mesh.triangles, tags)
    x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
    hfield = 1.0 + 0.2 * np.exp(-(((x - 0.5) ** 2 + (y - 0.45) ** 2) / 0.05))
    mom = np.array([0.05, -0.03])
    sim = Mesh2DSimulation(mesh, P)
    sim.field.q[:, 0] = hfield
    sim.field.q[:, 1:] = mom
    sim_r = Mesh2DSimulation(mesh_r, P)
    sim_r.field.q[:, 0] = hfield
    sim_r.field.q[:, 1:] = R @ mom
    dt = 0.5 * sim.compute_dt()
    sim.advance(dt)
    sim_r.advance(dt)
    rotated = sim.field.q.copy()
    rotated[:, 1:] = sim.field.q[:, 1:] @ R.T
    step_err = np.abs(sim_r.field.q - rotated).max()
    assert step_err < 1e-11
    report(8, f"identity residual {identity_err:.2e} < 1e-12; "
              f"rotated-mesh step discrepancy {step_err:.2e} < 1e-11")


def test_criterion_09_methods_vs_reference():
    cfg = presets.preset("test1_sub90")
    out = compare_methods(cfg, ref_dx=0.025, strategies=("A", "B"))
    ref = out["methods"]["ref2d"]["series"]
    gauges = list(ref)
    linf_A, l1 = {}, {"A": {}, "B": {}}
    for gid in gauges:
        r = ref[gid]
        a = out["methods"]["A"]["series"][gid]
        b = out["methods"]["B"]["series"][gid]
        linf_A[gid] = np.abs(r - a).max() / np.abs(r).max()
        l1["A"][gid] = np.abs(r - a).mean()
        l1["B"][gid] = np.abs(r - b).mean()
        assert linf_A[gid] <= 0.05, f"gauge {gid}: method A {linf_A[gid]:.3f} > 5%"
        assert l1["B"][gid] <= l1["A"][gid], f"gauge {gid}: B not closer than A"
    report(9, "method A Linf vs 2D reference: " +
           ", ".join(f"{g}={linf_A[g]:.3f}" for g in gauges) +
           "; B L1-closer at every gauge")


def test_criterion_10_supercritical_robustness():
    cfg = presets.preset("test4_super90")
    mins = {}
    for strategy in ("A", "B"):
        sim = build_simulation(cfg, strategy=strategy)
        res = sim.run(2.0)
        assert res.status == "completed", f"{strategy}: {res.failure}"
        mins[strategy] = min(f.q[:, 0].min() for f in sim.fields.values())
        assert mins[strategy] > 0.0
    sim = build_simulation(cfg, strategy="psfp")
    res = sim.run(2.0)
    assert res.status == "failed"
    assert isinstance(res.failure, PSFPFailure)
    assert res.diagnostics["psfp_failures"]
    report(10, f"Fr=1.135 bore: A/B complete (min depths "
               f"{mins['A']:.3f}/{mins['B']:.3f}); PSFP aborts with "
               f"{res.failure.kind} at t={res.diagnostics['psfp_failures'][0]['t']:.3f}")


def test_criterion_11_grid_independence():
    cfg = presets.preset("appB_gridstudy")
    rows = grid_independence(cfg, [0.16, 0.08, 0.04, 0.02])
    diffs = [r["rel_diff"] for r in rows[1:]]
    for k in range(1, len(diffs) - 1):
        assert diffs[k + 1] <= diffs[k], f"differences not decreasing: {diffs}"
    table = "; ".join(
        f"dx={r['size']}: I={r['integral']:.4f}"
        + (f", rel_diff={r['rel_diff']:.5f}" if r["rel_diff"] is not None else "")
        + f", cpu={r['cpu']:.1f}s"
        for r in rows
    )
    report(11, f"refinement table [{table}]; differences decrease beyond the coarsest pair")


def test_criterion_12_cost_ordering():
    cfg = presets.preset("test6_network")
    out = compare_methods(cfg, ref_dx=0.02, strategies=("A", "B"), t_end=6.0)
    t_ref = out["methods"]["ref2d"]["wall_time"]
    t_b = out["methods"]["B"]["wall_time"]
    t_a = out["methods"]["A"]["wall_time"]
    assert t_ref > t_b > t_a
    speedup = t_ref / t_a
    assert speedup >= 20.0
    report(12, f"wall clock: ref2d={t_ref:.1f}s > B={t_b:.1f}s > A={t_a:.1f}s; "
               f"A speedup {speedup:.0f}x >= 20x")
