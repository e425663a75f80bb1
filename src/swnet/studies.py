"""Verification harnesses: reference-domain runs, grid study, convergence."""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig, build_simulation, initial_profile, physical_params
from .geometry import Channel, GeometryError, MeshError, build_junction_polygon
from .meshing import rect_union_mesh
from .presets import smooth1d
from .simulation import (
    BoundaryCondition,
    Mesh2DSimulation,
    PointGauge,
    StripGauge,
    gaussian_pulse,
)


def _axis_aligned_rect(ch: Channel):
    a = ch.axis
    if abs(a[0]) > 1e-12 and abs(a[1]) > 1e-12:
        raise MeshError(
            f"channel {ch.id} is not axis-aligned; the structured reference "
            "mesher only covers rectilinear footprints"
        )
    half = ch.width / 2.0
    if abs(a[1]) < 1e-12:
        x0, x1 = sorted((ch.start[0], ch.end[0]))
        return (x0, ch.start[1] - half, x1, ch.start[1] + half)
    y0, y1 = sorted((ch.start[1], ch.end[1]))
    return (ch.start[0] - half, y0, ch.start[0] + half, y1)


def build_reference_sim(
    cfg: ScenarioConfig, dx: float, extra_point_gauges=(), order=2, cfl=0.9
) -> Mesh2DSimulation:
    """Full-2D simulation of a network scenario's physical footprint.

    The footprint is the union of the channel rectangles and the junction core
    polygons (the junction shapes with zero protrusion). Channel-end boundary
    conditions become tagged mesh edges; everything else is a wall. Network
    gauges turn into cross-section-averaged strip gauges.
    """
    data = cfg.data
    params = physical_params(cfg)
    channels = {
        c["id"]: Channel(
            id=c["id"], width=c["width"], cells=c["cells"], start=c["start"], end=c["end"]
        )
        for c in data["channels"]
    }
    rects = [_axis_aligned_rect(ch) for ch in channels.values()]

    cores = []
    for j in data.get("junctions", []):
        ends = [channels[c["channel"]].connected_end(c["end"]) for c in j["connects"]]
        try:
            cores.append(build_junction_polygon(ends, j["position"], 0.0).vertices)
        except GeometryError:
            pass  # zero-area core (e.g. collinear pass-through): rectangles cover it

    kind_map = {"reflective": "wall", "transparent": "transparent",
                "inflow": "inflow", "prescribed": "prescribed"}
    tag_segments = []
    bcs = {}
    for b in data.get("boundaries", []):
        ch = channels[b["channel"]]
        center = ch.end_point(b["end"])
        perp = np.array([-ch.axis[1], ch.axis[0]])
        a = center - 0.5 * ch.width * perp
        c2 = center + 0.5 * ch.width * perp
        tag = kind_map[b["kind"]]
        tag_segments.append((a, c2, tag))
        if tag == "inflow":
            spec = b["inflow"]
            bcs["inflow"] = BoundaryCondition(
                "inflow",
                u_fn=gaussian_pulse(spec["amplitude"], spec["center"], spec.get("width", 1.0)),
            )
        elif tag == "prescribed":
            bcs["prescribed"] = BoundaryCondition("prescribed", h=b["h"], u=b.get("u", 0.0))

    mesh = rect_union_mesh(rects, dx, tag_segments=tag_segments, polygons=cores)

    # Initial conditions: locate each cell in its channel strip.
    init = data.get("initial", {})
    h0, u0 = init.get("h", 1.0), init.get("u", 0.0)
    per = init.get("per_channel", {})
    q = np.zeros((mesh.n_cells, 3))
    q[:, 0] = h0
    for cid, ch in channels.items():
        axis = ch.axis
        perp = np.array([-axis[1], axis[0]])
        rel = mesh.centroids - ch.start
        along = rel @ axis
        across = rel @ perp
        inside = (along >= -1e-9) & (along <= ch.length + 1e-9) & (
            np.abs(across) <= ch.width / 2.0 + 1e-9
        )
        h, u = initial_profile(per.get(cid, {}), along[inside], h0, u0)
        q[inside, 0] = h
        q[inside, 1] = h * u * axis[0]
        q[inside, 2] = h * u * axis[1]

    gauges = [
        StripGauge(g["id"], mesh, channels[g["channel"]], g["s"])
        for g in data.get("gauges", [])
    ]
    gauges += [PointGauge(gid, mesh, p) for gid, p in extra_point_gauges]

    sim = Mesh2DSimulation(
        mesh, params, order=order, cfl=cfl, boundary_conditions=bcs, gauges=gauges
    )
    sim.field.q[:] = q
    return sim


def grid_independence(cfg: ScenarioConfig, sizes, point=None, t_end=None) -> list[dict]:
    """Refinement study on the 2D reference domain of a scenario.

    Runs the scenario at each mesh size, integrates the free-surface elevation
    in time at a probe point (default: the first junction's center), and
    reports the change relative to the previous level.
    """
    if point is None:
        point = cfg.data.get("metadata", {}).get("probe")
    if point is None:
        point = tuple(cfg.data["junctions"][0]["position"])
    t_end = t_end if t_end is not None else cfg.t_end
    rows = []
    prev = None
    for dx in sizes:
        sim = build_reference_sim(cfg, dx, extra_point_gauges=[("probe", point)])
        res = sim.run(t_end)
        if res.status != "completed":
            raise RuntimeError(f"reference run at dx={dx} failed: {res.failure}")
        t, h, _ = res.gauges.series("probe")
        integral = float(np.trapezoid(h, t))
        rows.append(
            {
                "size": dx,
                "cells": sim.mesh.n_cells,
                "integral": integral,
                "rel_diff": None if prev is None else abs(integral - prev) / abs(prev),
                "cpu": res.wall_time,
            }
        )
        prev = integral
    return rows


def convergence_order(order=2, base_cells=50, levels=4, t_end=1.0, cfl=0.9, ref_margin=3) -> dict:
    """L1 self-convergence of the 1D scheme on a smooth hump.

    A much finer run of the same scheme (ref_margin refinements beyond the
    last measured level, so its own error is negligible) serves as the
    reference; nested factor-2 grids make the projection exact.
    """
    cell_counts = [base_cells * 2**k for k in range(levels)]
    ref_cells = base_cells * 2 ** (levels - 1 + ref_margin)
    solutions = {}
    for cells in cell_counts + [ref_cells]:
        cfg = smooth1d(cells=cells)
        sim = build_simulation(cfg, order=order, cfl=cfl)
        res = sim.run(t_end)
        if res.status != "completed":
            raise RuntimeError(f"convergence run at {cells} cells failed: {res.failure}")
        f = sim.fields["ch1"]
        solutions[cells] = (f.q[:, 0].copy(), f.ds)
    href = solutions[ref_cells][0]
    errors = []
    for cells in cell_counts:
        m = ref_cells // cells
        projected = href.reshape(cells, m).mean(axis=1)
        h, ds = solutions[cells]
        errors.append(float(np.sum(np.abs(h - projected) * ds)))
    orders = [
        float(np.log2(errors[k] / errors[k + 1])) for k in range(len(errors) - 1)
    ]
    return {"cells": cell_counts, "errors": errors, "orders": orders}


def compare_methods(
    cfg: ScenarioConfig,
    ref_dx: float,
    strategies=("A", "B"),
    t_end=None,
    samples: int = 400,
) -> dict:
    """Run junction strategies against the full-2D reference on one scenario.

    Returns per-method wall times and gauge series resampled on a shared time
    grid, so callers can compute error norms between methods.
    """
    t_end = t_end if t_end is not None else cfg.t_end
    grid = np.linspace(0.0, t_end, samples)
    out = {"time_grid": grid, "methods": {}}

    ref = build_reference_sim(cfg, ref_dx)
    res = ref.run(t_end)
    if res.status != "completed":
        raise RuntimeError(f"reference run failed: {res.failure}")
    out["methods"]["ref2d"] = {
        "wall_time": res.wall_time,
        "steps": res.steps,
        "cells": ref.mesh.n_cells,
        "series": {
            g.id: np.interp(grid, *res.gauges.series(g.id)[:2]) for g in ref.gauges
        },
    }
    for strategy in strategies:
        sim = build_simulation(cfg, strategy=strategy)
        res = sim.run(t_end)
        if res.status != "completed":
            raise RuntimeError(f"strategy {strategy} run failed: {res.failure}")
        out["methods"][strategy] = {
            "wall_time": res.wall_time,
            "steps": res.steps,
            "series": {
                g.id: np.interp(grid, *res.gauges.series(g.id)[:2])
                for g in sim.recorder.gauges
            },
        }
    return out
