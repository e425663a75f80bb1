"""Verification harnesses: reference-domain runs, grid study, convergence."""

from __future__ import annotations

import numpy as np

from .config import (
    ConfigError,
    ScenarioConfig,
    boundary_conditions,
    build_channels,
    build_simulation,
    gauges,
    initial_profile,
    junction_specs,
    physical_params,
)
from .geometry import Channel, GeometryError, MeshError, build_junction_polygon
from .meshing import rect_union_mesh
from .presets import smooth1d
from .simulation import Mesh2DSimulation, PointGauge, StripGauge, strip_cells


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
    cfg: ScenarioConfig, dx: float, extra_point_gauges=()
) -> Mesh2DSimulation:
    """Full-2D simulation of a network scenario's physical footprint.

    The footprint is the union of the channel rectangles and the junction core
    polygons (the junction shapes with zero protrusion). Each non-reflective
    channel end becomes mesh edges tagged "<kind>:<channel>:<end>" with the
    end's condition; everything else is a wall. Network gauges turn into
    cross-section-averaged strip gauges.
    """
    channels = {ch.id: ch for ch in build_channels(cfg)}
    rects = [_axis_aligned_rect(ch) for ch in channels.values()]

    cores = []
    for spec in junction_specs(cfg):
        ends = [(channels[ch], end) for ch, end in spec.connects]
        try:
            cores.append(build_junction_polygon(ends, spec.position, 0.0).vertices)
        except GeometryError as exc:
            # Parallel channels (e.g. a collinear pass-through) have a
            # zero-area core, which their rectangles cover; any other core
            # that does not build would leave a hole in the footprint.
            axes = np.array([ch.axis for ch, _ in ends])
            if np.abs(axes[:, 0] * axes[0, 1] - axes[:, 1] * axes[0, 0]).max() > 1e-12:
                raise MeshError(
                    f"junction {spec.id}: its core polygon does not build: {exc}") from exc

    tag_segments = []
    bcs = {}
    for (cid, end), bc in boundary_conditions(cfg).items():
        if bc.kind == "reflective":
            continue  # untagged boundary edges are walls
        ch = channels[cid]
        center = ch.end_point(end)
        half = 0.5 * ch.width * np.array([-ch.axis[1], ch.axis[0]])
        tag = f"{bc.kind}:{cid}:{end}"
        tag_segments.append((center - half, center + half, tag))
        bcs[tag] = bc

    mesh = rect_union_mesh(rects, dx, tag_segments=tag_segments, polygons=cores)

    strips = [StripGauge(g.id, mesh, channels[g.channel], g.s) for g in gauges(cfg)]
    points = [PointGauge(gid, mesh, p) for gid, p in extra_point_gauges]
    sim = Mesh2DSimulation(
        mesh, physical_params(cfg), boundary_conditions=bcs, gauges=strips + points
    )

    # Initial state: the uniform depth at rest in the junction cores, and
    # each channel's profile in the cells of its strip.
    init = cfg.data.get("initial", {})
    q = sim.field.q
    q[:, 0] = initial_profile(init, None, q[:, 0])[0]
    for cid, ch in channels.items():
        s0, s1, half = -1e-9, ch.length + 1e-9, ch.width / 2.0 + 1e-9
        cells, along, across = strip_cells(mesh, ch, s0, s1, half)
        inside = (along >= s0) & (along <= s1) & (np.abs(across) <= half)
        cells = cells[inside]
        h, u = initial_profile(init, cid, along[inside])
        q[cells, 0] = h
        q[cells, 1] = h * u * ch.axis[0]
        q[cells, 2] = h * u * ch.axis[1]
    return sim


def grid_independence(cfg: ScenarioConfig, sizes, t_end=None) -> list[dict]:
    """Refinement study on the 2D reference domain of a scenario.

    Runs the scenario at each mesh size, integrates the free-surface elevation
    in time at a probe point (`metadata.probe`, else the first junction's
    center), and reports the change relative to the previous level.
    """
    point = cfg.data.get("metadata", {}).get("probe")
    if point is None:
        if not cfg.data.get("junctions"):
            raise ConfigError(f"{cfg.name}: a grid study needs metadata.probe or a junction")
        point = tuple(cfg.data["junctions"][0]["position"])
    t_end = t_end if t_end is not None else cfg.t_end
    rows = []
    prev = None
    for dx in sizes:
        try:
            sim = build_reference_sim(cfg, dx, extra_point_gauges=[("probe", point)])
        except MeshError as exc:
            raise ConfigError(f"{cfg.name}: no reference mesh at size {dx!r}: {exc}") from exc
        except ValueError as exc:  # a probe outside the footprint, among others
            raise ConfigError(f"{cfg.name}: reference at size {dx!r} with probe {point}: {exc}") from exc
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


def convergence_order(order=2, base_cells=50, levels=4) -> dict:
    """L1 self-convergence of the 1D scheme on `presets.smooth1d` at its
    t_end.

    A much finer run of the same scheme (three refinements beyond the last
    measured level, so its own error is negligible) serves as the
    reference; nested factor-2 grids make the projection exact.
    """
    cell_counts = [base_cells * 2**k for k in range(levels)]
    ref_cells = base_cells * 2 ** (levels + 2)
    solutions = {}
    for cells in cell_counts + [ref_cells]:
        cfg = smooth1d(cells=cells)
        sim = build_simulation(cfg, order=order)
        res = sim.run(cfg.t_end)
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


def compare_methods(cfg: ScenarioConfig, ref_dx: float, strategies=("A", "B"), t_end=None) -> dict:
    """Run junction strategies against the full-2D reference on one scenario.

    Returns per-method wall times and gauge series resampled on a shared
    400-point time grid, so callers can compute error norms between methods.
    """
    t_end = t_end if t_end is not None else cfg.t_end
    grid = np.linspace(0.0, t_end, 400)
    out = {"time_grid": grid, "methods": {}}
    for name in ("ref2d", *strategies):
        ref = name == "ref2d"
        sim = build_reference_sim(cfg, ref_dx) if ref else build_simulation(cfg, strategy=name)
        res = sim.run(t_end)
        if res.status != "completed":
            raise RuntimeError(f"{name} run failed: {res.failure}")
        out["methods"][name] = {
            "wall_time": res.wall_time,
            "steps": res.steps,
            "series": {
                g.id: np.interp(grid, *res.gauges.series(g.id)[:2]) for g in res.gauges.gauges
            },
        }
        if ref:
            out["methods"][name]["cells"] = sim.mesh.n_cells
    return out
