"""Write `tests/bit_record.json`, the sha256 digests of every result that a
bit-for-bit change keeps, and print the entries that moved.

    python tools/bit_record.py

The record is made with the swnet of this checkout. Besides the numpy
version and the SIMD extensions numpy dispatches to (the baseline and the
found lines of `np.show_runtime()`), it holds one digest per entry and part,
in these sections:
- `runs`: each scenario of `compare_runs.cases`, stepped `STEPS` steps by
  `compare_runs.run_matrix`: its config text, built geometry (junction field
  stencils included), outcome (status, steps, failure type and message),
  gauge series, final channel and junction states and volume ledger; a
  rejected scenario, its config text and message;
- `references`: each full-2D reference of `compare_runs.REFERENCE_RUNS`, by
  `compare_runs.run_reference(REFERENCE_STEPS)`: its mesh, stencils, initial
  state, gauge cells and weights, run, final state and ledger;
- `points`: the cell that holds each of a set of points (corners, edge
  midpoints, centroids, random points and points off the mesh), or the
  error, on each reference mesh and on test6_network's Method-A and
  Method-B junction fields;
- `junctions`: the polygon (`compare_runs.POLYGON_ARRAYS`), or the error, of
  every preset junction at protrusions 0, 0.1 and 0.5 and of
  `generated.random_junction` seeds 0-299;
- `patches`: per `generated.random_patch` seed 0-39, its mesh (arrays, edge
  table and neighbours), its stencils without and with virtual neighbours,
  and the error of a copy made bad in one to three ways; or the polygon's
  error;
- `strips`: on `generated.strip_mesh()`, the cells that the initial state
  and two strip gauges select on each of 300 oblique channels.
- `kernels`: `hllc_rows` on each `generated.hllc_pair`; `jacobian_rows` on
  `generated.jacobian_states()`, with and without the y gradients; the
  messages of `junctions.wiring_errors` on `generated.generated_wiring` seeds
  0-39;
- `steps`: per step of each `generated.step_cases()` network from its
  `stirred` states, 12 steps, the `step_fluxes` triple (face fluxes,
  junction edge fluxes, boundary inflow rate) of the step's face states;
  per step of each `generated.stirred_reference`, 8 steps, its boundary
  edges' fluxes and inflow rate; and the `ChannelField.reconstruct` slopes
  of each `generated.slope_case`.

Floats are digested by their shortest repr, which tells every bit apart,
-0.0 from 0.0 included, and arrays by their dtype, shape and bytes.
`tests/test_bit_record.py` recomputes the record and names each entry and
part that differs, then, as their likely cause, each fingerprint item that
differs; a fingerprint that differs while every entry keeps its bits fails
nothing. A change that moves results on purpose rewrites the record and
lists what this tool prints in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import compare_runs

RECORD = Path(__file__).resolve().parents[1] / "tests" / "bit_record.json"
STEPS, REFERENCE_STEPS = 200, 12
SECTIONS = ("runs", "references", "points", "junctions", "patches", "strips", "kernels", "steps")
NETWORK_STEPS, BOUNDARY_STEPS = 12, 8
OUTCOME = ("status", "steps", "failure", "message")
SERIES = ("gauges", "channels", "junctions", "ledger")


def _plain(value):
    """A numpy value as JSON: dtype, shape and the sha256 of its bytes;
    object arrays (edge kinds) as lists."""
    a = np.asarray(value)
    if a.dtype == object:
        return a.tolist()
    return [a.dtype.str, a.shape, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, default=_plain).encode()).hexdigest()


def fingerprint() -> dict:
    """The numpy version and the SIMD extensions it runs with."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

    return {"version": np.__version__, "simd baseline": list(__cpu_baseline__),
            "simd found": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


def run_entries(runs) -> dict:
    """{label: {part: digest}} of `compare_runs.run_matrix` results."""
    out = {}
    for run in runs:
        if run["rejected"]:
            parts = {"config": run["config"], "rejected": run["rejected"]}
        else:
            parts = {"config": run["config"], "geometry": run["geometry"],
                     "outcome": [run[k] for k in OUTCOME], **{k: run[k] for k in SERIES}}
        out[run["label"]] = {k: digest(v) for k, v in parts.items()}
    return out


def reference_entries(arrays) -> dict:
    """{label: {group: digest}} of `compare_runs.run_reference` arrays."""
    groups = {}
    for key, a in arrays.items():
        label, group, name = key.split("/")
        groups.setdefault(label, {}).setdefault(group, {})[name] = a
    return {label: {g: digest(v) for g, v in parts.items()} for label, parts in groups.items()}


def holding_cells(mesh, seed, n=40) -> list:
    """The cell that holds each of up to `n` corners, edge midpoints and
    centroids, `n` random points of the bounding box and four points off the
    mesh, or the error message."""
    rng = np.random.default_rng(seed)

    def pick(a):
        return a[rng.choice(len(a), min(n, len(a)), replace=False)]

    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    points = [*pick(mesh.vertices), *pick(mesh.edge_midpoints), *pick(mesh.centroids),
              *rng.uniform(lo, hi, (n, 2)), hi + 0.1, lo - 0.1, (lo[0] - 1e-9, hi[1]),
              (np.nan, lo[1])]
    out = []
    for p in points:
        try:
            out.append(mesh.cell_containing(p))
        except ValueError as exc:
            out.append(str(exc))
    return out


def point_entries() -> dict:
    from swnet import build_simulation, preset

    out = {label: {"cells": digest(holding_cells(build().mesh, seed=int(100 * dx)))}
           for (label, _, build), (*_, dx) in zip(compare_runs.references(),
                                                  compare_runs.REFERENCE_RUNS)}
    for s in ("A", "B"):
        mesh = build_simulation(preset("test6_network", strategy=s)).junction_field.mesh
        out[f"test6_network {s} junction field"] = {"cells": digest(holding_cells(mesh, 7, 200))}
    return out


def junction_entries() -> dict:
    from swnet import preset, preset_names
    from swnet.config import build_channels, junction_specs
    from swnet.geometry import GeometryError, build_junction_polygon

    cases = []
    for name, _ in preset_names():
        cfg = preset(name)
        channels = {ch.id: ch for ch in build_channels(cfg)}
        for spec in junction_specs(cfg):
            ends = [(channels[ch], end) for ch, end in spec.connects]
            cases += [(f"{name}:{spec.id} p={p}", ends, spec.position, p) for p in (0.0, 0.1, 0.5)]
    cases += [(f"random {seed}", *compare_runs.generator().random_junction(seed))
              for seed in range(300)]
    out = {}
    for label, ends, position, protrusion in cases:
        try:
            geom = build_junction_polygon(ends, position, protrusion)
        except GeometryError as exc:
            out[label] = {"error": digest(str(exc))}
            continue
        out[label] = {"polygon": digest(compare_runs.polygon(geom))}
    return out


def bad_copy_error(mesh, seed) -> str:
    """The MeshError of a copy of `mesh` made bad in one to three ways at
    once: a triangle repeated, so that its interior edges have three users
    and its boundary edges two in the same direction; a triangle folded back
    over a boundary edge; a tag dropped."""
    from swnet.geometry import MeshError, TriMesh

    rng = np.random.default_rng(100 + seed)
    bound = mesh.boundary
    va, vb = mesh.edge_va[bound], mesh.edge_vb[bound]
    verts, tris = list(map(tuple, mesh.vertices)), mesh.triangles.tolist()
    tags = {(a, b): mesh.edge_tags[e] for a, b, e in zip(va.tolist(), vb.tolist(), bound.tolist())}
    ways = rng.permutation(3)[: 1 + rng.integers(3)]
    if 0 in ways:
        t = tris[rng.integers(len(tris))]
        tris.append(t[1:] + t[:1])
    if 1 in ways:
        e = rng.integers(len(bound))
        a, b = mesh.vertices[va[e]], mesh.vertices[vb[e]]
        inward = np.array([a[1] - b[1], b[0] - a[0]])  # left of a -> b
        verts.append(tuple(0.5 * (a + b) + 0.1 * inward))
        tris.append([int(va[e]), int(vb[e]), len(verts) - 1])
    if 2 in ways:
        del tags[list(tags)[rng.integers(len(tags))]]
    try:
        TriMesh(verts, tris, tags)
    except MeshError as exc:
        return str(exc)
    return "built"


def patch_entries() -> dict:
    from swnet.core import PhysicalParams
    from swnet.geometry import GeometryError, TriMesh
    from swnet.scheme2d import MeshField

    out = {}
    for seed in range(40):
        try:
            mesh = TriMesh(*compare_runs.generator().random_patch(seed))
        except GeometryError as exc:
            out[f"random {seed}"] = {"polygon": digest(str(exc))}
            continue
        # Every other boundary edge's cell takes a virtual neighbour, out of
        # order, and one of them a second.
        cells = mesh.edge_left[mesh.boundary[::2]]
        far = mesh.edge_midpoints[mesh.boundary[::2]] * 1.5
        virtual = [*zip(cells[::-1], far[::-1]), (cells[0], far[0] * 1.2)]
        fields = [MeshField(mesh, PhysicalParams(), virtual=v) for v in (None, virtual)]
        out[f"random {seed}"] = {
            "mesh": digest(compare_runs.mesh_arrays(mesh)),
            **{k: digest(compare_runs.stencil_arrays(f))
               for k, f in zip(("stencils", "virtual stencils"), fields)},
            "bad copy": digest(bad_copy_error(mesh, seed)),
        }
    return out


def strip_entries() -> dict:
    """Per oblique channel over a random cell's centroid: the cells and axial
    positions that the initial state selects with the centroid 1e-9 before
    the channel's start and 1e-9 past its end, and the cells and weights of
    strip gauges a mean cell size either side of it, at its half width."""
    from swnet.geometry import Channel
    from swnet.simulation import StripGauge, strip_cells

    mesh = compare_runs.generator().strip_mesh()
    hw = float(np.sqrt(np.mean(mesh.areas)))

    def initial(ch):
        s0, s1, half = -1e-9, ch.length + 1e-9, ch.width / 2.0 + 1e-9
        cells, along, across = strip_cells(mesh, ch, s0, s1, half)
        inside = (along >= s0) & (along <= s1) & (np.abs(across) <= half)
        return cells[inside], along[inside]

    def gauge(ch, s):
        try:
            g = StripGauge("g", mesh, ch, s)
        except ValueError as exc:
            return str(exc)
        return g.cells, g.weights

    rng = np.random.default_rng(3)
    out = {}
    for k in range(300):
        c = mesh.centroids[rng.integers(mesh.n_cells)]
        u = np.array([np.cos(phi := rng.uniform(0, 2 * np.pi)), np.sin(phi)])
        n = np.array([-u[1], u[0]])
        across = rng.uniform(0.05, 0.5)
        start = c + 1e-9 * u - across * n
        ch = Channel("c", 2.0 * across, 4, start, start + rng.uniform(0.5, 2.0) * u)
        end = c - 1e-9 * u - across * n
        before_end = Channel("c", 2.0 * across, 4, end - ch.length * u, end)
        rx, ry = c - ch.start
        along, off = rx * u[0] + ry * u[1], ry * u[0] - rx * u[1]
        through = Channel("c", 2.0 * abs(off), 4, ch.start, ch.end)
        out[f"oblique {k}"] = {
            "initial": digest([initial(ch), initial(before_end)]),
            "gauges": digest([gauge(through, along + hw), gauge(through, along - hw)]),
        }
    return out


def kernel_makers() -> dict:
    """{label: function giving the entry's parts} of the `kernels` section."""
    from swnet.junctions import wiring_errors
    from swnet.core import PhysicalParams, jacobian_rows
    from swnet.riemann import hllc_rows

    gen, g = compare_runs.generator(), PhysicalParams().g

    def hllc(pairing):
        qL, qR = gen.hllc_pair(pairing)
        return {"rows": list(hllc_rows(*qL.T, *qR.T, g))}

    def jacobian(with_c):
        q, b, c = (a.T.copy() for a in gen.jacobian_states())
        return {"rows": jacobian_rows(q, b, c if with_c else None, g)}

    def wiring(seed):
        return {"errors": wiring_errors(*gen.generated_wiring(seed))}

    return {
        **{f"hllc_rows {p}": functools.partial(hllc, p) for p in gen.HLLC_PAIRINGS},
        **{f"jacobian_rows {w} c": functools.partial(jacobian, w == "with")
           for w in ("with", "without")},
        **{f"wiring_errors {seed}": functools.partial(wiring, seed) for seed in range(40)},
    }


def step_flux_parts(cfg) -> dict:
    """Per step of the `stirred` network of `cfg`: `step_fluxes` from the
    step's face states, then the step itself."""
    sim = compare_runs.generator().stirred(cfg)
    field, cells = sim.field, sim.junction_field
    parts = {"face fluxes": [], "edge fluxes": [], "inflow": []}
    for _ in range(NETWORK_STEPS):
        dt = sim.compute_dt()
        nbr = None
        if cells is not None:
            cells.reconstruct(field)
            nbr = cells.channel_neighbors()
        field.reconstruct(nbr)
        field.face_state(dt)
        for values, value in zip(parts.values(), sim.step_fluxes(dt)):
            values.append(value)
        sim.advance(dt)
    return parts


def boundary_parts(name) -> dict:
    """Per step of a `stirred_reference`: its boundary edges' fluxes and
    inflow rate, then the step itself."""
    from swnet.scheme2d import interior_edge_fluxes

    sim = compare_runs.generator().stirred_reference(name)
    parts = {"boundary fluxes": [], "inflow": []}
    for _ in range(BOUNDARY_STEPS):
        dt = sim.compute_dt()
        sim.field.reconstruct()
        qL, qR = sim.field.edge_states(dt)
        flux = interior_edge_fluxes(sim.field, qL, qR)
        parts["inflow"].append(sim.boundary_fluxes(qL, flux))
        parts["boundary fluxes"].append(flux[sim.mesh.boundary])
        sim.advance(dt)
    return parts


def slope_parts(name, strategy, state) -> dict:
    sim = compare_runs.generator().slope_case(name, strategy, state)
    field, cells = sim.field, sim.junction_field
    if cells is None:
        field.reconstruct()
    else:
        cells.reconstruct(field)
        field.reconstruct(cells.channel_neighbors())
    return {"slopes": field.slopes}


def step_makers() -> dict:
    """{label: function giving the entry's parts} of the `steps` section."""
    gen = compare_runs.generator()
    return {
        **{f"step_fluxes {label}": functools.partial(step_flux_parts, cfg)
           for label, cfg in gen.step_cases().items()},
        **{f"boundary_fluxes {name}": functools.partial(boundary_parts, name)
           for name in gen.STIRRED_REFERENCES},
        **{f"slopes {name} {strategy} {state}": functools.partial(slope_parts, name, strategy, state)
           for name, strategy in gen.SLOPE_NETWORKS for state in gen.SLOPE_STATES},
    }


MAKERS = {"kernels": kernel_makers, "steps": step_makers}


def made(make) -> dict:
    return {k: digest(v) for k, v in make().items()}


def entry_differences(section, label) -> list:
    """`differences` of the record from its `kernels` or `steps` entry
    `label`, made here."""
    record = load()
    old = {"numpy": record["numpy"], section: {label: record[section][label]}}
    new = {"numpy": fingerprint(), section: {label: made(MAKERS[section]()[label])}}
    return differences(old, new)


def build(runs=None) -> dict:
    """The record of the swnet on sys.path; `runs`, if given, are its
    `compare_runs.run_matrix(STEPS)` results."""
    return {
        "numpy": fingerprint(),
        "runs": run_entries(runs if runs is not None else compare_runs.run_matrix(STEPS)),
        "references": reference_entries(compare_runs.run_reference(REFERENCE_STEPS)),
        "points": point_entries(),
        "junctions": junction_entries(),
        "patches": patch_entries(),
        "strips": strip_entries(),
        **{section: {label: made(make) for label, make in makers().items()}
           for section, makers in MAKERS.items()},
    }


def fingerprint_differences(old: dict, new: dict) -> list:
    """One line per fingerprint item that differs: "numpy <item>: <old>
    recorded, <new> here"."""
    a, b = old.get("numpy", {}), new.get("numpy", {})
    return [f"numpy {k}: {a.get(k)} recorded, {b.get(k)} here"
            for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]


def differences(old: dict, new: dict) -> list:
    """One line per entry that differs, "<section>: <label>: <parts>",
    where an entry on one side only is "gone" or "new"; then, if some part
    of an entry moved, the `fingerprint_differences`, as its likely cause.
    No numpy build makes an entry new or gone, and a fingerprint that
    differs while every entry keeps its bits gives no line."""
    out, moved = [], False
    for section in SECTIONS:
        a, b = old.get(section, {}), new.get(section, {})
        for label in dict.fromkeys([*a, *b]):
            if label not in b or label not in a:
                out.append(f"{section}: {label}: {'gone' if label in a else 'new'}")
                continue
            parts = [p for p in dict.fromkeys([*a[label], *b[label]])
                     if a[label].get(p) != b[label].get(p)]
            if parts:
                out.append(f"{section}: {label}: {', '.join(parts)}")
                moved = True
    causes = [f"{line} (a likely cause)" for line in fingerprint_differences(old, new)]
    return out + causes if moved else out


def load() -> dict:
    return json.loads(RECORD.read_text())


def dumps(record: dict) -> str:
    """The record as JSON text, one line per entry, so that a diff of the
    file shows each entry that moved."""
    sections = [f"{json.dumps(s)}: {{\n" + ",\n".join(
        f"  {json.dumps(label)}: {json.dumps(parts)}" for label, parts in record[s].items())
        + "\n }" for s in SECTIONS]
    return "{\n" + ",\n".join([f'"numpy": {json.dumps(record["numpy"])}', *sections]) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(RECORD.parents[1] / "src"))
    old = load() if RECORD.exists() else {}
    new = build()
    RECORD.write_text(dumps(new))
    print("\n".join(differences(old, new) or ["no entry moved", *fingerprint_differences(old, new)]))
    print(f"wrote {RECORD.name}: " + ", ".join(f"{len(new[s])} {s}" for s in SECTIONS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
