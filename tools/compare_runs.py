"""Compare the stepped results of two swnet source trees on the preset matrix.

    python tools/compare_runs.py OLD_TREE NEW_TREE [--steps 200] [--rtol 1e-12]

Each tree is a directory holding `src/swnet`, for example this checkout and
an unpacked `git archive` of another commit. Every preset runs with each
junction strategy (A, B, psfp), plus boundary variants that put every
condition kind at a channel start and at a channel end, and a wall and a
prescribed end beside a junction (`BOUNDARY_RUNS`), plus test1_sub90 with
its PSFP junction marked merging, which flips the sign of the third Riemann
invariant (`MERGING_RUNS`), plus test6_network with its junctions
alternating between Methods A and B, and with PSFP junctions at its nine
three-channel junctions among them (`MIXED_RUNS`), plus smooth1d with
Manning friction (`FRICTION_RUNS`), plus test1_sub90 with each junction
strategy and test6_network with Method A at first order, the only runs of
the first-order reconstruction and face states (`ORDER1_RUNS`), plus
test6_network as an 8 x 8 grid of 64 junctions, its feeder inflow kept,
with Method A, with Method B and alternating between them (`GRID_RUNS`),
plus the seeded junctions of `tests/generated.py`, one junction of two to
four channels at arbitrary angles, widths and mouth offsets, with Methods A
and B, and with PSFP where it joins three channels (`GENERATED_SEEDS`),
for at most --steps steps. Each tree runs in its own interpreter. The
report is a markdown table: per run, the steps and failure type on both
sides and the largest relative deviation of the gauge series, the final
channel states, the final junction states and the ledger entries,
and whether those four are equal to the bit, signs of zero included: a
deviation of 0.0e+00 cannot tell -0.0 from 0.0. Deviations are relative to the largest magnitude of the compared series,
except where that magnitude is itself round-off: gauge
velocities are compared relative to the gauge's largest celerity sqrt(g h),
volumes and boundary influx relative to the initial volume, and the
discarded transverse momentum relative to the largest final cell momentum.
Failure messages that differ, and scenarios a tree rejects with a
configuration error, are listed with their messages. Each network's built
geometry must be equal to the bit, dtypes included (`GEOMETRY_ARRAYS`): the
channel field's cell sizes and centres, the junction field mesh's
vertices, cells, areas, centroids, incircle diameters, edge lengths and edge
normal angles, and its reconstruction stencils (as of the references
below), each Method-A and Method-B junction's polygon
(`POLYGON_ARRAYS`: its vertices, edge points, edge kinds, area and
centroid, the kinds compared as lists), and each Method-B junction's patch
mesh, which a tree may build on first read (`PATCH_ARRAYS`: its cell count,
vertices, triangles, edge ends and edge tags, the tags compared as lists);
runs whose geometry differs are listed with the arrays that differ, each
one problem. Each run's scenario config is compared as JSON
text, since a short run does not read its `t_end`, `metadata` or a gauge it
never samples; runs whose configs differ are listed with the top-level keys
that differ. The exit code is 1 when
configs, geometry, steps, statuses, failure types, failure messages or
rejections differ, or a deviation exceeds --rtol.

    python tools/compare_runs.py OLD_TREE NEW_TREE --reference [--steps 12]

builds full-2D references in each tree instead (`REFERENCE_RUNS`: the
test6_network reference at dx = 0.1, 0.04 and 0.02, whose open boundary is
one inflow; test1_sub90 with an inflow and far-field edges, test4_super90
with prescribed and far-field edges, and test1_sub90 with two inflows, at
dx = 0.05; then every other preset and size at which a reference builds;
then smooth1d with Manning friction at dx = 0.1, the only reference whose
update adds friction; the one at dx = 0.02 also holds the point gauges of
`POINT_GAUGES`) and
requires exact equality: of every mesh array (vertices, triangles, the edge
table and tags, each cell's neighbours), of the
reconstruction stencils (cells, neighbours, the two slope rows of each
operator and the regular-stencil flags, cell-major: a tree that keeps the
gradients component-major in `MeshField.grad` stores the neighbours as (c, n)
and the operators as (2, c, n), which are transposed back), of the initial state
and of each gauge's cells and weights, and, after --steps steps, of the
gauge series, the final state and the volume ledger (initial and final
volume, boundary influx and volume defect).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

STRATEGIES = ("A", "B", "psfp")
VOLUME_ENTRIES = ("initial_volume", "final_volume", "volume_defect", "boundary_influx")


def inflow(amplitude, center, width):
    return {"kind": "inflow", "inflow": {"amplitude": amplitude, "center": center, "width": width}}


# No preset has a reflective end, or an inflow or prescribed one at a channel
# end: smooth1d (run to t = 8, so that the hump reaches its ends) takes each
# of these kinds at both ends, and test1_sub90 takes inflows on both outlets,
# and a wall and a prescribed state on them, whose Riemann problems then
# share a network step's one HLLC batch with the junction's.
TWO_INFLOWS = {("ch2", "end"): inflow(0.2, 3.0, 1.0), ("ch3", "end"): inflow(0.3, 3.0, 1.0)}
WALL_AND_PRESCRIBED = {
    ("ch2", "end"): {"kind": "reflective"},
    ("ch3", "end"): {"kind": "prescribed", "h": 1.0, "u": 0.05},
}
BOUNDARY_RUNS = [
    *[("smooth1d", None, {("ch1", "start"): b, ("ch1", "end"): b}, 8.0) for b in (
        {"kind": "reflective"},
        inflow(0.2, 2.0, 0.5),
        {"kind": "prescribed", "h": 1.05, "u": 0.1},
    )],
    *[("test1_sub90", s, ends, None) for ends in (TWO_INFLOWS, WALL_AND_PRESCRIBED)
      for s in STRATEGIES],
]
# No preset has a merging PSFP junction, so no other run takes the third
# invariant's other sign.
MERGING_RUNS = ["test1_sub90"]
# One network whose junction cells mix polygons (A) and triangles (B), on
# its own and with algebraic junctions among them, which no preset mixes
# with junction cells: (preset, whether three-channel junctions are PSFP).
MIXED_RUNS = [("test6_network", False), ("test6_network", True)]
# No preset sets a Manning coefficient: smooth1d, run to t = 8 like its
# boundary runs so that the spreading hump moves water, takes one.
FRICTION_RUNS = [("smooth1d", 0.03, 8.0)]
# Every preset steps at second order: these networks take `numerics.order = 1`.
ORDER1_RUNS = [*[("test1_sub90", s) for s in STRATEGIES], ("test6_network", "A")]
# test6_network is a 4 x 4 grid: these networks of one junction field of 64
# junctions take the 8 x 8 one (junction strategy, or "A/B" alternating).
GRID_SIZE, GRID_RUNS = 8, ("A", "B", "A/B")
# The presets that build with Methods A and B join channels at 0, 45 and 90
# degrees only: these seeds of `tests/generated.py` join them at any angle.
GENERATED_SEEDS = range(12)


def boundary_variant(preset, name, strategy, ends, t_end):
    """The preset with the boundary entries of `ends` replaced."""
    from swnet import ScenarioConfig

    data = preset(name, **({"strategy": strategy} if strategy else {})).emit()
    data["boundaries"] = [
        {"channel": b["channel"], "end": b["end"], **ends.get((b["channel"], b["end"]), b)}
        for b in data["boundaries"]
    ]
    if t_end is not None:
        data["t_end"] = t_end
    return ScenarioConfig(data)


def merging_psfp(preset, name):
    """The preset with PSFP junctions, each marked merging."""
    from swnet import ScenarioConfig

    data = preset(name, strategy="psfp").emit()
    for junction in data["junctions"]:
        junction["merging"] = True
    return ScenarioConfig(data)


def mixed_strategies(preset, name, psfp):
    """The preset with its junctions alternating between Methods A and B;
    with `psfp`, every junction of three channels is PSFP instead."""
    from swnet import ScenarioConfig

    data = preset(name, strategy="A").emit()
    for k, junction in enumerate(data["junctions"]):
        three = psfp and len(junction["connects"]) == 3
        junction["strategy"] = "psfp" if three else "AB"[k % 2]
    return ScenarioConfig(data)


def with_friction(preset, name, manning_n, t_end):
    """The preset with Manning friction, run to `t_end`."""
    from swnet import ScenarioConfig

    data = preset(name).emit()
    data["physics"]["manning_n"] = manning_n
    data["t_end"] = t_end
    return ScenarioConfig(data)


def first_order(preset, name, strategy):
    """The preset with `strategy` at every junction, stepped at first order."""
    from swnet import ScenarioConfig

    data = preset(name, strategy=strategy).emit()
    data["numerics"]["order"] = 1
    return ScenarioConfig(data)


def grid(preset, strategy, n):
    """test6_network as an n x n grid of `presets._grid_network`, its
    feeder inflow kept; "A/B" alternates between Methods A and B."""
    from swnet import ScenarioConfig, presets

    data = preset("test6_network", strategy="A").emit()
    data["channels"], data["junctions"] = presets._grid_network(strategy[0], n=n)
    if strategy == "A/B":
        for k, junction in enumerate(data["junctions"]):
            junction["strategy"] = "AB"[k % 2]
    return ScenarioConfig(data)


@functools.cache
def generator():
    """The module `tests/generated.py` beside this tool: both trees run its
    scenarios."""
    path = Path(__file__).resolve().parents[1] / "tests" / "generated.py"
    spec = importlib.util.spec_from_file_location("generated", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated(seed, strategy):
    """The generated junction scenario of `seed` with `strategy`."""
    from swnet import ScenarioConfig

    return ScenarioConfig(generator().junction_scenario(seed, strategy))


def cases(preset, preset_names):
    """(label, scenario factory) for the whole matrix."""
    for name, _ in preset_names():
        try:
            preset(name, strategy="A")
        except TypeError:  # a preset without junctions
            yield name, lambda name=name: preset(name)
            continue
        for s in STRATEGIES:
            yield f"{name} {s}", lambda name=name, s=s: preset(name, strategy=s)
    for name, s, ends, t_end in BOUNDARY_RUNS:
        kinds = [f"{c}:{e}={b['kind']}" for (c, e), b in ends.items()]
        label = " ".join([name, *([s] if s else []), *kinds])
        yield label, lambda args=(name, s, ends, t_end): boundary_variant(preset, *args)
    for name in MERGING_RUNS:
        yield f"{name} psfp merging", lambda name=name: merging_psfp(preset, name)
    for name, psfp in MIXED_RUNS:
        yield (f"{name} A/B" + "/psfp" * psfp,
               lambda args=(name, psfp): mixed_strategies(preset, *args))
    for name, manning_n, t_end in FRICTION_RUNS:
        yield (f"{name} manning_n={manning_n}",
               lambda args=(name, manning_n, t_end): with_friction(preset, *args))
    for name, s in ORDER1_RUNS:
        yield f"{name} {s} order=1", lambda args=(name, s): first_order(preset, *args)
    for s in GRID_RUNS:
        yield (f"test6_network {GRID_SIZE}x{GRID_SIZE} {s}",
               lambda s=s: grid(preset, s, GRID_SIZE))
    for seed in GENERATED_SEEDS:
        three = len(generator().junction_scenario(seed, "A")["channels"]) == 3
        for s in STRATEGIES[: 2 + three]:
            yield f"generated {seed} {s}", lambda args=(seed, s): generated(*args)


# The built geometry of a network: arrays of its channel field and of its
# junction field's mesh, by owner, and of each Method-B junction's patch mesh.
GEOMETRY_ARRAYS = {
    "field": ("ds", "centers"),
    "junction_field.mesh": ("vertices", "triangles", "areas", "centroids", "incircle_diameters",
                            "edge_lengths", "edge_thetas"),
}
PATCH_ARRAYS = ("n_cells", "vertices", "triangles", "edge_va", "edge_vb", "edge_tags")
POLYGON_ARRAYS = ("vertices", "edge_points", "edge_kinds", "area", "centroid")


def polygon(geom) -> dict:
    """The `POLYGON_ARRAYS` of a junction polygon: its vertices, each edge's
    two ends as (E, 2, 2), each edge's (kind, channel, channel end), its
    area and its centroid."""
    return {
        "vertices": np.asarray(geom.vertices),
        "edge_points": np.array([(e.a, e.b) for e in geom.edges]),
        "edge_kinds": np.array([(e.kind, e.channel, e.channel_end) for e in geom.edges],
                               dtype=object),
        "area": np.asarray(geom.area),
        "centroid": np.asarray(geom.centroid),
    }


def geometry(sim) -> dict:
    """{"<owner>.<array>": (dtype name, values)} of a network's
    `GEOMETRY_ARRAYS`; of its junction field's `stencil_arrays`, owned by
    "junction_field.stencils"; of the `POLYGON_ARRAYS` of each Method-A and
    Method-B junction's polygon, owned by "junctions.<id>.geom"; and of the
    `PATCH_ARRAYS` of each Method-B junction's patch mesh, owned by
    "junctions.<id>.mesh". A network without Method-A or Method-B junctions
    has no junction field."""
    owners = {"field": sim.field, "junction_field.mesh": getattr(sim.junction_field, "mesh", None)}
    out = {f"{owner}.{n}": (str(getattr(obj, n).dtype), getattr(obj, n).tolist())
           for owner, obj in owners.items() if obj is not None for n in GEOMETRY_ARRAYS[owner]}
    if sim.junction_field is not None:
        out |= {f"junction_field.stencils.{k}": (str(a.dtype), a.tolist())
                for k, a in stencil_arrays(sim.junction_field.mesh_field).items()}
    for j in sim.junctions:
        if j.strategy in ("A", "B"):
            out |= {f"junctions.{j.id}.geom.{n}": (str(a.dtype), a.tolist())
                    for n, a in polygon(j.geom).items()}
        if j.strategy == "B":
            arrays = {n: np.asarray(getattr(j.mesh, n)) for n in PATCH_ARRAYS}
            out |= {f"junctions.{j.id}.mesh.{n}": (str(a.dtype), a.tolist())
                    for n, a in arrays.items()}
    return out


def run_matrix(steps: int) -> list[dict]:
    """Run every case with the swnet on sys.path; plain-data results."""
    from swnet import ConfigError, build_simulation, preset, preset_names

    out = []
    for label, scenario in cases(preset, preset_names):
        run = {"label": label, "config": None, "rejected": None}
        try:
            cfg = scenario()
            run["config"] = json.dumps(cfg.data)
            sim = build_simulation(cfg)
        except ConfigError as exc:
            out.append(run | {"rejected": str(exc)})
            continue
        built = geometry(sim)
        res = sim.run(cfg.t_end, max_steps=steps)
        rec = res.gauges
        out.append(run | {
            "geometry": built,
            "g": sim.params.g,
            "status": res.status,
            "steps": res.steps,
            "failure": type(res.failure).__name__ if res.failure else None,
            "message": str(res.failure) if res.failure else None,
            "gauges": {"t": rec.times, **{f"h:{g}": rec.h[g] for g in rec.h},
                       **{f"u:{g}": rec.u[g] for g in rec.u}},
            "channels": {cid: f.q.tolist() for cid, f in sim.fields.items()},
            "junctions": {j.id: np.atleast_2d(j.q).tolist() for j in sim.junctions
                          if hasattr(j, "q")},
            "ledger": {k: v for k, v in res.diagnostics.items() if isinstance(v, float)},
        })
    return out


# (scenario name, boundary entries replaced or None, Manning coefficient,
# dx) per reference.
REFERENCE_RUNS = [
    *[("test6_network", None, 0.0, dx) for dx in (0.1, 0.04, 0.02)],
    ("test1_sub90", None, 0.0, 0.05),
    ("test4_super90", None, 0.0, 0.05),
    ("test1_sub90", TWO_INFLOWS, 0.0, 0.05),
    # Every other preset and size at which a reference builds.
    *[(name, None, 0.0, dx) for name in ("appA_angle0", "smooth1d", "test6_network_super")
      for dx in (0.1, 0.05)],
    ("test1_sub90", None, 0.0, 0.1),
    ("test4_super90", None, 0.0, 0.1),
    ("test6_network", None, 0.0, 0.05),
    ("appA_angle90", None, 0.0, 0.05),
    ("test2_asym90", None, 0.0, 0.05),
    # No preset sets a Manning coefficient: the one reference whose update
    # adds friction.
    ("smooth1d", None, 0.03, 0.1),
]
# Point gauges of a reference, by label: the benchmark's inlet point, and
# the centre of a split quad, which two cells contain at centroid distances
# that differ only in their last bits.
POINT_GAUGES = {"test6_network dx=0.02": [("inlet", (-1.49, 0.005)), ("split", (-1.49, 0.01))]}
MESH_ARRAYS = ("vertices", "triangles", "edge_left", "edge_right", "edge_va", "edge_vb",
               "edge_tags")


def reference_label(name, ends, manning_n, dx) -> str:
    kinds = [f"{c}:{e}={b['kind']}" for (c, e), b in (ends or {}).items()]
    friction = [f"manning_n={manning_n}"] if manning_n else []
    return " ".join([name, *kinds, *friction, f"dx={dx}"])


def reference_scenario(preset, name, ends, manning_n):
    """The preset with the boundary entries of `ends` replaced and, where
    `manning_n` > 0, Manning friction."""
    from swnet import ScenarioConfig

    data = boundary_variant(preset, name, None, ends or {}, None).emit()
    if manning_n:
        data["physics"]["manning_n"] = manning_n
    return ScenarioConfig(data)


def references():
    """(label, scenario, build) per reference, where `build()` builds it
    with the swnet on sys.path."""
    from swnet import preset, studies

    for name, ends, manning_n, dx in REFERENCE_RUNS:
        label = reference_label(name, ends, manning_n, dx)
        cfg = reference_scenario(preset, name, ends, manning_n)
        yield label, cfg, functools.partial(studies.build_reference_sim, cfg, dx,
                                             extra_point_gauges=POINT_GAUGES.get(label, []))


def mesh_arrays(mesh) -> dict:
    """The `MESH_ARRAYS` of a mesh, its edge tags as strings, and each cell's
    neighbours, concatenated, with their counts."""
    arrays = {name: np.asarray(getattr(mesh, name)) for name in MESH_ARRAYS}
    arrays["edge_tags"] = arrays["edge_tags"].astype(str)
    rows = [np.asarray(r, dtype=int) for r in mesh.neighbors]
    arrays["neighbors"] = np.concatenate([r[r >= 0] for r in rows])
    arrays["neighbor_counts"] = np.array([np.count_nonzero(r >= 0) for r in rows])
    return arrays


def stencil_arrays(field) -> dict:
    """The reconstruction stencils of a `MeshField`, keyed "<group>:<kind>:<i>":
    each group's cells, neighbours, the two slope rows of its operator and
    its regular flags, cell-major."""
    stencils = {}
    for k, (kind, cells, nbr, op, good) in enumerate(field._groups):
        if hasattr(field, "grad"):  # component-major: (c, n) and (2, c, n)
            nbr, op = nbr.T, op.transpose(2, 0, 1)
        if kind == "exact" and op.shape[1] == 3:  # a tree that keeps the whole inverse
            op = op[:, 1:]
        stencils |= {f"{k}:{kind}:{i}": a for i, a in enumerate((cells, nbr, op, good))}
    return stencils


def run_reference(steps: int) -> dict:
    """Mesh, stencils, initial state, gauge cells and a short run of each
    reference, as arrays keyed "<reference>/<group>/<name>"."""
    out = {}
    for label, cfg, build in references():
        sim = build()
        mesh, stencils = mesh_arrays(sim.mesh), stencil_arrays(sim.field)
        gauges = {f"{g.id}:{k}": getattr(g, k) for g in sim.gauges for k in ("cells", "weights")}
        q0 = sim.field.q.copy()
        res = sim.run(cfg.t_end, max_steps=steps)
        rec = res.gauges
        run = {"steps": np.array(res.steps), "status": np.array(res.status),
               "t": np.array(rec.times), **{f"h:{g}": np.array(rec.h[g]) for g in rec.h},
               **{f"u:{g}": np.array(rec.u[g]) for g in rec.u}}
        ledger = {k: np.array(res.diagnostics[k]) for k in VOLUME_ENTRIES}
        groups = {"mesh": mesh, "stencils": stencils, "initial": {"q": q0}, "gauges": gauges,
                  "run": run, "final": {"q": sim.field.q}, "ledger": ledger}
        out |= {f"{label}/{g}/{k}": v for g, arrays in groups.items() for k, v in arrays.items()}
    return out


def compare_reference(old: dict, new: dict):
    """(markdown lines, number of problems): equal keys, dtypes and values per
    reference and group."""
    groups = ("mesh", "stencils", "initial", "gauges", "run", "final", "ledger")
    lines = ["| reference | cells | " + " | ".join(groups) + " |",
             "|---" * (2 + len(groups)) + "|"]
    problems = 0
    for run in REFERENCE_RUNS:
        label = reference_label(*run)
        cells = len(old[f"{label}/mesh/triangles"])
        row = []
        for g in groups:
            prefix = f"{label}/{g}/"
            keys = {k for k in old if k.startswith(prefix)}
            differ = sorted(k[len(prefix):] for k in keys ^ {k for k in new if k.startswith(prefix)})
            differ += sorted(k[len(prefix):] for k in keys & new.keys()
                             if old[k].dtype != new[k].dtype or not np.array_equal(old[k], new[k]))
            problems += len(differ)
            row.append("identical" if not differ else "differ: " + ", ".join(differ))
        lines.append(f"| {label} | {cells} | " + " | ".join(row) + " |")
    return lines, problems


def run_tree(tree: Path, steps: int, reference=False):
    cmd = [sys.executable, __file__, "--worker", str(tree), "--steps", str(steps)]
    if reference:
        proc = subprocess.run([*cmd, "--reference"], capture_output=True, check=True)
        with np.load(io.BytesIO(proc.stdout)) as data:
            return dict(data)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def deviation(a: dict, b: dict, scales=None) -> float:
    """Largest |a - b| over the keys, relative to `scales[key]` or else to
    max |a[key]|; inf when the key sets or shapes differ."""
    if a.keys() != b.keys():
        return np.inf
    worst = 0.0
    for k in a:
        x, y = np.asarray(a[k], dtype=float), np.asarray(b[k], dtype=float)
        if x.shape != y.shape:
            return np.inf
        diff = float(np.max(np.abs(x - y), initial=0.0))
        ref = (scales or {}).get(k, float(np.max(np.abs(x), initial=0.0)))
        worst = max(worst, diff / ref if ref > 0.0 else diff)
    return worst


def bits_differ(a: dict, b: dict) -> bool:
    """Whether the series of `a` and `b` differ in a key, a shape or a bit,
    so also in the sign of a zero."""
    return a.keys() != b.keys() or any(
        np.shape(a[k]) != np.shape(b[k])
        or np.asarray(a[k], dtype=float).tobytes() != np.asarray(b[k], dtype=float).tobytes()
        for k in a
    )


def geometry_differences(a: dict, b: dict) -> list:
    """The geometry arrays of two runs that differ in presence, dtype, shape
    or a bit; object arrays (edge tags, None on interior edges) as lists."""

    def differ(x, y):
        if x[0] == "object":
            return x[1] != y[1]
        return bits_differ({"": x[1]}, {"": y[1]})

    return sorted(
        k for k in a.keys() | b.keys()
        if k not in a or k not in b or a[k][0] != b[k][0] or differ(a[k], b[k])
    )


def scales(run: dict) -> tuple[dict, dict]:
    """Reference magnitudes of the gauge and ledger entries of one run."""
    gauges = {
        k: float(np.sqrt(run["g"] * np.max(run["gauges"]["h:" + k[2:]])))
        for k in run["gauges"] if k.startswith("u:")
    }
    momentum = max(np.max(np.abs(np.asarray(q)[:, 1:])) for q in run["channels"].values())
    ledger = {k: run["ledger"]["initial_volume"] for k in VOLUME_ENTRIES}
    ledger["transverse_momentum_discarded"] = float(momentum)
    return gauges, ledger


def config_difference(a, b) -> str:
    """What differs between two scenario configs stored as JSON text: the
    top-level keys whose values differ, else their order."""
    if a is None or b is None:
        return "built on one side only"
    a, b = json.loads(a), json.loads(b)
    keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return ", ".join(keys) if keys else "key order"


def compare(old: list[dict], new: list[dict], rtol: float):
    """(markdown lines, number of problems)."""
    lines = [
        "| run | steps | failure | gauges | channels | junctions | ledger | bits |",
        "|---|---|---|---|---|---|---|---|",
    ]
    rejected, messages, configs, geometries = [], [], [], []
    problems = 0
    for a, b in zip(old, new, strict=True):
        if a["config"] != b["config"]:
            problems += 1
            configs.append(f"- {a['label']}: {config_difference(a['config'], b['config'])}")
        if a["rejected"] or b["rejected"]:
            same = a["rejected"] == b["rejected"]
            problems += not same
            rejected.append(f"- {a['label']}: {a['rejected']}" + ("" if same else f" / {b['rejected']}"))
            continue
        differ_geometry = geometry_differences(a["geometry"], b["geometry"])
        if differ_geometry:
            problems += len(differ_geometry)
            geometries.append(f"- {a['label']}: {', '.join(differ_geometry)}")
        gauge_scales, ledger_scales = scales(a)
        parts = ("gauges", "channels", "junctions", "ledger")
        differ = [p for p in parts if bits_differ(a[p], b[p])]
        devs = [
            deviation(a["gauges"], b["gauges"], gauge_scales),
            deviation(a["channels"], b["channels"]),
            deviation(a["junctions"], b["junctions"]),
            deviation(a["ledger"], b["ledger"], ledger_scales),
        ]
        same = (a["steps"], a["status"], a["failure"]) == (b["steps"], b["status"], b["failure"])
        same_message = a["message"] == b["message"]
        problems += (not same) + (not same_message) + sum(d > rtol for d in devs)
        steps = str(a["steps"]) if a["steps"] == b["steps"] else f"{a['steps']} / {b['steps']}"
        fail = str(a["failure"] or "-")
        if a["failure"] != b["failure"]:
            fail += f" / {b['failure'] or '-'}"
        if not same_message:
            fail += " (message differs)"
            messages.append(f"- {a['label']}: {a['message']} / {b['message']}")
        bits = "differ: " + ", ".join(differ) if differ else "identical"
        lines.append(f"| {a['label']} | {steps} | {fail} | "
                     + " | ".join(f"{d:.1e}" for d in devs) + f" | {bits} |")
    if configs:
        lines += ["", "Scenario configs that differ:", *configs]
    if geometries:
        lines += ["", "Geometry that differs:", *geometries]
    if messages:
        lines += ["", "Failure messages that differ:", *messages]
    if rejected:
        lines += ["", "Rejected with a configuration error:", *rejected]
    return lines, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    p.add_argument("--steps", type=int, help="steps per run (default 200, 12 with --reference)")
    p.add_argument("--rtol", type=float, default=1e-12)
    p.add_argument("--reference", action="store_true",
                   help="compare the full-2D references bit for bit")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    steps = args.steps or (12 if args.reference else 200)
    if args.worker:
        sys.path.insert(0, str(args.worker / "src"))
        if args.reference:
            buf = io.BytesIO()
            np.savez(buf, **run_reference(steps))
            sys.stdout.buffer.write(buf.getvalue())
        else:
            json.dump(run_matrix(steps), sys.stdout)
        return 0
    if len(args.trees) != 2:
        p.error("give two source trees")
    old, new = (run_tree(t, steps, args.reference) for t in args.trees)
    if args.reference:
        lines, problems = compare_reference(old, new)
        print("\n".join(lines))
        print(f"\n{len(REFERENCE_RUNS)} references, {steps} steps each, {problems} problems")
    else:
        lines, problems = compare(old, new, args.rtol)
        print("\n".join(lines))
        print(f"\n{len(old)} scenarios, {problems} problems (rtol {args.rtol:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
