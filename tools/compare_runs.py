"""Compare the stepped results of two swnet source trees on the preset matrix.

    python tools/compare_runs.py OLD_TREE NEW_TREE [--steps 200] [--rtol 1e-12]

Each tree is a directory holding `src/swnet`, for example this checkout and
an unpacked `git archive` of another commit. Every preset runs with each
junction strategy (A, B, psfp), plus test1_sub90 with two-pass coupling (A
and B) and with transverse=zero (A), plus boundary variants that put every
condition kind at a channel start and at a channel end, and a wall and a
prescribed end beside a junction (`BOUNDARY_RUNS`), plus test1_sub90 with
its PSFP junction marked merging, which flips the sign of the third Riemann
invariant (`MERGING_RUNS`), plus test6_network with its junctions
alternating between Methods A and B (`MIXED_RUNS`), for at most --steps
steps. Each tree runs in its own
interpreter. The report is a markdown table: per run, the steps and failure
type on both sides and the largest relative deviation of the gauge series,
the final channel states, the final junction states and the ledger entries.
Deviations are relative to the largest magnitude of the compared series,
except where that magnitude is itself round-off: gauge
velocities are compared relative to the gauge's largest celerity sqrt(g h),
volumes and boundary influx relative to the initial volume, and the
discarded transverse momentum relative to the largest final cell momentum.
Failure messages that differ, and scenarios a tree rejects with a
configuration error, are listed with their messages. The exit code is 1 when
steps, statuses, failure types, failure messages or rejections differ, or a
deviation exceeds --rtol.

    python tools/compare_runs.py OLD_TREE NEW_TREE --reference [--steps 12]

builds full-2D references in each tree instead (`REFERENCE_RUNS`: the
test6_network reference at dx = 0.1, 0.04 and 0.02, whose open boundary is
one inflow; test1_sub90 with an inflow and far-field edges, test4_super90
with prescribed and far-field edges, and test1_sub90 with two inflows, at
dx = 0.05) and requires exact equality: of every mesh array (vertices,
triangles, the edge table and tags, each cell's neighbours), of the
reconstruction stencils (cells, neighbours, the two slope rows of each
operator and the regular-stencil flags, cell-major: a tree that keeps the
gradients component-major in `MeshField.grad` stores the neighbours as (c, n)
and the operators as (2, c, n), which are transposed back) and of the initial state, and, after
--steps steps, of the gauge series and the final state.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

STRATEGIES = ("A", "B", "psfp")
EXTRA_RUNS = [
    ("test1_sub90", "A", {"coupling": "two-pass"}),
    ("test1_sub90", "B", {"coupling": "two-pass"}),
    ("test1_sub90", "A", {"transverse": "zero"}),
]
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
# One network whose junction cells mix polygons (A) and triangles (B).
MIXED_RUNS = ["test6_network"]


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


def mixed_strategies(preset, name):
    """The preset with its junctions alternating between Methods A and B."""
    from swnet import ScenarioConfig

    data = preset(name, strategy="A").emit()
    for k, junction in enumerate(data["junctions"]):
        junction["strategy"] = "AB"[k % 2]
    return ScenarioConfig(data)


def cases(preset, preset_names):
    """(label, scenario factory, build overrides) for the whole matrix."""
    for name, _ in preset_names():
        try:
            preset(name, strategy="A")
        except TypeError:  # a preset without junctions
            yield name, lambda name=name: preset(name), {}
            continue
        for s in STRATEGIES:
            yield f"{name} {s}", lambda name=name, s=s: preset(name, strategy=s), {}
    for name, s, extra in EXTRA_RUNS:
        label = f"{name} {s} " + " ".join(f"{k}={v}" for k, v in extra.items())
        yield label, lambda name=name, s=s: preset(name, strategy=s), extra
    for name, s, ends, t_end in BOUNDARY_RUNS:
        kinds = [f"{c}:{e}={b['kind']}" for (c, e), b in ends.items()]
        label = " ".join([name, *([s] if s else []), *kinds])
        yield label, lambda args=(name, s, ends, t_end): boundary_variant(preset, *args), {}
    for name in MERGING_RUNS:
        yield f"{name} psfp merging", lambda name=name: merging_psfp(preset, name), {}
    for name in MIXED_RUNS:
        yield f"{name} A/B", lambda name=name: mixed_strategies(preset, name), {}


def run_matrix(steps: int) -> list[dict]:
    """Run every case with the swnet on sys.path; plain-data results."""
    from swnet import ConfigError, build_simulation, preset, preset_names

    out = []
    for label, scenario, extra in cases(preset, preset_names):
        try:
            cfg = scenario()
            sim = build_simulation(cfg, **extra)
        except ConfigError as exc:
            out.append({"label": label, "rejected": str(exc)})
            continue
        res = sim.run(cfg.t_end, max_steps=steps)
        rec = res.gauges
        out.append({
            "label": label,
            "rejected": None,
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


# (scenario name, boundary entries replaced or None, dx) per reference.
REFERENCE_RUNS = [
    *[("test6_network", None, dx) for dx in (0.1, 0.04, 0.02)],
    ("test1_sub90", None, 0.05),
    ("test4_super90", None, 0.05),
    ("test1_sub90", TWO_INFLOWS, 0.05),
]
MESH_ARRAYS = ("vertices", "triangles", "edge_left", "edge_right", "edge_va", "edge_vb",
               "edge_tags")


def reference_label(name, ends, dx) -> str:
    kinds = [f"{c}:{e}={b['kind']}" for (c, e), b in (ends or {}).items()]
    return " ".join([name, *kinds, f"dx={dx}"])


def run_reference(steps: int) -> dict:
    """Mesh, stencils, initial state and a short run of each reference, as
    arrays keyed "<reference>/<group>/<name>"."""
    from swnet import preset, studies

    out = {}
    for name, ends, dx in REFERENCE_RUNS:
        cfg = boundary_variant(preset, name, None, ends or {}, None)
        sim = studies.build_reference_sim(cfg, dx)
        mesh = {name: np.asarray(getattr(sim.mesh, name)) for name in MESH_ARRAYS}
        mesh["edge_tags"] = mesh["edge_tags"].astype(str)
        rows = [np.asarray(r, dtype=int) for r in sim.mesh.neighbors]
        mesh["neighbors"] = np.concatenate([r[r >= 0] for r in rows])
        mesh["neighbor_counts"] = np.array([np.count_nonzero(r >= 0) for r in rows])
        stencils = {}
        for k, (kind, cells, nbr, op, good) in enumerate(sim.field._groups):
            if hasattr(sim.field, "grad"):  # component-major: (c, n) and (2, c, n)
                nbr, op = nbr.T, op.transpose(2, 0, 1)
            if kind == "exact" and op.shape[1] == 3:  # a tree that keeps the whole inverse
                op = op[:, 1:]
            stencils |= {f"{k}:{kind}:{i}": a for i, a in enumerate((cells, nbr, op, good))}
        q0 = sim.field.q.copy()
        res = sim.run(cfg.t_end, max_steps=steps)
        rec = res.gauges
        run = {"steps": np.array(res.steps), "status": np.array(res.status),
               "t": np.array(rec.times), **{f"h:{g}": np.array(rec.h[g]) for g in rec.h},
               **{f"u:{g}": np.array(rec.u[g]) for g in rec.u}}
        groups = {"mesh": mesh, "stencils": stencils, "initial": {"q": q0},
                  "run": run, "final": {"q": sim.field.q}}
        label = reference_label(name, ends, dx)
        out |= {f"{label}/{g}/{k}": v for g, arrays in groups.items() for k, v in arrays.items()}
    return out


def compare_reference(old: dict, new: dict):
    """(markdown lines, number of problems): equal keys, dtypes and values per
    reference and group."""
    groups = ("mesh", "stencils", "initial", "run", "final")
    lines = ["| reference | cells | " + " | ".join(groups) + " |",
             "|---" * (2 + len(groups)) + "|"]
    problems = 0
    for name, ends, dx in REFERENCE_RUNS:
        label = reference_label(name, ends, dx)
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


def compare(old: list[dict], new: list[dict], rtol: float):
    """(markdown lines, number of problems)."""
    lines = [
        "| run | steps | failure | gauges | channels | junctions | ledger |",
        "|---|---|---|---|---|---|---|",
    ]
    rejected, messages = [], []
    problems = 0
    for a, b in zip(old, new, strict=True):
        if a["rejected"] or b["rejected"]:
            same = a["rejected"] == b["rejected"]
            problems += not same
            rejected.append(f"- {a['label']}: {a['rejected']}" + ("" if same else f" / {b['rejected']}"))
            continue
        gauge_scales, ledger_scales = scales(a)
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
        lines.append(f"| {a['label']} | {steps} | {fail} | " + " | ".join(f"{d:.1e}" for d in devs) + " |")
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
