"""Command-line front end.

Verbs: run, preset-list, validate, grid-study, convergence. Exit codes:
0 success, 2 configuration error, 3 numerical failure (diagnostics written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

from .config import ConfigError, build_simulation, parse_config
from .junctions import STRATEGIES
from .presets import preset, preset_names
from .simulation import RunResult, write_gauge_csv
from .studies import convergence_order, grid_independence


def _load_scenario(args, default_preset=None):
    """The scenario of --config, else of --preset or `default_preset`; checks --t-end."""
    if args.t_end is not None and not 0.0 < args.t_end < math.inf:
        raise ConfigError(f"--t-end must be a positive finite number, got {args.t_end!r}")
    if args.config:
        return parse_config(args.config)
    if args.preset or default_preset:
        return preset(args.preset or default_preset)
    raise ConfigError("either --config or --preset is required")


def _out_dir(args) -> Path:
    """The directory of --out, which must not name a file or lie under one;
    a verb checks it before any build or study and makes it with `_make_dir`
    after success."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {args.out}: {existing} is not a directory")
    return out


def _make_dir(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror}") from exc
    return out


def _write_meta(out_dir: Path, cfg, result):
    meta = {
        "scenario": cfg.data,
        "status": result.status,
        "t": result.t,
        "steps": result.steps,
        "wall_time_s": result.wall_time,
        "diagnostics": {
            k: v for k, v in result.diagnostics.items() if not isinstance(v, Exception)
        },
        "assumptions": cfg.data.get("metadata", {}).get("assumed", {}),
    }
    if result.failure is not None:
        meta["failure"] = str(result.failure)
        meta["failure_type"] = type(result.failure).__name__
    with open(out_dir / "run_meta.json", "w") as f:
        json.dump(meta, f, indent=2, default=str)
        f.write("\n")


def _dump_final_state(out_dir: Path, sim):
    """Channel cells (axial positions, h, hu) by channel id, and the 2D
    cells of each Method-A or Method-B junction (h, hu, hv) by junction id."""
    state = {
        "channels": {
            cid: {"s": f.centers.tolist(), "h": f.q[:, 0].tolist(), "hu": f.q[:, 1].tolist()}
            for cid, f in sim.fields.items()
        },
        "junctions": {
            j.id: dict(zip(("h", "hu", "hv"), j.q.T.tolist()))
            for j in sim.junctions
            if hasattr(j, "q")
        },
    }
    with open(out_dir / "final_state.json", "w") as f:
        json.dump(state, f)
        f.write("\n")


def cmd_run(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride must be at least 1, got {args.stride}")
    out_dir = _out_dir(args)
    cfg = _load_scenario(args)
    sim = build_simulation(cfg, order=args.order, cfl=args.cfl, strategy=args.strategy)
    _make_dir(out_dir)
    t_end = args.t_end if args.t_end is not None else cfg.t_end
    start = time.perf_counter()
    try:
        result = sim.run(t_end, output_stride=args.stride)
    except Exception as exc:  # outside the run's typed failures: stop where it failed
        traceback.print_exc()
        result = RunResult(
            status="failed", t=sim.t, steps=sim.steps, gauges=sim.recorder,
            diagnostics=dict(sim.diagnostics), wall_time=time.perf_counter() - start,
            failure=exc,
        )
    write_gauge_csv(out_dir / "gauges.csv", result.gauges)
    _write_meta(out_dir, cfg, result)
    _dump_final_state(out_dir, sim)
    if result.status != "completed":
        print(f"run failed at t={result.t:.6g}: {result.failure}", file=sys.stderr)
        return 3
    defect = result.diagnostics.get("volume_defect", 0.0)
    print(
        f"{cfg.name}: {result.steps} steps to t={result.t:.6g} in "
        f"{result.wall_time:.2f}s (volume defect {defect:.3e})"
    )
    return 0


def cmd_preset_list(_args) -> int:
    for name, desc in preset_names():
        print(f"{name:22s} {desc}")
    return 0


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    build_simulation(cfg)  # builds geometry and initial state
    print(f"{args.config}: valid scenario {cfg.name!r}")
    return 0


def cmd_grid_study(args) -> int:
    out_dir = _out_dir(args)
    cfg = _load_scenario(args, default_preset="appB_gridstudy")
    try:
        sizes = [float(tok) for tok in args.sizes.split(",")]
        if not all(0.0 < s < math.inf for s in sizes):
            raise ValueError
    except ValueError:
        raise ConfigError(f"--sizes must list positive numbers, got {args.sizes!r}") from None
    rows = grid_independence(cfg, sizes, t_end=args.t_end)
    with open(_make_dir(out_dir) / "grid_study.csv", "w") as f:
        f.write("size,cells,integral,rel_diff,cpu_s\n")
        for r in rows:
            rel = "" if r["rel_diff"] is None else repr(r["rel_diff"])
            f.write(f"{r['size']!r},{r['cells']},{r['integral']!r},{rel},{r['cpu']!r}\n")
    for r in rows:
        rel = "-" if r["rel_diff"] is None else f"{r['rel_diff']:.4f}"
        print(f"dx={r['size']:<8g} cells={r['cells']:<8d} integral={r['integral']:.6f} "
              f"rel_diff={rel} cpu={r['cpu']:.1f}s")
    return 0


def cmd_convergence(args) -> int:
    if args.levels < 2:
        raise ConfigError(f"--levels must be at least 2, got {args.levels}")
    out_dir = _out_dir(args)
    try:
        report = convergence_order(
            order=args.order, base_cells=args.base_cells, levels=args.levels
        )
    except ConfigError as exc:  # the study's scenarios take their size from --base-cells
        raise ConfigError(f"--base-cells {args.base_cells}: {exc}") from exc
    with open(_make_dir(out_dir) / "convergence.csv", "w") as f:
        f.write("cells,l1_error,observed_order\n")
        for k, cells in enumerate(report["cells"]):
            order = "" if k == 0 else repr(report["orders"][k - 1])
            f.write(f"{cells},{report['errors'][k]!r},{order}\n")
    for k, cells in enumerate(report["cells"]):
        order = "-" if k == 0 else f"{report['orders'][k - 1]:.3f}"
        print(f"cells={cells:<7d} L1={report['errors'][k]:.6e} order={order}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario")
    source = run.add_mutually_exclusive_group()
    source.add_argument("--config", help="scenario JSON file")
    source.add_argument("--preset", help="built-in scenario name")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--stride", type=int, default=1, help="gauge sampling stride")
    run.add_argument("--order", type=int, choices=(1, 2))
    run.add_argument("--cfl", type=float)
    run.add_argument("--strategy", choices=STRATEGIES)
    run.set_defaults(fn=cmd_run)

    pl = sub.add_parser("preset-list", help="list built-in scenarios")
    pl.set_defaults(fn=cmd_preset_list)

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("config")
    val.set_defaults(fn=cmd_validate)

    gs = sub.add_parser("grid-study", help="mesh refinement study on the 2D reference")
    source = gs.add_mutually_exclusive_group()
    source.add_argument("--config", help="scenario JSON file")
    source.add_argument("--preset", help="built-in scenario name (default: appB_gridstudy)")
    gs.add_argument("--sizes", default="0.16,0.08,0.04")
    gs.add_argument("--t-end", type=float, default=None)
    gs.add_argument("--out", default="out")
    gs.set_defaults(fn=cmd_grid_study)

    conv = sub.add_parser("convergence", help="1D refinement study on a smooth problem")
    conv.add_argument("--order", type=int, default=2, choices=(1, 2))
    conv.add_argument("--base-cells", type=int, default=50)
    conv.add_argument("--levels", type=int, default=4)
    conv.add_argument("--out", default="out")
    conv.set_defaults(fn=cmd_convergence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures and solver aborts
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
