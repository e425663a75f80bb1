"""Run every workload over several seeds and report medians and spreads.

    python3 bench/spread.py --seeds 10 --out bench/baseline.json

For each workload, runs `bench/run.py` once per seed 1..N (one process at a time,
each waited for) and reports, per end-to-end metric, the median, the first
and third quartiles and their distance as a share of the median, against the
metric's bound in BENCHMARK.json. With `--trace`, one traced run per
workload adds the per-layer metrics. Exits non-zero if any run failed its
correctness gate or any spread (other than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, elapsed


def summary(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from swnet_bench.measure import machine

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            code, result, elapsed = run(workload, seed, 0)
            ok &= code == 0 and result is not None and result["correct"]
            runs.append({"seed": seed, "exit": code, "elapsed_s": elapsed, "result": result})
            print(f"{workload} seed {seed}: exit {code}, {elapsed:.1f} s", flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        done = [r["result"] for r in runs if r["result"] is not None]
        for name, bound in bounds.items():
            if len(done) < 2:
                break
            s = summary([r["metrics"][name]["value"] for r in done], bound)
            s["unit"] = done[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            steady = s["spread"] < bound / 3
            if name != "setup_s":
                ok &= s["spread"] <= bound
            print(f"  {name:20s} median {s['median']:.6g} {s['unit']:3s} "
                  f"IQR/median {s['spread']:.3f} (bound {bound}; "
                  f"{'steady' if steady else 'NOT below bound/3'})", flush=True)
        if args.trace:
            code, result, elapsed = run(workload, 0, 1)
            ok &= code == 0 and result is not None and result["correct"]
            entry["per_layer"] = None if result is None else {
                k: v["value"] for k, v in result["metrics"].items()
            }
            print(f"  traced run: exit {code}, {elapsed:.1f} s", flush=True)
        report["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
