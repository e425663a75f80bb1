"""Paired benchmark runs of two commits, with the pair rule for a claimed gain.

    python tools/bench_pairs.py OLD_REV NEW_REV --workload bifurcation_psfp \
        [--pairs 10] [--seconds 12] [--trace 0] [--seed 1]

Each commit is unpacked with `git archive` into a fresh temporary directory,
and `bench/run.py` runs there, one process at a time. Pair k runs both sides
with seed `--seed + k`, and the side that goes first alternates from pair to
pair. Both sides capture their output the same way. The metrics are read
from the last line of each run's standard output, and whether lower or higher
is better from `BENCHMARK.json` in the new commit (`--trace 1` reports the
per-layer metrics).

For each metric, the report gives each side's median and quartiles, the pairs
the new commit wins (ties count for neither side), and whether the gain rule
holds: the new commit wins at least nine tenths of the pairs, and its median
is better than the old one's by more than the old side's interquartile
range. The exit code is 1 when a run fails its correctness gate or exits
non-zero, else 0. Nothing under `bench/` is changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def unpack(rev: str, into: Path) -> Path:
    """The tree of commit `rev`, unpacked into a new directory under `into`."""
    out = Path(tempfile.mkdtemp(prefix=f"{rev[:12].replace('/', '_')}-", dir=into))
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """(metrics {name: value}, passed) of one `bench/run.py` process in `tree`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {}, False
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, proc.returncode == 0 and result["correct"]


def summary(old, new, better: str) -> dict:
    """The pair statistics of one metric: each side's quartiles (q1, median,
    q3), the pairs the new side wins and ties, and whether the gain rule
    holds. `old` and `new` hold one value per pair, in pair order; `better`
    is "lower" or "higher"."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (old - new)  # positive where the new side wins
    q_old, q_new = (tuple(np.percentile(v, [25, 50, 75]).tolist()) for v in (old, new))
    wins, ties = int((gain > 0).sum()), int((gain == 0).sum())
    gap = sign * (q_old[1] - q_new[1])
    return {
        "old": q_old,
        "new": q_new,
        "wins": wins,
        "ties": ties,
        "pairs": len(old),
        "holds": bool(10 * wins >= 9 * len(old) and gap > q_old[2] - q_old[0]),
    }


def report(rows: dict) -> str:
    """A markdown table of `summary` results by metric name."""
    lines = ["| metric | old q1 / median / q3 | new q1 / median / q3 | new wins | rule |",
             "|---|---|---|---|---|"]
    for name, s in rows.items():
        old, new = (" / ".join(f"{v:.6g}" for v in s[side]) for side in ("old", "new"))
        wins = f"{s['wins']} of {s['pairs']}" + (f" ({s['ties']} ties)" if s["ties"] else "")
        lines.append(f"| {name} | {old} | {new} | {wins} | {'holds' if s['holds'] else 'no'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: unpack(rev, Path(scratch)) for side, rev in (("old", args.old),
                                                                     ("new", args.new))}
        spec = json.loads((trees["new"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        values = {"old": [], "new": []}
        failed = False
        for k in range(args.pairs):
            order = ("old", "new") if k % 2 == 0 else ("new", "old")
            for side in order:
                metrics, passed = run_bench(trees[side], args.workload, args.seed + k,
                                            args.seconds, args.trace)
                failed |= not passed
                values[side].append(metrics)
            names = [n for n in better if n in values["old"][-1] and n in values["new"][-1]]
            print(f"pair {k + 1} (seed {args.seed + k}, {order[0]} first): " + ", ".join(
                f"{n} {values['old'][-1][n]:.6g} -> {values['new'][-1][n]:.6g}"
                for n in names[:4]), flush=True)
    rows = {
        name: summary([m.get(name, np.nan) for m in values["old"]],
                      [m.get(name, np.nan) for m in values["new"]], rule)
        for name, rule in better.items()
        if any(name in m for m in values["old"])
    }
    print(f"\n{args.workload}: {args.old} -> {args.new}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g} --trace {args.trace}\n")
    print(report(rows))
    if failed:
        print("a run failed its correctness gate or exited non-zero", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
