"""Regenerate bench/record.json, the gauge record the correctness gate checks.

    python3 bench/make_record.py

Runs every workload once at the default seed and stores its step count and
subsampled gauge series. Regenerate only when a change is meant to alter the
numerics, and say so in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swnet_bench.measure import RECORD_PATH, gate, make_record  # noqa: E402
from swnet_bench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    records = {}
    for name, workload in WORKLOADS.items():
        cfg = workload.scenario(DEFAULT_SEED)
        sim = workload.build(cfg)
        res = sim.run(cfg.t_end)
        problems = gate(workload, sim, res)
        if problems:
            print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        records[name] = make_record(workload, res)
        print(f"{name}: {res.steps} steps recorded")
    with open(RECORD_PATH, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
