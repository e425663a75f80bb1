"""Run one swnet benchmark workload and print its metrics.

    python3 bench/run.py --workload network_A --seed 1 --seconds 10 --trace 0

Run from any directory; swnet is imported from the `src/` next to `bench/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the raw spans to `.bench_out/spans-<workload>.npz`). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every simulation
passed the correctness gate; it is 2 when the swnet sources are missing.
"""

import os

# One process, one thread: pin BLAS before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "swnet" / "__init__.py").is_file():
        print(f"error: swnet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swnet

    if Path(swnet.__file__).resolve().parent != SRC / "swnet":
        print(f"error: imported swnet from {swnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from swnet_bench.measure import HOST_KERNEL_REF_S, run_traced, run_untraced
    from swnet_bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{workload.name}.npz"
        metrics, outcomes = run_traced(workload, args.seed, args.seconds, spans)
    else:
        metrics, outcomes, measured = run_untraced(workload, args.seed, args.seconds)

    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"FAILED run: {'; '.join(o.problems)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    if not args.trace:
        # Time to solution is printed for reading, not gated: on reference_2d
        # it inherits the run-to-run spread of setup_s.
        tts = metrics["setup_s"][0] + metrics["wall_s"][0]
        print(f"{workload.name} time_to_solution_s = {tts:.6g} s (setup_s + wall_s)")
        print(f"{workload.name} measured, unscaled: wall_s = {measured['wall_s']:.6g} s, "
              f"setup_s = {measured['setup_s']:.6g} s; host kernel "
              f"{1e3 * measured['host_kernel_s']:.4g} ms (reference {1e3 * HOST_KERNEL_REF_S:g} ms)")
    print(f"{workload.name}: {len(outcomes)} simulations, {outcomes[0].steps} steps each, "
          f"{len(failed)} failed")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
