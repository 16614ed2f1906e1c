"""Step-level dycore benchmark: SYPD and a per-layer split.

Run from the repository root::

    python3 stepbench/run.py --workload prim-serial-ne8 --seed 1 \\
        --seconds 38 --trace 0

Workloads: ``prim-serial-ne8``, ``prim-dist4-ne8``, ``sw-dist4-ne16-pipe``
(see ``workloads.py`` and ``BENCHMARK.json``).  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer ones and
writes a Chrome trace to ``stepbench/out/<workload>.trace.json``, which
``python -m repro.obs summary`` reads.  The output is a human-readable
summary, one ``report {...}`` JSON line (machine, tail percentile,
set-up samples, checks, deterministic counts) and, last, the result::

    {"correct": true, "attempted": 45, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.  Self-tests:
``python3 -m pytest stepbench -q``.
"""

import os

# Before numpy is imported: a threaded BLAS would otherwise start one
# thread per core in the driver and in every forked worker, competing
# with the fixed worker count of the workloads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured seconds (with --trace 1, untraced and "
                        "traced cycles alternate)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def stop_resource_tracker() -> None:
    """End multiprocessing's resource-tracker process and wait for it.

    The worker pool starts it before forking; it would otherwise outlive
    the benchmark by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace), out_dir=HERE / "out")
    finally:
        stop_resource_tracker()
    if not result["metrics"]:
        print(f"error: no step completed: {report['checks']}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  "
          f"steps {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
