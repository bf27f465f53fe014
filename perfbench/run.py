#!/usr/bin/env python3
"""Benchmark of the gaulrq simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep-d20 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With --trace 0 it prints the end-to-end metrics of one workload, with
--trace 1 the per-layer metrics of a traced pass; the last line of standard
output is one JSON object. `--workload all` runs every workload in turn.
perfbench/README.md describes the workloads, metrics and checks.
"""

import os
import sys


def _pin_threads() -> int:
    """Run BLAS and OpenMP on one thread; return the CPUs this process may use.

    The workloads' arrays are small, and with a second BLAS thread the
    reference kernel (harness.Pace) timed less steadily on a 2-vCPU VM. One
    thread is within the `nproc` cap and measures the program's own work."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


# BLAS reads its thread count when numpy loads, so this runs first.
NPROC = _pin_threads()

import argparse  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run; sets the number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: untraced, traced and untraced passes; per-layer metrics")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaulrq" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'gaulrq'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import harness
    return harness.run(args, NPROC, ROOT)


if __name__ == "__main__":
    sys.exit(main())
