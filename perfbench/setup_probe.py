"""Time one set-up in a fresh process: `import gaulrq`, then build every config of a workload.

Started by run.py, which pins the BLAS threads and passes the source
directory; prints one JSON line with the seconds taken.
"""

import argparse
import json
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    configs = [e.config for e in workloads.make(args.workload, args.seed).experiments]
    sys.path.insert(0, args.src)

    start = time.perf_counter()
    import gaulrq
    imported = time.perf_counter()
    for config in configs:
        gaulrq.build_simulation(gaulrq.ExperimentConfig.from_dict(config))
    end = time.perf_counter()
    print(json.dumps({"setup_s": end - start, "import_s": imported - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
