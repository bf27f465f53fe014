#!/usr/bin/env python3
"""Reference timings of single layers, for the figures in perfbench/README.md.

    python3 perfbench/reference.py            # layer timings, best of 5
    python3 perfbench/reference.py --sweep    # plus the 60-run criterion-9 sweep (~30 s)
"""

import argparse
import sys
import time
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import gaulrq  # noqa: E402


def best_of(fn, repeat=5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args()

    d = 100_000
    seed = gaulrq.SeedMaterial(0, "reference")
    u1, u2 = gaulrq.element_pairs(seed, 0, 0, d)
    v = np.random.default_rng(0).standard_normal(d) * 0.01
    rows = [("PRF element_pairs, d=1e5", best_of(lambda: gaulrq.element_pairs(seed, 0, 0, d))),
            ("LRQ encode lrq_quantize_vector, d=1e5",
             best_of(lambda: gaulrq.lrq_quantize_vector(v, 1.0, (u1, u2))))]
    for bits in (1, 2, 3):
        idx = np.arange(d) % (1 << bits)
        payload = gaulrq.pack_indices(idx, bits)
        rows.append((f"pack_indices, d=1e5, {bits} bits",
                     best_of(lambda: gaulrq.pack_indices(idx, bits), 3)))
        rows.append((f"unpack_indices, d=1e5, {bits} bits",
                     best_of(lambda: gaulrq.unpack_indices(payload, d, bits, signed=False), 3)))
    p = np.random.default_rng(1).random(10**6)
    rows.append(("inv_norm_cdf, 1e6 draws", best_of(lambda: gaulrq.inv_norm_cdf(p))))
    if args.sweep:
        def sweep():
            for algo in ("qg_sgd", "gau_lrq_sgd", "dynamic_gau_lrq_sgd"):
                for s in range(20):
                    gaulrq.run_experiment(gaulrq.ExperimentConfig.from_dict(dict(
                        algorithm=algo, N=100, B=10, Q=5, K=50, eta=0.05, epsilon=2.0,
                        delta=1e-5, tau=0.9, s2=1.0, objective="least_squares", d=20,
                        n_per_client=20, label_noise=0.0, batch_size=5, seed=s,
                        run_id="acc9")))
        rows.append(("criterion-9 sweep, 60 runs", best_of(sweep, 1)))
    for name, seconds in rows:
        print(f"{name:<40} {seconds * 1e3:10.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
