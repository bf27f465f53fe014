"""Golden trace fixtures: pinned trace CSVs for fixed configs.

Integer columns (round, algo, bits_cum, clamps) must match exactly; float
columns may drift by at most 1e-9 relative. Write the fixtures of new cases
(every case with no fixture yet) with

    PYTHONPATH=src python tests/test_golden_trace.py

and rewrite named ones, after a deliberate change of their behaviour only,
with

    PYTHONPATH=src python tests/test_golden_trace.py criterion9_gau_sgd ...

Fixtures not named are left as they are: a rerun need not reproduce their
float columns byte for byte.
"""

import csv
import math
import sys
from pathlib import Path

import pytest

from gaulrq import training
from gaulrq.config import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden"
EXACT = ("round", "algo", "bits_cum", "clamps")
REL_TOL = 1e-9

# Criterion 9's configuration cut to K=10 at seed 0, for every algorithm.
_CRITERION_9 = dict(N=100, B=10, Q=5, K=10, eta=0.05, epsilon=2.0,
                    delta=1e-5, tau=0.9, s2=1.0, objective="least_squares",
                    d=20, n_per_client=20, label_noise=0.0, batch_size=5,
                    seed=0, run_id="acc9")
_LOGISTIC = dict(N=50, B=10, Q=20, K=10, eta=0.5, epsilon=4.0, delta=1e-5,
                 tau=0.9, s2=1.0, objective="logistic", d=100,
                 n_per_client=400, label_noise=0.0, batch_size=0, seed=0,
                 run_id="local", algorithm="dynamic_gau_lrq_sgd",
                 clip_mode="median_adaptive")

CASES = {f"criterion9_{algo}": dict(_CRITERION_9, algorithm=algo)
         for algo in ("local_sgd", "gau_sgd", "qg_sgd", "gau_lrq_sgd",
                      "dynamic_gau_lrq_sgd")}
CASES["logistic_dynamic_gau_lrq_sgd_median"] = _LOGISTIC
# Minibatch logistic with ridge and heterogeneity, through the median-clipped
# stochastic quantizer. Logistic labels are Bernoulli draws, so label_noise stays 0.
CASES["mix_qg_sgd_median"] = dict(
    algorithm="qg_sgd", clip_mode="median_adaptive", objective="logistic",
    N=20, B=7, Q=3, K=15, eta=0.1, epsilon=3.0, delta=1e-5, tau=0.8, s2=0.7,
    d=13, n_per_client=9, batch_size=4, ridge=0.01, heterogeneity=0.5,
    label_noise=0.0, seed=5, run_id="mix")
# Full-batch least squares with ridge and heterogeneity: the ridge term of the
# full-batch local step and of the per-round evaluation.
CASES["ridge_gau_lrq_sgd_full_batch"] = dict(
    algorithm="gau_lrq_sgd", objective="least_squares", N=20, B=5, Q=4, K=12,
    eta=0.05, epsilon=3.0, delta=1e-5, tau=0.9, s2=1.0, d=30, n_per_client=50,
    batch_size=0, ridge=0.05, heterogeneity=0.3, label_noise=0.2, seed=7,
    run_id="ridge")
# Full-batch least squares at large d: each 4 x 5e4 shard passes _BLOCK_BYTES, so the
# round runs on the worker, reads one-shard blocks and packs 1- to 3-bit indices.
CASES.update({f"wide_{algo}": dict(
    algorithm=algo, objective="least_squares", N=4, B=1, Q=2, K=2, eta=1e-4,
    epsilon=2.0, delta=1e-5, tau=0.9, s2=1.0, d=50_000, n_per_client=4,
    batch_size=0, seed=3, run_id="wide") for algo in ("gau_sgd", "qg_sgd", "gau_lrq_sgd")})


def _write_trace(name, path):
    cfg = ExperimentConfig.from_dict(CASES[name])
    run_experiment(cfg).to_csv(path, cfg.algorithm)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_golden(name, path):
    golden = GOLDEN / f"{name}.csv"
    with open(path, encoding="utf-8") as fh, open(golden, encoding="utf-8") as gh:
        assert fh.readline() == gh.readline(), "trace header changed"
    got, want = _rows(path), _rows(golden)
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        for col, value in ref.items():
            if col in EXACT:
                assert row[col] == value, (row["round"], col)
            else:
                assert math.isclose(float(row[col]), float(value),
                                    rel_tol=REL_TOL, abs_tol=0.0), (row["round"], col)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    _write_trace(name, path)
    _check_golden(name, path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_worker_writes_the_inline_bytes(name, tmp_path, monkeypatch):
    # _BLOCK_BYTES = 1 puts each round's evaluation on run()'s worker; 1 TiB keeps the run
    # inline, on one thread. Their bytes must be equal, and so the fixture's wherever the
    # inline run writes them: only the BLAS thread count moves grad_sq_norm's last bits
    # (the logistic case's at one thread).
    traces = []
    for block in (1, 1 << 40):
        monkeypatch.setattr(training, "_BLOCK_BYTES", block)
        _write_trace(name, tmp_path / f"{block}.csv")
        traces.append((tmp_path / f"{block}.csv").read_bytes())
    assert traces[0] == traces[1]
    _check_golden(name, tmp_path / "1.csv")


if __name__ == "__main__":
    names = sys.argv[1:] or [c for c in sorted(CASES) if not (GOLDEN / f"{c}.csv").exists()]
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in names:
        _write_trace(case, GOLDEN / f"{case}.csv")
        print(f"wrote {GOLDEN / case}.csv")
