"""The package calls the benchmark makes, run on two tiny workloads.

perfbench/ drives gaulrq through its public names: run_experiment's build and
run, the trace and summary writers, Objective.spec or its own thin_spec for
the bound report, and the codec and wire functions of its round-trip check.
These tests run those same calls, so a rename or deletion that would break the
benchmark fails here first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

ALGORITHMS = ("gau_sgd", "gau_lrq_sgd", "qg_sgd")
BASE = dict(N=10, B=2, Q=2, K=3, epsilon=2.0, delta=1e-5, tau=0.9, s2=1.0,
            objective="least_squares", n_per_client=8, label_noise=0.0,
            batch_size=0, seed=3, run_id="contract")


# d=2000 > N*n=80 takes perfbench's thin_spec; d=40 takes Objective.spec.
# Each eta keeps eta * nu < 1, which check_experiment asserts.
@pytest.mark.parametrize("d, eta", [(2000, 0.01), (40, 0.05)])
def test_benchmark_calls_run_and_pass_their_checks(tmp_path, d, eta):
    experiments = [workloads.Experiment(algo, dict(BASE, algorithm=algo, d=d, eta=eta))
                   for algo in ALGORITHMS]
    done = harness.run_pass(experiments, tmp_path / "pass", harness.Observer())
    assert done.failed == 0 and len(done.outcomes) == len(ALGORITHMS)
    for o in done.outcomes:
        assert checks.check_experiment(o.experiment.config, o.trace, o.nu) == []
        assert (tmp_path / "pass" / f"{o.experiment.stem}_bounds.json").exists()
    workload = workloads.Workload("contract", experiments, pass_seconds=1.0)
    assert harness.codec_roundtrip_fails(workload) == []
