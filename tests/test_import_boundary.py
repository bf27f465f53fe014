"""What a fresh process loads: no scipy module until the logistic optimum or verify-noise.

scipy.special takes about 0.1 s to load, and scipy.optimize (with the
scipy.linalg and scipy.sparse it pulls in) about a quarter second more, so
the package imports scipy only inside the two functions that need it. Each
check runs in a new interpreter, since this one has imported everything
already.
"""

LEAST_SQUARES = r"""
import sys

import gaulrq
from gaulrq import cli

def check(stage):
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
    assert not loaded, f"{stage} loaded {loaded}"

check("import gaulrq and gaulrq.cli")
config = gaulrq.ExperimentConfig.from_dict(dict(
    algorithm="gau_lrq_sgd", N=100, B=10, Q=5, K=50, eta=0.05, epsilon=2.0,
    delta=1e-5, tau=0.9, s2=1.0, objective="least_squares", d=20,
    n_per_client=20, label_noise=0.0, batch_size=5, seed=1, run_id="acc9"))
sim = gaulrq.build_simulation(config)
check("build_simulation")
trace = sim.run()
check("the rounds")
trace.to_csv(sys.argv[1], config.algorithm)
check("the trace")
report = cli._bound_report(config, sim)
check("the bound report")
assert report["bound_lsgd"] > 0
"""

LOGISTIC = r"""
import sys

import numpy as np

import gaulrq

sim = gaulrq.build_simulation(gaulrq.ExperimentConfig.from_dict(dict(
    algorithm="gau_lrq_sgd", N=6, B=3, Q=2, K=3, eta=0.5, epsilon=4.0, delta=1e-5, tau=0.9,
    s2=1.0, objective="logistic", d=5, n_per_client=30, seed=3)))
sim.run()
shards = gaulrq.synth_partition(3, N=6, d=5, n_per_client=30, noise_std=0.0,
                                kind="logistic")
objective = gaulrq.Objective(*shards, kind="logistic")
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
theta, f_star = objective.optimum()
assert "scipy.optimize" in sys.modules

from scipy.optimize import minimize

# The lazily imported minimize runs the same L-BFGS-B to the same bits.
res = minimize(objective.loss_and_gradient, np.zeros(5), jac=True, method="L-BFGS-B",
               options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 2000})
assert theta.tobytes() == res.x.tobytes()
assert f_star == objective.full_loss(res.x)
"""


def test_least_squares_run_never_loads_scipy_optimize(tmp_path, fresh):
    proc = fresh("-c", LEAST_SQUARES, str(tmp_path / "trace.csv"))
    assert proc.returncode == 0, proc.stderr


def test_logistic_optimum_loads_scipy_optimize(fresh):
    proc = fresh("-c", LOGISTIC)
    assert proc.returncode == 0, proc.stderr


VERIFY_NOISE = r"""
import sys

from gaulrq import cli

assert "scipy.special" not in sys.modules
assert all(passed for _, passed, _ in cli.noise_checks(0.5, 10**4, 0))
assert "scipy.special" in sys.modules
"""


def test_verify_noise_loads_scipy_special_when_called(fresh):
    proc = fresh("-c", VERIFY_NOISE)
    assert proc.returncode == 0, proc.stderr
