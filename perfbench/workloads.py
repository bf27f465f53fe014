"""The benchmark's workloads, each one pass of experiment configs made from a seed.

Configs are plain dicts so that the set-up probe can build this list before
it imports (and times) the package.
"""

from __future__ import annotations

from dataclasses import dataclass

# Criterion 9 averages 20 seeds; a run takes 6 of them. The paired ordering
# check fails a correct simulator with probability ~5e-5 at 6 seeds (measured
# effect size over 40 seeds), ~2e-3 at 4. Only the first 2 seeds are timed, so
# that a pass stays near 5 s and a run repeats it often; the other 4 run once,
# for the check.
SWEEP_SEEDS_PER_RUN = 6
SWEEP_TIMED_SEEDS = 2


@dataclass(frozen=True)
class Experiment:
    stem: str
    config: dict


@dataclass(frozen=True)
class Workload:
    """One pass of experiments; the first is the cheapest and doubles as the
    untimed warm-up."""

    name: str
    experiments: list
    # A pass's typical length on the reference machine. It fixes how many
    # passes a run makes, so that every run repeats the same operations
    # however fast the machine is at the moment.
    pass_seconds: float
    # Experiments that a run makes once, untimed, for the output checks alone.
    check_only: list = ()
    check_seconds: float = 0.0

    def passes(self, seconds: float) -> int:
        """Whole passes in `seconds`, less the time of the check-only experiments."""
        return max(1, int((seconds - self.check_seconds) // self.pass_seconds))


def sweep_d20(seed: int) -> Workload:
    """Criterion 9's configuration over seeds 6*seed .. 6*seed+5; the first 2 are timed."""
    base = dict(N=100, B=10, Q=5, K=50, eta=0.05, epsilon=2.0, delta=1e-5,
                tau=0.9, s2=1.0, objective="least_squares", d=20,
                n_per_client=20, label_noise=0.0, batch_size=5, run_id="acc9")
    seeds = range(SWEEP_SEEDS_PER_RUN * seed, SWEEP_SEEDS_PER_RUN * (seed + 1))
    algos = ("local_sgd", "qg_sgd", "gau_lrq_sgd", "dynamic_gau_lrq_sgd")
    experiments = [Experiment(f"{algo}-s{s}", dict(base, algorithm=algo, seed=s))
                   for s in seeds for algo in algos]
    timed = SWEEP_TIMED_SEEDS * len(algos)
    # The ordering check compares the three codecs; it needs no local_sgd run.
    check_only = [e for e in experiments[timed:] if e.config["algorithm"] != "local_sgd"]
    return Workload("sweep-d20", experiments[:timed], pass_seconds=4.5,
                    check_only=check_only, check_seconds=7.0)


def wide_d1e5(seed: int) -> Workload:
    """Two rounds of one very large upload each: d=1e5, full-batch least squares.

    One upload per round keeps an experiment near a second, so that a run
    repeats each one often enough for its median time to be steady."""
    # eta * nu ~ 0.35: nu ~ d/(N*n) * (1 + sqrt(N*n/d))^2 ~ 1.4e3 here.
    base = dict(N=10, B=1, Q=2, K=2, eta=2.5e-4, epsilon=2.0, delta=1e-5,
                tau=1.0, s2=1.0, objective="least_squares", d=100_000,
                n_per_client=8, label_noise=0.0, batch_size=0, seed=seed,
                run_id="wide")
    algos = ("gau_sgd", "gau_lrq_sgd", "qg_sgd")
    experiments = [Experiment(algo, dict(base, algorithm=algo)) for algo in algos]
    return Workload("wide-d1e5", experiments, pass_seconds=4.5)


def local_heavy(seed: int) -> Workload:
    """Logistic objective where Q=20 full-batch local steps dominate each round."""
    base = dict(N=50, B=10, Q=20, K=10, eta=0.5, epsilon=4.0, delta=1e-5,
                tau=0.9, s2=1.0, objective="logistic", d=100,
                n_per_client=400, label_noise=0.0, batch_size=0, seed=seed,
                run_id="local")
    variants = (("local_sgd", "fixed"),
                ("gau_lrq_sgd", "fixed"),
                ("gau_lrq_sgd", "median_adaptive"),
                ("dynamic_gau_lrq_sgd", "fixed"),
                ("dynamic_gau_lrq_sgd", "median_adaptive"))
    experiments = [Experiment(f"{algo}-{clip}", dict(base, algorithm=algo, clip_mode=clip))
                   for algo, clip in variants]
    return Workload("local-heavy", experiments, pass_seconds=3.5)


WORKLOADS = {"sweep-d20": sweep_d20, "wide-d1e5": wide_d1e5,
             "local-heavy": local_heavy}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
