"""Acceptance suite: one test per criterion, one printed verdict line each."""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from gaulrq.analysis import BoundInputs, am_qm_factor, bound_dynamic, \
    bound_gau_lrq, bound_qg, comm_cost, full_precision_cost, ks_statistic
from gaulrq.config import ExperimentConfig, build_simulation, run_experiment
from gaulrq.privacy import clip_update, noise_schedule, round_epsilons
from gaulrq.quantizers import (MIN_STEP_FACTOR, dithered_decode,
                               dithered_encode, lrq_decode, lrq_encode,
                               sample_layer)
from gaulrq.streams import SeedMaterial, uniform_pair_block


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_capture(capfd):
    """Let _verdict print past output capture so verdicts show in normal runs."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _normal_cdf(sigma):
    return lambda t: 0.5 * erfc(-t / (sigma * math.sqrt(2.0)))


def test_criterion_1_gaussian_noise_law():
    n = 10**6
    u_fixed = 0.37
    seed = SeedMaterial(2024, "acc1")
    idx = np.arange(n, dtype=np.uint64)
    details = []
    ok = True
    for sigma in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        u1, u2 = uniform_pair_block(seed, int(sigma * 10), 0, idx, 0)
        layer = sample_layer(sigma, (u1, u2))
        err = lrq_decode(lrq_encode(u_fixed, layer), layer) - u_fixed
        elapsed = time.perf_counter() - start
        mean = float(np.mean(err))
        var_ratio = float(np.var(err)) / sigma**2
        _, reject = ks_statistic(err, _normal_cdf(sigma))
        this = (abs(mean) <= 5.0 * sigma / math.sqrt(n)
                and abs(var_ratio - 1.0) <= 0.01
                and not reject and elapsed < 10.0)
        ok = ok and this
        details.append(f"sigma={sigma}: mean={mean:.2e} var/s^2={var_ratio:.4f} "
                       f"ks_ok={not reject} {elapsed:.2f}s")
    _verdict(1, ok, "; ".join(details))


def test_criterion_2_step_lower_bound():
    start = time.perf_counter()
    seed = SeedMaterial(2024, "acc2")
    sigma = 1.3
    u1, u2 = uniform_pair_block(seed, 0, 0, np.arange(10**5, dtype=np.uint64), 0)
    layer = sample_layer(sigma, (u1, u2))
    bound_ok = bool(np.all(layer.q_step >= MIN_STEP_FACTOR * sigma - 1e-12))
    forced = sample_layer(sigma, (0.5, 0.5))  # x=0, y=1/2
    equal_ok = abs(forced.q_step - MIN_STEP_FACTOR * sigma) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = bound_ok and equal_ok and elapsed < 1.0
    _verdict(2, ok, f"min gap={float(np.min(layer.q_step)) - MIN_STEP_FACTOR * sigma:.2e}, "
             f"forced-equality err={abs(forced.q_step - MIN_STEP_FACTOR * sigma):.2e}, "
             f"{elapsed:.2f}s")


def test_criterion_3_dithered_noise_law():
    n = 10**6
    q = 0.8
    u_fixed = 0.37
    seed = SeedMaterial(2024, "acc3")
    u, _ = uniform_pair_block(seed, 0, 0, np.arange(n, dtype=np.uint64), 0)
    x = q * u - 0.5 * q  # dither in (-q/2, q/2]
    err = dithered_decode(dithered_encode(u_fixed, q, x), q, x) - u_fixed
    cdf = lambda t: np.clip((t + 0.5 * q) / q, 0.0, 1.0)
    stat, reject = ks_statistic(err, cdf)
    _verdict(3, not reject, f"KS D={stat:.5f} vs crit={1.63 / math.sqrt(n):.5f}")


def test_criterion_4_budget_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        s2 = float(rng.uniform(0.1, 5.0))
        K = int(rng.integers(1, 100))
        N = int(rng.integers(2, 1000))
        B = int(rng.integers(1, N + 1))
        eps = float(rng.uniform(0.05, 20.0))
        delta = float(10.0 ** rng.uniform(-9, -2))
        tau = float(rng.uniform(0.2, 1.0))
        sigmas, _ = noise_schedule(s2, K, B, N, eps, delta, tau)
        back = np.sqrt(np.sum(round_epsilons(s2, B, N, delta, sigmas) ** 2))
        worst = max(worst, abs(back / eps - 1.0))
    exact = np.all(noise_schedule(1.0, 30, 5, 50, 1.7, 1e-5, 1.0)[0]
                   == 2.0 * 1.0 * np.sqrt(30 * 5 * np.log(1.0 / 1e-5)) / (50 * 1.7))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and bool(exact) and elapsed < 1.0
    _verdict(4, ok, f"worst rel err={worst:.2e}, tau=1 exact={bool(exact)}, "
             f"{elapsed:.2f}s")


def test_criterion_5_schedule_shape():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        tau = float(rng.uniform(0.2, 0.999))
        K = int(rng.integers(2, 120))
        sig, _ = noise_schedule(1.0, K, 5, 50, 2.0, 1e-5, tau)
        eps_k = round_epsilons(1.0, 5, 50, 1e-5, sig)
        ok = ok and bool(np.all(np.diff(sig) < 0)) and bool(np.all(np.diff(eps_k) > 0))
    _verdict(5, ok, "sigma_k strictly decreasing and eps_k strictly increasing "
             "for 50 random (tau<1, K) pairs")


def test_criterion_6_bound_orderings():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        inp = BoundInputs(
            F_gap=float(rng.uniform(0.1, 10)), eta=float(rng.uniform(0.001, 0.1)),
            Q=int(rng.integers(1, 10)), K=int(rng.integers(2, 100)),
            B=int(rng.integers(1, 50)), N=int(rng.integers(50, 1000)),
            d=int(rng.integers(1, 200)), alpha2=float(rng.uniform(0, 2)),
            nu=float(rng.uniform(0.5, 5)), S2=float(rng.uniform(0.1, 3)),
            epsilon=float(rng.uniform(0.1, 10)), delta=float(10 ** rng.uniform(-8, -2)),
            tau=float(rng.uniform(0.3, 1.0)),
            delta_inf_norm=float(rng.uniform(0.01, 2)))
        a, b, c = bound_dynamic(inp), bound_gau_lrq(inp), bound_qg(inp)
        ok = ok and a <= b <= c
        if inp.tau < 1.0:
            ok = ok and a < b
        ok = ok and b < c  # epsilon finite -> strict
    factor = am_qm_factor(0.25, 2)
    ok = ok and abs(factor - 0.9) < 1e-12 and 0.0 < factor <= 1.0
    _verdict(6, ok, f"orderings hold on 1000 random inputs; "
             f"am_qm(K=2, tau=1/4)={factor:.12f}")


def _random_config(rng, algo):
    N = int(rng.integers(4, 30))
    return ExperimentConfig.from_dict(dict(
        algorithm=algo, N=N, B=int(rng.integers(1, N + 1)),
        Q=int(rng.integers(1, 4)), K=int(rng.integers(1, 8)),
        eta=float(rng.uniform(0.01, 0.1)), epsilon=float(rng.uniform(0.5, 5)),
        delta=1e-5, tau=float(rng.uniform(0.5, 1.0)), s2=1.0,
        objective="least_squares", d=int(rng.integers(1, 12)),
        n_per_client=int(rng.integers(3, 12)),
        label_noise=float(rng.uniform(0, 0.3)),
        seed=int(rng.integers(0, 2**32)), run_id="acc7"))


def test_criterion_7_meter_equals_formula():
    rng = np.random.default_rng(2024)
    ok = True
    for i in range(20):
        algo = ("gau_lrq_sgd", "dynamic_gau_lrq_sgd")[i % 2]
        cfg = _random_config(rng, algo)
        trace = run_experiment(cfg)
        meter = trace.summary["total_bits"]
        formula = comm_cost(cfg.d, [r.inf_norms for r in trace.records],
                            [r.sigma_used for r in trace.records])
        ok = ok and meter == formula
    cfg = _random_config(rng, "local_sgd")
    trace = run_experiment(cfg)
    exact = trace.summary["total_bits"] == full_precision_cost(cfg.K, cfg.B, cfg.d)
    ok = ok and exact
    _verdict(7, ok, "meter == comm_cost on 20 random quantized configs; "
             f"LocalSGD == K*B*d*32 ({exact})")


def test_criterion_8_aggregation_statistics():
    start = time.perf_counter()
    d, B, n_rep, sigma = 20, 10, 10**4, 0.5
    rng = np.random.default_rng(11)
    seed = SeedMaterial(2024, "acc8")
    clipped = {cid: clip_update(rng.standard_normal(d) * 0.3, 1.0)
               for cid in range(B)}
    # Participants and updates fixed; replicate r redraws only the codec's
    # randomness, at counter r of every element. Indices are unclamped, so
    # the aggregate isolates the codec's own statistics.
    elem = np.arange(d, dtype=np.uint64)
    ctr = np.arange(n_rep, dtype=np.uint64)[:, None]
    total = 0.0
    for cid in sorted(clipped):
        layer = sample_layer(sigma, uniform_pair_block(seed.lane("replicates"), cid, 0,
                                                       elem, ctr))
        total = total + lrq_decode(lrq_encode(clipped[cid], layer), layer)
    agg = total / B
    target = np.mean([clipped[c] for c in sorted(clipped)], axis=0)
    se = sigma / math.sqrt(B * n_rep)  # per-coordinate noise std is sigma/sqrt(B)
    mean_ok = bool(np.all(np.abs(agg.mean(axis=0) - target) <= 3.0 * se))
    total_var = float(np.sum(agg.var(axis=0)))
    var_ok = abs(total_var / (d * sigma**2 / B) - 1.0) <= 0.05
    elapsed = time.perf_counter() - start
    ok = mean_ok and var_ok and elapsed < 60.0
    _verdict(8, ok, f"mean within 3 SE per coordinate={mean_ok}, "
             f"total var/(d*s^2/B)={total_var / (d * sigma**2 / B):.4f}, "
             f"{elapsed:.1f}s")


def test_criterion_9_end_to_end_ordering():
    start = time.perf_counter()
    def run(algo, seed):
        cfg = ExperimentConfig.from_dict(dict(
            algorithm=algo, N=100, B=10, Q=5, K=50, eta=0.05,
            epsilon=2.0, delta=1e-5, tau=0.9, s2=1.0,
            objective="least_squares", d=20, n_per_client=20,
            label_noise=0.0, batch_size=5, seed=seed, run_id="acc9"))
        sim = build_simulation(cfg)
        assert cfg.eta < 1.0 / sim.objective.smoothness()
        return sim.run().summary["weighted_error"]

    seeds = range(20)
    qg = np.array([run("qg_sgd", s) for s in seeds])
    lrq = np.array([run("gau_lrq_sgd", s) for s in seeds])
    dyn = np.array([run("dynamic_gau_lrq_sgd", s) for s in seeds])
    d1 = qg - lrq     # paired differences, common random numbers
    d2 = lrq - dyn
    sem1 = d1.std(ddof=1) / math.sqrt(len(d1))
    sem2 = d2.std(ddof=1) / math.sqrt(len(d2))
    elapsed = time.perf_counter() - start
    ok = d1.mean() > sem1 and d2.mean() > sem2 and elapsed < 120.0
    _verdict(9, ok, f"E(QG)-E(LRQ)={d1.mean():.3f} (sem {sem1:.3f}), "
             f"E(LRQ)-E(dyn)={d2.mean():.3f} (sem {sem2:.3f}), {elapsed:.0f}s")


def test_criterion_10_degradation_to_oracle():
    def cfg(algo):
        return ExperimentConfig.from_dict(dict(
            algorithm=algo, N=10, B=10, Q=2, K=10, eta=0.05,
            epsilon=1e9, delta=1e-5, tau=1.0, s2=1e4,
            objective="least_squares", d=6, n_per_client=12,
            label_noise=0.0, seed=5, run_id="acc10"))
    c = cfg("gau_lrq_sgd")
    sim = build_simulation(c)
    theta0_norm = float(np.linalg.norm(sim.theta))
    sigma = noise_schedule(c.s2, c.K, c.B, c.N, c.epsilon, c.delta)[0][0]
    small = sigma < 1e-4 * theta0_norm
    lrq = run_experiment(c).final_theta
    local = run_experiment(cfg("local_sgd")).final_theta
    dist = float(np.linalg.norm(lrq - local))
    ok = small and dist <= 1e-3
    _verdict(10, ok, f"sigma={sigma:.2e} (<1e-4*|theta0|={1e-4 * theta0_norm:.2e}: "
             f"{small}), trajectory distance after 10 rounds={dist:.2e}")


def test_criterion_11_determinism():
    cfg = dict(algorithm="dynamic_gau_lrq_sgd", N=12, B=4, Q=3, K=6,
               eta=0.05, epsilon=2.0, delta=1e-5, tau=0.85, s2=1.0,
               objective="least_squares", d=5, n_per_client=8,
               label_noise=0.1, batch_size=4, seed=99, run_id="acc11")
    t1 = run_experiment(ExperimentConfig.from_dict(cfg))
    t2 = run_experiment(ExperimentConfig.from_dict(cfg))
    traces_equal = bool(np.array_equal(t1.final_theta, t2.final_theta)) and \
        all(r1.loss == r2.loss and r1.bits_sent == r2.bits_sent
            and r1.grad_sq_norm == r2.grad_sq_norm
            for r1, r2 in zip(t1.records, t2.records))
    a = SeedMaterial(99, "acc11")
    b = SeedMaterial(99, "acc11")
    ctr = np.arange(10**5, dtype=np.uint64)
    ua = uniform_pair_block(a, 1, 2, 0, ctr)
    ub = uniform_pair_block(b, 1, 2, 0, ctr)
    streams_equal = bool(np.array_equal(ua[0], ub[0])
                         and np.array_equal(ua[1], ub[1]))
    ok = traces_equal and streams_equal
    _verdict(11, ok, f"repeated runs bitwise equal={traces_equal}, "
             f"10^5 client/server draws identical={streams_equal}")
