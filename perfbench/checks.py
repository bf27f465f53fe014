"""Output checks, computed apart from the code they check.

Nothing here calls ``comm_cost``, ``epsilon_from_sigmas``, ``weighted_error``
or ``gaulrq.normal``: bit widths, the sigma schedule, the privacy spend, the
smoothness constant, losses and the Gaussian CDF are re-derived from their
closed forms with ``math``, ``numpy`` and ``scipy.special.ndtr``. Each check
returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

# Minimum layer step of the layered quantizer, in units of sigma: 2*sqrt(2 ln 2).
MIN_STEP = 2.0 * math.sqrt(2.0 * math.log(2.0))
REL_TOL = 1e-12
FLOAT_BITS = 32
# Statistical checks reject at about five standard errors (KS at alpha=1e-6),
# so a correct codec fails one with probability ~1e-6 on any seed.
KS_ALPHA = 1e-6


def gram(features) -> np.ndarray:
    """The smaller of X X^T and X^T X for the stacked shards, as a mean over rows.

    At d=1e5 and N*n=80 the thin (N*n x N*n) side costs 80^2 dot products
    where the d x d side would need 74.5 GiB.
    """
    rows = sum(x.shape[0] for x in features)
    if rows <= features[0].shape[1]:
        g = np.block([[xi @ xj.T for xj in features] for xi in features])
    else:
        g = sum(x.T @ x for x in features)
    return g / rows


def smoothness(datasets, kind: str) -> float:
    """nu: largest eigenvalue of the mean Gram matrix (1/4 of it for logistic); no ridge."""
    lam = float(np.linalg.eigvalsh(gram([ds.features for ds in datasets]))[-1])
    return (0.25 if kind == "logistic" else 1.0) * lam


def data_loss(datasets, kind: str, theta) -> float:
    """Mean over clients of each client's mean loss at theta (no ridge term)."""
    total = 0.0
    for ds in datasets:
        z = ds.features @ theta
        if kind == "least_squares":
            total += 0.5 * float(np.mean((z - ds.targets) ** 2))
        else:
            total += float(np.mean(np.logaddexp(0.0, z) - ds.targets * z))
    return total / len(datasets)


def lrq_width(a: float, sigma: float) -> int:
    """b = max(1, ceil(log2(2a / (2 sqrt(2 ln 2) sigma) + 1)))."""
    if a == 0.0:
        return 1
    return max(1, math.ceil(math.log2(2.0 * a / (MIN_STEP * sigma) + 1.0)))


def sigma_schedule(cfg: dict) -> tuple[list[float], float]:
    """Closed-form sigma_k for k < K and the clip bound S2 they assume.

    Median-adaptive clipping uses the S2=1 schedule, rescaled each round by
    the round's clip bound, which leaves the per-round privacy spend unchanged.
    """
    K, B, N = cfg["K"], cfg["B"], cfg["N"]
    eps, tau = cfg["epsilon"], cfg["tau"]
    s2 = cfg["s2"] if cfg.get("clip_mode", "fixed") == "fixed" else 1.0
    log_term = math.log(1.0 / cfg["delta"])
    if cfg["algorithm"] == "dynamic_gau_lrq_sgd" and tau < 1.0:
        total = sum(tau ** (-i / 2.0) for i in range(K))
        scale = 4.0 * s2 * s2 * B * log_term / (N * eps) ** 2
        return [math.sqrt(scale * total * tau ** (k / 2.0)) for k in range(K)], s2
    return [2.0 * s2 * math.sqrt(K * B * log_term) / (N * eps)] * K, s2


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_experiment(cfg: dict, trace, nu: float) -> list[str]:
    """Per-run invariants: rounds, bit meter, clamps, privacy spend, step size."""
    algo, K, B, N, d = cfg["algorithm"], cfg["K"], cfg["B"], cfg["N"], cfg["d"]
    records, summary = trace.records, trace.summary
    fails = []
    if len(records) != K or summary["rounds_run"] != K:
        fails.append(f"ran {len(records)} rounds, expected {K}")
    if summary["total_bits"] != sum(r.bits_sent for r in records):
        fails.append("summary total_bits differs from the per-round meter")
    if summary["total_clamps"] != 0 or any(r.clamp_count for r in records):
        fails.append(f"{summary['total_clamps']} clamped indices")
    for r in records:
        if algo in ("local_sgd", "gau_sgd"):
            expected = B * d * FLOAT_BITS
        elif algo == "qg_sgd":
            # Its width comes from the noisy vector, which the trace does not
            # keep: check only that each client sent d indices of 1..62 bits.
            ok = r.bits_sent % d == 0 and B <= r.bits_sent // d <= 62 * B
            expected = r.bits_sent if ok else -1
        else:
            if len(r.inf_norms) != B:
                fails.append(f"round {r.round}: {len(r.inf_norms)} inf-norms for {B} clients")
            expected = sum(d * lrq_width(a, r.sigma_used) for a in r.inf_norms)
        if r.bits_sent != expected:
            fails.append(f"round {r.round}: metered {r.bits_sent} bits, expected {expected}")
            break
    if algo != "local_sgd":
        fails += _check_privacy(cfg, records)
    if not cfg["eta"] * nu < 1.0:
        fails.append(f"eta*nu = {cfg['eta'] * nu:.3g} is not < 1")
    return fails


def _check_privacy(cfg: dict, records) -> list[str]:
    sigmas, s2 = sigma_schedule(cfg)
    per_round = 2.0 * s2 * math.sqrt(cfg["B"] * math.log(1.0 / cfg["delta"])) / cfg["N"]
    fixed_clip = cfg.get("clip_mode", "fixed") == "fixed"
    spent_sq = 0.0
    for r, sigma in zip(records, sigmas):
        spent_sq += (per_round / sigma) ** 2
        if _rel(r.epsilon_spent_cumulative, math.sqrt(spent_sq)) > REL_TOL:
            return [f"round {r.round}: cumulative epsilon {r.epsilon_spent_cumulative!r}, "
                    f"closed form {math.sqrt(spent_sq)!r}"]
        if fixed_clip and _rel(r.sigma_used, sigma) > REL_TOL:
            return [f"round {r.round}: sigma {r.sigma_used!r}, closed form {sigma!r}"]
        if not (math.isfinite(r.sigma_used) and r.sigma_used > 0.0):
            return [f"round {r.round}: sigma {r.sigma_used!r}"]
    final = records[-1].epsilon_spent_cumulative
    if _rel(final, cfg["epsilon"]) > REL_TOL:
        return [f"spent epsilon {final!r} of a {cfg['epsilon']} budget"]
    return []


def own_weighted_error(trace, tau: float) -> float:
    """sum_k tau^-k g_k / sum_k tau^-k over the recorded squared gradient norms."""
    g = [r.grad_sq_norm for r in trace.records]
    w = [tau ** (len(g) - 1 - k) for k in range(len(g))]
    return sum(wk * gk for wk, gk in zip(w, g)) / sum(w)


def check_ordering(errors: dict) -> list[str]:
    """E(QG) > E(LRQ) > E(dyn), paired over seeds: each mean gap exceeds its SEM."""
    fails = []
    pairs = (("qg_sgd", "gau_lrq_sgd"), ("gau_lrq_sgd", "dynamic_gau_lrq_sgd"))
    for hi, lo in pairs:
        gaps = np.array([errors[s][hi] - errors[s][lo] for s in sorted(errors)])
        sem = gaps.std(ddof=1) / math.sqrt(gaps.size)
        if not gaps.mean() > sem:
            fails.append(f"E({hi}) - E({lo}) = {gaps.mean():.4g}, not above its SEM {sem:.4g}")
    return fails


def check_gaussian_errors(err, sigma: float) -> list[str]:
    """Mean, variance and KS tests of codec errors against N(0, sigma^2)."""
    err = np.asarray(err, dtype=np.float64)
    n = err.size
    fails = []
    mean = float(err.mean())
    if abs(mean) > 5.0 * sigma / math.sqrt(n):
        fails.append(f"error mean {mean:.3g} exceeds 5 sigma/sqrt(n)")
    ratio = float(err.var()) / sigma**2
    if abs(ratio - 1.0) > 5.0 * math.sqrt(2.0 / n):
        fails.append(f"error variance / sigma^2 = {ratio:.5f}")
    x = np.sort(err)
    cdf = ndtr(x / sigma)
    i = np.arange(1, n + 1, dtype=np.float64)
    stat = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1.0) / n)))
    crit = math.sqrt(math.log(2.0 / KS_ALPHA) / 2.0) / math.sqrt(n)
    if stat > crit:
        fails.append(f"KS D = {stat:.5f} above {crit:.5f}")
    return fails
