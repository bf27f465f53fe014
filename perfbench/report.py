"""The bound report that `gaulrq run` writes next to each trace, built from the public API."""

from __future__ import annotations

import dataclasses

import numpy as np

import gaulrq
from checks import gram


def thin_spec(objective, theta0) -> "gaulrq.ObjectiveSpec":
    """Objective.spec for least squares with d >= N*n, without the d x d Gram.

    Objective.smoothness and Objective.optimum form the d x d Gram matrix,
    74.5 GiB at d=1e5. Here nu comes from the N*n x N*n Gram and the optimum
    is the minimum-norm interpolant theta* = X^T (X X^T)^-1 y.
    """
    datasets = objective.datasets
    if objective.kind != "least_squares" or objective.ridge != 0.0:
        raise ValueError("thin_spec covers unregularized least squares only")
    features = [ds.features for ds in datasets]
    rows = sum(x.shape[0] for x in features)
    if rows > objective.dimension:
        raise ValueError("thin_spec needs d >= N*n")
    g = gram(features)
    alpha = np.linalg.solve(g * rows, np.concatenate([ds.targets for ds in datasets]))
    theta_star = np.zeros(objective.dimension)
    start = 0
    for x in features:
        theta_star += x.T @ alpha[start:start + x.shape[0]]
        start += x.shape[0]
    return gaulrq.ObjectiveSpec(
        kind=objective.kind, dimension=objective.dimension,
        smoothness=float(np.linalg.eigvalsh(g)[-1]),
        grad_variance=objective.grad_variance_bound(theta0),
        optimum_gap=objective.full_loss(theta0) - objective.full_loss(theta_star))


def bound_report(cfg, sim) -> dict:
    """Every closed-form bound at the run's measured constants."""
    if cfg.d > cfg.N * cfg.n_per_client:
        spec = thin_spec(sim.objective, sim.theta0)
    else:
        spec = sim.objective.spec(sim.theta0)
    inf_norms = [n for r in sim.records for n in r.inf_norms if n > 0]
    rep_inf = float(np.median(inf_norms)) if inf_norms else 1.0
    inp = gaulrq.BoundInputs(F_gap=max(spec.optimum_gap, 1e-12), eta=cfg.eta,
                             Q=cfg.Q, K=max(cfg.K, 1), B=cfg.B, N=cfg.N, d=cfg.d,
                             alpha2=spec.grad_variance, nu=spec.smoothness,
                             S2=cfg.s2, epsilon=cfg.epsilon, delta=cfg.delta,
                             tau=cfg.tau, delta_inf_norm=rep_inf)
    return {
        "inputs": dataclasses.asdict(inp),
        "step_size_ok": inp.step_size_ok(),
        "bound_lsgd": gaulrq.bound_lsgd(inp),
        "bound_gau_lrq": gaulrq.bound_gau_lrq(inp),
        "bound_dynamic": gaulrq.bound_dynamic(inp),
        "bound_qg": gaulrq.bound_qg(inp),
        "bound_bq": gaulrq.bound_bq(inp),
    }
