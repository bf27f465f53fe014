"""Client-level differential-privacy accounting and update clipping.

Closed-form moment-accountant calibration for the Gaussian-shaped
quantization noise: a fixed per-round noise scale for an even budget
split, a geometrically decaying schedule that minimizes the convergence
error under the same total budget, and the per-round spends of a noise
schedule, which give back the budget it spends.

Privacy model. Neighbouring datasets differ by adding or removing one
client's whole shard (client-level add/remove). One clipped upload moves
the aggregate by at most S2 in L2 norm, so the sensitivity is S2. sigma is
the moments-accountant closed form (Abadi et al., "Deep Learning with
Differential Privacy", CCS'16), whose theorem assumes a small sampling
rate q = B/N and large noise; nothing here checks that region. The theorem
also assumes Poisson sampling at rate q, while the simulator samples
exactly B clients per round, systematically. The epsilon ledger is built
with the run from the sigma schedule alone, so it is data-independent (a
median clip bound scales sigma_k and cancels in the spend); the median
itself and each upload's inf-norm scale are treated as public, with no noise
of their own. No numeric audit of the reported epsilon exists yet. The
ledger covers an observer of the released models, not the decoding server:
that server holds each upload as v + N(0, sigma^2 I) with the client id in
its header, so no sampling amplification applies against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class PrivacyBudget:
    """Total (epsilon, delta) target for a whole run."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise InvalidParameterError("epsilon must be finite and > 0")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParameterError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class SigmaSchedule:
    """Per-round noise scales sigma_0..sigma_{K-1} (clipped-update units)."""

    sigmas: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigmas, dtype=np.float64)
        if sig.size == 0 or np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
            raise InvalidParameterError("all sigma_k must be finite and > 0")
        object.__setattr__(self, "sigmas", sig)


def _check_counts(K, B, N):
    if K < 1 or B < 1 or N < 1:
        raise InvalidParameterError("K, B, N must be positive integers")
    if B > N:
        raise InvalidParameterError(f"participants B={B} cannot exceed clients N={N}")


def sigma_fixed(s2: float, K: int, B: int, N: int, budget: PrivacyBudget) -> float:
    """Noise scale for an even budget split: 2*S2*sqrt(K*B*ln(1/delta))/(N*eps)."""
    _check_counts(K, B, N)
    if not (np.isfinite(s2) and s2 > 0.0):
        raise InvalidParameterError("s2 must be finite and > 0")
    return 2.0 * s2 * np.sqrt(K * B * np.log(1.0 / budget.delta)) / (N * budget.epsilon)


def sigma_schedule_dynamic(s2: float, K: int, B: int, N: int,
                           budget: PrivacyBudget, tau: float) -> SigmaSchedule:
    """Error-minimizing schedule under the total budget.

    sigma_k^2 = (4*S2^2*B*ln(1/delta)/(N^2*eps^2)) * (sum_i tau^{-i/2}) * tau^{k/2}.
    At tau = 1 every entry equals the fixed scale exactly; for tau < 1 the
    scales decay strictly, spending less budget early and more late.
    """
    _check_counts(K, B, N)
    if not (0.0 < tau <= 1.0):
        raise InvalidParameterError("tau must lie in (0, 1]")
    if tau == 1.0:
        value = sigma_fixed(s2, K, B, N, budget)
        return SigmaSchedule(sigmas=np.full(K, value))
    k = np.arange(K, dtype=np.float64)
    base = 4.0 * s2 * s2 * B * np.log(1.0 / budget.delta) / (N * budget.epsilon) ** 2
    total = np.sum(tau ** (-k / 2.0))
    sigmas = np.sqrt(base * total * tau ** (k / 2.0))
    return SigmaSchedule(sigmas=sigmas)


def round_epsilons(s2: float, B: int, N: int, delta: float, sigmas) -> np.ndarray:
    """Budget each round of a noise schedule spends (moments accountant):
    eps_k = 2*S2*sqrt(B*ln(1/delta))/(N*sigma_k). Rounds compose as the root
    of the sum of squares, so sqrt(cumsum(eps_k^2)) is the spend so far."""
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.size == 0:
        raise InvalidParameterError("schedule must contain at least one sigma")
    if np.any(sig <= 0.0):
        raise InvalidParameterError("all sigma_k must be > 0")
    return 2.0 * s2 * np.sqrt(B * np.log(1.0 / delta)) / (N * sig)


def epsilon_from_sigmas(s2: float, B: int, N: int, delta: float, sigmas) -> float:
    """Budget actually spent by a sequence of noise scales: the root of the
    sum of squared round_epsilons; the inverse of the schedule construction."""
    return float(np.sqrt(np.sum(round_epsilons(s2, B, N, delta, sigmas) ** 2)))


def per_round_epsilon(k: int, K: int, tau: float, budget: PrivacyBudget) -> float:
    """Budget consumed at round k of the tau schedule, read from round_epsilons:
    eps * sqrt(1/sum_i tau^{-i/2}) * tau^{-k/4} (S2, B and N cancel).

    Nondecreasing in k for tau < 1; the uniform split eps/sqrt(K) at tau = 1.
    """
    if not (0 <= k < K):
        raise InvalidParameterError(f"round k={k} out of range [0, {K})")
    sigmas = sigma_schedule_dynamic(1.0, K, 1, 1, budget, tau).sigmas
    return float(round_epsilons(1.0, 1, 1, budget.delta, sigmas)[k])


def l2_norms(delta):
    """L2 norm of each row of ``delta`` (of ``delta`` itself when 1-D).

    One stacked (1, d) @ (d, 1) product per row: the ddot np.linalg.norm takes
    of a vector, so each norm equals np.linalg.norm(row) bit for bit.
    """
    delta = np.asarray(delta, dtype=np.float64)
    return np.sqrt(np.matmul(delta[..., None, :], delta[..., :, None])[..., 0, 0])


def clip_update(delta, s2: float) -> np.ndarray:
    """Scale the update (each row of a (B, d) stack) so its L2 norm is at most
    s2, direction preserved."""
    if not (np.isfinite(s2) and s2 > 0.0):
        raise InvalidParameterError("s2 must be finite and > 0")
    delta = np.asarray(delta, dtype=np.float64)
    return delta / np.maximum(1.0, l2_norms(delta) / s2)[..., None]


def median_clip_bound(norms) -> float:
    """Lower median of the participating clients' unclipped update norms."""
    values = sorted(float(x) for x in norms)
    if not values:
        raise InvalidParameterError("cannot take the median of an empty sequence")
    return values[(len(values) - 1) // 2]
