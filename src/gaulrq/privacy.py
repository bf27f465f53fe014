"""Client-level differential-privacy accounting and update clipping.

Closed-form moment-accountant calibration for the Gaussian-shaped
quantization noise: a fixed per-round noise scale for an even budget
split, a geometrically decaying schedule that minimizes the convergence
error under the same total budget, and the inverse map from noise scales
back to the budget actually spent.
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


@dataclass(frozen=True)
class ClipConfig:
    """L2 clipping policy: a fixed threshold or the per-round median norm."""

    s2: float = 1.0
    mode: str = "fixed"  # "fixed" or "median_adaptive"

    def __post_init__(self):
        if self.mode not in ("fixed", "median_adaptive"):
            raise InvalidParameterError(f"unknown clip mode {self.mode!r}")
        if self.mode == "fixed" and not (np.isfinite(self.s2) and self.s2 > 0.0):
            raise InvalidParameterError("s2 must be finite and > 0")


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


def epsilon_from_sigmas(s2: float, B: int, N: int, delta: float, sigmas) -> float:
    """Budget actually spent by a sequence of noise scales (composition).

    eps' = (2*S2*sqrt(B*ln(1/delta))/N) * sqrt(sum_k 1/sigma_k^2); the exact
    inverse of the dynamic schedule construction.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.size == 0:
        raise InvalidParameterError("schedule must contain at least one sigma")
    if np.any(sig <= 0.0):
        raise InvalidParameterError("all sigma_k must be > 0")
    return (2.0 * s2 * np.sqrt(B * np.log(1.0 / delta)) / N
            * np.sqrt(np.sum(1.0 / sig**2)))


def per_round_epsilon(k: int, K: int, tau: float, budget: PrivacyBudget) -> float:
    """Budget consumed at round k: eps * sqrt(1/sum_i tau^{-i/2}) * tau^{-k/4}.

    Nondecreasing in k for tau < 1; the uniform split eps/sqrt(K) at tau = 1.
    """
    if not (0 <= k < K):
        raise InvalidParameterError(f"round k={k} out of range [0, {K})")
    if not (0.0 < tau <= 1.0):
        raise InvalidParameterError("tau must lie in (0, 1]")
    i = np.arange(K, dtype=np.float64)
    total = np.sum(tau ** (-i / 2.0))
    return budget.epsilon * np.sqrt(1.0 / total) * tau ** (-k / 4.0)


def clip_update(delta, s2: float) -> np.ndarray:
    """Scale the update so its L2 norm is at most s2 (direction preserved)."""
    if not (np.isfinite(s2) and s2 > 0.0):
        raise InvalidParameterError("s2 must be finite and > 0")
    delta = np.asarray(delta, dtype=np.float64)
    norm = float(np.linalg.norm(delta))
    return delta / max(1.0, norm / s2)


def median_clip_bound(norms) -> float:
    """Lower median of the participating clients' unclipped update norms."""
    values = sorted(float(x) for x in norms)
    if not values:
        raise InvalidParameterError("cannot take the median of an empty sequence")
    return values[(len(values) - 1) // 2]
