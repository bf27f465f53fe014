"""Closed-form convergence-bound and communication-cost calculators.

Each evaluator mirrors one headline bound: the noise-free local-SGD
baseline, the fixed and dynamic quantizer variants, the
noise-then-quantize pipeline, and the binomial-noise pipeline (bound
only). A one-sample KS test used by the statistical acceptance checks
also lives here.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError
from .quantizers import bit_width

LN2 = np.log(2.0)
MAX_BOUND_ROUNDS = 10**7  # the tau-weight sums hold K floats


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form bounds consume.

    delta_inf_norm is a representative inf-norm of the clipped update, used
    by the bit-count and coupling-error terms; take it from an actual run
    when one is available. Values are finite, counts integers, K <= MAX_BOUND_ROUNDS.
    """

    F_gap: float
    eta: float
    Q: int
    K: int
    B: int
    N: int
    d: int
    alpha2: float
    nu: float
    S2: float
    epsilon: float
    delta: float
    tau: float = 1.0
    delta_inf_norm: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("Q", "K", "B", "N", "d"):
                if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                    raise InvalidParameterError(f"{f.name} must be an integer, got {value!r}")
            # abs(x) <= max float rejects NaN, infinities and ints beyond float range.
            elif (not isinstance(value, numbers.Real) or isinstance(value, bool)
                  or not abs(value) <= sys.float_info.max):
                raise InvalidParameterError(f"{f.name} must be a finite number, got {value!r}")
        positive = {"eta": self.eta, "Q": self.Q, "K": self.K, "B": self.B,
                    "N": self.N, "d": self.d, "nu": self.nu, "S2": self.S2,
                    "epsilon": self.epsilon, "delta_inf_norm": self.delta_inf_norm}
        for name, value in positive.items():
            if value <= 0:
                raise InvalidParameterError(f"{name} must be > 0")
        if self.F_gap < 0 or self.alpha2 < 0:
            raise InvalidParameterError("F_gap and alpha2 must be >= 0")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParameterError("delta must lie in (0, 1)")
        if not (0.0 < self.tau <= 1.0):
            raise InvalidParameterError("tau must lie in (0, 1]")
        if self.B > self.N:
            raise InvalidParameterError("B cannot exceed N")
        if self.K > MAX_BOUND_ROUNDS:
            raise InvalidParameterError(f"K must be <= {MAX_BOUND_ROUNDS}")

    def step_size_ok(self) -> bool:
        """The step-size condition under which the bounds are derived."""
        q = float(self.Q)
        return (self.eta <= 1.0 / self.nu
                and self.eta * self.nu * q
                + 0.5 * self.nu**2 * self.eta**2 * q * (q - 1.0) <= 1.0)


def _tau_weight_sum(tau, K):
    k = np.arange(K, dtype=np.float64)
    return float(np.sum(tau ** (-k)))


def bound_lsgd(inp: BoundInputs) -> float:
    """Baseline local-SGD error: optimality-gap decay plus sampling variance."""
    q = float(inp.Q)
    gap_term = 2.0 * inp.F_gap / (q * inp.eta * _tau_weight_sum(inp.tau, inp.K))
    var_term = (q * inp.alpha2 / inp.B) * ((2.0 * q - 1.0) * (q - 1.0) / (6.0 * q) + 1.0)
    return gap_term + var_term


def _privacy_term(inp: BoundInputs) -> float:
    return (4.0 * inp.d * inp.S2**2 * inp.K * np.log(1.0 / inp.delta)
            / (inp.eta**2 * inp.Q * inp.N**2 * inp.epsilon**2))


def bound_gau_lrq(inp: BoundInputs) -> float:
    """Fixed-scale quantizer pipeline: baseline plus the privacy error."""
    return bound_lsgd(inp) + _privacy_term(inp)


def am_qm_factor(tau: float, K: int) -> float:
    """AM^2/QM^2 of the weights tau^{-k/2}; in (0, 1], and 1 iff tau=1 or K=1."""
    if not (0.0 < tau <= 1.0):
        raise InvalidParameterError("tau must lie in (0, 1]")
    if K < 1:
        raise InvalidParameterError("K must be >= 1")
    k = np.arange(K, dtype=np.float64)
    terms = tau ** (-k / 2.0)
    am = np.mean(terms)
    qm_sq = np.mean(terms**2)
    return float(am * am / qm_sq)


def bound_dynamic(inp: BoundInputs) -> float:
    """Dynamic-schedule pipeline: the privacy error shrinks by AM^2/QM^2."""
    return bound_lsgd(inp) + _privacy_term(inp) * am_qm_factor(inp.tau, inp.K)


def bound_qg(inp: BoundInputs) -> float:
    """Noise-then-quantize pipeline: adds quantization and coupling errors."""
    common = (inp.d * inp.S2**2 * inp.K * np.log(1.0 / inp.delta)
              / (inp.eta**2 * inp.Q * inp.N**2 * inp.epsilon**2))
    quant_term = 8.0 * LN2 * common
    coupling_term = (32.0 * LN2 * inp.d * inp.S2**4 * inp.K**2 * inp.B
                     * np.log(1.0 / inp.delta) ** 2
                     / (inp.N**4 * inp.epsilon**4 * inp.delta_inf_norm**2
                        * inp.eta**2 * inp.Q))
    return bound_gau_lrq(inp) + quant_term + coupling_term


def bound_bq(inp: BoundInputs) -> float:
    """Binomial-noise pipeline bound; its privacy term scales as d^2."""
    privacy_term = (20.0 * inp.d**2 * inp.S2**2 * inp.K
                    / (inp.eta**2 * inp.Q * inp.N**2 * inp.epsilon**2 * inp.delta**2))
    quant_term = (2.0 * LN2 * inp.d * inp.S2**2 * inp.K * np.log(1.0 / inp.delta)
                  / (inp.eta**2 * inp.Q * inp.N**2 * inp.epsilon**2))
    return bound_lsgd(inp) + privacy_term + quant_term


def comm_cost(d: int, inf_norms_per_round, sigmas) -> int:
    """Total quantized-upload bits: sum over rounds and clients of d * b.

    Uses the exact integerization (ceil, floored at 1 bit) the codec signs
    onto the wire, so the formula matches the orchestrator's meter
    bit-for-bit. ``inf_norms_per_round`` is one sequence of client inf-norms
    per round; ``sigmas`` the per-round noise scales.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    if len(inf_norms_per_round) != sig.size:
        raise InvalidParameterError("one sigma per round of inf-norms required")
    total = 0
    for norms, sigma in zip(inf_norms_per_round, sig):
        for a in norms:
            total += d * bit_width(a, float(sigma))
    return total


def full_precision_cost(K: int, B: int, d: int, b_init: int = 32) -> int:
    """Bits for unquantized uploads: K * B * d * b_init."""
    return K * B * d * b_init


KS_CRITICAL_001 = 1.63  # asymptotic coefficient for significance 0.01


def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic and a reject flag at 0.01.

    Uses the asymptotic critical value 1.63/sqrt(n); requires n >= 100.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 100:
        raise InvalidParameterError("KS test needs at least 100 samples")
    F = np.asarray(cdf(x), dtype=np.float64)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1.0) / n)
    stat = float(max(d_plus, d_minus))
    return stat, stat > KS_CRITICAL_001 / np.sqrt(n)
