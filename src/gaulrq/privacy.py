"""Client-level differential-privacy accounting and update clipping.

noise_schedule is the one noise calibration: the moments-accountant closed
form for the Gaussian-shaped quantization noise, either the even budget split
(tau = 1) or a geometrically decaying schedule (tau < 1) that minimizes the
convergence error under the same total budget, together with the cumulative
budget spent after each round. round_epsilons is the per-round spend of any
schedule, the formula the ledger follows.

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

import math
import numbers

import numpy as np

from .errors import InvalidParameterError


def _check_round(s2, delta, **counts):
    """noise_schedule's and round_epsilons' checks of the counts (K, B, N), s2 and delta."""
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
               for n in counts.values()) or counts["B"] > counts["N"]:
        raise InvalidParameterError(f"{', '.join(counts)} must be positive integers with "
                                    f"B <= N, got {', '.join(map(repr, counts.values()))}")
    if not (np.isfinite(s2) and s2 > 0.0):
        raise InvalidParameterError("s2 must be finite and > 0")
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError("delta must lie in (0, 1)")


def noise_schedule(s2: float, K: int, B: int, N: int, epsilon: float, delta: float,
                   tau: float = 1.0):
    """(sigmas, eps_cum): the noise scales sigma_0..sigma_{K-1} of a run, in
    clipped-update units, and the budget spent after each round.

    sigma_k = 2*S2*sqrt(S*B*ln(1/delta))/(N*eps) * f_k * f_k with
    S = sum_{j<K} tau^{j/2} and f_k = tau^{-(K-1-k)/8}: strictly decaying for
    tau < 1, and at tau = 1 the even split 2*S2*sqrt(K*B*ln(1/delta))/(N*eps)
    bit for bit. Round k then spends eps*tau^{(K-1-k)/4}/sqrt(S) (round_epsilons),
    so eps_cum[k] = eps*sqrt((w_0 + ... + w_k)/S) with w_i = tau^{(K-1-i)/2}:
    never above eps, eps after the last round, and within a few ulps of
    sqrt(cumsum(round_epsilons**2)).

    s2 and eps enter as mantissas, their powers of two added back last, and
    S <= K: nothing overflows or underflows while every sigma_k lies in
    [1e-300, 1e300]. InvalidParameterError on invalid inputs, or when a
    sigma_k overflows float64 or underflows to 0.
    """
    _check_round(s2, delta, K=K, B=B, N=N)
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidParameterError("epsilon must be finite and > 0")
    if not (0.0 < tau <= 1.0):
        raise InvalidParameterError("tau must lie in (0, 1]")
    after = np.arange(K - 1, -1, -1, dtype=np.float64)  # rounds after round k
    spent = np.cumsum(tau ** (after / 2.0))  # w_0 + ... + w_k; spent[-1] is S
    (m_s2, e_s2), (m_eps, e_eps) = np.frexp(s2), np.frexp(epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        last = np.ldexp(2.0 * m_s2 * np.sqrt(spent[-1] * B * np.log(1.0 / delta))
                        / (N * m_eps), e_s2 - e_eps)
        f = tau ** (-after / 8.0)
        sigmas = last * f * f
    if not np.all(np.isfinite(sigmas)):
        raise InvalidParameterError("computing sigma_k overflows float64")
    if not np.all(sigmas > 0.0):
        raise InvalidParameterError("computing sigma_k underflows to 0")
    return sigmas, epsilon * np.sqrt(spent / spent[-1])


def round_epsilons(s2: float, B: int, N: int, delta: float, sigmas) -> np.ndarray:
    """Budget each round of a noise schedule spends (moments accountant), on inputs checked as
    noise_schedule's and each sigma_k finite and > 0: eps_k = 2*S2*sqrt(B*ln(1/delta))/(N*sigma_k).
    Rounds compose as the root of the sum of squares: sqrt(cumsum(eps_k^2)) is the spend so far."""
    _check_round(s2, delta, B=B, N=N)
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.size == 0 or not np.all(np.isfinite(sig) & (sig > 0.0)):
        raise InvalidParameterError("schedule needs at least one sigma_k, each finite and > 0")
    return 2.0 * s2 * np.sqrt(B * np.log(1.0 / delta)) / (N * sig)


def l2_norms(delta):
    """L2 norm of each row of ``delta`` (of ``delta`` itself when 1-D).

    One stacked (1, d) @ (d, 1) product per row: the ddot np.linalg.norm takes
    of a vector, so each norm equals np.linalg.norm(row) bit for bit.
    """
    delta = np.asarray(delta, dtype=np.float64)
    return np.sqrt(np.matmul(delta[..., None, :], delta[..., :, None])[..., 0, 0])


def clip_update(delta, s2: float) -> np.ndarray:
    """Scale the update (each row of a (B, d) stack) so its L2 norm is at most
    s2, direction preserved: row / max(1, ||row|| / s2).

    A row whose computed norm is below 2^-511 (its squares may have underflowed),
    or whose norm or norm / s2 overflows, is measured at unit inf-norm instead:
    with top = max|row| and n = ||row / top||, it becomes (row / top) * (s2 / n)
    if top * n > s2, and stays as it is otherwise. Finding such rows costs a few
    B-element tests; only they take a second pass over d.
    """
    if not (np.isfinite(s2) and s2 > 0.0):
        raise InvalidParameterError("s2 must be finite and > 0")
    delta = np.asarray(delta, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowed norm or ratio is redone below
        norms = l2_norms(delta)
        ratio = np.maximum(1.0, norms / s2)
    out = delta / ratio[..., None]
    edge = ~((norms >= 2.0**-511) & (ratio < math.inf))
    if edge.any():
        s2 = float(s2)  # Python floats: s2 / top may overflow to inf, unwarned
        rows, out_rows = delta.reshape(-1, delta.shape[-1]), out.reshape(-1, delta.shape[-1])
        for i in np.flatnonzero(edge):
            top = float(np.max(np.abs(rows[i])))
            if top > 0.0:  # an all-zero row stays as it is
                unit = rows[i] / top
                n = math.sqrt(unit @ unit)  # in [1, sqrt(d)], so underflowed squares do not count
                out_rows[i] = unit * (s2 / n) if n > s2 / top else rows[i]
    return out


def clip_ceiling(s2: float) -> float:
    """Largest inf-norm of a row of clip_update(delta, s2): s2 and its rounding (< 4 ulps)."""
    return s2 * (1.0 + 2.0**-51)


def median_clip_bound(norms) -> float:
    """Lower median of the participating clients' unclipped update norms."""
    values = sorted(float(x) for x in norms)
    if not values:
        raise InvalidParameterError("cannot take the median of an empty sequence")
    return values[(len(values) - 1) // 2]
