import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaulrq.errors import InvalidParameterError
from gaulrq.privacy import (clip_ceiling, clip_update, l2_norms, median_clip_bound,
                            noise_schedule, round_epsilons)

EPS, DELTA = 1.0, 1e-5


def _spent(s2, B, N, delta, sigmas):
    """The budget a schedule spends: the root of the sum of squared round_epsilons."""
    return float(np.sqrt(np.sum(round_epsilons(s2, B, N, delta, sigmas) ** 2)))


def _round_eps(K, tau, eps=EPS):
    """Each round's spend of the tau schedule (S2, B and N cancel)."""
    return round_epsilons(1.0, 1, 1, DELTA, noise_schedule(1.0, K, 1, 1, eps, DELTA, tau)[0])


# -- even split ---------------------------------------------------------------

def test_even_split_closed_form():
    sigmas, _ = noise_schedule(1.0, 100, 10, 100, EPS, DELTA)
    assert sigmas == pytest.approx(np.full(100, 2.0 * math.sqrt(1000.0 * math.log(1e5)) / 100.0),
                                   rel=1e-12)


def test_even_split_scalings():
    base = noise_schedule(1.0, 100, 10, 100, EPS, DELTA)[0][0]
    assert noise_schedule(1.0, 100, 10, 100, 2.0, DELTA)[0][0] == \
        pytest.approx(base / 2.0, rel=1e-12)
    assert noise_schedule(1.0, 400, 10, 100, EPS, DELTA)[0][0] == pytest.approx(2.0 * base,
                                                                              rel=1e-12)


def test_noise_schedule_validation():
    with pytest.raises(InvalidParameterError):
        noise_schedule(1.0, 10, 20, 10, EPS, DELTA)   # B > N
    with pytest.raises(InvalidParameterError):
        noise_schedule(0.0, 10, 5, 10, EPS, DELTA)
    with pytest.raises(InvalidParameterError):
        noise_schedule(1.0, 10, 5, 10, 0.0, DELTA)
    with pytest.raises(InvalidParameterError):
        noise_schedule(1.0, 10, 5, 10, EPS, 1.0)
    with pytest.raises(InvalidParameterError):
        noise_schedule(1.0, 0, 5, 10, EPS, DELTA)
    # Round, participant and client counts are integers, not floats or bools.
    for K, B, N in ((2.5, 1, 2), (True, 1, 2), (10, 1.5, 10), (10, 2, 2.5), (10, True, 2),
                    (10.0, 5, 10)):
        with pytest.raises(InvalidParameterError, match="must be positive integers"):
            noise_schedule(1.0, K, B, N, EPS, DELTA)


# -- dynamic schedule -------------------------------------------------------

def test_schedule_tau_one_equals_fixed_exactly():
    sigmas, _ = noise_schedule(1.5, 20, 4, 50, EPS, DELTA, 1.0)
    assert np.all(sigmas == 2.0 * 1.5 * np.sqrt(20 * 4 * np.log(1.0 / DELTA)) / (50 * EPS))


def test_schedule_two_round_hand_case():
    # tau=1/4, K=2: sum tau^{-i/2} = 1 + 2 = 3, so sigma_0^2 = 3C and
    # sigma_1^2 = 3C * tau^{1/2} = 1.5C.
    s2, K, B, N = 2.0, 2, 3, 7
    C = 4.0 * s2**2 * B * math.log(1e5) / (N * EPS) ** 2
    sigmas, _ = noise_schedule(s2, K, B, N, EPS, DELTA, 0.25)
    assert sigmas[0] ** 2 == pytest.approx(3.0 * C, rel=1e-12)
    assert sigmas[1] ** 2 == pytest.approx(1.5 * C, rel=1e-12)


def test_schedule_strictly_decreasing():
    sigmas, _ = noise_schedule(1.0, 50, 10, 100, EPS, DELTA, 0.9)
    assert np.all(np.diff(sigmas) < 0)


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        noise_schedule(1.0, 10, 5, 20, EPS, DELTA, 0.0)
    with pytest.raises(InvalidParameterError):
        noise_schedule(1.0, 10, 5, 20, EPS, DELTA, 1.5)
    # No sigma_k it returns is <= 0: one that underflows is an error.
    with pytest.raises(InvalidParameterError, match="underflows to 0"):
        noise_schedule(1e-300, 2, 3, 6, 1e300, DELTA)


# -- epsilon round trip -----------------------------------------------------

def test_constant_schedule_epsilon():
    s2, K, B, N, sigma = 1.0, 25, 5, 40, 0.7
    got = _spent(s2, B, N, 1e-5, np.full(K, sigma))
    want = 2.0 * s2 * math.sqrt(K * B * math.log(1e5)) / (N * sigma)
    assert got == pytest.approx(want, rel=1e-12)


def test_single_round_epsilon():
    got = _spent(1.0, 5, 40, 1e-5, [0.7])
    assert got == pytest.approx(2.0 * math.sqrt(5 * math.log(1e5)) / (40 * 0.7),
                                rel=1e-12)


def test_round_trip_identity():
    rng = np.random.default_rng(99)
    for _ in range(200):
        s2 = float(rng.uniform(0.1, 5.0))
        K = int(rng.integers(1, 80))
        N = int(rng.integers(2, 500))
        B = int(rng.integers(1, N + 1))
        eps = float(rng.uniform(0.1, 10.0))
        delta = float(10.0 ** rng.uniform(-8, -2))
        tau = float(rng.uniform(0.3, 1.0))
        sigmas, eps_cum = noise_schedule(s2, K, B, N, eps, delta, tau)
        assert _spent(s2, B, N, delta, sigmas) == pytest.approx(eps, rel=1e-9)
        # The ledger is that spend round by round, and reaches eps exactly.
        spent = np.sqrt(np.cumsum(round_epsilons(s2, B, N, delta, sigmas) ** 2))
        np.testing.assert_allclose(eps_cum, spent, rtol=1e-14, atol=0)
        assert eps_cum[-1] == eps and np.all(np.diff(eps_cum) >= 0)


def test_round_epsilons_validation():
    with pytest.raises(InvalidParameterError):
        round_epsilons(1.0, 5, 10, 1e-5, [])
    with pytest.raises(InvalidParameterError):
        round_epsilons(1.0, 5, 10, 1e-5, [1.0, 0.0])
    # noise_schedule's checks: each input it rejects, round_epsilons rejects too.
    for s2, B, N, delta, sigmas, match in (
            (1.0, 5, 2, 1e-5, [1.0], "with B <= N"),
            (1.0, 0, 2, 1e-5, [1.0], "positive integers"),
            (1.0, 1.5, 2, 1e-5, [1.0], "positive integers"),
            (1.0, True, 2, 1e-5, [1.0], "positive integers"),
            (1.0, 1, 2.0, 1e-5, [1.0], "positive integers"),
            (math.nan, 1, 2, 1e-5, [1.0], "s2 must be finite"),
            (math.inf, 1, 2, 1e-5, [1.0], "s2 must be finite"),
            (-1.0, 1, 2, 1e-5, [1.0], "s2 must be finite"),
            (1.0, 1, 2, 2.0, [1.0], "delta must lie"),
            (1.0, 1, 2, 0.0, [1.0], "delta must lie"),
            (1.0, 1, 2, math.nan, [1.0], "delta must lie"),
            (1.0, 1, 2, 1e-5, [1.0, math.inf], "finite and > 0"),
            (1.0, 1, 2, 1e-5, [math.nan], "finite and > 0")):
        with pytest.raises(InvalidParameterError, match=match):
            round_epsilons(s2, B, N, delta, sigmas)


def _log_sigmas(s2, K, B, N, eps, delta, tau):
    """ln sigma_k of the schedule, from logs alone: the reference for any range."""
    j = np.arange(K, dtype=np.float64)
    log_s = np.logaddexp.reduce(j / 2.0 * math.log(tau))  # ln sum_j tau^{j/2}
    return (math.log(2.0) + math.log(s2) - math.log(N) - math.log(eps)
            + 0.5 * (log_s + math.log(B) + math.log(math.log(1.0 / delta)))
            - j[::-1] / 4.0 * math.log(tau))


@settings(max_examples=200, deadline=None)
@given(st.floats(-709.5, 709.5), st.integers(1, 5000), st.integers(1, 1000),
       st.integers(1, 1000), st.floats(-709.5, 709.5), st.floats(-300.0, -1e-3),
       st.floats(1e-300, 1.0))
@example(709.5, 2, 3, 6, 709.5, -5.0, 0.9)  # 2*s2 and N*eps would overflow
@example(-230.0, 700, 1, 1, 0.0, -5.0, 0.01)  # tau^{-(K-1)/4} = 1e350 would overflow
def test_schedule_is_exact_wherever_sigma_is_in_range(log_s2, K, B, N, log_eps, log_delta,
                                                     tau):
    # Every sigma_k in [1e-300, 1e300]: no intermediate may overflow or underflow.
    s2, eps, delta, (B, N) = math.exp(log_s2), math.exp(log_eps), 10.0 ** log_delta, \
        sorted((B, N))
    want = _log_sigmas(s2, K, B, N, eps, delta, tau)
    assume(want.min() >= math.log(1e-300) and want.max() <= math.log(1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigmas, eps_cum = noise_schedule(s2, K, B, N, eps, delta, tau)
    assert np.all(np.isfinite(sigmas))
    np.testing.assert_allclose(sigmas, np.exp(want), rtol=1e-12, atol=0)
    assert eps_cum[-1] == pytest.approx(eps, rel=1e-12)


# -- per-round epsilon ------------------------------------------------------

def test_per_round_uniform_split():
    assert _round_eps(5, 1.0) == pytest.approx(np.full(5, 1.0 / math.sqrt(5.0)), rel=1e-12)


def test_per_round_hand_case():
    # K=2, tau=1/4: eps_0 = eps*sqrt(1/3), eps_1 = eps*sqrt(1/3)*sqrt(2).
    eps_k = _round_eps(2, 0.25)
    assert eps_k[0] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
    assert eps_k[1] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)


def test_per_round_monotone_and_sums_to_budget():
    eps_k = _round_eps(30, 0.8)
    assert np.all(np.diff(eps_k) > 0)
    assert float(np.sum(eps_k**2)) == pytest.approx(EPS**2, rel=1e-9)


def test_per_round_range_check():
    # One sigma, one spend and one ledger entry per round 0..K-1.
    sigmas, eps_cum = noise_schedule(1.0, 5, 1, 1, EPS, DELTA, 0.9)
    assert sigmas.shape == eps_cum.shape == _round_eps(5, 0.9).shape == (5,)


# -- clipping ---------------------------------------------------------------

def test_clip_examples():
    v = np.array([2.0, 0.0])
    assert np.allclose(clip_update(v, 1.0), [1.0, 0.0])
    small = np.array([0.3, 0.4])
    assert np.array_equal(clip_update(small, 1.0), small)
    assert np.array_equal(clip_update(np.zeros(3), 1.0), np.zeros(3))
    # At float64's edges: a norm whose square underflows or overflows, and a
    # norm / s2 that overflows. Each row comes out at norm s2, direction kept.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clip_update([1e-170], 1e-300).tolist() == [1e-300]
        assert clip_update([1e10], 1e-300).tolist() == [1e-300]
        assert np.allclose(clip_update([[1e200, 1e200]], 1.0), 0.5**0.5, rtol=2**-50, atol=0)


def test_clip_is_projection_and_contractive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.standard_normal(8) * rng.uniform(0.1, 10)
        s2 = float(rng.uniform(0.5, 3.0))
        once = clip_update(v, s2)
        # Idempotent up to one ulp of the norm ratio.
        assert np.allclose(clip_update(once, s2), once, rtol=1e-15, atol=0)
        assert np.linalg.norm(once) <= s2 + 1e-12
        assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-12
        if np.linalg.norm(v) > s2:
            # Direction preserved.
            assert np.allclose(once / np.linalg.norm(once),
                               v / np.linalg.norm(v))


@pytest.mark.parametrize("d", [20, 100, 1000, 100_000])
def test_row_norms_equal_linalg_norm_bitwise(d):
    # The round clips all B updates at once; each row's norm, and so its
    # clipped bits, must be what np.linalg.norm gives that row alone.
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((10, d)) * 10.0 ** rng.uniform(-6, 3, (10, 1))
    norms = l2_norms(rows)
    assert norms.shape == (10,)
    assert norms.tolist() == [float(np.linalg.norm(r)) for r in rows]
    assert all(l2_norms(r) == np.linalg.norm(r) for r in rows)


def test_clip_rows_equal_clip_of_each_row():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((12, 50)) * rng.uniform(0.01, 0.5, (12, 1))
    for s2 in (0.5, 1.0, 3.0):  # some rows above the bound, some below
        clipped = clip_update(rows, s2)
        assert clipped.shape == rows.shape
        one_by_one = [r / max(1.0, float(np.linalg.norm(r)) / s2) for r in rows]
        assert np.array_equal(clipped, np.array(one_by_one))
        assert np.array_equal(clipped[3], clip_update(rows[3], s2))


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(1, 12).flatmap(lambda d: st.lists(
           st.lists(st.floats(-1e300, 1e300), min_size=d, max_size=d), min_size=1, max_size=4)),
       s2=st.floats(5e-324, 1e300))
@example(rows=[[1e-170]], s2=1e-300)  # the norm's square underflows to 0
@example(rows=[[1e10]], s2=1e-300)  # norm / s2 overflows
@example(rows=[[1e200, 1e200]], s2=1.0)  # the norm's square overflows
@example(rows=[[3e-160, 1e-160]], s2=1e-300)  # subnormal squares: an imprecise norm
@example(rows=[[1.0, 1e-9]], s2=0.1)  # one element carries almost all of the norm
@example(rows=[[2.0**-511]], s2=2.0**-600)
def test_clip_update_stays_within_its_ceiling(rows, s2):
    # The server rejects a layered upload whose scale passes clip_ceiling(s2),
    # so no honest clipped row may; and the noise is calibrated to a norm of s2,
    # which a row clipped from above must also reach. Norms are checked exactly,
    # in rationals, to 2^-50 relative plus one subnormal step (2^-1074) an
    # element: the grid a tiny s2 rounds to.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped = clip_update(np.array(rows), s2)
    assert np.max(np.abs(clipped)) <= clip_ceiling(s2)
    bound, step = Fraction(s2), Fraction(len(rows[0]) ** 0.5) / 2**1074
    hi = bound * (1 + Fraction(1, 2**50)) + step
    lo = bound * (1 - Fraction(1, 2**50)) - step
    for row, out in zip(rows, clipped):
        norm2 = sum(Fraction(x) ** 2 for x in out)
        assert norm2 <= hi**2
        if lo > 0 and sum(Fraction(x) ** 2 for x in row) > bound**2:
            assert norm2 >= lo**2


def test_median_clip_bound():
    assert median_clip_bound([1, 2, 3]) == 2
    assert median_clip_bound([1, 2, 3, 4]) == 2  # lower median
    assert median_clip_bound([5]) == 5
    assert median_clip_bound([3, 1, 4, 2]) == 2  # order-independent
    with pytest.raises(InvalidParameterError):
        median_clip_bound([])

