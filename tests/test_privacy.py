import math

import numpy as np
import pytest

from gaulrq.errors import InvalidParameterError
from gaulrq.privacy import (PrivacyBudget, SigmaSchedule,
                            clip_update, epsilon_from_sigmas, l2_norms,
                            median_clip_bound, per_round_epsilon, sigma_fixed,
                            sigma_schedule_dynamic)

BUDGET = PrivacyBudget(1.0, 1e-5)


# -- sigma_fixed ------------------------------------------------------------

def test_sigma_fixed_closed_form():
    got = sigma_fixed(1.0, 100, 10, 100, BUDGET)
    assert got == pytest.approx(2.0 * math.sqrt(1000.0 * math.log(1e5)) / 100.0,
                                rel=1e-12)


def test_sigma_fixed_scalings():
    base = sigma_fixed(1.0, 100, 10, 100, BUDGET)
    assert sigma_fixed(1.0, 100, 10, 100, PrivacyBudget(2.0, 1e-5)) == \
        pytest.approx(base / 2.0, rel=1e-12)
    assert sigma_fixed(1.0, 400, 10, 100, BUDGET) == pytest.approx(2.0 * base,
                                                                   rel=1e-12)


def test_sigma_fixed_validation():
    with pytest.raises(InvalidParameterError):
        sigma_fixed(1.0, 10, 20, 10, BUDGET)   # B > N
    with pytest.raises(InvalidParameterError):
        sigma_fixed(0.0, 10, 5, 10, BUDGET)
    with pytest.raises(InvalidParameterError):
        PrivacyBudget(0.0, 1e-5)
    with pytest.raises(InvalidParameterError):
        PrivacyBudget(1.0, 1.0)


# -- dynamic schedule -------------------------------------------------------

def test_schedule_tau_one_equals_fixed_exactly():
    sched = sigma_schedule_dynamic(1.5, 20, 4, 50, BUDGET, 1.0)
    value = sigma_fixed(1.5, 20, 4, 50, BUDGET)
    assert np.all(sched.sigmas == value)


def test_schedule_two_round_hand_case():
    # tau=1/4, K=2: sum tau^{-i/2} = 1 + 2 = 3, so sigma_0^2 = 3C and
    # sigma_1^2 = 3C * tau^{1/2} = 1.5C.
    s2, K, B, N = 2.0, 2, 3, 7
    C = 4.0 * s2**2 * B * math.log(1e5) / (N * BUDGET.epsilon) ** 2
    sched = sigma_schedule_dynamic(s2, K, B, N, BUDGET, 0.25)
    assert sched.sigmas[0] ** 2 == pytest.approx(3.0 * C, rel=1e-12)
    assert sched.sigmas[1] ** 2 == pytest.approx(1.5 * C, rel=1e-12)


def test_schedule_strictly_decreasing():
    sched = sigma_schedule_dynamic(1.0, 50, 10, 100, BUDGET, 0.9)
    assert np.all(np.diff(sched.sigmas) < 0)


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        sigma_schedule_dynamic(1.0, 10, 5, 20, BUDGET, 0.0)
    with pytest.raises(InvalidParameterError):
        sigma_schedule_dynamic(1.0, 10, 5, 20, BUDGET, 1.5)
    with pytest.raises(InvalidParameterError):
        SigmaSchedule(sigmas=np.array([1.0, -1.0]))


# -- epsilon round trip -----------------------------------------------------

def test_constant_schedule_epsilon():
    s2, K, B, N, sigma = 1.0, 25, 5, 40, 0.7
    got = epsilon_from_sigmas(s2, B, N, 1e-5, np.full(K, sigma))
    want = 2.0 * s2 * math.sqrt(K * B * math.log(1e5)) / (N * sigma)
    assert got == pytest.approx(want, rel=1e-12)


def test_single_round_epsilon():
    got = epsilon_from_sigmas(1.0, 5, 40, 1e-5, [0.7])
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
        budget = PrivacyBudget(eps, delta)
        sched = sigma_schedule_dynamic(s2, K, B, N, budget, tau)
        back = epsilon_from_sigmas(s2, B, N, delta, sched.sigmas)
        assert back == pytest.approx(eps, rel=1e-9)


def test_epsilon_from_sigmas_validation():
    with pytest.raises(InvalidParameterError):
        epsilon_from_sigmas(1.0, 5, 10, 1e-5, [])
    with pytest.raises(InvalidParameterError):
        epsilon_from_sigmas(1.0, 5, 10, 1e-5, [1.0, 0.0])


# -- per-round epsilon ------------------------------------------------------

def test_per_round_uniform_split():
    for k in range(5):
        assert per_round_epsilon(k, 5, 1.0, BUDGET) == \
            pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)


def test_per_round_hand_case():
    # K=2, tau=1/4: eps_0 = eps*sqrt(1/3), eps_1 = eps*sqrt(1/3)*sqrt(2).
    assert per_round_epsilon(0, 2, 0.25, BUDGET) == \
        pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
    assert per_round_epsilon(1, 2, 0.25, BUDGET) == \
        pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)


def test_per_round_monotone_and_sums_to_budget():
    K, tau = 30, 0.8
    eps_k = np.array([per_round_epsilon(k, K, tau, BUDGET) for k in range(K)])
    assert np.all(np.diff(eps_k) > 0)
    assert float(np.sum(eps_k**2)) == pytest.approx(BUDGET.epsilon**2, rel=1e-9)


def test_per_round_range_check():
    with pytest.raises(InvalidParameterError):
        per_round_epsilon(5, 5, 0.9, BUDGET)


# -- clipping ---------------------------------------------------------------

def test_clip_examples():
    v = np.array([2.0, 0.0])
    assert np.allclose(clip_update(v, 1.0), [1.0, 0.0])
    small = np.array([0.3, 0.4])
    assert np.array_equal(clip_update(small, 1.0), small)
    assert np.array_equal(clip_update(np.zeros(3), 1.0), np.zeros(3))


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


def test_median_clip_bound():
    assert median_clip_bound([1, 2, 3]) == 2
    assert median_clip_bound([1, 2, 3, 4]) == 2  # lower median
    assert median_clip_bound([5]) == 5
    assert median_clip_bound([3, 1, 4, 2]) == 2  # order-independent
    with pytest.raises(InvalidParameterError):
        median_clip_bound([])

