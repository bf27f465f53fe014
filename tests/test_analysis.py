import math

import numpy as np
import pytest
from scipy.stats import norm

from gaulrq.analysis import (BoundInputs, am_qm_factor, bound_bq,
                             bound_dynamic, bound_gau_lrq, bound_lsgd,
                             bound_qg, comm_cost, full_precision_cost,
                             ks_statistic)
from gaulrq.errors import InvalidParameterError
from gaulrq.quantizers import MIN_STEP_FACTOR, bit_width


def _inputs(**kw):
    base = dict(F_gap=1.0, eta=0.01, Q=5, K=50, B=10, N=100, d=20,
                alpha2=0.1, nu=2.0, S2=1.0, epsilon=1.0, delta=1e-5,
                tau=0.9, delta_inf_norm=0.5)
    base.update(kw)
    return BoundInputs(**base)


def _lsgd_oracle(F_gap, eta, Q, K, B, alpha2, tau):
    # Independent re-derivation with plain math, term by term.
    s = sum(tau ** (-k) for k in range(K))
    gap = 2.0 * F_gap / (Q * eta * s)
    var = (Q * alpha2 / B) * ((2 * Q - 1) * (Q - 1) / (6.0 * Q) + 1.0)
    return gap + var


# -- baseline bound ---------------------------------------------------------

def test_lsgd_q1_simplifies():
    inp = _inputs(Q=1)
    s = sum(0.9 ** (-k) for k in range(50))
    assert bound_lsgd(inp) == pytest.approx(2.0 / (0.01 * s) + 0.1 / 10, rel=1e-12)


def test_lsgd_vanishes_without_variance_as_rounds_grow():
    small_k = bound_lsgd(_inputs(alpha2=0.0, K=10, tau=0.5))
    large_k = bound_lsgd(_inputs(alpha2=0.0, K=100, tau=0.5))
    assert large_k < small_k
    assert large_k < 1e-25


def test_lsgd_numeric_instance():
    inp = _inputs()
    assert bound_lsgd(inp) == pytest.approx(
        _lsgd_oracle(1.0, 0.01, 5, 50, 10, 0.1, 0.9), rel=1e-12)


# -- privacy bounds ---------------------------------------------------------

def test_gau_lrq_reduces_to_lsgd_at_huge_epsilon():
    inp = _inputs(epsilon=1e12)
    assert bound_gau_lrq(inp) == pytest.approx(bound_lsgd(inp), rel=1e-9)


def test_privacy_term_epsilon_scaling():
    gap_full = bound_gau_lrq(_inputs()) - bound_lsgd(_inputs())
    gap_half = bound_gau_lrq(_inputs(epsilon=0.5)) - bound_lsgd(_inputs(epsilon=0.5))
    assert gap_half == pytest.approx(4.0 * gap_full, rel=1e-9)


def test_gau_lrq_numeric_instance():
    inp = _inputs()
    privacy = 4.0 * 20 * 1.0 * 50 * math.log(1e5) / (0.01**2 * 5 * 100**2 * 1.0)
    assert bound_gau_lrq(inp) == pytest.approx(bound_lsgd(inp) + privacy, rel=1e-12)


def test_am_qm_examples():
    assert am_qm_factor(1.0, 10) == pytest.approx(1.0)
    assert am_qm_factor(0.5, 1) == pytest.approx(1.0)
    # K=2, tau=1/4: terms {1, 2}; AM^2/QM^2 = 2.25/2.5.
    assert am_qm_factor(0.25, 2) == pytest.approx(0.9, rel=1e-12)


def test_am_qm_range_and_monotone_in_k():
    vals = [am_qm_factor(0.8, k) for k in range(1, 201)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_dynamic_bound_relations():
    inp = _inputs(tau=1.0)
    assert bound_dynamic(inp) == pytest.approx(bound_gau_lrq(inp), rel=1e-12)
    inp2 = _inputs(tau=0.9)
    assert bound_dynamic(inp2) < bound_gau_lrq(inp2)


def test_qg_numeric_instance():
    inp = _inputs()
    common = 20 * 1.0 * 50 * math.log(1e5) / (0.01**2 * 5 * 100**2 * 1.0)
    coupling = (32 * math.log(2) * 20 * 1.0 * 50**2 * 10 * math.log(1e5) ** 2
                / (100**4 * 1.0 * 0.5**2 * 0.01**2 * 5))
    want = bound_gau_lrq(inp) + 8 * math.log(2) * common + coupling
    assert bound_qg(inp) == pytest.approx(want, rel=1e-12)


def test_qg_coupling_vanishes_with_large_inf_norm():
    gap = bound_qg(_inputs(delta_inf_norm=1e9)) - bound_gau_lrq(_inputs(delta_inf_norm=1e9))
    quant_only = 8 * math.log(2) * 20 * 50 * math.log(1e5) / (0.01**2 * 5 * 100**2)
    assert gap == pytest.approx(quant_only, rel=1e-6)


def test_bq_numeric_and_dimension_scaling():
    inp = _inputs()
    privacy = 20.0 * 20**2 * 1.0 * 50 / (0.01**2 * 5 * 100**2 * 1.0 * 1e-10)
    quant = 2 * math.log(2) * 20 * 1.0 * 50 * math.log(1e5) / (0.01**2 * 5 * 100**2)
    assert bound_bq(inp) == pytest.approx(bound_lsgd(inp) + privacy + quant,
                                          rel=1e-12)
    # Doubling d quadruples the BQ privacy term but doubles the Gau-LRQ one.
    bq_term = lambda d: bound_bq(_inputs(d=d)) - bound_lsgd(_inputs(d=d)) \
        - 2 * math.log(2) * d * 50 * math.log(1e5) / (0.01**2 * 5 * 100**2)
    lrq_term = lambda d: bound_gau_lrq(_inputs(d=d)) - bound_lsgd(_inputs(d=d))
    assert bq_term(40) == pytest.approx(4.0 * bq_term(20), rel=1e-9)
    assert lrq_term(40) == pytest.approx(2.0 * lrq_term(20), rel=1e-9)


def test_orderings_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        inp = _inputs(eta=float(rng.uniform(0.001, 0.1)),
                      Q=int(rng.integers(1, 10)),
                      K=int(rng.integers(1, 100)),
                      d=int(rng.integers(1, 100)),
                      epsilon=float(rng.uniform(0.1, 10)),
                      tau=float(rng.uniform(0.5, 1.0)),
                      delta_inf_norm=float(rng.uniform(0.01, 2.0)))
        a, b, c = bound_dynamic(inp), bound_gau_lrq(inp), bound_qg(inp)
        assert a <= b <= c
        if inp.tau < 1.0 and inp.K > 1:
            assert a < b
        assert b < c  # finite epsilon always adds positive terms


def test_monotonicity_signs():
    base = _inputs()
    assert bound_gau_lrq(_inputs(epsilon=2.0)) < bound_gau_lrq(base)
    assert bound_gau_lrq(_inputs(d=40)) > bound_gau_lrq(base)
    assert bound_gau_lrq(_inputs(S2=2.0)) > bound_gau_lrq(base)
    priv = lambda i: bound_gau_lrq(i) - bound_lsgd(i)
    assert priv(_inputs(K=100)) > priv(base)


def test_step_size_condition():
    assert _inputs(eta=0.01, nu=2.0, Q=5).step_size_ok()
    assert not _inputs(eta=0.4, nu=3.0, Q=5).step_size_ok()
    assert not _inputs(eta=0.9, nu=2.0, Q=1).step_size_ok()  # eta > 1/nu


def test_bound_inputs_validation():
    with pytest.raises(InvalidParameterError):
        _inputs(eta=0.0)
    with pytest.raises(InvalidParameterError):
        _inputs(tau=1.5)
    with pytest.raises(InvalidParameterError):
        _inputs(B=200)


# -- communication cost -----------------------------------------------------

def test_comm_cost_trivial():
    # One client, one round, per-element width 2 at d=4 -> 8 bits.
    sigma = 0.5
    a = 3.0 * MIN_STEP_FACTOR * sigma / 2.0   # range 2a -> ratio 3 -> 2 bits
    assert bit_width(a, sigma) == 2
    assert comm_cost(4, [[a]], [sigma]) == 8


def test_comm_cost_zero_norm_floors_at_one_bit():
    assert comm_cost(5, [[0.0]], [1.0]) == 5


def test_comm_cost_tau_one_schedule_matches_fixed():
    norms = [[0.4, 0.7], [0.3, 0.9]]
    fixed = comm_cost(6, norms, [0.8, 0.8])
    dynamic = comm_cost(6, norms, np.full(2, 0.8))
    assert fixed == dynamic


def test_comm_cost_length_mismatch():
    with pytest.raises(InvalidParameterError):
        comm_cost(4, [[0.5]], [1.0, 2.0])


def test_full_precision_cost():
    assert full_precision_cost(50, 10, 20) == 50 * 10 * 20 * 32
    assert full_precision_cost(2, 3, 4, b_init=16) == 2 * 3 * 4 * 16


# -- KS statistic -----------------------------------------------------------

def test_ks_accepts_matching_distribution():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(100000)
        stat, reject = ks_statistic(x, norm.cdf)
        assert not reject


def test_ks_rejects_gross_mismatch():
    rng = np.random.default_rng(0)
    x = rng.random(10000)
    stat, reject = ks_statistic(x, norm.cdf)
    assert reject


def test_ks_needs_enough_samples():
    with pytest.raises(InvalidParameterError):
        ks_statistic(np.zeros(10), norm.cdf)
    with pytest.raises(InvalidParameterError):
        ks_statistic([], norm.cdf)
