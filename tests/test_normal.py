import numpy as np
import pytest
from scipy.special import ndtri

from gaulrq.errors import InvalidParameterError
from gaulrq.normal import inv_norm_cdf


def test_matches_reference_inverse_cdf():
    # scipy's ndtri is the independent oracle. The 1e-9 absolute budget is
    # checked over the full range a 64-bit uniform stream can produce
    # (p down to ~5.4e-20); more extreme tails are exercised separately.
    p = np.concatenate([
        np.linspace(1e-12, 1.0 - 1e-12, 20001),
        np.geomspace(2.0**-64, 1e-2, 500),
        1.0 - np.geomspace(1e-16, 1e-2, 500),
    ])
    err = np.abs(inv_norm_cdf(p) - ndtri(p))
    assert float(np.max(err)) < 1e-9


def test_extreme_tail_stays_accurate_relatively():
    p = np.geomspace(1e-300, 1e-20, 300)
    rel = np.abs(inv_norm_cdf(p) / ndtri(p) - 1.0)
    assert float(np.max(rel)) < 1e-8


def test_random_uniforms_match_reference():
    rng = np.random.default_rng(1234)
    p = rng.random(100000)
    p = p[(p > 0) & (p < 1)]
    assert np.max(np.abs(inv_norm_cdf(p) - ndtri(p))) < 1e-9
    grid = p[:12].reshape(3, 4)
    out = inv_norm_cdf(grid)
    assert out.shape == (3, 4)
    assert np.array_equal(out, ndtri(grid))


def test_scalar_in_scalar_out():
    out = inv_norm_cdf(0.975)
    assert isinstance(out, float)
    assert out == pytest.approx(1.959963984540054, abs=1e-9)
    zero_d = inv_norm_cdf(np.float64(0.975))
    assert type(zero_d) is float and zero_d == out
    assert type(inv_norm_cdf(np.array(0.975))) is float


def test_median_is_zero():
    assert inv_norm_cdf(0.5) == pytest.approx(0.0, abs=1e-12)


def test_symmetry():
    p = np.linspace(0.001, 0.499, 200)
    assert np.allclose(inv_norm_cdf(p), -np.asarray(inv_norm_cdf(1.0 - p)), atol=1e-9)


def test_monotone():
    p = np.linspace(1e-6, 1.0 - 1e-6, 5000)
    x = np.asarray(inv_norm_cdf(p))
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, np.nan, np.inf, -np.inf])
def test_rejects_out_of_domain(p):
    with pytest.raises(InvalidParameterError):
        inv_norm_cdf(p)


def test_rejects_out_of_domain_array():
    with pytest.raises(InvalidParameterError):
        inv_norm_cdf(np.array([0.5, 1.0]))
