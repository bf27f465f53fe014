import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from gaulrq.errors import InvalidParameterError
from gaulrq.normal import inv_norm_cdf
from gaulrq.quantizers import sample_layer


def test_matches_reference_inverse_cdf():
    # scipy's ndtri is an independent oracle. The 1e-9 absolute budget is
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
    assert out.tobytes() == _one_by_one(grid).tobytes()


def _one_by_one(arr):
    """inv_norm_cdf of each element of arr as a scalar call, in arr's shape."""
    return np.array([inv_norm_cdf(float(v)) for v in np.ravel(arr)]).reshape(np.shape(arr))


def _reference(p: float) -> float:
    """Phi^-1(p) at 40 digits: Newton on mpmath's ncdf, on the lower side (1 - p is exact
    for p > 1/2, so the upper side is minus the lower quantile of 1 - p)."""
    if p > 0.5:
        return -_reference(1.0 - p)
    with mpmath.workdps(40):
        target, x = mpmath.mpf(p), mpmath.mpf(float(ndtri(p)))
        for _ in range(50):
            step = (mpmath.ncdf(x) - target) / mpmath.npdf(x)
            x -= step
            if abs(step) < mpmath.mpf(10) ** -35 * (1 + abs(x)):
                return float(x)
    raise AssertionError(f"no convergence at p={p!r}")


def _edges():
    out = []
    for edge in (0.075, 0.925):  # |p - 1/2| = 0.425: the central rational's end
        lo = hi = edge
        for _ in range(3):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
            out += [lo, hi]
        out.append(edge)
    return out


@pytest.mark.parametrize("p", [
    np.random.default_rng(7).random(1500),
    np.geomspace(2.0**-64, 0.075, 300),  # the near tail down to a 64-bit uniform's least
    np.geomspace(1e-300, 2.0**-64, 200),  # the far tail, past r = sqrt(-ln p) = 5
    1.0 - np.geomspace(2.0**-53, 0.075, 300),  # the upper tail up to 1 - 2^-53
    np.array(_edges())], ids=["random", "near-tail", "far-tail", "upper-tail", "edges"])
def test_matches_mpmath_reference(p):
    """AS241's relative error against a 40-digit reference, below 2e-15 (measured: ~7e-16)."""
    x = inv_norm_cdf(p)
    ref = np.array([_reference(float(v)) for v in p])
    nonzero = ref != 0.0
    assert np.array_equal(x == 0.0, ~nonzero)
    assert np.max(np.abs(x[nonzero] / ref[nonzero] - 1.0)) <= 2e-15


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 3, 5), (0,), (2, 0)])
def test_array_calls_equal_scalar_calls(shape):
    # Tails, both branch edges and the central region in every shape, bit for bit.
    rng = np.random.default_rng(sum(shape) + len(shape))
    pool = np.concatenate([rng.random(40), 10.0 ** -rng.uniform(0, 300, 10),
                           1.0 - 2.0 ** -rng.uniform(1, 53, 10), _edges()])
    p = rng.choice(pool, size=shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = inv_norm_cdf(p)
    if shape == ():
        assert type(out) is float
    assert np.shape(out) == shape and np.asarray(out).tobytes() == _one_by_one(p).tobytes()


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


# Edge values mixed with interior and arbitrary doubles, so that draws hit
# both sides of the domain check often.
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                     float(np.nextafter(1.0, 0.0)), 0.5]),
    st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))


def three_pass_domain_ok(arr):
    """The check the single reduction replaced: finite, then > 0, then < 1."""
    return not (arr.size and (not np.all(np.isfinite(arr))
                              or np.any(arr <= 0.0) or np.any(arr >= 1.0)))


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(PROBABILITIES, st.lists(PROBABILITIES, max_size=6)))
def test_domain_check_accepts_the_same_set(p):
    arr = np.asarray(p, dtype=np.float64)
    if three_pass_domain_ok(arr):
        assert np.asarray(inv_norm_cdf(arr)).tobytes() == _one_by_one(arr).tobytes()
    else:
        with pytest.raises(InvalidParameterError,
                           match=r"^probabilities must lie strictly inside \(0, 1\)$"):
            inv_norm_cdf(arr)


@settings(max_examples=300, deadline=None)
@given(u1=st.lists(PROBABILITIES, min_size=1, max_size=4),
       u2=st.lists(PROBABILITIES, min_size=1, max_size=4))
def test_sample_layer_domain_check_accepts_the_same_set(u1, u2):
    u1, u2 = np.asarray(u1), np.asarray(u2)
    if u1.size != u2.size:
        u2 = np.resize(u2, u1.shape)
    if three_pass_domain_ok(u1) and three_pass_domain_ok(u2):
        with np.errstate(divide="ignore"):  # y rounded to 0 or 1: an infinite end
            sample_layer(1.0, (u1, u2))
    else:
        with pytest.raises(InvalidParameterError,
                           match=r"^uniforms must lie strictly inside \(0, 1\)$"):
            sample_layer(1.0, (u1, u2))
