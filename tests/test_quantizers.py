import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import erfc, ndtri

from gaulrq.analysis import ks_statistic

from gaulrq.errors import InvalidParameterError
from gaulrq.normal import inv_norm_cdf
from gaulrq.quantizers import (MAX_BITS, MAX_SIGMA, MIN_STEP_FACTOR, LayerSample, _layer_at,
                               bit_width, dithered_decode, dithered_encode,
                               lrq_decode, lrq_encode, lrq_quantize_rows,
                               lrq_quantize_vector, lrq_reconstruct_rows,
                               lrq_reconstruct_vector, sample_layer,
                               stochastic_dequantize, stochastic_round)
from gaulrq.streams import SeedMaterial, element_pairs, uniform_pair_block

SEED = SeedMaterial(7, "quantizer-tests")


def _pairs(n, client=0, rnd=0):
    return uniform_pair_block(SEED, client, rnd, np.arange(n, dtype=np.uint64), 0)


def _layers(n, sigma, client=0, rnd=0):
    return sample_layer(sigma, _pairs(n, client, rnd))


def _height(u):
    """The layer height of uniforms u by scipy's quantile: u2 * exp(-x^2/2), flipped if x < 0."""
    t = ndtri(u[0])
    y0 = u[1] * np.exp(-0.5 * t * t)
    return np.where(t >= 0.0, y0, 1.0 - y0)


# -- sample_layer -----------------------------------------------------------

def test_minimum_step_at_center():
    # u1 = u2 = 1/2 forces x = 0, y = 1/2: the minimum-step layer.
    layer = sample_layer(1.0, (0.5, 0.5))
    root = math.sqrt(2.0 * math.log(2.0))
    assert layer.x == pytest.approx(0.0, abs=1e-9)
    assert layer.R == pytest.approx(-layer.L, rel=1e-15)  # both ends at height 1/2
    assert layer.L == pytest.approx(-root, abs=1e-9)
    assert layer.R == pytest.approx(root, abs=1e-9)
    assert layer.q_step == pytest.approx(2.0 * root, abs=1e-9)
    assert layer.q_step == pytest.approx(2.35482, abs=1e-5)


def test_layer_formulas_against_reference():
    # Independent recomputation with scipy's quantile function.
    sigma = 2.0
    layer = sample_layer(sigma, (0.75, 0.5))
    x = sigma * ndtri(0.75)
    y = math.exp(-0.5 * (x / sigma) ** 2) * 0.5
    assert layer.x == pytest.approx(x, abs=1e-9)
    assert layer.q_step == pytest.approx(
        sigma * (math.sqrt(-2.0 * math.log(y)) + math.sqrt(-2.0 * math.log1p(-y))), rel=1e-12)
    assert layer.L == pytest.approx(-sigma * math.sqrt(-2.0 * math.log(1.0 - y)), abs=1e-9)
    assert layer.R == pytest.approx(sigma * math.sqrt(-2.0 * math.log(y)), abs=1e-9)


def test_layer_invariants_bulk():
    for sigma in (0.5, 1.0, 3.0):
        u = _pairs(100000)
        layer, y = sample_layer(sigma, u), _height(u)
        assert np.all(layer.L < 0) and np.all(layer.R > 0)
        assert np.all(layer.x >= layer.L) and np.all(layer.x <= layer.R)
        assert np.all(layer.q_step >= MIN_STEP_FACTOR * sigma - 1e-12)
        assert np.allclose(layer.L, -sigma * np.sqrt(-2.0 * np.log1p(-y)))
        assert np.allclose(layer.R, sigma * np.sqrt(-2.0 * np.log(y)))


def test_x_marginal_is_gaussian():
    sigma = 1.5
    layer = _layers(1000000, sigma)
    assert abs(float(np.mean(layer.x))) < 5.0 * sigma / 1000.0
    assert abs(float(np.var(layer.x)) / sigma**2 - 1.0) < 0.01


@pytest.mark.parametrize("sigma", [
    0.0, -1.0, np.inf, np.nan,
    # One real number and nothing else: not a 0-d, 1-element or longer array, a nested list,
    # a string, None or a bool.
    np.array(1.0), np.ones(1), np.array([1.0, 2.0]), [[1.0]], "1.0", None, True],
    ids=repr)
def test_sample_layer_rejects_bad_sigma(sigma):
    with pytest.raises(InvalidParameterError, match="sigma must lie in"):
        sample_layer(sigma, (0.5, 0.5))
    with pytest.raises(InvalidParameterError, match="sigma must lie in"):
        bit_width(0.25, sigma)


@pytest.mark.parametrize("u", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_sample_layer_rejects_boundary_uniforms(u):
    with pytest.raises(InvalidParameterError):
        sample_layer(1.0, u)


@pytest.mark.parametrize("sigma,u", [
    (1.0, (np.full(3, 0.3), np.full((2, 3), 0.4))),
    (1.0, (0.3, np.full(3, 0.4))),
    (np.array([1.0, 2.0]), (0.3, 0.4)),
    (np.ones((2, 1)), (np.full(3, 0.3), np.full(3, 0.4))),
    (np.ones((1, 1, 3)), (np.full((2, 3), 0.3), np.full((2, 3), 0.4))),
    (np.ones(2), (np.full((2, 3), 0.3), np.full((2, 3), 0.4)))])
def test_sample_layer_rejects_mismatched_shapes(sigma, u):
    # The uniforms share one shape. sigma is one number: an array of any shape is refused
    # as a sigma before the shapes are compared.
    with pytest.raises(InvalidParameterError,
                       match="shape" if np.ndim(sigma) == 0 else "sigma must lie in"):
        sample_layer(sigma, u)


# Uniforms at the PRF's least (2^-64), the least double and the greatest double below 1.
_EDGE_UNIFORMS = (2.0**-64, 5e-324, 1.0 - 2.0**-53, 0.5)
_LOG2_SIGMA = (-1074.0, math.log2(MAX_SIGMA))  # 5e-324 = 2^-1074


@settings(max_examples=150, deadline=None)
@given(e=st.floats(*_LOG2_SIGMA),
       u=st.lists(st.tuples(*[st.one_of(st.sampled_from(_EDGE_UNIFORMS),
                                          st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
                              ] * 2), min_size=1, max_size=8))
@example(e=_LOG2_SIGMA[0], u=[(0.5, 0.5)])
@example(e=_LOG2_SIGMA[1], u=[(0.5, 0.5)])
def test_layer_at_sigma_is_the_unit_layer_scaled(e, u):
    # sigma log-uniform over [5e-324, MAX_SIGMA], with both ends; every example also takes
    # the grid of edge uniforms. x, R and q_step, all the round's layer holds, are compared
    # byte for byte, so -0.0 and +0.0 differ, and are read-only.
    sigma = min(max(2.0**e, 5e-324), MAX_SIGMA)
    grid = [(a, b) for a in _EDGE_UNIFORMS for b in _EDGE_UNIFORMS]
    u1, u2 = (np.array(col) for col in zip(*(u + grid)))
    unit, want = sample_layer(1.0, (u1, u2)), sample_layer(sigma, (u1, u2))
    got = _layer_at(sigma, (unit.x, unit.L, unit.R))
    assert got.L is None
    for name in ("x", "R", "q_step"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert not getattr(got, name).flags.writeable, name


def test_sample_layer_rejects_sigma_above_ceiling():
    # At 1e308, x = sigma * Phi^-1(u) alone overflows for |Phi^-1(u)| > 1.8.
    for sigma in (1e308, float(np.nextafter(MAX_SIGMA, np.inf))):
        with pytest.raises(InvalidParameterError, match="sigma must lie in"):
            sample_layer(sigma, (0.5, 0.5))
        with pytest.raises(InvalidParameterError, match="sigma must lie in"):
            bit_width(0.25, sigma)


def test_layer_and_decode_stay_finite_at_sigma_ceiling():
    # The extreme doubles in (0, 1) give the largest |x|, R, -L and step.
    tiny, top = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    u1, u2 = np.meshgrid([tiny, 1e-300, 0.5, top], [tiny, 1e-300, 0.5, top])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow anywhere
        layer = sample_layer(MAX_SIGMA, (u1.ravel(), u2.ravel()))
        # u1 = u2 = 5e-324 gives the widest step, about 54.5 sigma: y0
        # underflows to 0 and L comes from ln y0 = -(x/sigma)^2/2 + ln u2.
        assert np.max(layer.q_step) > 54.4 * MAX_SIGMA
        for field in (layer.x, layer.L, layer.R, layer.q_step):
            assert np.all(np.isfinite(field))
        for m in (-(2**MAX_BITS), 2**MAX_BITS):
            assert np.all(np.isfinite(lrq_decode(np.full(u1.size, m), layer)))
        assert bit_width(1.0, MAX_SIGMA) == 1


def test_layer_ends_where_y_rounds_to_0_or_1():
    # x < 0 with 1 - y0 rounding to 1, and x >= 0 with y0 underflowing to 0: the end
    # on x's side is sigma * sqrt(-2 ln y0), and the other sigma * sqrt(-2 ln(1 - y0)).
    flipped = sample_layer(1.0, (0.3, 1e-17))
    x = float(ndtri(0.3))
    y0 = math.exp(-0.5 * x * x) * 1e-17
    assert flipped.L == pytest.approx(-math.sqrt(-2.0 * math.log(y0)))
    assert flipped.R == pytest.approx(math.sqrt(-2.0 * math.log1p(-y0)), rel=1e-12)
    assert lrq_decode(lrq_encode(0.1, flipped), flipped) == pytest.approx(x)
    tiny = float(np.nextafter(0.0, 1.0))
    upper = sample_layer(2.0, (0.9, tiny))
    x = float(ndtri(0.9))
    # y0 is subnormal, which only uniforms below 2^-64 make: the end across from x is
    # below 2.2e-154 sigma.
    assert -2.2e-154 * 2.0 < upper.L <= 0.0 and upper.q_step == upper.R
    assert upper.R == pytest.approx(2.0 * math.sqrt(x * x - 2.0 * math.log(tiny)))


def _relative_errors(u1, u2, sigma):
    """(n, 3) relative errors of sample_layer's L, R and q_step against 50-digit ends
    taken from its own t = Phi^-1(u1) and u2."""
    layer = sample_layer(sigma, (u1, u2))
    errors = []
    with mp.workdps(50):
        for t, v, *got in zip(inv_norm_cdf(u1).tolist(), u2.tolist(), layer.L.tolist(),
                              layer.R.tolist(), layer.q_step.tolist()):
            h = mp.log(v) - mp.mpf(t) ** 2 / 2
            far, near = sigma * mp.sqrt(-2 * h), sigma * mp.sqrt(-2 * mp.log1p(-mp.exp(h)))
            want = (-near, far, far + near) if t >= 0 else (-far, near, far + near)
            errors.append([float(abs(g - w) / abs(w)) for g, w in zip(got, want)])
    return np.array(errors)


def test_layer_ends_match_mpmath():
    # Both tails and a random sample of one PRF draw, and 1 - y0 in [1e-15, 1e-9]:
    # each end and the step within 2e-15 relative.
    u1, u2 = element_pairs(SeedMaterial(3, "layer-ends"), 0, 0, 2_000_000)
    order = np.argsort(np.log(u2) - 0.5 * inv_norm_cdf(u1) ** 2)
    picks = np.concatenate([order[:500], order[-500:],
                            np.random.default_rng(5).choice(u1.size, 500, replace=False)])
    assert _relative_errors(u1[picks], u2[picks], 1.0).max() <= 2e-15
    gap = np.logspace(-15, -9, 500)  # at t = +-2.5e-9, whose t^2/2 is below 4e-18
    assert _relative_errors(np.resize([0.5 - 1e-9, 0.5 + 1e-9], gap.size), 1.0 - gap,
                            1.0).max() <= 2e-15
    # The sigma ceiling's extreme doubles, wherever y0 is a normal double. Past the PRF's
    # |t| <= 9.1 (u1 = 1e-300 gives |t| = 37), the double t^2 alone moves y0 = u2 e^(-t^2/2)
    # by up to t^2 eps / 4, and the end on the other side of x by half that.
    tiny, top = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    g1, g2 = (a.ravel() for a in np.meshgrid([tiny, 1e-300, 0.5, top], [tiny, 1e-300, 0.5, top]))
    t = inv_norm_cdf(g1)
    normal = np.log(g2) - 0.5 * t * t > np.log(np.finfo(float).tiny)
    t, err = t[normal], _relative_errors(g1[normal], g2[normal], MAX_SIGMA)
    near, rows = (t < 0.0).astype(int), np.arange(t.size)  # column of the end across from x
    assert np.all(err[rows, 1 - near] <= 2e-15) and np.all(err[:, 2] <= 2e-15)
    assert np.all(err[rows, near] <= 2e-15 + t * t * np.finfo(float).eps / 8)


def test_sample_layer_peak_memory():
    # x, L, R and q_step are the result; the work fits in half a float64 an element more.
    u = element_pairs(SeedMaterial(1, "layer-memory"), 0, 0, 10**6)
    tracemalloc.start()
    try:
        sample_layer(1.0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * 10**6


_OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(u1=_OPEN_UNIT, u2=_OPEN_UNIT,
       values=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
def test_layer_finite_for_any_uniform_pair(u1, u2, values):
    layer = sample_layer(1.0, (u1, u2))
    for field in (layer.L, layer.R, layer.q_step):
        assert np.isfinite(field)
    # The minimum step, at x = 0 and y = 1/2, within rounding of its two logs.
    assert layer.q_step >= MIN_STEP_FACTOR * (1.0 - 1e-15)
    v = np.array(values)
    err = lrq_decode(lrq_encode(v, layer), layer) - v
    # (L, R] exactly in real arithmetic; encode's division and decode's
    # product each round, so an input on a cell edge may land an ulp outside.
    slack = 4 * np.finfo(float).eps * (np.abs(v) + abs(layer.x) + layer.q_step)
    assert np.all((err > layer.L - slack) & (err <= layer.R + slack))


def test_determinism():
    a = sample_layer(0.7, (0.123, 0.456))
    b = sample_layer(0.7, (0.123, 0.456))
    assert (a.x, a.L, a.R, a.q_step) == (b.x, b.L, b.R, b.q_step)


# -- encode / decode --------------------------------------------------------

_MANUAL = LayerSample(x=0.3, L=-1.0, R=1.0, q_step=2.0)


def test_encode_examples():
    assert lrq_encode(0.0, _MANUAL) == 0      # floor(0.35)
    assert lrq_encode(5.0, _MANUAL) == 2      # floor(5.7/2)
    zero_x = LayerSample(x=0.0, L=-1.0, R=1.0, q_step=2.0)
    assert lrq_encode(-0.9999, zero_x) == 0   # floor(0.00005)


def test_decode_examples():
    assert lrq_decode(0, _MANUAL) == pytest.approx(0.3)
    assert lrq_decode(2, _MANUAL) == pytest.approx(4.3)
    # Noise for u=5 is -0.7, inside (L, R].
    assert -1.0 < lrq_decode(2, _MANUAL) - 5.0 <= 1.0


def test_encode_rejects_nonfinite():
    for u in (np.nan, np.inf, -np.inf, [0.5, np.nan], [[np.inf, 1.0]]):
        with pytest.raises(InvalidParameterError, match="finite"):
            lrq_encode(u, _MANUAL)


def test_round_trip_error_in_layer_interval():
    # Brute-force scan: every input's reconstruction error lies in (L, R].
    layer = _layers(4096, 0.8, rnd=1)
    u = np.linspace(-3.0, 3.0, 4096)
    err = lrq_decode(lrq_encode(u, layer), layer) - u
    assert np.all(err > layer.L) and np.all(err <= layer.R)


def test_step_equality_only_at_half():
    u = _pairs(100000, rnd=2)
    gap = sample_layer(1.0, u).q_step - MIN_STEP_FACTOR
    assert np.all(gap[np.abs(_height(u) - 0.5) > 1e-3] > 0)


# -- bit_width --------------------------------------------------------------

def test_bit_width_examples():
    sigma = 0.3
    unit = MIN_STEP_FACTOR * sigma
    assert bit_width(0.5 * unit, sigma) == 1         # ratio 1 -> log2(2)
    assert bit_width(1.5 * unit, sigma) == 2         # ratio 3 -> log2(4)
    expected = math.ceil(math.log2(2.0 / (MIN_STEP_FACTOR * 0.1) + 1.0))
    assert bit_width(1.0, 0.1) == expected
    assert bit_width(0.0, sigma) == 1


def test_bit_width_monotone():
    widths_sigma = [bit_width(1, s) for s in (0.05, 0.1, 0.2, 0.5, 1.0)]
    assert widths_sigma == sorted(widths_sigma, reverse=True)
    widths_range = [bit_width(a, 0.1) for a in (0.5, 1.0, 2.0, 4.0)]
    assert widths_range == sorted(widths_range)


def test_bit_width_floor_and_errors():
    assert bit_width(5e-7, 10.0) == 1
    for scale in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            bit_width(scale, 0.1)
    with pytest.raises(InvalidParameterError):
        bit_width(1.0, 0.0)


def test_bit_width_cap():
    # 3 * 2^(MAX_BITS-2) levels need MAX_BITS bits; 3 * 2^(MAX_BITS-1) one more.
    assert bit_width(1.5 * 2.0**(MAX_BITS - 2) * MIN_STEP_FACTOR, 1.0) == MAX_BITS
    for scale, sigma in ((1.5 * 2.0**(MAX_BITS - 1) * MIN_STEP_FACTOR, 1.0),
                         (1.0, 1e-22),          # 73 bits
                         (1e300, 1e-300)):      # infinitely many levels
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the typed error alone, no RuntimeWarning
            with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
                bit_width(scale, sigma)


def test_row_scales_and_widths_match_the_scalar_calls():
    rng = np.random.default_rng(5)
    a = np.abs(rng.standard_normal(500)) * 10.0 ** rng.uniform(-30, 30, 500)
    a[:3] = (0.0, 0.5, 0.1)
    b = a[a < 1e6]
    widths = bit_width(b, 1e-3)
    assert widths.dtype == np.int64 and widths.tolist() == [bit_width(x, 1e-3) for x in b]
    with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
        bit_width(a, 1e-3)
    with pytest.raises(InvalidParameterError, match="scale"):
        bit_width(np.array([0.5, np.nan]), 1.0)


# -- vector codec -----------------------------------------------------------

def test_quantize_zero_vector():
    uniforms = element_pairs(SEED, 0, 10, 3)
    enc = lrq_quantize_vector(np.zeros(3), 1.0, uniforms)
    assert enc.dim == 3 and enc.bits_per_element == 1
    out = lrq_reconstruct_vector(enc, 1.0, uniforms)
    assert out.shape == (3,) and np.all(np.isfinite(out))


def test_quantize_dim_mismatch():
    uniforms = element_pairs(SEED, 0, 10, 2)
    with pytest.raises(InvalidParameterError, match="need one uniform pair per element"):
        lrq_quantize_vector(np.zeros(3), 1.0, uniforms)


def test_quantize_bit_width_example():
    sigma = 1.0 / (3.0 * math.sqrt(2.0 * math.log(2.0)))
    v = np.array([1.0, -0.2, 0.4])
    uniforms = element_pairs(SEED, 0, 11, 3)
    enc = lrq_quantize_vector(v, sigma, uniforms)
    assert enc.bits_per_element == 2


def test_quantize_rejects_width_above_cap():
    # sigma=1e-22 on a unit vector would need 73-bit indices.
    uniforms = element_pairs(SEED, 0, 14, 2)
    with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
        lrq_quantize_vector(np.array([1.0, -0.5]), 1e-22, uniforms)


def test_error_law_holds_at_width_cap():
    # v = +-1 at the smallest sigma coded in MAX_BITS bits, where float64
    # spacing next to |v| comes closest to sigma: the error is still N(0, s^2).
    d = 200_000
    v = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    sigma = 2.0 / (MIN_STEP_FACTOR * (2.0**MAX_BITS - 2.0))
    uniforms = element_pairs(SEED, 0, 18, d)
    enc = lrq_quantize_vector(v, sigma, uniforms)
    assert enc.bits_per_element == MAX_BITS and enc.clamp_count == 0
    err = lrq_reconstruct_vector(enc, sigma, uniforms) - v
    _, reject = ks_statistic(err, lambda t: 0.5 * erfc(-t / (sigma * math.sqrt(2.0))))
    assert not reject


def test_width_above_cap_raises():
    sigma = 2.0 / (MIN_STEP_FACTOR * (2.0**MAX_BITS - 2.0))
    assert bit_width(1.0, sigma) == MAX_BITS
    with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
        bit_width(1.0, 0.5 * sigma)
    with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
        lrq_quantize_vector(np.array([1.0, -1.0]), 0.5 * sigma, element_pairs(SEED, 0, 19, 2))


def test_quantize_rejects_nonfinite():
    uniforms = element_pairs(SEED, 0, 15, 2)
    with pytest.raises(InvalidParameterError):
        lrq_quantize_vector(np.array([1.0, np.nan]), 0.1, uniforms)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rows_rejects_nonfinite_rows_and_wide_rows(bad):
    # Only bit_width guards the rows' indices: a non-finite element, in any row, and
    # a row wider than MAX_BITS end in the typed error, with no RuntimeWarning.
    layer = sample_layer(0.1, element_pairs(SEED, np.arange(3), 16, 4))
    V = np.ones((3, 4))
    for row in range(3):
        with pytest.raises(InvalidParameterError, match="scale"):
            lrq_quantize_rows(np.where(np.arange(12).reshape(3, 4) == 4 * row + 2, bad, V),
                              0.1, layer)
    wide = V.copy()
    wide[1] *= 1.5 * 2.0**MAX_BITS * MIN_STEP_FACTOR * 0.1
    with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
        lrq_quantize_rows(wide, 0.1, layer)


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_reconstruct_vector_rejects_nonfinite_scale(scale):
    uniforms = element_pairs(SEED, 0, 17, 3)
    enc = lrq_quantize_vector(np.array([0.5, -0.25, 0.0]), 0.2, uniforms)
    with pytest.raises(InvalidParameterError, match="scale must be finite"):
        lrq_reconstruct_vector(replace(enc, scale=scale), 0.2, uniforms)


@settings(max_examples=150, deadline=None)
@given(B=st.integers(1, 5), d=st.integers(1, 40), sigma=st.floats(1e-3, 1e3),
       decades=st.floats(-8.0, 6.0), zeros=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(B=2, d=3, sigma=1.0, decades=0.0, zeros=1.0, seed=0)  # all-zero rows
def test_rows_codec_is_the_scalar_codec(B, d, sigma, decades, zeros, seed):
    """lrq_quantize_rows' indices are lrq_encode's, offset from lrq_encode(-scale) and
    clipped to the width; lrq_reconstruct_rows' rows are lrq_decode's: bit for bit."""
    rng = np.random.default_rng(seed)
    V = sigma * 10.0**decades * rng.standard_normal((B, d))
    V[rng.random((B, d)) < zeros] = 0.0
    layer = sample_layer(sigma, element_pairs(SEED, np.arange(B), 31, d))
    idx, widths, scales, clamps = lrq_quantize_rows(V, sigma, layer)
    base = lrq_encode(-np.array(scales)[:, None], layer)
    rel = lrq_encode(V, layer) - base
    want = np.clip(rel, 0, (np.left_shift(1, widths) - 1)[:, None])
    assert idx.dtype == np.int64 and np.array_equal(idx, want)
    assert clamps.tolist() == np.count_nonzero(want != rel, axis=1).tolist()
    assert scales == np.max(np.abs(V), axis=1).tolist()
    assert widths == bit_width(scales, sigma).tolist()
    got = lrq_reconstruct_rows(idx, scales, layer)
    assert got.tobytes() == lrq_decode(idx + base, layer).tobytes()


def test_small_sigma_vectors_never_clamp():
    # A scale below max|v| would put the top element one index below the
    # base, to be clamped: a scale rounded to the nearest float32 did so for
    # about 1% of unit vectors here. The exact inf-norm never does.
    rng = np.random.default_rng(0)
    clamps = 0
    for i in range(1000):
        sigma = 10.0 ** rng.uniform(-8.0, -5.0)
        v = rng.standard_normal(64)
        enc = lrq_quantize_vector(v / np.linalg.norm(v), sigma,
                                  element_pairs(SEED, i, 16, 64))
        clamps += enc.clamp_count
    assert clamps == 0


@settings(max_examples=300, deadline=None)
@given(log_sigma=st.floats(-12.0, 3.0), log_scale=st.floats(-12.0, 30.0),
       d=st.integers(1, 32), client=st.integers(0, 2**32 - 1))
def test_layered_coding_never_clamps(log_sigma, log_scale, d, client):
    sigma = 10.0 ** log_sigma
    v = 10.0 ** log_scale * np.random.default_rng(client).uniform(-1.0, 1.0, d)
    uniforms = element_pairs(SEED, client, 17, d)
    a = float(np.max(np.abs(v)))
    try:
        b = bit_width(a, sigma)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError, match=f"{MAX_BITS}-bit cap"):
            lrq_quantize_vector(v, sigma, uniforms)
        return
    enc = lrq_quantize_vector(v, sigma, uniforms)
    assert enc.bits_per_element == b and enc.scale == a
    assert enc.clamp_count == 0
    assert np.all((enc.indices >= 0) & (enc.indices <= (1 << b) - 1))


# Narrowest sigma at which every x = sigma * Phi^-1(u) is zero or a normal
# float: |Phi^-1(u)| >= 2^-52.6 for every double u != 1/2 in (0, 1).
_NORMAL_X_SIGMA = 2.0**-969


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(0.05, 20.0), where=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(sigma=0.5, where=0.0, seed=0)
@example(sigma=0.5, where=1.0, seed=0)
def test_power_of_two_rescaling_is_exact(sigma, where, seed):
    """For c = 2^k, c*V at c*sigma with the same uniforms codes to the same
    indices, widths and clamps and decodes to c times the unit decode, bit for
    bit: at every k with c*sigma in [2^-969, MAX_SIGMA]. So the error law
    checked at one sigma holds exactly at each of its power-of-two multiples."""
    lo = math.ceil(math.log2(_NORMAL_X_SIGMA / sigma))
    k = lo + round(where * (math.floor(math.log2(MAX_SIGMA / sigma)) - lo))
    c = math.ldexp(1.0, k)
    rng = np.random.default_rng(seed)
    V = sigma * rng.standard_normal((4, 50)) * 10.0 ** rng.uniform(-3.0, 4.0, (4, 1))
    uniforms = element_pairs(SEED, np.arange(4), 23, 50)
    layer, c_layer = sample_layer(sigma, uniforms), sample_layer(c * sigma, uniforms)
    idx, widths, scales, clamps = lrq_quantize_rows(V, sigma, layer)
    c_idx, c_widths, c_scales, c_clamps = lrq_quantize_rows(c * V, c * sigma, c_layer)
    assert np.array_equal(c_idx, idx) and c_widths == widths
    assert np.array_equal(c_clamps, clamps) and c_scales == [c * a for a in scales]
    decoded = lrq_reconstruct_rows(idx, scales, layer)
    c_decoded = lrq_reconstruct_rows(c_idx, c_scales, c_layer)
    assert c_decoded.tobytes() == (c * decoded).tobytes()


def test_codec_round_trip_error_statistics():
    sigma = 0.25
    v = np.array([0.1, -0.3, 0.05, 0.2])
    d = v.size
    n_rep = 20000
    errs = np.empty((n_rep, d))
    elem = np.tile(np.arange(d, dtype=np.uint64), n_rep)
    ctr = np.repeat(np.arange(n_rep, dtype=np.uint64), d)
    u1, u2 = uniform_pair_block(SEED, 9, 0, elem, ctr)
    layer = sample_layer(sigma, (u1.reshape(n_rep, d), u2.reshape(n_rep, d)))
    m = np.floor((v[None, :] + layer.R - layer.x) / layer.q_step)
    errs = (m * layer.q_step + layer.x) - v[None, :]
    assert np.all(np.abs(errs.mean(axis=0)) < 5.0 * sigma / math.sqrt(n_rep))
    assert np.allclose(errs.var(axis=0), sigma**2, rtol=0.05)
    # The vector codec's offset coding round-trips to exactly the scalar
    # codec's reconstruction.
    uniforms = element_pairs(SEED, 9, 1, d)
    layer = sample_layer(sigma, uniforms)
    enc = lrq_quantize_vector(v, sigma, uniforms)
    assert np.array_equal(lrq_reconstruct_vector(enc, sigma, uniforms),
                          lrq_decode(lrq_encode(v, layer), layer))


def test_indices_fit_declared_width_without_clamping():
    # The offset coding keeps every index inside [0, 2^b - 1]; the step
    # lower bound makes genuine clamps (essentially) impossible.
    rng = np.random.default_rng(17)
    for trial in range(200):
        d = int(rng.integers(1, 16))
        sigma = float(rng.uniform(0.05, 2.0))
        v = rng.standard_normal(d) * rng.uniform(0.01, 5.0)
        uniforms = element_pairs(SEED, trial, 12, d)
        enc = lrq_quantize_vector(v, sigma, uniforms)
        assert np.all(enc.indices >= 0)
        assert np.all(enc.indices <= (1 << enc.bits_per_element) - 1)
        assert enc.clamp_count == 0
        # Round trip through the unsigned coding lands inside (L, R].
        out = lrq_reconstruct_vector(enc, sigma, uniforms)
        layer = sample_layer(sigma, uniforms)
        err = out - v
        assert np.all(err > layer.L - 1e-12) and np.all(err <= layer.R + 1e-12)


# -- dithered codec ---------------------------------------------------------

def test_dithered_examples():
    assert dithered_encode(0.0, 1.0, 0.0) == 0
    assert dithered_decode(0, 1.0, 0.0) == 0.0
    assert dithered_encode(0.6, 1.0, 0.0) == 1
    assert dithered_decode(1, 1.0, 0.0) == 1.0


def test_dithered_round_trip_error_bounded():
    q = 0.7
    rng = np.random.default_rng(3)
    x = rng.uniform(-q / 2, q / 2, 1000)
    x[x <= -q / 2] = q / 2
    u = rng.uniform(-5, 5, 1000)
    err = dithered_decode(dithered_encode(u, q, x), q, x) - u
    assert np.all(err > -q / 2 - 1e-12) and np.all(err <= q / 2 + 1e-12)


def test_dithered_validation():
    with pytest.raises(InvalidParameterError):
        dithered_encode(0.0, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        dithered_encode(0.0, 1.0, 0.6)   # dither outside (-q/2, q/2]
    with pytest.raises(InvalidParameterError):
        dithered_decode(0, -1.0, 0.0)


# -- stochastic quantizer ---------------------------------------------------

def _stochastic(v, b, uniforms):
    scale = float(np.max(np.abs(v)))
    return stochastic_dequantize(stochastic_round(v, b, uniforms, scale), b, scale)


def test_stochastic_on_level_input():
    # b=2 over [-0.5, 0.5]: levels {-0.5, 0, 0.5}; an on-level input is exact.
    out = _stochastic(np.array([0.5]), 2, np.array([0.77]))
    assert out[0] == pytest.approx(0.5)


def test_stochastic_one_bit_endpoints():
    out = _stochastic(np.array([1.0, -1.0]), 1, np.array([0.3, 0.9]))
    assert np.array_equal(out, [1.0, -1.0])


def test_stochastic_zero_vector():
    out = _stochastic(np.zeros(4), 3, np.full(4, 0.5))
    assert np.array_equal(out, np.zeros(4))


def test_stochastic_unbiased():
    # Levels {-0.5, 0, 0.5} at b=2; every 0.25 should average to 0.25.
    n = 100001
    ctr = np.arange(n, dtype=np.uint64)
    u, _ = uniform_pair_block(SEED, 3, 0, 0, ctr)
    v = np.full(n, 0.25)
    v[0] = 0.5  # pins the scale to 0.5
    out = _stochastic(v, 2, u)
    assert set(np.unique(out[1:])) <= {0.0, 0.5}
    assert abs(float(np.mean(out[1:])) - 0.25) < 0.01


def test_stochastic_squared_error_bound():
    rng = np.random.default_rng(11)
    for b in (2, 3, 4):
        v = rng.uniform(-1, 1, 64)
        scale = float(np.max(np.abs(v)))
        spacing = 2.0 * scale / ((1 << b) - 2)
        u = rng.random(64)
        err = _stochastic(v, b, u) - v
        assert np.all(np.abs(err) <= spacing + 1e-12)


def test_stochastic_scale_is_the_inf_norm():
    # The largest |v| sits on the top level of 15, as the engine's max|v| scale puts it.
    v = np.array([0.1, -0.05])
    scale = float(np.max(np.abs(v)))
    idx = stochastic_round(v, 4, np.array([0.5, 0.5]), scale)
    assert type(scale) is float and scale == 0.1 and idx[0] == 14


def test_stochastic_index_round_trip():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(32)
    u = rng.random(32)
    scale = float(np.max(np.abs(v)))
    idx = stochastic_round(v, 3, u, scale)
    out = stochastic_dequantize(idx, 3, scale)
    assert idx.dtype == np.int64 and np.all((idx >= 0) & (idx <= 6))
    assert np.all(np.abs(out - v) <= 2.0 * scale / 6 + 1e-12)   # a neighbouring level
    assert np.all(np.abs(out) <= scale + 1e-12)


def _ref_stochastic(v, b, u):
    """The per-vector stochastic codec as first written: (indices, scale, decoded)."""
    scale = float(np.max(np.abs(v))) if v.size else 0.0
    n_lev = max((1 << b) - 1, 2)
    if scale == 0.0:
        return np.zeros(v.size, dtype=np.int64), 0.0, np.zeros(v.size)
    spacing = 2.0 * scale / (n_lev - 1)
    t = (v + scale) / spacing
    lo = np.floor(t)
    idx = np.clip((lo + (u < t - lo)).astype(np.int64), 0, n_lev - 1)
    return idx, scale, idx.astype(np.float64) * spacing - scale


@settings(max_examples=100, deadline=None)
@given(widths=st.lists(st.integers(1, MAX_BITS), min_size=1, max_size=6),
       d=st.integers(1, 40), zero_rows=st.sets(st.integers(0, 5)), seed=st.integers(0, 2**32))
def test_stochastic_rows_match_per_row_calls(widths, d, zero_rows, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((len(widths), d)) * 10.0 ** rng.integers(-5, 5, (len(widths), 1))
    V[[i for i in zero_rows if i < len(widths)]] = 0.0
    U = rng.random(V.shape)
    scales = np.max(np.abs(V), axis=1)
    idx = stochastic_round(V, np.array(widths), U, scales)
    out = stochastic_dequantize(idx, np.array(widths), scales)
    assert idx.shape == V.shape and idx.dtype == np.int64 and scales.shape == (len(widths),)
    for i, b in enumerate(widths):
        want_idx, want_scale, want_out = _ref_stochastic(V[i], b, U[i])
        row_scale = float(np.max(np.abs(V[i])))
        row_idx = stochastic_round(V[i], b, U[i], row_scale)
        assert type(row_scale) is float
        for got_idx, got_scale in ((idx[i], scales[i]), (row_idx, row_scale)):
            assert np.array_equal(got_idx, want_idx) and got_scale == want_scale
        assert out[i].tobytes() == want_out.tobytes()
        assert stochastic_dequantize(row_idx, b, row_scale).tobytes() == want_out.tobytes()
