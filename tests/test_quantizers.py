import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtri

from gaulrq.analysis import ks_statistic

from gaulrq.errors import InvalidParameterError, StreamExhaustedError
from gaulrq.quantizers import (MAX_BITS, MIN_STEP_FACTOR, LayerSample,
                               bit_width, dithered_decode, dithered_encode,
                               lrq_decode, lrq_encode, lrq_quantize_vector,
                               lrq_reconstruct_vector, sample_layer,
                               stochastic_dequantize,
                               stochastic_quantize_indices, wire_scale)
from gaulrq.streams import SeedMaterial, element_pairs, uniform_pair_block

SEED = SeedMaterial(7, "quantizer-tests")


def _layers(n, sigma, client=0, rnd=0):
    u = uniform_pair_block(SEED, client, rnd, np.arange(n, dtype=np.uint64), 0)
    return sample_layer(sigma, u)


# -- sample_layer -----------------------------------------------------------

def test_minimum_step_at_center():
    # u1 = u2 = 1/2 forces x = 0, y = 1/2: the minimum-step layer.
    layer = sample_layer(1.0, (0.5, 0.5))
    root = math.sqrt(2.0 * math.log(2.0))
    assert layer.x == pytest.approx(0.0, abs=1e-9)
    assert layer.y == pytest.approx(0.5)
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
    assert layer.y == pytest.approx(y, abs=1e-12)
    assert layer.L == pytest.approx(-sigma * math.sqrt(-2.0 * math.log(1.0 - y)), abs=1e-9)
    assert layer.R == pytest.approx(sigma * math.sqrt(-2.0 * math.log(y)), abs=1e-9)


def test_layer_invariants_bulk():
    for sigma in (0.5, 1.0, 3.0):
        layer = _layers(100000, sigma)
        assert np.all(layer.L < 0) and np.all(layer.R > 0)
        assert np.all(layer.x >= layer.L) and np.all(layer.x <= layer.R)
        assert np.all(layer.q_step >= MIN_STEP_FACTOR * sigma - 1e-12)
        assert np.allclose(layer.L, -sigma * np.sqrt(-2.0 * np.log1p(-layer.y)))
        assert np.allclose(layer.R, sigma * np.sqrt(-2.0 * np.log(layer.y)))


def test_x_marginal_is_gaussian():
    sigma = 1.5
    layer = _layers(1000000, sigma)
    assert abs(float(np.mean(layer.x))) < 5.0 * sigma / 1000.0
    assert abs(float(np.var(layer.x)) / sigma**2 - 1.0) < 0.01


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
def test_sample_layer_rejects_bad_sigma(sigma):
    with pytest.raises(InvalidParameterError):
        sample_layer(sigma, (0.5, 0.5))


@pytest.mark.parametrize("u", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_sample_layer_rejects_boundary_uniforms(u):
    with pytest.raises(InvalidParameterError):
        sample_layer(1.0, u)


def test_determinism():
    a = sample_layer(0.7, (0.123, 0.456))
    b = sample_layer(0.7, (0.123, 0.456))
    assert (a.x, a.y, a.L, a.R, a.q_step) == (b.x, b.y, b.L, b.R, b.q_step)


# -- encode / decode --------------------------------------------------------

_MANUAL = LayerSample(x=0.3, y=0.5, L=-1.0, R=1.0, q_step=2.0)


def test_encode_examples():
    assert lrq_encode(0.0, _MANUAL) == 0      # floor(0.35)
    assert lrq_encode(5.0, _MANUAL) == 2      # floor(5.7/2)
    zero_x = LayerSample(x=0.0, y=0.5, L=-1.0, R=1.0, q_step=2.0)
    assert lrq_encode(-0.9999, zero_x) == 0   # floor(0.00005)


def test_decode_examples():
    assert lrq_decode(0, _MANUAL) == pytest.approx(0.3)
    assert lrq_decode(2, _MANUAL) == pytest.approx(4.3)
    # Noise for u=5 is -0.7, inside (L, R].
    assert -1.0 < lrq_decode(2, _MANUAL) - 5.0 <= 1.0


def test_encode_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        lrq_encode(np.nan, _MANUAL)


def test_round_trip_error_in_layer_interval():
    # Brute-force scan: every input's reconstruction error lies in (L, R].
    layer = _layers(4096, 0.8, rnd=1)
    u = np.linspace(-3.0, 3.0, 4096)
    err = lrq_decode(lrq_encode(u, layer), layer) - u
    assert np.all(err > layer.L) and np.all(err <= layer.R)


def test_step_equality_only_at_half():
    layer = _layers(100000, 1.0, rnd=2)
    gap = layer.q_step - MIN_STEP_FACTOR
    assert np.all(gap[np.abs(layer.y - 0.5) > 1e-3] > 0)


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


# -- wire scale -------------------------------------------------------------

def test_wire_scale_is_smallest_float32_above():
    for a in (0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-30, 1e30, 12345.678):
        s = wire_scale(a)
        assert s >= a and float(np.float32(s)) == s
        below = np.nextafter(np.float32(s), np.float32(0.0))
        assert float(below) < a
    for a in (0.0, 0.5, 1.0, float(np.float32(0.1))):  # already float32
        assert wire_scale(a) == a


# -- vector codec -----------------------------------------------------------

def test_quantize_zero_vector():
    uniforms = element_pairs(SEED, 0, 10, 3)
    enc = lrq_quantize_vector(np.zeros(3), 1.0, uniforms)
    assert enc.dim == 3 and enc.bits_per_element == 1
    out = lrq_reconstruct_vector(enc, 1.0, uniforms)
    assert out.shape == (3,) and np.all(np.isfinite(out))


def test_quantize_dim_mismatch():
    uniforms = element_pairs(SEED, 0, 10, 2)
    with pytest.raises(StreamExhaustedError):
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


def test_small_sigma_vectors_never_clamp():
    # A scale rounded to the nearest float32 can fall below max|v|; the top
    # element then lands one index below the base and is clamped. This
    # regime clamped about 1% of unit vectors before the scale rounded up.
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
    a = wire_scale(np.max(np.abs(v)))
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
    idx, scale = stochastic_quantize_indices(v, b, uniforms)
    return stochastic_dequantize(idx, b, scale)


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


def test_stochastic_scale_is_wire_scale():
    v = np.array([0.1, -0.05])
    idx, scale = stochastic_quantize_indices(v, 4, np.array([0.5, 0.5]))
    assert scale == wire_scale(0.1) and float(np.float32(scale)) == scale


def test_stochastic_index_round_trip():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(32)
    u = rng.random(32)
    idx, scale = stochastic_quantize_indices(v, 3, u)
    out = stochastic_dequantize(idx, 3, scale)
    assert idx.dtype == np.int64 and np.all((idx >= 0) & (idx <= 6))
    assert np.all(np.abs(out - v) <= 2.0 * scale / 6 + 1e-12)   # a neighbouring level
    assert np.all(np.abs(out) <= scale + 1e-12)
