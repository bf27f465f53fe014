"""Quantizer codecs.

Three codecs live here:

* the layered randomized quantizer whose random step and dither make the
  reconstruction error exactly Gaussian N(0, sigma^2);
* the classic subtractive-dither uniform quantizer (uniform noise baseline);
* an unbiased stochastic (uniform-level) quantizer used by the
  noise-then-quantize baseline pipeline.

All codecs are pure value transformations: given the same inputs they
produce bitwise-identical outputs, and they hold no mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, StreamExhaustedError
from .normal import inv_norm_cdf

# Minimum step of the layered quantizer, in units of sigma.
MIN_STEP_FACTOR = 2.0 * np.sqrt(2.0 * np.log(2.0))
# Widest index the wire carries. Above it the error law fails before int64
# does: float64 spacing at the largest coded value nears sigma (at 40 bits
# it is about sigma/3500).
MAX_BITS = 40


@dataclass(frozen=True)
class LayerSample:
    """One draw of the layered coupler.

    ``x`` is the dither coordinate, ``y`` in (0, 1) the layer height, and
    [L, R] the rectangle the point (x, y) fell into; q_step = R - L.
    Fields may be scalars or aligned arrays (one layer per element).
    """

    x: np.ndarray
    y: np.ndarray
    L: np.ndarray
    R: np.ndarray
    q_step: np.ndarray


@dataclass(frozen=True)
class EncodedVector:
    """Fixed-width integer encoding of one quantized vector.

    The decoder must replay the (client, round) stream whose uniforms
    produced the per-element layers. ``indices`` are unsigned offsets from a
    per-element base index that both sides derive from the shared layer and
    ``scale`` (the vector's inf-norm, rounded up to float32 so the wire
    loses nothing); offsets outside [0, 2^bits - 1] were clamped,
    ``clamp_count`` says how many (unreachable by the step lower bound and
    the rounded-up scale, kept as a guard).
    """

    indices: np.ndarray
    dim: int
    bits_per_element: int
    scale: float = 0.0
    clamp_count: int = 0


def _check_sigma(sigma):
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise InvalidParameterError(f"sigma must be finite and > 0, got {sigma}")


def sample_layer(sigma: float, uniforms) -> LayerSample:
    """Draw a layer of the flipped-Gaussian region from two uniforms.

    x = sigma * Phi^-1(u1); the layer height is drawn uniformly under the
    density at x and flipped to the complementary height when x < 0, which
    keeps the marginal of x Gaussian while bounding the step away from zero.
    Accepts scalar or array uniforms (one layer per element).
    """
    _check_sigma(sigma)
    u1 = np.asarray(uniforms[0], dtype=np.float64)
    u2 = np.asarray(uniforms[1], dtype=np.float64)
    for u in (u1, u2):
        if u.size and (not np.all(np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0)):
            raise InvalidParameterError("uniforms must lie strictly inside (0, 1)")

    x = sigma * np.asarray(inv_norm_cdf(u1))
    y0 = np.exp(-0.5 * (x / sigma) ** 2) * u2
    y = np.where(x >= 0.0, y0, 1.0 - y0)
    L = -sigma * np.sqrt(-2.0 * np.log1p(-y))
    R = sigma * np.sqrt(-2.0 * np.log(y))
    return LayerSample(x=x, y=y, L=L, R=R, q_step=R - L)


def lrq_encode(u, layer: LayerSample):
    """Index of the rectangle shift containing u: floor((u + R - x) / q_step)."""
    u = np.asarray(u, dtype=np.float64)
    if u.size and not np.all(np.isfinite(u)):
        raise InvalidParameterError("input to encode must be finite")
    m = np.floor((u + layer.R - layer.x) / layer.q_step).astype(np.int64)
    return int(m) if m.ndim == 0 else m


def lrq_decode(m, layer: LayerSample):
    """Reconstruction m * q_step + x; error vs the input lies in (L, R]."""
    out = np.asarray(m, dtype=np.float64) * layer.q_step + layer.x
    return float(out) if np.ndim(out) == 0 else out


def bit_width(scale: float, sigma: float) -> int:
    """Bits needed to index steps of minimum size across [-scale, scale].

    Floored at 1 bit, which is also the width at scale 0. Raises
    InvalidParameterError above MAX_BITS, where float64 no longer resolves
    sigma next to the largest coded value.
    """
    if not (np.isfinite(scale) and scale >= 0.0):
        raise InvalidParameterError(f"scale must be finite and >= 0, got {scale}")
    _check_sigma(sigma)
    if scale == 0.0:
        return 1
    with np.errstate(over="ignore"):  # an infinite level count fails the cap below
        bits = np.ceil(np.log2(2.0 * scale / (MIN_STEP_FACTOR * sigma) + 1.0))
    if not bits <= MAX_BITS:
        raise InvalidParameterError(
            f"range {2.0 * scale:g} at sigma={sigma:g} needs {bits:g} bits per element, "
            f"above the {MAX_BITS}-bit cap")
    return max(1, int(bits))


def wire_scale(a: float) -> float:
    """Smallest float32 >= a: the scale the wire carries for inf-norm ``a``.

    Rounding up (not to nearest) keeps every element inside [-scale, scale],
    the range the signalled width covers.
    """
    s = np.float32(a)
    # Compare in float64: under NEP 50, np.float32(a) < a compares in float32.
    if float(s) < a:
        s = np.nextafter(s, np.float32(np.inf))
    return float(s)


def _vector_uniforms(uniforms, dim):
    u1 = np.asarray(uniforms[0], dtype=np.float64).reshape(-1)
    u2 = np.asarray(uniforms[1], dtype=np.float64).reshape(-1)
    if u1.shape != (dim,) or u2.shape != (dim,):
        raise StreamExhaustedError(
            f"need one uniform pair per element ({dim}), got {u1.size}/{u2.size}")
    return u1, u2


def _base_indices(layer: LayerSample, scale: float) -> np.ndarray:
    """Smallest index any input in [-scale, scale] can produce, per element.

    Both sides compute this from the shared layer, so the wire only needs
    the offset from it. By the step lower bound, at most 2^b offsets occur
    for the signalled width b, which is what makes fixed-length coding
    clamp-free.
    """
    return lrq_encode(-scale, layer)


def lrq_quantize_vector(v, sigma: float, uniforms) -> EncodedVector:
    """Element-wise layered quantization with fixed-width index coding.

    The signalled width is driven by the vector's inf-norm range; indices go
    on the wire as offsets from the per-element base (see _base_indices).
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise InvalidParameterError("cannot quantize an empty vector")
    u1, u2 = _vector_uniforms(uniforms, v.size)

    # The decoder sees the scale as a float32, so quantize it up front and
    # use the identical value on both sides. bit_width rejects non-finite
    # elements and widths above the cap before any index is computed.
    a = wire_scale(np.max(np.abs(v)))
    b = bit_width(a, sigma)
    layer = sample_layer(sigma, (u1, u2))
    rel = lrq_encode(v, layer) - _base_indices(layer, a)
    clamped = np.clip(rel, 0, (1 << b) - 1)
    return EncodedVector(indices=clamped, dim=v.size, bits_per_element=b,
                         scale=a, clamp_count=int(np.count_nonzero(clamped != rel)))


def lrq_reconstruct_vector(encoded: EncodedVector, sigma: float, uniforms) -> np.ndarray:
    """Decoder side: replay the stream's layers and invert the index coding."""
    u1, u2 = _vector_uniforms(uniforms, encoded.dim)
    layer = sample_layer(sigma, (u1, u2))
    return lrq_decode(encoded.indices + _base_indices(layer, encoded.scale), layer)


def _check_dither(q_step, x):
    if not np.isfinite(q_step) or q_step <= 0.0:
        raise InvalidParameterError("q_step must be finite and > 0")
    x = np.asarray(x, dtype=np.float64)
    if x.size and (np.any(x <= -0.5 * q_step) or np.any(x > 0.5 * q_step)):
        raise InvalidParameterError("dither must lie in (-q_step/2, q_step/2]")
    return x


def dithered_encode(u, q_step: float, x):
    """m = floor((u + x)/q_step + 1/2)."""
    x = _check_dither(q_step, x)
    u = np.asarray(u, dtype=np.float64)
    if u.size and not np.all(np.isfinite(u)):
        raise InvalidParameterError("input to encode must be finite")
    m = np.floor((u + x) / q_step + 0.5).astype(np.int64)
    return int(m) if m.ndim == 0 else m


def dithered_decode(m, q_step: float, x):
    """Reconstruction m * q_step - x; error uniform on (-q_step/2, q_step/2]."""
    x = _check_dither(q_step, x)
    out = np.asarray(m, dtype=np.float64) * q_step - x
    return float(out) if np.ndim(out) == 0 else out


def stochastic_levels(b: int) -> int:
    """Number of uniformly spaced level points used at b bits.

    2^b - 1 points spanning the symmetric range inclusively; at b = 1 the
    formula degenerates to a single point, so the endpoints {-a, +a} are
    used instead (the only unbiased single-bit scheme on [-a, a]).
    """
    if b < 1:
        raise InvalidParameterError("bit width must be >= 1")
    return max((1 << b) - 1, 2)


def stochastic_quantize_indices(v, b: int, uniforms):
    """Unbiased stochastic rounding to level indices.

    Returns (indices, scale): level j sits at -scale + j * spacing with
    spacing = 2*scale/(levels-1), and scale is the inf-norm's wire_scale.
    Each element rounds to a neighboring level with probability
    proportional to proximity, so the expectation is exact.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise InvalidParameterError("vector elements must be finite")
    u = np.asarray(uniforms, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise StreamExhaustedError("need one uniform per element")

    scale = wire_scale(np.max(np.abs(v))) if v.size else 0.0
    n_lev = stochastic_levels(b)
    if scale == 0.0:
        return np.zeros(v.size, dtype=np.int64), 0.0
    spacing = 2.0 * scale / (n_lev - 1)
    t = (v + scale) / spacing
    lo = np.floor(t)
    idx = (lo + (u < t - lo)).astype(np.int64)
    return np.clip(idx, 0, n_lev - 1), scale


def stochastic_dequantize(indices, b: int, scale: float) -> np.ndarray:
    """Map level indices back to real values on [-scale, scale]."""
    n_lev = stochastic_levels(b)
    if scale == 0.0:
        return np.zeros(np.asarray(indices).size, dtype=np.float64)
    spacing = 2.0 * scale / (n_lev - 1)
    return np.asarray(indices, dtype=np.float64) * spacing - scale
