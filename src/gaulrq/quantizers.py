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

import contextlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidParameterError

# Minimum step of the layered quantizer, in units of sigma.
MIN_STEP_FACTOR = 2.0 * np.sqrt(2.0 * np.log(2.0))
# Widest index the wire carries. Above it the error law fails before int64
# does: float64 spacing at the largest coded value nears sigma (at 40 bits
# it is about sigma/3500).
MAX_BITS = 40
# Bound on the step R - L of any layer, in units of sigma. |x| <= 38.5 sigma,
# as |Phi^-1(u)| <= 38.5 for every double u in (0, 1). So the end taken from
# ln y0 = -(x/sigma)^2/2 + ln u2 is at most sigma * sqrt(38.5^2 - 2 ln u2) for
# the least double u2 > 0 (54.5 sigma), and the other end, from a height of at
# least 2^-53 away from 0 and 1, at most sigma * sqrt(-2 ln 2^-53) (8.6 sigma).
_MAX_STEP_FACTOR = (np.sqrt(38.5**2 - 2.0 * np.log(np.nextafter(0.0, 1.0)))
                    + np.sqrt(-2.0 * np.log(2.0**-53)))
# Widest sigma the codec takes (about 2.6e294). Below it x, L and R are
# finite, and so is every decode m * q_step + x: the width cap keeps
# |m| <= 2^(MAX_BITS-1) + 1, half the 2^MAX_BITS this bound allows for.
# The scale travels as the exact float64 inf-norm, so the wire does not
# narrow this domain.
MAX_SIGMA = float(np.finfo(np.float64).max / (2.0**MAX_BITS * _MAX_STEP_FACTOR))


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
    ``scale``, the vector's inf-norm max|v|; offsets outside
    [0, 2^bits - 1] were clamped, ``clamp_count`` says how many
    (unreachable by the step lower bound, kept as a guard).
    """

    indices: np.ndarray
    dim: int
    bits_per_element: int
    scale: float = 0.0
    clamp_count: int = 0


def _check_sigma(sigma):
    ok = (0.0 < sigma) & (sigma <= MAX_SIGMA)  # False at NaN; a bool for a float sigma
    if not (ok is True or np.all(ok)):
        raise InvalidParameterError(f"sigma must lie in (0, {MAX_SIGMA:.4g}], got {sigma}")


def sample_layer(sigma: float, uniforms) -> LayerSample:
    """Draw a layer of the flipped-Gaussian region from two uniforms.

    x = sigma * Phi^-1(u1); the layer height is drawn uniformly under the
    density at x and flipped to the complementary height when x < 0, which
    keeps the marginal of x Gaussian while bounding the step away from zero.
    Accepts scalar or array uniforms (one layer per element) and sigmas.
    """
    _check_sigma(sigma)
    u1 = np.asarray(uniforms[0], dtype=np.float64)
    u2 = np.asarray(uniforms[1], dtype=np.float64)
    for u in (u1, u2):
        if not ((u > 0.0) & (u < 1.0)).all():  # also false for NaN
            raise InvalidParameterError("uniforms must lie strictly inside (0, 1)")

    x = sigma * ndtri(u1)  # u1 is range-checked above
    y0 = np.exp(-0.5 * (x / sigma) ** 2) * u2
    y = np.where(x >= 0.0, y0, 1.0 - y0)
    with np.errstate(divide="ignore"):  # y rounded to 0 or 1: mended below
        L = -sigma * np.sqrt(-2.0 * np.log1p(-y))
        R = sigma * np.sqrt(-2.0 * np.log(y))
        q_step = R - L
        if not np.isfinite(q_step).all():
            # That end is sigma * sqrt(-2 ln y0) in the log domain: y = 1 - y0
            # rounded to 1 (x < 0) or y = y0 underflowed (x >= 0) to 0.
            ln_y0 = np.where(y0 > 0.0, np.log(y0), -0.5 * (x / sigma) ** 2 + np.log(u2))
            end = sigma * np.sqrt(-2.0 * ln_y0)
            L, R = np.where(np.isinf(L), -end, L), np.where(np.isinf(R), end, R)
            q_step = R - L
    return LayerSample(x=x, y=y, L=L, R=R, q_step=q_step)


def lrq_encode(u, layer: LayerSample):
    """Index of the rectangle shift containing u: floor((u + R - x) / q_step)."""
    u = np.asarray(u, dtype=np.float64)
    if u.size and not np.all(np.isfinite(u)):
        raise InvalidParameterError("input to encode must be finite")
    m = np.floor((u + layer.R - layer.x) / layer.q_step).astype(np.int64)
    return int(m) if m.ndim == 0 else m


def lrq_decode(m, layer: LayerSample):
    """Reconstruction m * q_step + x; error vs the input lies in (L, R] up to
    rounding: an input on a cell edge can land an ulp or so outside it."""
    out = np.asarray(m, dtype=np.float64) * layer.q_step + layer.x
    return float(out) if np.ndim(out) == 0 else out


def bit_width(scale, sigma: float):
    """Bits needed to index steps of minimum size across [-scale, scale].

    Floored at 1 bit, which is also the width at scale 0. An array of scales
    gives an int64 array of widths, one per scale. Raises
    InvalidParameterError above MAX_BITS, where float64 no longer resolves
    sigma next to the largest coded value.
    """
    scale = np.asarray(scale, dtype=np.float64)
    top = float(scale.max(initial=0.0))  # min and max are NaN if a scale is, 0.0 if none
    if not (scale.min(initial=0.0) >= 0.0 and top < np.inf):
        raise InvalidParameterError(f"scale must be finite and >= 0, got {scale}")
    _check_sigma(sigma)
    wide = not 2.0 * top < 2.0**(MAX_BITS - 1) * MIN_STEP_FACTOR * sigma  # else: finite, in the cap
    with np.errstate(over="ignore") if wide else contextlib.nullcontext():
        bits = np.ceil(np.log2(2.0 * scale / (MIN_STEP_FACTOR * sigma) + 1.0))
    if wide and not (bits <= MAX_BITS).all():  # an infinite level count fails the cap too
        raise InvalidParameterError(
            f"range {2.0 * np.max(scale):g} at sigma={sigma:g} needs {np.max(bits):g} bits "
            f"per element, above the {MAX_BITS}-bit cap")
    bits = np.maximum(bits, 1.0).astype(np.int64)
    return int(bits) if bits.ndim == 0 else bits


def _base_indices(layer: LayerSample, scales) -> np.ndarray:
    """Smallest index any input in [-scale, scale] can produce, per element.

    Both sides compute this from the shared layer, so the wire only needs
    the offset from it. By the step lower bound, at most 2^b offsets occur
    for the signalled width b, which is what makes fixed-length coding
    clamp-free. ``scales`` holds one scale per row of the layer.
    """
    return lrq_encode(-np.asarray(scales, dtype=np.float64)[:, None], layer)


def _row_layer(sigma: float, uniforms, d: int) -> LayerSample:
    u1, u2 = (np.asarray(u, dtype=np.float64) for u in uniforms)
    if u1.size != d or u2.size != d:
        raise InvalidParameterError(
            f"need one uniform pair per element ({d}), got {u1.size}/{u2.size}")
    return sample_layer(sigma, (u1.reshape(1, d), u2.reshape(1, d)))


def lrq_quantize_rows(V, sigma: float, layer: LayerSample):
    """Layered quantization of each row of V (B, d), with fixed-width index coding.

    Returns (indices, widths, scales, clamps): the (B, d) unsigned offsets of
    ``layer`` (at ``sigma``, one per element; x, R and q_step read) and, per row, the
    signalled width, the scale max|row| and the clamp count. A row's width is driven
    by its inf-norm range; its offsets are from the per-element base (_base_indices).
    """
    V = np.asarray(V, dtype=np.float64)
    if V.size == 0:
        raise InvalidParameterError("cannot quantize an empty vector")
    # bit_width rejects non-finite elements and widths above the cap before any index.
    scales = np.max(np.abs(V), axis=1)
    widths = bit_width(scales, sigma)
    rel = lrq_encode(V, layer) - _base_indices(layer, scales)
    clamped = np.clip(rel, 0, (np.left_shift(1, widths) - 1)[:, None])
    clamps = np.count_nonzero(clamped != rel, axis=1)
    return clamped, widths.tolist(), scales.tolist(), clamps


def lrq_reconstruct_rows(indices, scales, layer: LayerSample) -> np.ndarray:
    """Decoder side: invert the index coding on the replayed layers of the rows."""
    return lrq_decode(np.asarray(indices) + _base_indices(layer, scales), layer)


def lrq_quantize_vector(v, sigma: float, uniforms) -> EncodedVector:
    """lrq_quantize_rows for one vector, on the layers of its uniform pairs."""
    v = np.asarray(v, dtype=np.float64).reshape(1, -1)
    (idx,), (b,), (a,), (c,) = lrq_quantize_rows(v, sigma, _row_layer(sigma, uniforms, v.size))
    return EncodedVector(indices=idx, dim=v.size, bits_per_element=b, scale=a,
                         clamp_count=int(c))


def lrq_reconstruct_vector(encoded: EncodedVector, sigma: float, uniforms) -> np.ndarray:
    """lrq_reconstruct_rows for one encoded vector."""
    return lrq_reconstruct_rows(np.reshape(encoded.indices, (1, encoded.dim)), [encoded.scale],
                                _row_layer(sigma, uniforms, encoded.dim))[0]


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


def stochastic_levels(b):
    """Number of uniformly spaced level points used at b bits.

    2^b - 1 points spanning the symmetric range inclusively; at b = 1 the
    formula degenerates to a single point, so the endpoints {-a, +a} are
    used instead (the only unbiased single-bit scheme on [-a, a]). An array
    of widths gives one count per width.
    """
    b = np.asarray(b, dtype=np.int64)
    if not (b >= 1).all():
        raise InvalidParameterError("bit width must be >= 1")
    return np.maximum(np.left_shift(1, b) - 1, 2)


def stochastic_quantize_indices(v, b, uniforms):
    """Unbiased stochastic rounding to level indices.

    Returns (indices, scale): level j sits at -scale + j * spacing with
    spacing = 2*scale/(levels-1), and scale is the inf-norm max|v|.
    Each element rounds to a neighboring level with probability
    proportional to proximity, so the expectation is exact. A (B, d) ``v``
    with one width per row in ``b`` gives (B, d) indices and B scales; an
    all-zero row keeps index 0 and scale 0.0.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size and not np.all(np.isfinite(v)):
        raise InvalidParameterError("vector elements must be finite")
    u = np.asarray(uniforms, dtype=np.float64)
    if u.shape != v.shape:
        raise InvalidParameterError("need one uniform per element")

    scale = np.max(np.abs(v), axis=-1, initial=0.0)[..., None]
    n_lev = stochastic_levels(b)[..., None]
    # A zero scale means an all-zero row: any spacing > 0 sends it to index 0.
    spacing = np.where(scale > 0.0, 2.0 * scale / (n_lev - 1), 1.0)
    t = (v + scale) / spacing
    lo = np.floor(t)
    idx = np.clip((lo + (u < t - lo)).astype(np.int64), 0, n_lev - 1)
    return idx, (float(scale[0]) if v.ndim == 1 else scale[:, 0])


def stochastic_dequantize(indices, b, scale) -> np.ndarray:
    """Map level indices back to real values on [-scale, scale]; one width
    and one scale per row of (B, d) indices."""
    scale = np.asarray(scale, dtype=np.float64)[..., None]
    spacing = 2.0 * scale / (stochastic_levels(b)[..., None] - 1)
    return np.asarray(indices, dtype=np.float64) * spacing - scale
