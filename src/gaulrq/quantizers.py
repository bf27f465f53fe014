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

from .errors import InvalidParameterError
from .normal import inv_norm_cdf

# Minimum step of the layered quantizer, in units of sigma.
MIN_STEP_FACTOR = 2.0 * np.sqrt(2.0 * np.log(2.0))
# Widest index the wire carries. Above it the error law fails before int64
# does: float64 spacing at the largest coded value nears sigma (at 40 bits
# it is about sigma/3500).
MAX_BITS = 40
# Bound on the step R - L of any layer, in units of sigma. |x| <= 38.5 sigma,
# as |Phi^-1(u)| <= 38.5 for every double u in (0, 1). So the end taken from
# ln y0 = -(x/sigma)^2/2 + ln u2 is at most sigma * sqrt(38.5^2 - 2 ln u2) for
# the least double u2 > 0 (54.5 sigma), and the other end, sigma * sqrt(-2 ln(1 - y0))
# with ln y0 <= ln(1 - 2^-53), at most sigma * sqrt(-2 ln 2^-53) (8.6 sigma).
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

    ``x`` is the dither coordinate and [L, R] the layer: e^(-(end/sigma)^2/2) is the
    drawn height y0 at its end on x's side and 1 - y0 at the other; q_step = R - L.
    Fields may be scalars or aligned arrays (one layer per element). A round's layer
    (_layer_at) has no L: the codec reads x, R and q_step alone.
    """

    x: np.ndarray
    L: np.ndarray | None
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


def _check_sigma(sigma):  # one real number, not a bool, an array or a string
    if not (isinstance(sigma, (int, float, np.integer, np.floating)) and not isinstance(sigma, bool)
            and 0.0 < sigma <= MAX_SIGMA):  # False at NaN
        raise InvalidParameterError(
            f"sigma must lie in (0, {MAX_SIGMA:.4g}] as one real number, got {sigma!r}")


def sample_layer(sigma: float, uniforms) -> LayerSample:
    """Draw a layer of the flipped-Gaussian region from two uniforms (u1, u2).

    x = sigma * t with t = Phi^-1(u1); the height y0 = u2 * exp(-t^2/2), uniform
    under the density at x, is flipped to 1 - y0 when x < 0, which keeps x Gaussian
    while bounding the step away from zero. From h = ln y0 < 0, the end on x's side
    is sigma * sqrt(-2h) and the other sigma * sqrt(-2 ln(1 - y0)). Where y0 is
    subnormal or 0 (h < -708: only uniforms below the PRF's least, 2^-64, reach it),
    that other end, below 2.2e-154 * sigma, loses digits or is 0.

    Accepts scalar or array uniforms of one shape (one layer per element) and one
    scalar sigma, which scales last: the layer is the layer at 1 times sigma, bit for bit.
    """
    _check_sigma(sigma)
    u2 = np.asarray(uniforms[1], dtype=np.float64)
    if np.shape(uniforms[0]) != u2.shape:
        raise InvalidParameterError(
            f"uniforms of shapes {np.shape(uniforms[0])} and {u2.shape} need one shape")
    try:  # u1's check is the quantile's
        if not (u2.min(initial=0.5) > 0.0 and u2.max(initial=0.5) < 1.0):  # NaN fails both
            raise InvalidParameterError
        t = np.atleast_1d(inv_norm_cdf(uniforms[0]))
    except InvalidParameterError:
        raise InvalidParameterError("uniforms must lie strictly inside (0, 1)") from None
    h = np.square(t)  # in place from here on: at large d a fresh array faults its pages
    h *= -0.5
    near = np.exp(h)
    near *= u2  # y0, within (t^2/4 + 1) ulps: exp(h) would scale h's rounding by |h|
    h += np.log(u2)  # ln y0
    np.log1p(np.negative(near, out=near), out=near)
    top = h > -1.0 / 16.0  # there log1p loses digits to y0's rounding: Maechler's log1mexp
    near[top] = np.log(np.negative(np.expm1(h[top])))
    for end in (h, near):  # sigma * sqrt(-2 ln y0) and sigma * sqrt(-2 ln(1 - y0))
        end *= -2.0
        np.multiply(np.sqrt(end, out=end), sigma, out=end)
    far = np.copysign(h, t, out=h)  # the sign of t puts far on x's side, near on the other
    near = np.negative(np.copysign(near, t, out=near), out=near)
    R = np.maximum(far, near)
    L = np.minimum(far, near, out=far)
    fields = (np.multiply(t, sigma, out=t), L, R, np.subtract(R, L, out=near))
    return LayerSample(*(a[0] for a in fields) if np.ndim(uniforms[0]) == 0 else fields)


def _layer_at(sigma: float, unit) -> LayerSample:
    """sample_layer(sigma, u) from sample_layer(1.0, u)'s (x, L, R), bit for bit, in one read-only
    block with no L: it scales last, and copysign, negation, max and min commute with * sigma."""
    out = np.empty((3, *np.shape(unit[0])))  # x, R and q_step in one allocation
    for a, b in zip((unit[0], unit[2], unit[1]), out):  # L * sigma goes in q_step's slot
        np.multiply(a, sigma, out=b)
    np.subtract(out[1], out[2], out=out[2])  # R - L, as sample_layer forms it
    out.flags.writeable = False
    return LayerSample(out[0], None, *out[1:])


def lrq_encode(u, layer: LayerSample):
    """Index of the rectangle shift containing u: floor((u + R - x) / q_step)."""
    u = np.asarray(u, dtype=np.float64)
    if u.size and not np.all(np.isfinite(u)):
        raise InvalidParameterError("input to encode must be finite")
    m = _cell(u, layer)
    return int(m) if m.ndim == 0 else m


def _cell(u, layer: LayerSample) -> np.ndarray:
    """lrq_encode's floor((u + R - x) / q_step) of float64 u its callers checked for finiteness."""
    return np.floor((u + layer.R - layer.x) / layer.q_step).astype(np.int64)


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
    return _cell(-np.asarray(scales, dtype=np.float64)[:, None], layer)


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
    rel = _cell(V, layer) - _base_indices(layer, scales)
    clamped = np.minimum(np.maximum(rel, 0), (np.left_shift(1, widths) - 1)[:, None])  # np.clip's
    # bytes, without its Python-level wrapper
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
    if not np.isfinite(encoded.scale):
        raise InvalidParameterError(f"scale must be finite, got {encoded.scale}")
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


def stochastic_round(v, b, uniforms, scale):
    """Unbiased level indices of float64 v, a row's at its width in ``b`` and finite inf-norm
    ``scale``: level j sits at -scale + j * 2*scale/(levels-1), and each element rounds to a
    neighbouring level with probability proportional to proximity. An all-zero row gets 0."""
    scale = np.asarray(scale)[..., None]
    n_lev = stochastic_levels(b)[..., None]
    # A zero scale means an all-zero row: any spacing > 0 sends it to index 0.
    spacing = np.where(scale > 0.0, 2.0 * scale / (n_lev - 1), 1.0)
    t = (v + scale) / spacing
    lo = np.floor(t)
    return np.clip((lo + (uniforms < t - lo)).astype(np.int64), 0, n_lev - 1)


def stochastic_dequantize(indices, b, scale) -> np.ndarray:
    """Map level indices back to real values on [-scale, scale]; one width
    and one scale per row of (B, d) indices."""
    scale = np.asarray(scale, dtype=np.float64)[..., None]
    spacing = 2.0 * scale / (stochastic_levels(b)[..., None] - 1)
    return np.asarray(indices, dtype=np.float64) * spacing - scale
