"""Inverse standard-normal CDF: Wichura's AS241 (PPND16) in numpy.

M. J. Wichura, "Algorithm AS 241: The Percentage Points of the Normal Distribution",
Applied Statistics 37(3), 1988. Against a 40-digit mpmath reference its largest relative
error is about 7e-16 from p = 1e-300 to 1 - 2^-53, as is scipy's ``ndtri``'s, which the
package does not import. One uniform maps to one Gaussian draw, so callers get a fixed
draws-per-sample contract (unlike Box-Muller, which consumes two uniforms for two draws).
"""

import numpy as np

from .errors import InvalidParameterError

# (numerator, denominator) coefficients, highest power first: in r = 0.180625 - q^2 for
# |q| = |p - 1/2| <= 0.425, else in r - 1.6 and, past r = 5, r - 5 for r = sqrt(-ln min(p, 1-p)).
_CENTRAL = ((2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
             13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665),
            (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
             5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0))
_NEAR = ((0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
          3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835),
         (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
          0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0))
_FAR = ((2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
         0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
         6.657904643501103),
        (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
         0.0007868691311456133, 0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0))


def _poly(coefs, r, out=None):
    """sum_i coefs[i] * r^(7-i) at r (n,), by Horner in place in out (n,) or a new array."""
    out = np.multiply(r, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= r
    out += coefs[-1]
    return out


def inv_norm_cdf(p):
    """Quantile function of N(0, 1) for p strictly inside (0, 1).

    Accepts scalars or arrays; returns the same shape, a float for a 0-d input.
    Raises InvalidParameterError for non-finite input or values at/outside {0, 1}.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not (arr.min(initial=0.5) > 0.0 and arr.max(initial=0.5) < 1.0):  # NaN fails both
        raise InvalidParameterError("probabilities must lie strictly inside (0, 1)")
    flat = arr.reshape(-1)
    x = flat - 0.5  # q: every element takes the central q * a(r) / b(r), in place
    work = np.empty((2, x.size))  # r and one polynomial: each fresh array faults its pages
    tail = np.flatnonzero(np.abs(x, out=work[1]) > 0.425)
    q_tail = x[tail]
    r = np.subtract(0.180625, np.multiply(x, x, out=work[1]), out=work[1])
    x *= _poly(_CENTRAL[0], r, work[0])
    x /= _poly(_CENTRAL[1], r, work[0])
    if tail.size:  # the tails, compressed; 1 - p is exact above 1/2
        r = np.minimum(flat[tail], 1.0 - flat[tail])
        r = np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
        t = r - 1.6
        num = _poly(_NEAR[0], t) / _poly(_NEAR[1], t)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            t = r[far] - 5.0
            num[far] = _poly(_FAR[0], t) / _poly(_FAR[1], t)
        x[tail] = np.copysign(num, q_tail, out=num)
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)
