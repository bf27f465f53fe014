"""Inverse standard-normal CDF: a domain-checked ``scipy.special.ndtri``.

A single uniform maps to one Gaussian draw, so callers get a fixed
draws-per-sample contract (unlike Box-Muller, which consumes two uniforms
and produces two draws).
"""

import numpy as np
from scipy.special import ndtri

from .errors import InvalidParameterError


def inv_norm_cdf(p):
    """Quantile function of N(0, 1) for p strictly inside (0, 1).

    Accepts scalars or arrays; returns the same shape. Raises
    InvalidParameterError for non-finite input or values at/outside {0, 1}.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not ((arr > 0.0) & (arr < 1.0)).all():  # also false for NaN
        raise InvalidParameterError("probabilities must lie strictly inside (0, 1)")
    x = ndtri(arr)
    return float(x) if arr.ndim == 0 else x
