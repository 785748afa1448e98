"""Small numerically-careful primitives shared across modules."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Overflow-safe logistic function, elementwise.  A float (``np.float64``
    is one) gives a float through the same ``np.exp`` branches, bit for bit
    (``math.exp`` differs from ``np.exp`` in the last bit on some inputs)."""
    if isinstance(x, float):
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def softplus(x):
    """log(1 + exp(x)) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out
