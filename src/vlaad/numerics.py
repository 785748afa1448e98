"""Small numerically-careful primitives shared across modules."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Overflow-safe logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def scalar_sigmoid(x: float) -> float:
    """``sigmoid`` of one float, bit for bit: the same branches through
    ``np.exp`` (``math.exp`` differs from it in the last bit on some inputs)."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))


def softplus(x):
    """log(1 + exp(x)) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out
