"""Cosine similarity and the homoscedastic uncertainty-weighted total of
the training objective's two losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding
from .errors import DegenerateInputError, DimensionMismatchError, ValidationError


def _vec(e) -> np.ndarray:
    vals = e.values if isinstance(e, Embedding) else e
    return np.asarray(vals, dtype=np.float64)


def cosine_similarity(a, b) -> float:
    """cos(a, b); raises on zero-norm input rather than emitting NaN."""
    va, vb = _vec(a), _vec(b)
    if va.shape != vb.shape:
        raise DimensionMismatchError(f"shape mismatch {va.shape} vs {vb.shape}")
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateInputError("cosine of a zero-norm vector is undefined")
    return float(va @ vb / (na * nb))


def uncertainty_weighted_total(l_sim: float, l_cls: float,
                               s_sim: float, s_cls: float) -> float:
    """exp(-s)/2-weighted sum of both losses plus the log-variance terms.

    With s = log(variance) this is the standard homoscedastic multi-task
    weighting; the value may be negative through the s terms.
    """
    for name, val in (("l_sim", l_sim), ("l_cls", l_cls),
                      ("s_sim", s_sim), ("s_cls", s_cls)):
        if not np.isfinite(val):
            raise ValidationError(f"{name} must be finite")
    return float(0.5 * np.exp(-s_sim) * l_sim + 0.5 * np.exp(-s_cls) * l_cls
                 + s_sim + s_cls)


@dataclass
class LossBreakdown:
    """One training step's loss components and their weighted total."""

    l_sim: float
    l_cls: float
    s_sim: float
    s_cls: float
    l_total: float

    @classmethod
    def compute(cls, l_sim: float, l_cls: float, s_sim: float, s_cls: float):
        if l_sim < 0 or l_cls < 0:
            raise ValidationError("component losses must be non-negative")
        return cls(l_sim, l_cls, s_sim, s_cls,
                   uncertainty_weighted_total(l_sim, l_cls, s_sim, s_cls))
