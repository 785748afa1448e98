"""The homoscedastic uncertainty-weighted total of the training objective's
two losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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
