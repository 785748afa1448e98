"""Detection metrics, driving-benchmark scoring, and route-paired
significance testing.

AUC uses the Mann-Whitney rank form with midrank tie handling; the tests
cross-check it against trapezoidal ROC integration (``tests/oracles.py``).
The Wilcoxon signed-rank p-value is exact up to n = 20 effective pairs: it
counts, for every rank sum, how many of the 2^n sign assignments give it.
Above that it switches to the normal approximation.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .errors import (LINES_BUFFER, ValidationError, json_int, json_lines,
                     json_number, json_str)

# Severity coefficients of the additive-denominator penalty (v2.1):
# pedestrian 1.0, vehicle 0.70, static-layout 0.60.
DEFAULT_V21_COEFFICIENTS = {
    "pedestrian": 1.0,
    "vehicle": 0.70,
    "layout": 0.60,
    "static": 0.60,
}
COLLISION_TYPES = frozenset({"pedestrian", "vehicle", "layout", "static"})

EXACT_WILCOXON_MAX_N = 20


@dataclass
class ScoredSet:
    """Parallel score/label lists for threshold metrics and AUC."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.ndim != 1 or self.scores.shape != self.labels.shape:
            raise ValidationError("scores and labels must be equal-length 1-D")
        if self.scores.size < 1:
            raise ValidationError("scored set must be non-empty")
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("scores must be finite")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValidationError("labels must be 0 or 1")

    def require_both_classes(self) -> None:
        if len(set(self.labels.tolist())) < 2:
            raise ValidationError("both classes must be present")


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank run."""
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64),
                                 return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # run g covers sorted positions i..j = ends-counts..ends-1
    return (0.5 * ((ends - counts) + (ends - 1)) + 1.0)[group]


def roc_auc(scored: ScoredSet) -> float:
    """Threshold-independent ranking quality; ties contribute one half."""
    scored.require_both_classes()
    ranks = _midranks(scored.scores)
    pos = scored.labels == 1
    n_pos = int(pos.sum())
    n_neg = scored.labels.size - n_pos
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class YoudenResult(NamedTuple):
    threshold: float
    j_statistic: float
    degenerate: bool  # no candidate beats J = 0


def youden_threshold(validation: ScoredSet) -> YoudenResult:
    """Threshold maximizing J = TPR - FPR over all candidate cuts.

    Candidates are midpoints of adjacent distinct sorted scores plus one
    sentinel below the minimum and one above the maximum; classification is
    score >= threshold.  Among maximizers the smallest threshold wins.
    """
    validation.require_both_classes()
    distinct = np.unique(validation.scores)
    candidates = np.concatenate([
        [distinct[0] - 1.0],
        (distinct[:-1] + distinct[1:]) / 2.0,
        [distinct[-1] + 1.0],
    ])
    pos = validation.labels == 1
    pos_sorted = np.sort(validation.scores[pos])
    neg_sorted = np.sort(validation.scores[~pos])
    # scores >= candidate, counted per class; a midpoint that rounds onto a
    # score still counts that score, as the comparison does
    tp = pos_sorted.size - np.searchsorted(pos_sorted, candidates, side="left")
    fp = neg_sorted.size - np.searchsorted(neg_sorted, candidates, side="left")
    tpr = tp / pos_sorted.size
    fpr = fp / neg_sorted.size
    j = tpr - fpr
    best = int(np.argmax(j))  # first max = smallest candidate
    return YoudenResult(float(candidates[best]), float(j[best]),
                        bool(j[best] <= 0.0))


def threshold_metrics(scored: ScoredSet, tau: float) -> Dict[str, float]:
    """Confusion-matrix metrics at one threshold (score >= tau is positive).

    F1 is 0 by convention whenever its denominator vanishes.
    """
    preds = scored.scores >= tau
    actual = scored.labels == 1
    tp = int((preds & actual).sum())
    fp = int((preds & ~actual).sum())
    fn = int((~preds & actual).sum())
    tn = int((~preds & ~actual).sum())
    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return {
        "f1": f1,
        "accuracy": (tp + tn) / scored.labels.size,
        "tpr": tp / (tp + fn) if (tp + fn) else 0.0,
        "fpr": fp / (fp + tn) if (fp + tn) else 0.0,
    }


@dataclass
class DrivingRunRecord:
    """Per-route closed-loop outcome: completion, distance, infractions.

    Checked on construction: each field's JSON type, then its range.
    ``collisions`` is the sum of the collision-type counts, taken then.
    """

    route_id: str
    km: float
    route_completion: float  # percent, 0..100
    infractions: Dict[str, int] = field(default_factory=dict)
    coefficients: Dict[str, float] | None = None  # v2.1 c_j
    penalty_weights: Dict[str, float] | None = None  # v2.0 p_j
    collisions: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        json_str(self.route_id, "route_id")
        if json_number(self.km, "km") < 0:
            raise ValidationError("km must be >= 0")
        if not 0.0 <= json_number(self.route_completion, "route_completion") <= 100.0:
            raise ValidationError("route_completion must be in [0, 100]")
        if not isinstance(self.infractions, Mapping):
            raise ValidationError("infractions must map infraction types to counts")
        collisions = 0
        for kind, count in self.infractions.items():
            if json_int(count, "infractions", kind) < 0:
                raise ValidationError(f"negative count for infraction {kind!r}")
            if kind in COLLISION_TYPES:
                collisions += count
        self.collisions = collisions
        for name in ("coefficients", "penalty_weights"):
            params = getattr(self, name)
            if params is not None and not isinstance(params, Mapping):
                raise ValidationError(f"{name} must map infraction types to numbers")
            for kind, value in (params or {}).items():
                json_number(value, name, kind)


def infraction_penalty(counts: Mapping[str, int], params: Mapping[str, float],
                       version: str = "v21") -> float:
    """Penalty factor in (0, 1] for a route's infraction counts.

    v2.0 multiplies per-type weights p_j in (0, 1] once per occurrence;
    v2.1 uses the additive denominator 1 / (1 + sum_j c_j * n_j).  Zero
    infractions give exactly 1.0 under both.
    """
    for kind, count in counts.items():
        if count < 0:
            raise ValidationError(f"negative count for infraction {kind!r}")
        if kind not in params:
            raise ValidationError(
                f"no {version} parameter supplied for infraction type {kind!r}")
    if version == "v20":
        penalty = 1.0
        for kind, count in counts.items():
            p = params[kind]
            if not (0.0 < p <= 1.0):
                raise ValidationError(f"v2.0 weight for {kind!r} must be in (0, 1]")
            penalty *= p ** count
        return penalty
    if version == "v21":
        total = 0.0
        for kind, count in counts.items():
            c = params[kind]
            if not math.isfinite(c):
                raise ValidationError(
                    f"v2.1 coefficient for {kind!r} must be finite, got {c!r}")
            if c < 0:
                raise ValidationError(f"v2.1 coefficient for {kind!r} must be >= 0")
            total += c * count
        return 1.0 / (1.0 + total)
    raise ValidationError(f"unknown scoring version {version!r}")


def summarize_run(record: DrivingRunRecord, version: str = "v21") -> Dict[str, float]:
    """Route summary {RC, IS, DS, Col_per_km}; DS = RC x penalty.

    Parameters: the record's own coefficients/weights, else (v2.1 only) the
    default severity table.
    """
    params = record.coefficients if version == "v21" else record.penalty_weights
    if params is None:
        if version == "v21":
            params = DEFAULT_V21_COEFFICIENTS
        else:
            raise ValidationError("v2.0 scoring requires explicit penalty weights")
    penalty = infraction_penalty(record.infractions, params, version)
    collisions = record.collisions
    if record.km == 0:
        if collisions:
            raise ValidationError("km = 0 with nonzero collision counts")
        col_per_km = 0.0
    else:
        col_per_km = collisions / record.km
        if col_per_km == math.inf:
            raise ValidationError(f"Col_per_km = {collisions} collisions / "
                                  f"{record.km!r} km is not finite")
    return {
        "RC": record.route_completion,
        "IS": penalty,
        "DS": record.route_completion * penalty,
        "Col_per_km": col_per_km,
    }


def iter_run_summaries(path, version: str = "v21") -> Iterator[
        Tuple[DrivingRunRecord, Dict[str, float]]]:
    """``(record, summarize_run(record, version))`` per run record, in file
    order; an error in either names the file and the line."""
    def parse(obj):
        record = _run_record(obj)
        return record, summarize_run(record, version)

    with open(path, "rb", buffering=LINES_BUFFER) as fh:
        yield from json_lines(fh, path, "run record", parse)


def read_run_records(path) -> List[DrivingRunRecord]:
    """Run records, JSON Lines of the DrivingRunRecord fields, in file order."""
    with open(path, "rb", buffering=LINES_BUFFER) as fh:
        return list(json_lines(fh, path, "run record", _run_record))


def _run_record(obj) -> DrivingRunRecord:
    return DrivingRunRecord(
        route_id=obj["route_id"], km=obj["km"],
        route_completion=obj["route_completion"],
        infractions=obj.get("infractions", {}),
        coefficients=obj.get("coefficients"),
        penalty_weights=obj.get("penalty_weights"))


@dataclass
class WilcoxonResult:
    """One-sided signed-rank outcome."""

    statistic: float  # W: rank sum of positive differences
    n_effective: int  # pairs remaining after zero-dropping
    p_one_sided: float
    method: str  # "exact" | "normal" | "normal_cc"

    def __post_init__(self):
        upper = self.n_effective * (self.n_effective + 1) / 2.0
        if not (0.0 <= self.statistic <= upper):
            raise ValidationError(
                f"W = {self.statistic} outside [0, {upper}] for n = {self.n_effective}")


def _exact_tail_probability(ranks: np.ndarray, w_observed: float) -> float:
    """P(W >= w) under the null, counted over all 2^n sign assignments:
    ``counts[s]`` is how many give the doubled rank sum ``s`` (doubled, as
    midranks are half-integer), built up one rank at a time."""
    scaled = np.asarray(np.rint(2.0 * ranks), dtype=np.int64)
    counts = np.zeros(int(scaled.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for v in scaled:  # that rank either joins each sum so far or not
        counts[v:] += counts[:-v].copy()
    target = int(np.rint(2.0 * w_observed))
    return int(counts[target:].sum()) / 2 ** scaled.size


def wilcoxon_signed_rank(deltas, continuity: bool = False) -> WilcoxonResult:
    """One-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped; absolute values are midranked on ties; the
    statistic W is the rank sum of the positive differences.  The one-sided
    p-value is P(W_null >= W): an exact count of the sign assignments when the
    effective sample size is at most 20, otherwise a normal approximation
    with tie-corrected variance (``continuity`` adds the 0.5 correction).

    Parameters
    ----------
    deltas : array_like
        Paired differences (e.g. per-route score deltas between two systems).
    continuity : bool
        Apply the continuity correction in the normal-approximation branch.

    Returns
    -------
    WilcoxonResult
        W, effective n, one-sided p, and the method used.
    """
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim != 1:
        raise ValidationError("deltas must be 1-D")
    if not d.size:
        raise ValidationError("deltas is empty; no pairs to test")
    if not np.all(np.isfinite(d)):
        raise ValidationError("deltas must be finite")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ValidationError("all deltas are zero; no effective pairs")
    ranks = _midranks(np.abs(d))
    w = float(ranks[d > 0].sum())

    if n <= EXACT_WILCOXON_MAX_N:
        return WilcoxonResult(w, n, _exact_tail_probability(ranks, w), "exact")

    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
    shift = 0.5 if continuity else 0.0
    zscore = (w - mu - shift) / math.sqrt(var)
    p = 0.5 * math.erfc(zscore / math.sqrt(2.0))
    return WilcoxonResult(w, n, p, "normal_cc" if continuity else "normal")
