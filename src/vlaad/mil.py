"""Bag construction and multiple-instance aggregation of snippet logits.

A clip is a bag of temporally ordered snippets with a single clip-level
label.  Snippet logits are pooled with a temperature-controlled log-sum-exp
that interpolates between the mean (small gamma) and the max (large gamma):

    pool(z) = max-shifted (1/gamma) * (log sum_t exp(gamma * z_t) - log T)

The pooling-induced attention softmax(gamma * z) is exactly the gradient of
the pooled value with respect to the snippet logits.  ``segment_lse_pool``
computes both for many bags at once over their stacked snippet logits;
``lse_pool`` and ``pooling_attention`` are that kernel on one bag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .embeddings import EncoderHandle
from .errors import (DegenerateInputError, DimensionMismatchError, EmptyInputError,
                     MissingEmbeddingError, ValidationError)

if TYPE_CHECKING:  # pragma: no cover
    from .datakit import ClipRecord

DEFAULT_GAMMA = 10.0
# The pool's rounding error is about ulp(log T) / gamma: under 1e-9 from
# here up, while near gamma = 1e-16 the pool reads the max, not the mean.
MIN_GAMMA = 1e-6
DEFAULT_SNIPPET_LEN = 8
DEFAULT_SNIPPET_STRIDE = 8


@dataclass
class Bag:
    """Ordered snippet embeddings of one clip; label lives at bag level only.

    Unchecked: ``segment_clip``/``encode_clip`` build it from ``_encode``'s
    (T >= 1, D) float32 rows, a range of start times and a checked label."""

    clip_id: str
    snippets: np.ndarray  # (T, D) float32
    start_times: np.ndarray  # (T,) seconds
    label: int

    @property
    def size(self) -> int:
        return int(self.snippets.shape[0])


def _check_pool_args(logits, gamma) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise EmptyInputError("logit sequence must be non-empty and 1-D")
    if not np.all(np.isfinite(z)):
        raise ValidationError("logits must be finite")
    if not gamma >= MIN_GAMMA:  # NaN included
        raise ValidationError(f"gamma must be >= {MIN_GAMMA}, got {gamma}")
    return z


def segment_lse_pool(logits, starts, gamma: float = DEFAULT_GAMMA):
    """The pool and its attention of many bags stacked back to back.

    ``logits`` holds the snippet logits of every bag in bag order and
    ``starts`` the row at which each bag begins (0 first, strictly
    increasing, so no bag is empty).  Returns the pooled logit per bag and
    the attention per row.  Each bag is shifted by its own max, so exp
    never overflows even for logits of magnitude 1e4.
    """
    z = _check_pool_args(logits, gamma)
    starts = np.asarray(starts, dtype=np.intp)
    counts = np.diff(starts, append=z.size)
    if starts.ndim != 1 or starts.size < 1 or starts[0] != 0 or np.any(counts < 1):
        raise ValidationError("bag starts must be 0, then strictly increasing "
                              "row offsets below the row count")
    seg = np.repeat(np.arange(starts.size), counts)
    m = np.maximum.reduceat(z, starts)
    shifted = np.exp(gamma * (z - m[seg]))
    sums = np.add.reduceat(shifted, starts)
    pooled = m + (np.log(sums) - np.log(counts)) / gamma
    return pooled, shifted / sums[seg]


def lse_pool(logits, gamma: float = DEFAULT_GAMMA) -> float:
    """Temperature-controlled log-sum-exp pooling of one bag's logits."""
    return float(segment_lse_pool(logits, [0], gamma)[0][0])


def pooling_attention(logits, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """softmax(gamma * z), the gradient of ``lse_pool`` in each logit."""
    return segment_lse_pool(logits, [0], gamma)[1]


def _frames(clip: "ClipRecord"):
    """The clip's frame count and its frames for the encoder.  Inline frames
    not yet decoded are passed as a callable that decodes them, so an
    encoder that reads no frames never decodes them."""
    if clip.inline is not None:
        return clip.inline.shape[0], clip.feature_matrix
    feats = clip.feature_matrix()
    return feats.shape[0], feats


def _encode(feats, starts, length: int, keys, encoder: EncoderHandle,
            what: str) -> np.ndarray:
    """The windows ``feats[s:s + length]`` of the clip ``what`` names, in one
    encoder call: a (len(starts), D) float32 block, row t keyed ``keys[t]``.
    A block of another shape, or a window the encoder cannot normalize or
    find, is an error naming the clip; a cache that changed after it was
    read names its own path and byte instead."""
    try:
        rows = encoder.encode_windows(feats, starts, length, keys)
    except (DegenerateInputError, MissingEmbeddingError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if rows.shape != (len(starts), encoder.dim):
        raise DimensionMismatchError(
            f"{what}: encoder produced shape {rows.shape} for {len(starts)} "
            f"windows, expected ({len(starts)}, {encoder.dim})")
    return np.asarray(rows, dtype=np.float32)


def segment_clip(clip: "ClipRecord", snippet_len: int, stride: int,
                 encoder: EncoderHandle) -> Bag:
    """Slice a clip's frame features into encoded snippets, order preserved.

    Produces T = floor((F - snippet_len) / stride) + 1 snippets at 4 Hz
    frame timing, all encoded in one encoder call; snippet i is keyed
    ``clip_id:i``.  Unchecked, as its callers ensure: ``snippet_len``, ``stride`` >= 1.
    """
    n_frames, feats = _frames(clip)
    if n_frames < snippet_len:
        raise ValidationError(
            f"{clip.name} has {n_frames} frames, fewer than "
            f"snippet_len {snippet_len}")
    starts = range(0, n_frames - snippet_len + 1, stride)
    keys = [f"{clip.clip_id}:{i}" for i in range(len(starts))]
    rows = _encode(feats, starts, snippet_len, keys, encoder, clip.name)
    times = np.arange(starts.start, starts.stop, stride, dtype=np.float64)
    return Bag(clip.clip_id, rows, times / clip.frame_hz, clip.label)


def encode_clip(clip: "ClipRecord", mode: str, encoder: EncoderHandle,
                snippet_len: int = DEFAULT_SNIPPET_LEN,
                stride: int = DEFAULT_SNIPPET_STRIDE) -> Bag:
    """The bag a clip is scored from under ``mode``: ``segment_clip``'s in MIL
    mode; in clip mode one window of every frame, keyed ``clip_id:clip``."""
    if mode == "mil":
        return segment_clip(clip, snippet_len, stride, encoder)
    n_frames, feats = _frames(clip)
    rows = _encode(feats, [0], n_frames, [f"{clip.clip_id}:clip"], encoder, clip.name)
    return Bag(clip.clip_id, rows, np.zeros(1), clip.label)
