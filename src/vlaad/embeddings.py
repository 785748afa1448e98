"""Encoder abstraction producing video-snippet and caption embeddings.

Two encoder families satisfy the same small interface:

* ``StubEncoder`` is a pure function of (input, seed): a fixed random
  projection for video windows and a hash-bucket bag-of-tokens projection
  for captions, both unit-normalized.  It keeps the entire pipeline
  runnable and byte-reproducible on a laptop with no model weights.
* ``CachedEncoder`` serves embeddings that a real pretrained backbone wrote
  offline into the binary cache file (see ``write_embedding_cache``).
  External backbones never link into the math core; the cache file is the
  only seam.  Cached vectors are served as-is, without renormalization.

At the CLI, ``--embedding-cache`` selects the cache encoder for ``train``,
``eval`` and ``trace``; without it, and always for ``infer``, the stub runs.
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Protocol, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyInputError,
    ValidationError,
)

DEFAULT_DIM = 768
DEFAULT_TEXT_BUCKETS = 512

CACHE_MAGIC = b"VLEC"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<4sIIQ")  # magic, version, D, count
_FINITE_CHECK_BYTES = 1 << 20  # vector bytes per pass locating a non-finite one

# Seed-stream tags so the video and text projections never collide even
# for identical (seed, shape) pairs.
_VIDEO_STREAM = 101
_TEXT_STREAM = 202


@dataclass(frozen=True)
class Embedding:
    """A fixed-dimension float32 vector from a video or text encoder."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.ndim != 1:
            raise ValidationError(f"embedding must be 1-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("embedding has non-finite entries")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


@dataclass
class FrameWindow:
    """Ordered per-frame feature rows for one snippet."""

    frames: np.ndarray  # (K, feat)
    timestamps: np.ndarray  # (K,) seconds, strictly increasing

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise EmptyInputError("frame window must contain at least one frame")
        if self.timestamps.shape != (self.frames.shape[0],):
            raise ValidationError("one timestamp per frame required")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValidationError("timestamps must be strictly increasing")


class EncoderHandle(Protocol):
    """Anything that maps clip windows and captions to D-dim embeddings."""

    dim: int

    def encode_windows(self, frames, starts: Sequence[int],
                       length: int, keys: Sequence[str]) -> np.ndarray:
        """(T, D) float32: row t encodes ``frames[starts[t]:starts[t] + length]``,
        the window ``keys[t]`` names.  ``frames`` is the (F, feat) matrix or
        a callable that returns it; an encoder calls it only if it reads
        frames."""
        ...

    def encode_text(self, caption: str) -> Embedding: ...


def _unit(vec: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if not np.isfinite(norm) or norm < 1e-12:
        raise DegenerateInputError(f"{what} has (near-)zero norm; refusing to emit NaN")
    return (vec / norm).astype(np.float32)


class StubEncoder:
    """Deterministic desk-scale encoder pair.

    Video windows are mean-pooled over frames, passed through a fixed seeded
    dense projection to ``dim``, and unit-normalized.  Captions are trimmed,
    lower-cased, tokenized on whitespace, hashed into ``text_buckets`` count
    buckets (stable sha256 hashing, not the salted builtin), projected with a
    second seeded matrix, and unit-normalized.

    Projections are pure functions of (seed, shape); they are materialized
    lazily and cached.  Instances are immutable after construction and safe
    to call concurrently.
    """

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 0,
                 text_buckets: int = DEFAULT_TEXT_BUCKETS):
        if dim < 1:
            raise ValidationError("encoder dim must be >= 1")
        self.dim = int(dim)
        self.seed = int(seed)
        self.text_buckets = int(text_buckets)
        self._video_proj: Dict[int, np.ndarray] = {}
        self._text_proj: np.ndarray | None = None

    def _projection(self, in_dim: int) -> np.ndarray:
        mat = self._video_proj.get(in_dim)
        if mat is None:
            rng = np.random.default_rng([self.seed, _VIDEO_STREAM, in_dim, self.dim])
            mat = rng.standard_normal((in_dim, self.dim)) / np.sqrt(in_dim)
            self._video_proj[in_dim] = mat
        return mat

    def _text_projection(self) -> np.ndarray:
        if self._text_proj is None:
            rng = np.random.default_rng(
                [self.seed, _TEXT_STREAM, self.text_buckets, self.dim])
            self._text_proj = (rng.standard_normal((self.text_buckets, self.dim))
                               / np.sqrt(self.text_buckets))
        return self._text_proj

    def _window_vector(self, frames: np.ndarray) -> np.ndarray:
        # one window at a time, so every row is bit for bit encode_window's;
        # a (T, F) @ (F, D) product over many windows may round differently
        pooled = np.asarray(frames, dtype=np.float64).mean(axis=0)
        return _unit(pooled @ self._projection(pooled.shape[0]), "projected window")

    def encode_window(self, window: FrameWindow) -> Embedding:
        return Embedding(self._window_vector(window.frames))

    def encode_windows(self, frames, starts, length, keys) -> np.ndarray:
        if callable(frames):
            frames = frames()
        out = np.empty((len(starts), self.dim), dtype=np.float32)
        # each slice goes to float64 on its own: a float64 copy of the whole
        # clip per call fragments the heap (+1 MB peak RSS in training)
        for row, s in zip(out, starts):
            row[:] = self._window_vector(frames[s:s + length])
        return out

    def encode_text(self, caption: str) -> Embedding:
        text = caption.strip()
        if not text:
            raise EmptyInputError("caption is empty after whitespace trim")
        counts = np.zeros(self.text_buckets, dtype=np.float64)
        for token in text.lower().split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            counts[int.from_bytes(digest[:8], "little") % self.text_buckets] += 1.0
        projected = counts @ self._text_projection()
        return Embedding(_unit(projected, "projected caption"))


class CachedEncoder:
    """Encoder backed by an offline embedding-cache file.

    Windows are looked up by their keys and captions by their trimmed text.
    Vectors are returned exactly as stored; the reader has already rejected
    any that is not finite.
    """

    def __init__(self, path):
        self._rows, self._vectors, self.dim = read_embedding_cache(path)

    def _index(self, keys: Sequence[str]) -> list:
        try:
            return [self._rows[key] for key in keys]
        except KeyError as exc:
            raise ValidationError(
                f"embedding id {exc.args[0]!r} not present in cache") from None

    def encode_windows(self, frames, starts, length, keys) -> np.ndarray:
        return self._vectors.take(self._index(keys), axis=0)  # one gather, a copy

    def encode_text(self, caption: str) -> Embedding:
        return Embedding(self._vectors[self._index([caption.strip()])[0]])


def encode_video_snippet(window: FrameWindow, encoder: StubEncoder) -> Embedding:
    """Encode one frame window into a video embedding of the encoder's dim."""
    emb = encoder.encode_window(window)
    if emb.dim != encoder.dim:
        raise DimensionMismatchError(
            f"encoder produced dim {emb.dim}, configured for {encoder.dim}")
    return emb


def encode_video_snippets(frames, starts: Sequence[int], length: int,
                          keys: Sequence[str], encoder: EncoderHandle) -> np.ndarray:
    """Encode the windows ``frames[s:s + length]`` of one clip in one encoder
    call: a (len(starts), D) float32 block, row t keyed ``keys[t]``.
    ``frames`` may be a callable that returns them (see ``EncoderHandle``)."""
    rows = encoder.encode_windows(frames, starts, length, keys)
    if rows.shape != (len(starts), encoder.dim):
        raise DimensionMismatchError(
            f"encoder produced shape {rows.shape} for {len(starts)} windows, "
            f"expected ({len(starts)}, {encoder.dim})")
    return rows


def encode_text(caption: str, encoder: EncoderHandle) -> Embedding:
    """Encode one caption into a text embedding of the encoder's dim."""
    emb = encoder.encode_text(caption)
    if emb.dim != encoder.dim:
        raise DimensionMismatchError(
            f"encoder produced dim {emb.dim}, configured for {encoder.dim}")
    return emb


def write_embedding_cache(path, entries: Mapping[str, np.ndarray] | Iterable[Tuple[str, np.ndarray]],
                          dim: int) -> int:
    """Write the binary embedding cache (single writer).

    Layout, little-endian: magic ``VLEC``, version u32, dim u32, count u64,
    then per record a u16 id length, the UTF-8 id, and dim float32 values.
    Returns the number of records written.
    """
    items = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
    with open(path, "wb") as fh:
        fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, dim, len(items)))
        for key, vec in items:
            vec = np.asarray(vec, dtype="<f4")
            if vec.shape != (dim,):
                raise DimensionMismatchError(
                    f"cache entry {key!r} has shape {vec.shape}, expected ({dim},)")
            raw = key.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValidationError(f"embedding id too long: {key!r}")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(vec.tobytes())
    return len(items)


def read_embedding_cache(path) -> Tuple[Dict[str, int], np.ndarray, int]:
    """Read a cache file back as (id -> row, (count, D) float32 block, D);
    an id stored twice maps to its last record.

    The header's count is checked against the file size before anything
    else is read (every record takes at least 2 + 4·D bytes), records are
    read one at a time into one preallocated block, the file must end where
    the last record does, and every vector must be finite.  Each error names
    the path and the byte offset.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_CACHE_HEADER.size)
        if len(header) != _CACHE_HEADER.size:
            raise ValidationError(f"{path}: truncated embedding cache header at "
                                  f"byte {len(header)} of {_CACHE_HEADER.size}")
        magic, version, dim, count = _CACHE_HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise ValidationError(
                f"{path}: not an embedding cache file: bad magic {magic!r} at byte 0")
        if version != CACHE_VERSION:
            raise ValidationError(
                f"{path}: unsupported embedding cache version {version} at byte 4")
        if dim < 1:
            raise ValidationError(
                f"{path}: embedding cache dim D=0 at byte 8 must be >= 1")
        least = _CACHE_HEADER.size + count * (2 + 4 * dim)
        if least > size:
            raise ValidationError(
                f"{path}: embedding cache count {count} at byte 12 needs at "
                f"least {least} bytes at D={dim}, but the file ends at byte {size}")
        vectors = np.empty((count, dim), dtype="<f4")  # at most the file's size
        rows: Dict[str, int] = {}
        at = _CACHE_HEADER.size
        for i, vec in enumerate(vectors):
            raw = fh.read(2)
            klen = int.from_bytes(raw, "little")
            key = fh.read(klen)
            if len(raw) != 2 or len(key) != klen or fh.readinto(vec) != 4 * dim:
                raise ValidationError(
                    f"{path}: truncated embedding cache record {i} at byte {at}: "
                    f"it needs {2 + klen + 4 * dim} bytes, but the file ends at "
                    f"byte {size}")
            try:
                rows[key.decode("utf-8")] = i
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"{path}: embedding cache record {i} id at byte {at + 2} is "
                    f"not UTF-8: {exc.reason} at byte {at + 2 + exc.start}") from None
            at += 2 + klen + 4 * dim
        if at != size:
            raise ValidationError(
                f"{path}: trailing bytes in embedding cache: its {count} records "
                f"end at byte {at}, but the file ends at byte {size}")
        # NaN and ±inf reach the min or the max, which need no temporary
        if count and not np.isfinite([vectors.min(), vectors.max()]).all():
            step = max(1, _FINITE_CHECK_BYTES // (4 * dim))  # bounds the mask
            lo = 0
            while np.isfinite(vectors[lo:lo + step]).all():
                lo += step
            i = lo + int(np.argmin(np.isfinite(vectors[lo:lo + step]).all(axis=1)))
            raise ValidationError(
                f"{path}: embedding cache record {i} at byte "
                f"{_record_offset(fh, dim, i)} has a non-finite value")
    return rows, vectors, int(dim)


def _record_offset(fh, dim: int, index: int) -> int:
    """Byte offset of record ``index`` in a cache file already read whole."""
    at = _CACHE_HEADER.size
    for _ in range(index):
        fh.seek(at)
        at += 2 + int.from_bytes(fh.read(2), "little") + 4 * dim
    return at
