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

import contextlib
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Protocol, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyInputError,
    MissingEmbeddingError,
    ValidationError,
    replace_on_success,
)

DEFAULT_DIM = 768

CACHE_MAGIC = b"VLEC"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<4sIIQ")  # magic, version, D, count
_SCAN_BLOCK_BYTES = 1 << 18  # file bytes parsed and checked per block

# Seed-stream tags so the video and text projections never collide even
# for identical (seed, shape) pairs.
_VIDEO_STREAM = 101
_TEXT_STREAM = 202


class Embedding(NamedTuple):
    """A (D,) float32 vector from a video or text encoder.  Unchecked: it is
    ``_unit``'s finite unit vector, or a cache vector checked when served."""

    values: np.ndarray


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
    if not np.isfinite(norm):
        raise DegenerateInputError(f"{what} has a norm of {norm}, not finite")
    if norm < 1e-12:
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

    text_buckets = 512

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 0):
        if dim < 1:
            raise ValidationError("encoder dim must be >= 1")
        self.dim = int(dim)
        self.seed = int(seed)
        self._projections: Dict[Tuple[int, int], np.ndarray] = {}

    def _projection(self, stream: int, rows: int) -> np.ndarray:
        """The seeded (rows, dim) projection of ``stream``, made on first use."""
        mat = self._projections.get((stream, rows))
        if mat is None:
            rng = np.random.default_rng([self.seed, stream, rows, self.dim])
            mat = rng.standard_normal((rows, self.dim))
            mat /= np.sqrt(rows)
            self._projections[stream, rows] = mat
        return mat

    def encode_window(self, frames: np.ndarray) -> np.ndarray:
        """The (D,) float32 vector of one (K, feat) block of frames.  Frames
        near float64's limit overflow the mean or the norm; ``_unit`` then
        refuses the norm, and numpy prints no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            pooled = np.asarray(frames, dtype=np.float64).mean(axis=0)
            return _unit(pooled @ self._projection(_VIDEO_STREAM, pooled.shape[0]),
                         "projected window")

    def encode_windows(self, frames, starts, length, keys) -> np.ndarray:
        if callable(frames):
            frames = frames()
        out = np.empty((len(starts), self.dim), dtype=np.float32)
        # one window at a time, so every row is bit for bit encode_window's
        # (a (T, F) @ (F, D) product over many windows may round differently),
        # and each slice goes to float64 on its own: a float64 copy of the
        # whole clip per call fragments the heap (+1 MB peak RSS in training)
        for row, s in zip(out, starts):
            row[:] = self.encode_window(frames[s:s + length])
        return out

    def encode_text(self, caption: str) -> Embedding:
        text = caption.strip()
        if not text:
            raise EmptyInputError("caption is empty after whitespace trim")
        import hashlib  # here, so only a hashed caption loads OpenSSL
        counts = np.zeros(self.text_buckets, dtype=np.float64)
        for token in text.lower().split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            counts[int.from_bytes(digest[:8], "little") % self.text_buckets] += 1.0
        projected = counts @ self._projection(_TEXT_STREAM, self.text_buckets)
        return Embedding(_unit(projected, "projected caption"))


class CachedEncoder:
    """Encoder backed by an offline embedding-cache file.

    Construction scans the whole file once (``read_embedding_cache``) and
    keeps only the id -> vector offset index and the open file; each call
    reads just the vectors it asks for.  Windows are looked up by their keys
    and captions by their trimmed text.  Vectors are returned exactly as
    stored.  A served block is checked again, so a file that shrank or
    changed after the scan fails naming the path and the byte.  Use it as a
    context manager, or ``close`` it, to release the file.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        try:
            self._offsets, self.dim = read_embedding_cache(path, self._file)
        except BaseException:
            self._file.close()
            raise

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pread(self, at: int, size: int) -> bytes:
        data = os.pread(self._file.fileno(), size, at)
        if len(data) != size:
            raise ValidationError(
                f"{self.path}: embedding cache read at byte {at} needs {size} "
                f"bytes, but the file now ends at byte {at + len(data)}")
        return data

    def _rows(self, keys: Sequence[str]) -> np.ndarray:
        """The vectors of ``keys`` as a (len(keys), D) block: one read of the
        span from the first to the last record asked for when it is under
        twice the bytes served (a clip's records in file order), else one
        read per key."""
        try:
            offsets = [self._offsets[key] for key in keys]
        except KeyError as exc:
            raise MissingEmbeddingError(f"{self.path}: embedding id {exc.args[0]!r} "
                                        "not present in cache") from None
        width = 4 * self.dim
        lo = min(offsets)
        span = max(offsets) + width - lo
        if span < 2 * width * len(offsets):
            data, starts = self._pread(lo, span), np.subtract(offsets, lo)
        else:
            data = b"".join([self._pread(at, width) for at in offsets])
            starts = range(0, len(data), width)
        vectors = _gather(data, starts, self.dim)
        finite = np.isfinite(vectors)
        if np.count_nonzero(finite) < finite.size:  # .all() costs more per clip
            row, col = divmod(int(np.argmin(finite)), self.dim)
            raise ValidationError(
                f"{self.path}: embedding cache value at byte "
                f"{offsets[row] + 4 * col} is not finite; the file "
                f"changed after it was read")
        return vectors

    def encode_windows(self, frames, starts, length, keys) -> np.ndarray:
        return self._rows(keys)

    def encode_text(self, caption: str) -> Embedding:
        return Embedding(self._rows([caption.strip()])[0])


def _of_dim(emb: Embedding, encoder) -> Embedding:
    if emb.values.shape != (encoder.dim,):
        raise DimensionMismatchError(f"encoder produced shape {emb.values.shape}, "
                                     f"configured for dim {encoder.dim}")
    return emb


def encode_video_snippet(window: FrameWindow, encoder: StubEncoder) -> Embedding:
    """Encode one frame window into a video embedding of the encoder's dim."""
    return _of_dim(Embedding(encoder.encode_window(window.frames)), encoder)


def encode_text(caption: str, encoder: EncoderHandle) -> Embedding:
    """Encode one caption into a text embedding of the encoder's dim."""
    return _of_dim(encoder.encode_text(caption), encoder)


def write_embedding_cache(path, entries: Mapping[str, np.ndarray] | Iterable[Tuple[str, np.ndarray]],
                          dim: int) -> int:
    """Write the binary embedding cache (single writer).

    Layout, little-endian: magic ``VLEC``, version u32, dim u32, count u64,
    then per record a u16 id length, the UTF-8 id, and dim float32 values.
    Returns the number of records written.  The file replaces ``path`` only
    once every record is written; a bad entry leaves ``path`` as it was.
    """
    items = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
    with replace_on_success(path) as tmp, open(tmp, "wb") as fh:
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


def _gather(data: bytes, starts, dim: int) -> np.ndarray:
    """The D-value little-endian float32 vectors at byte ``starts`` of
    ``data`` as one (len(starts), D) block."""
    at_every_byte = np.ndarray((len(data) - 4 * dim + 1, dim), "<f4", data,
                               strides=(1, 4))
    return at_every_byte[starts]


def read_embedding_cache(path, file=None) -> Tuple[Dict[str, int], int]:
    """Scan a cache file once: (id -> byte offset of its vector, D).  An id
    stored twice maps to its last record.  ``file``, when given, is the
    cache already open for binary reading; it is read by position and stays
    open.

    The header's count is checked against the file size before anything
    else is read (every record takes at least 2 + 4·D bytes); records are
    parsed from one bounded block of the file at a time, the file must end
    where the last record does, and every vector must be finite.  Each error
    names the path and the byte offset.  No more than one block of vectors
    is held at any time.
    """
    with (open(path, "rb", buffering=0) if file is None
          else contextlib.nullcontext(file)) as fh:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        header = os.pread(fd, _CACHE_HEADER.size, 0)
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
        width = 4 * dim
        # a block holds the longest possible record, so a record that a
        # block starting at it does not hold whole runs past the file's end
        block = max(_SCAN_BLOCK_BYTES, 2 + 0xFFFF + width)
        offsets: Dict[str, int] = {}
        bad = None  # (index, byte) of the first record with a non-finite value
        at, i = _CACHE_HEADER.size, 0  # record i starts at byte at
        while i < count:
            data = os.pread(fd, block, at)
            n, p, ends = len(data), 0, []  # ends[j]: where record i + j ends in data
            for k in range(i, count):
                if p + 2 + width > n:
                    break
                end = p + 2 + (data[p] | data[p + 1] << 8) + width
                if end > n:
                    break
                try:
                    offsets[data[p + 2:end - width].decode()] = at + end - width
                except UnicodeDecodeError as exc:
                    raise ValidationError(
                        f"{path}: embedding cache record {k} id at byte {at + p + 2} "
                        f"is not UTF-8: {exc.reason} at byte "
                        f"{at + p + 2 + exc.start}") from None
                ends.append(end)
                p = end
            if not ends:
                raise ValidationError(
                    f"{path}: truncated embedding cache record {i} at byte {at}: "
                    f"it needs {2 + int.from_bytes(data[:2], 'little') + width} "
                    f"bytes, but the file ends at byte {size}")
            finite = np.isfinite(_gather(data, np.subtract(ends, width),
                                         dim)).all(axis=1)
            if bad is None and not finite.all():
                j = int(np.argmin(finite))
                bad = (i + j, at + (ends[j - 1] if j else 0))
            at, i = at + p, i + len(ends)
        if at != size:
            raise ValidationError(
                f"{path}: trailing bytes in embedding cache: its {count} records "
                f"end at byte {at}, but the file ends at byte {size}")
        if bad is not None:
            raise ValidationError(f"{path}: embedding cache record {bad[0]} at byte "
                                  f"{bad[1]} has a non-finite value")
        return offsets, int(dim)
