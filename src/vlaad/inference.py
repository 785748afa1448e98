"""Causal streaming inference of the risk token.

A tick-driven ring buffer holds the last K subsampled frames (never future
ones); the risk token is recomputed only on subsample ticks and served from
cache in between, which cuts encoder calls by the subsample factor with
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .embeddings import StubEncoder
from .errors import ValidationError, json_int, json_lines, json_numbers
from .model import ModelCheckpoint, Workspace, forward_rows
from .numerics import sigmoid

DEFAULT_BUFFER_FRAMES = 8
DEFAULT_SUBSAMPLE_PERIOD = 5
DEFAULT_TICK_RATE_HZ = 20.0
NEUTRAL_TOKEN = 0.5  # sigmoid(0): the pre-buffer convention


@dataclass
class CausalBuffer:
    """Ring of the most recent K subsampled frames, single-writer.

    The buffer content changes only on ticks that are multiples of
    ``subsample_period``; frames arriving on other ticks are dropped, so at
    20 Hz ticks with period 5 the buffer tracks an effective 4 Hz stream.

    The frames live in one float64 (2K, F) ring, allocated at the first
    update tick, when F is known.  Each frame is written at slot i and at
    slot i + K, so the held frames, oldest first, are always the one
    contiguous block ``ring[lo:lo + n]``, which the encoder reads in place.
    Every token's forward runs in the buffer's one workspace.
    """

    encoder: StubEncoder
    size: int = DEFAULT_BUFFER_FRAMES
    subsample_period: int = DEFAULT_SUBSAMPLE_PERIOD
    tick_rate_hz: float = DEFAULT_TICK_RATE_HZ
    cached_token: float = field(default=NEUTRAL_TOKEN, init=False)
    encoder_calls: int = field(default=0, init=False)
    held: int = field(default=0, init=False)  # frames in the ring, <= size
    _ring: np.ndarray | None = field(default=None, init=False, repr=False)
    _stamp: float = field(default=-math.inf, init=False, repr=False)  # newest frame's stamp
    _next: int = field(default=0, init=False, repr=False)  # next frame's slot
    _last_tick: int | None = field(default=None, init=False, repr=False)
    _workspace: Workspace = field(default_factory=Workspace, init=False, repr=False)

    def __post_init__(self):
        if self.size < 1 or self.subsample_period < 1:
            raise ValidationError("buffer size and period must be >= 1")
        if not (math.isfinite(self.tick_rate_hz) and self.tick_rate_hz > 0):
            raise ValidationError(
                f"tick rate {self.tick_rate_hz} Hz must be finite and > 0")

    def _write(self, frame: np.ndarray, tick: int) -> None:
        k = self.size
        stamp = np.float64(tick) / self.tick_rate_hz
        # increasing ticks give increasing stamps, except for ticks past
        # float64 precision; a one-frame ring holds a single stamp
        if k > 1 and stamp <= self._stamp:
            raise ValidationError("timestamps must be strictly increasing")
        if self._ring is None:
            self._ring = np.empty((2 * k, frame.shape[0]), dtype=np.float64)
        i = self._next
        self._ring[i] = frame
        self._ring[i + k] = frame
        self._stamp = stamp
        self._next = i + 1 if i + 1 < k else 0
        if self.held < k:
            self.held += 1

    def _compute_token(self, ckpt: ModelCheckpoint) -> float:
        if not self.held:
            return NEUTRAL_TOKEN  # zero-logit convention before any frame
        hi = self._next + self.size
        row = self.encoder.encode_window(self._ring[hi - self.held:hi])
        self.encoder_calls += 1
        # the offline forward of a one-row bag (finite, as float32 weights
        # over a float64 forward cannot overflow), so both paths agree exactly
        logit = forward_rows(row.astype(np.float64)[None, :], ckpt,
                             self._workspace)[2][0]
        return sigmoid(logit)


def push_tick(buffer: CausalBuffer, frame, tick: int, ckpt: ModelCheckpoint,
              caching: bool = True) -> float:
    """Advance one tick and return the risk token in [0, 1].

    On update ticks (tick divisible by the subsample period) the frame joins
    the ring and the token is recomputed; on other ticks the cached token is
    returned, or recomputed from the identical buffer when caching is off.
    """
    if buffer._last_tick is not None and tick <= buffer._last_tick:
        raise ValidationError(
            f"out-of-order tick {tick} after {buffer._last_tick}")
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1:
        raise ValidationError(f"frame must be a feature vector, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        index = int(np.argmin(np.isfinite(frame)))
        raise ValidationError(f"frame feature {index} is {frame[index]}, not finite")
    if buffer._ring is not None and frame.shape[0] != buffer._ring.shape[1]:
        raise ValidationError(
            f"frame width {frame.shape[0]} differs from the buffer's first "
            f"frame width {buffer._ring.shape[1]}")
    buffer._last_tick = tick
    if tick % buffer.subsample_period == 0:
        buffer._write(frame, tick)
        buffer.cached_token = buffer._compute_token(ckpt)
        return buffer.cached_token
    if caching:
        return buffer.cached_token
    return buffer._compute_token(ckpt)  # same buffer, bit-identical token


def stream_tokens(lines: Iterable[str], ckpt: ModelCheckpoint,
                  encoder: StubEncoder, size: int = DEFAULT_BUFFER_FRAMES,
                  subsample_period: int = DEFAULT_SUBSAMPLE_PERIOD,
                  tick_rate_hz: float = DEFAULT_TICK_RATE_HZ,
                  caching: bool = True) -> Iterator[float]:
    """Drive a buffer from newline-delimited JSON frames.

    Each line is {"tick": int, "features": [...]}; yields one token per tick.
    """
    buffer = CausalBuffer(encoder, size=size, subsample_period=subsample_period,
                          tick_rate_hz=tick_rate_hz)

    def parse(obj) -> float:
        tick = json_int(obj["tick"], "tick")
        return push_tick(buffer, json_numbers(obj["features"], "features"), tick,
                         ckpt, caching)

    yield from json_lines(lines, getattr(lines, "name", "<stdin>"), "stream", parse)
