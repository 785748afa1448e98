"""Causal streaming inference and the driver-bridge global-state token.

A tick-driven ring buffer holds the last K subsampled frames (never future
ones); the risk token is recomputed only on subsample ticks and served from
cache in between, which cuts encoder calls by the subsample factor with
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List

import numpy as np

from .embeddings import EncoderHandle, FrameWindow, encode_video_snippet
from .errors import ValidationError, json_lines
from .model import ModelCheckpoint, forward_rows
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
    """

    encoder: EncoderHandle
    size: int = DEFAULT_BUFFER_FRAMES
    subsample_period: int = DEFAULT_SUBSAMPLE_PERIOD
    tick_rate_hz: float = DEFAULT_TICK_RATE_HZ
    frames: List[np.ndarray] = field(default_factory=list)
    frame_ticks: List[int] = field(default_factory=list)
    last_update_tick: int | None = None
    cached_token: float = NEUTRAL_TOKEN
    encoder_calls: int = 0
    _last_tick: int | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.size < 1 or self.subsample_period < 1:
            raise ValidationError("buffer size and period must be >= 1")

    def _compute_token(self, ckpt: ModelCheckpoint) -> float:
        if not self.frames:
            return NEUTRAL_TOKEN  # zero-logit convention before any frame
        window = FrameWindow(
            frames=np.stack(self.frames),
            timestamps=np.asarray(self.frame_ticks, dtype=np.float64)
            / self.tick_rate_hz)
        emb = encode_video_snippet(window, self.encoder)
        self.encoder_calls += 1
        # the offline forward of a one-row bag, so both paths agree exactly
        logit = forward_rows(emb.values.astype(np.float64)[None, :], ckpt)[2][0]
        if not np.isfinite(logit):
            raise ValidationError("detector produced a non-finite logit")
        return float(sigmoid(logit))


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
    if buffer.frames and frame.shape != buffer.frames[0].shape:
        raise ValidationError(
            f"frame width {frame.shape[0]} differs from the buffer's first "
            f"frame width {buffer.frames[0].shape[0]}")
    buffer._last_tick = tick
    if tick % buffer.subsample_period == 0:
        buffer.frames.append(frame)
        buffer.frame_ticks.append(tick)
        if len(buffer.frames) > buffer.size:
            buffer.frames.pop(0)
            buffer.frame_ticks.pop(0)
        buffer.last_update_tick = tick
        buffer.cached_token = buffer._compute_token(ckpt)
        return buffer.cached_token
    if caching:
        return buffer.cached_token
    return buffer._compute_token(ckpt)  # same buffer, bit-identical token


def make_global_state(risk: float, velocity: float, command_index: int,
                      command_count: int) -> np.ndarray:
    """Concatenate [risk, velocity, onehot(command)] in that fixed order.

    Out-of-range risk is an error, never a silent clamp.
    """
    if not (0.0 <= risk <= 1.0):
        raise ValidationError(f"risk {risk} outside [0, 1]")
    if velocity < 0:
        raise ValidationError("velocity must be >= 0")
    if not (0 <= command_index < command_count):
        raise ValidationError(
            f"command index {command_index} outside [0, {command_count})")
    state = np.zeros(2 + command_count, dtype=np.float64)
    state[0] = risk
    state[1] = velocity
    state[2 + command_index] = 1.0
    return state


def toy_policy_step(state: np.ndarray, weights: np.ndarray,
                    bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map of the global state to 2 waypoints (4 reals).

    Stand-in consumer for the risk token; deterministic by construction.
    """
    state = np.asarray(state, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (state.size, 4):
        raise ValidationError(
            f"policy weights must be ({state.size}, 4), got {weights.shape}")
    out = state @ weights
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (4,):
            raise ValidationError("policy bias must have shape (4,)")
        out = out + bias
    return out


def stream_tokens(lines: Iterable[str], ckpt: ModelCheckpoint,
                  encoder: EncoderHandle, size: int = DEFAULT_BUFFER_FRAMES,
                  subsample_period: int = DEFAULT_SUBSAMPLE_PERIOD,
                  tick_rate_hz: float = DEFAULT_TICK_RATE_HZ,
                  caching: bool = True) -> Iterator[float]:
    """Drive a buffer from newline-delimited JSON frames.

    Each line is {"tick": int, "features": [...]}; yields one token per tick.
    """
    buffer = CausalBuffer(encoder, size=size, subsample_period=subsample_period,
                          tick_rate_hz=tick_rate_hz)

    def parse(obj) -> float:
        tick = obj["tick"]
        if type(tick) is not int:  # a JSON integer: no float, string or bool
            raise ValidationError("tick must be an integer")
        return push_tick(buffer, obj["features"], tick, ckpt, caching)

    yield from json_lines(lines, getattr(lines, "name", "<stdin>"), "stream", parse)
