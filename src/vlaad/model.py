"""Trainable heads over frozen embeddings.

The adapter is a residual two-layer bottleneck (D -> H -> D, tanh) that
refines a frozen video embedding; the detector is a single linear map
D -> 1 producing a pre-sigmoid collision logit.  All math runs in float64;
checkpoints store parameter tensors as float32.

Logits are the internal currency (pooling and cross-entropy are stable in
logit space); probabilities appear only at API boundaries via sigmoid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .embeddings import Embedding
from .errors import DimensionMismatchError, ValidationError
from .mil import Bag, RiskTrace, lse_pool, make_trace, pooling_attention

CKPT_MAGIC = b"VLAD"
CKPT_VERSION = 1
DEFAULT_HIDDEN = 256

_HEADER = "<4sIIIdQI"  # magic, version, D, H, gamma, seed, epoch


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass
class AdapterParams:
    """Weights of the residual bottleneck map."""

    w1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, D)
    b2: np.ndarray  # (D,)

    def __post_init__(self):
        self.w1 = _finite("w1", np.asarray(self.w1, dtype=np.float64))
        self.b1 = _finite("b1", np.asarray(self.b1, dtype=np.float64))
        self.w2 = _finite("w2", np.asarray(self.w2, dtype=np.float64))
        self.b2 = _finite("b2", np.asarray(self.b2, dtype=np.float64))
        d, h = self.w1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h, d) or self.b2.shape != (d,):
            raise DimensionMismatchError("inconsistent adapter parameter shapes")

    @property
    def dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    def copy(self) -> "AdapterParams":
        return AdapterParams(self.w1.copy(), self.b1.copy(),
                             self.w2.copy(), self.b2.copy())


@dataclass
class DetectorParams:
    """Weights of the scalar logit head."""

    w: np.ndarray  # (D,)
    b: float

    def __post_init__(self):
        self.w = _finite("detector w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 1:
            raise DimensionMismatchError("detector weight must be a vector")
        self.b = float(self.b)
        if not np.isfinite(self.b):
            raise ValidationError("detector bias is non-finite")

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def copy(self) -> "DetectorParams":
        return DetectorParams(self.w.copy(), self.b)


@dataclass
class ModelCheckpoint:
    """Adapter + detector + log-variance loss weights, with dims header."""

    adapter: AdapterParams
    detector: DetectorParams
    s_sim: float
    s_cls: float
    dim: int
    hidden: int
    gamma: float
    seed: int
    epoch: int = 0

    def __post_init__(self):
        if self.adapter.dim != self.dim or self.adapter.hidden != self.hidden:
            raise DimensionMismatchError("adapter shapes do not match dims header")
        if self.detector.dim != self.dim:
            raise DimensionMismatchError("detector shape does not match dims header")

    def copy(self) -> "ModelCheckpoint":
        return ModelCheckpoint(self.adapter.copy(), self.detector.copy(),
                               self.s_sim, self.s_cls, self.dim, self.hidden,
                               self.gamma, self.seed, self.epoch)


def init_checkpoint(dim: int, hidden: int = DEFAULT_HIDDEN, gamma: float = 10.0,
                    seed: int = 0, zero_first_layer: bool = True) -> ModelCheckpoint:
    """Seeded initialization.

    Detector and second adapter layer draw uniform +-1/sqrt(fan_in); the
    first adapter layer starts at zero by default so the adapter is exactly
    the identity at initialization (residual start).
    """
    rng = np.random.default_rng(seed)
    if zero_first_layer:
        w1 = np.zeros((dim, hidden))
    else:
        w1 = rng.uniform(-1, 1, size=(dim, hidden)) / np.sqrt(dim)
    w2 = rng.uniform(-1, 1, size=(hidden, dim)) / np.sqrt(hidden)
    w = rng.uniform(-1, 1, size=dim) / np.sqrt(dim)
    adapter = AdapterParams(w1, np.zeros(hidden), w2, np.zeros(dim))
    detector = DetectorParams(w, 0.0)
    return ModelCheckpoint(adapter, detector, s_sim=0.0, s_cls=0.0, dim=dim,
                           hidden=hidden, gamma=gamma, seed=seed, epoch=0)


def _vec(e, dim: int, what: str) -> np.ndarray:
    vals = e.values if isinstance(e, Embedding) else e
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape != (dim,):
        raise DimensionMismatchError(f"{what} has shape {vals.shape}, expected ({dim},)")
    return vals


def adapter_forward(snips: np.ndarray, params: AdapterParams) -> Tuple[np.ndarray, ...]:
    """Forward pass over a (T, D) block; returns (pre-act, hidden, adapted)."""
    u = snips @ params.w1 + params.b1
    h = np.tanh(u)
    adapted = snips + h @ params.w2 + params.b2
    return u, h, adapted


def adapt(e_v, params: AdapterParams):
    """Residual refinement of a video embedding: e + MLP(e), same dim."""
    vals = _vec(e_v, params.dim, "video embedding")
    _, _, adapted = adapter_forward(vals[None, :], params)
    out = adapted[0]
    if isinstance(e_v, Embedding):
        return Embedding(out.astype(np.float32), e_v.source)
    return out


def detect_logit(e_adapted, params: DetectorParams) -> float:
    """Pre-sigmoid collision logit of one adapted embedding."""
    vals = _vec(e_adapted, params.dim, "adapted embedding")
    z = float(vals @ params.w + params.b)
    if not np.isfinite(z):
        raise ValidationError("detector produced a non-finite logit")
    return z


def forward_rows(snips: np.ndarray, ckpt: ModelCheckpoint) -> Tuple[np.ndarray, ...]:
    """Adapter then detector over a float64 (N, D) block of snippet rows.

    The one snippet forward of the package: rows of one bag, of many bags
    stacked back to back, or the single row of a streamed window all go
    through it, so one window gives the same logit on every path.  Returns
    (hidden, adapted, logits); the first two feed ``heads_backward``.
    """
    if snips.ndim != 2 or snips.shape[1] != ckpt.dim:
        raise DimensionMismatchError(
            f"snippet rows have shape {snips.shape}, checkpoint dim {ckpt.dim}")
    _, h, adapted = adapter_forward(snips, ckpt.adapter)
    return h, adapted, adapted @ ckpt.detector.w + ckpt.detector.b


def bag_logits(bag: Bag, ckpt: ModelCheckpoint) -> np.ndarray:
    """Per-snippet logits with parameters shared across snippets."""
    return forward_rows(np.asarray(bag.snippets, dtype=np.float64), ckpt)[2]


def forward_bag(bag: Bag, ckpt: ModelCheckpoint) -> RiskTrace:
    """Full bag pass: adapt, detect, pool with the checkpoint's gamma."""
    return make_trace(bag.clip_id, bag_logits(bag, ckpt), ckpt.gamma)


def heads_backward(snips: np.ndarray, hidden: np.ndarray, adapted: np.ndarray,
                   adapter: AdapterParams, detector: DetectorParams,
                   dz: np.ndarray, d_adapted) -> dict:
    """Parameter gradients of any scalar through the heads.

    ``dz`` holds dL/dz per snippet; ``d_adapted`` is the direct
    dL/d(adapted) term that bypasses the detector (0 when absent).  Rows may
    span several bags: contributions simply add.
    """
    g_e = np.asarray(d_adapted, dtype=np.float64) + dz[:, None] * detector.w[None, :]
    g_u = (g_e @ adapter.w2.T) * (1.0 - hidden * hidden)
    return {
        "w1": snips.T @ g_u,
        "b1": g_u.sum(axis=0),
        "w2": hidden.T @ g_e,
        "b2": g_e.sum(axis=0),
        "w": adapted.T @ dz,
        "b": np.asarray([float(dz.sum())]),
    }


def pooled_logit_with_grad(bag: Bag, ckpt: ModelCheckpoint):
    """Pooled bag logit and its analytic gradient per parameter.

    The pooling gradient with respect to the snippet logits is exactly the
    pooling-induced attention, so the chain is attention-weighted.
    """
    snips = np.asarray(bag.snippets, dtype=np.float64)
    h, adapted, z = forward_rows(snips, ckpt)
    attn = pooling_attention(z, ckpt.gamma)
    grads = heads_backward(snips, h, adapted, ckpt.adapter, ckpt.detector,
                           attn, 0.0)
    return lse_pool(z, ckpt.gamma), grads


def _tensors(ckpt: ModelCheckpoint):
    a, d = ckpt.adapter, ckpt.detector
    return [a.w1, a.b1, a.w2, a.b2, d.w,
            np.asarray([d.b]), np.asarray([ckpt.s_sim]), np.asarray([ckpt.s_cls])]


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    """Write the binary checkpoint: header then float32 row-major tensors."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, CKPT_MAGIC, CKPT_VERSION, ckpt.dim,
                             ckpt.hidden, ckpt.gamma, ckpt.seed, ckpt.epoch))
        for tensor in _tensors(ckpt):
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize(_HEADER))
        if len(header) != struct.calcsize(_HEADER):
            raise ValidationError("truncated checkpoint header")
        magic, version, dim, hidden, gamma, seed, epoch = struct.unpack(_HEADER, header)
        if magic != CKPT_MAGIC:
            raise ValidationError(f"not a checkpoint file: bad magic {magic!r}")
        if version != CKPT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {version}")

        def take(shape):
            n = int(np.prod(shape))
            arr = np.frombuffer(fh.read(4 * n), dtype="<f4")
            if arr.size != n:
                raise ValidationError("truncated checkpoint file")
            return arr.astype(np.float64).reshape(shape)

        adapter = AdapterParams(take((dim, hidden)), take((hidden,)),
                                take((hidden, dim)), take((dim,)))
        detector = DetectorParams(take((dim,)), float(take((1,))[0]))
        s_sim = float(take((1,))[0])
        s_cls = float(take((1,))[0])
    return ModelCheckpoint(adapter, detector, s_sim, s_cls, dim=int(dim),
                           hidden=int(hidden), gamma=float(gamma),
                           seed=int(seed), epoch=int(epoch))
