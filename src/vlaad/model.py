"""Trainable heads over frozen embeddings.

The adapter is a residual two-layer bottleneck (D -> H -> D, tanh) that
refines a frozen video embedding; the detector is a single linear map
D -> 1 producing a pre-sigmoid collision logit.  All math runs in float64
over one flat parameter vector θ laid out by ``param_layout``; gradients,
the optimiser and the float32 checkpoint file all share that layout.

Logits are the internal currency (pooling and cross-entropy are stable in
logit space); probabilities appear only at API boundaries via sigmoid.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, ValidationError, replace_on_success
from .mil import DEFAULT_GAMMA, MIN_GAMMA, Bag

CKPT_MAGIC = b"VLAD"
CKPT_VERSION = 1
DEFAULT_HIDDEN = 256
ROW_BLOCK = 64  # rows per scratch block of a row-wise temporary
CKPT_BLOCK = 65_536  # float32 values per block a checkpoint is written or read in

_HEADER = struct.Struct("<4sIIIdQI")  # magic, version, D, H, gamma, seed, epoch


class Slot(NamedTuple):
    """Where one trainable tensor lives in θ."""

    name: str
    shape: Tuple[int, ...]
    start: int
    stop: int
    decayed: bool  # weight decay applies: weight tensors, never biases or s


def param_layout(dim: int, hidden: int) -> Tuple[Slot, ...]:
    """Every trainable tensor's place in θ, in checkpoint file order.

    The one place that knows the order.  Offsets are Python ints, so a
    file header's dims can be sized before anything is allocated.
    """
    slots, start = [], 0
    for name, shape, decayed in (
            ("w1", (dim, hidden), True), ("b1", (hidden,), False),
            ("w2", (hidden, dim), True), ("b2", (dim,), False),
            ("w", (dim,), True), ("b", (), False),
            ("s_sim", (), False), ("s_cls", (), False)):
        stop = start + math.prod(shape)
        slots.append(Slot(name, shape, start, stop, decayed))
        start = stop
    return tuple(slots)


def param_views(vec: np.ndarray, dim: int, hidden: int) -> Dict[str, np.ndarray]:
    """Named reshaped views into a θ-sized vector (θ or a gradient)."""
    layout = param_layout(dim, hidden)
    if vec.shape != (layout[-1].stop,):
        raise DimensionMismatchError(f"parameter vector has shape {vec.shape}, "
                                     f"D={dim}, H={hidden} need ({layout[-1].stop},)")
    return {s.name: vec[s.start:s.stop].reshape(s.shape) for s in layout}


class _Tensor:
    """One named tensor of a checkpoint's θ; a 0-d one reads as a float."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ckpt, owner=None):
        view = ckpt._views[self.name]
        return float(view) if view.ndim == 0 else view

    def __set__(self, ckpt, value):
        ckpt._views[self.name][...] = value


@dataclass
class ModelCheckpoint:
    """θ (adapter, detector, log-variance loss weights) plus the dims header.

    ``theta`` is one contiguous float64 vector in ``param_layout`` order.
    The named tensors below are views into it, so assigning one writes θ
    and an optimiser that updates θ in place trains the checkpoint itself.
    Change θ in place; ``dataclasses.replace(ckpt, theta=vec)`` gives a
    checkpoint over another vector.
    """

    theta: np.ndarray
    dim: int
    hidden: int
    gamma: float
    seed: int
    epoch: int = 0

    w1 = _Tensor()  # (D, H)
    b1 = _Tensor()  # (H,)
    w2 = _Tensor()  # (H, D)
    b2 = _Tensor()  # (D,)
    w = _Tensor()  # (D,) detector weight
    b = _Tensor()  # detector bias
    s_sim = _Tensor()  # log-variance of the alignment loss
    s_cls = _Tensor()  # log-variance of the classification loss

    def __post_init__(self):
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        self._views = param_views(self.theta, self.dim, self.hidden)


def init_checkpoint(dim: int, hidden: int = DEFAULT_HIDDEN,
                    gamma: float = DEFAULT_GAMMA, seed: int = 0,
                    zero_first_layer: bool = True) -> ModelCheckpoint:
    """Seeded initialization.

    Detector and second adapter layer draw uniform +-1/sqrt(fan_in); the
    first adapter layer starts at zero by default so the adapter is exactly
    the identity at initialization (residual start).  Each tensor is drawn
    in place into θ: 2r - 1 is rng.uniform(-1, 1)'s -1 + 2r, bit for bit.
    """
    rng = np.random.default_rng(seed)
    ckpt = ModelCheckpoint(np.zeros(param_layout(dim, hidden)[-1].stop),
                           dim=dim, hidden=hidden, gamma=gamma, seed=seed)
    draws = [(ckpt.w2, hidden), (ckpt.w, dim)]
    if not zero_first_layer:
        draws.insert(0, (ckpt.w1, dim))
    for view, fan_in in draws:
        rng.random(out=view)
        view *= 2
        view -= 1
        view /= np.sqrt(fan_in)
    return ckpt


class Workspace:
    """Named float64 buffers that row passes write into, so a run allocates
    them once, not once per pass.

    ``buffer`` allocates a buffer the first time a pass asks for it and
    replaces it with a larger one only when a pass needs more than it holds;
    none ever shrinks.  A pass's results are views into these buffers, valid
    until the next pass over the workspace.  A training step over N rows
    holds one (N, D) block, ``b`` (the stacked rows, then the adapted rows,
    dL/d(adapted) and the stacked rows again), the (N, H) ``h`` and ``g_u``,
    ``ROW_BLOCK``-row scratch blocks and the θ-sized ``grad``.
    """

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """A C-contiguous view of ``shape`` at the start of buffer ``name``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or size > buf.size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def adapter_forward(snips: np.ndarray, params: ModelCheckpoint, workspace: Workspace,
                    blocks: Sequence[np.ndarray] | None = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Forward pass over a float64 (N, D) block; returns (hidden, adapted).

    Both are formed in place in the workspace's ``h`` and ``b`` buffers.
    ``snips`` may itself be a view of ``b``, the rows stacked there from
    ``blocks``: the product h @ w2 then overwrites them, and the residual
    is read back from ``blocks``, which stack to ``snips`` exactly (a
    float32 row widens to float64 exactly) and are never written.
    ``blocks`` defaults to ``snips`` itself, which is then never written.
    """
    h = workspace.buffer("h", (snips.shape[0], params.hidden))
    np.matmul(snips, params.w1, out=h)
    h += params.b1
    np.tanh(h, out=h)
    adapted = np.matmul(h, params.w2, out=workspace.buffer("b", snips.shape))
    lo = 0
    for block in (snips,) if blocks is None else blocks:
        adapted[lo:lo + len(block)] += block  # == snips + h @ w2: addition commutes
        lo += len(block)
    adapted += params.b2
    return h, adapted


def forward_rows(snips: np.ndarray, ckpt: ModelCheckpoint, workspace: Workspace,
                 blocks: Sequence[np.ndarray] | None = None) -> Tuple[np.ndarray, ...]:
    """Adapter then detector over a float64 (N, D) block of snippet rows.

    The one snippet forward of the package: rows of one bag, of many bags
    stacked back to back into the workspace's ``b`` from ``blocks`` (see
    ``adapter_forward``), or the single row of a streamed window all go
    through it.  A row's logit agrees to rounding across blocks of other
    row counts, since a matrix product may round a row differently as the
    count changes.  Returns (hidden, adapted, logits); the backward needs
    the first two, which live in ``workspace``.
    """
    if snips.ndim != 2 or snips.shape[1] != ckpt.dim:
        raise DimensionMismatchError(
            f"snippet rows have shape {snips.shape}, checkpoint dim {ckpt.dim}")
    h, adapted = adapter_forward(snips, ckpt, workspace, blocks)
    return h, adapted, adapted @ ckpt.w + ckpt.b


def bag_logits(bag: Bag, ckpt: ModelCheckpoint) -> np.ndarray:
    """Per-snippet logits with parameters shared across snippets."""
    return forward_rows(np.asarray(bag.snippets, dtype=np.float64), ckpt,
                        Workspace())[2]


def row_blocks(ws: Workspace, n: int, width: int,
               *names: str) -> Iterator[Tuple[slice, ...]]:
    """``(rows, *scratch)`` per run of at most ``ROW_BLOCK`` of ``n`` rows,
    in order: one (len, width) view per named workspace buffer (``scratch``
    when none is named), which every run reuses, for a row-wise temporary
    no bigger than that."""
    bufs = [ws.buffer(name, (min(ROW_BLOCK, n), width)) for name in names or ["scratch"]]
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, min(lo + ROW_BLOCK, n))
        yield (rows, *(buf[:rows.stop - lo] for buf in bufs))


def heads_backward(snips: Sequence[np.ndarray], hidden: np.ndarray,
                   ckpt: ModelCheckpoint, *, dz: np.ndarray, g_adapted: np.ndarray,
                   g_w: np.ndarray, workspace: Workspace) -> np.ndarray:
    """Gradient of any scalar through the heads, as one vector in θ's layout.

    The caller, who holds the adapted rows, does the detector's part and
    may drop those rows before this call's matrix products: ``dz`` holds
    dL/dz per snippet, ``g_adapted`` the whole (N, D) dL/d(adapted), that is
    the direct term plus dz wᵀ, and ``g_w`` the detector-weight gradient
    adaptedᵀ dz.  ``snips`` holds the snippet rows as the blocks they stack
    from (a single (N, D) block is one).  Rows may span several bags:
    contributions simply add.  The s_sim/s_cls entries are zero.

    Reads its arguments and writes only the workspace: the θ-sized result
    into ``grad``, dL/d(pre-activation) into its own (N, H) ``g_u`` and
    1 - h² a ``ROW_BLOCK`` of rows at a time into ``scratch``.
    ``g_adapted`` may be a view of ``b``: the rows are stacked there for
    the w1 product only once it has been read.
    """
    n, dim, hidden_dim = hidden.shape[0], ckpt.dim, ckpt.hidden
    grad = workspace.buffer("grad", ckpt.theta.shape)
    g = param_views(grad, dim, hidden_dim)
    np.matmul(hidden.T, g_adapted, out=g["w2"])
    np.sum(g_adapted, axis=0, out=g["b2"])
    g_u = np.matmul(g_adapted, ckpt.w2.T, out=workspace.buffer("g_u", (n, hidden_dim)))
    for r, tanh_grad in row_blocks(workspace, n, hidden_dim):
        np.multiply(hidden[r], hidden[r], out=tanh_grad)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        g_u[r] *= tanh_grad
    rows = np.concatenate(snips, out=workspace.buffer("b", (n, dim)), casting="safe")
    np.matmul(rows.T, g_u, out=g["w1"])
    np.sum(g_u, axis=0, out=g["b1"])
    g["w"][...] = g_w
    g["b"][...] = dz.sum()
    g["s_sim"][...] = 0.0
    g["s_cls"][...] = 0.0
    return grad


def _blocks(theta: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """``(start, block)`` per run of at most ``CKPT_BLOCK`` values of θ, in
    order: ``block`` is a view of one reused little-endian float32 buffer."""
    buf = np.empty(min(CKPT_BLOCK, theta.size), dtype="<f4")
    for lo in range(0, theta.size, CKPT_BLOCK):
        yield lo, buf[:min(CKPT_BLOCK, theta.size - lo)]


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    """Write the binary checkpoint: header then θ as little-endian float32,
    a block at a time.  The file replaces ``path`` only once it is whole."""
    with replace_on_success(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, ckpt.dim, ckpt.hidden,
                              ckpt.gamma, ckpt.seed, ckpt.epoch))
        for lo, block in _blocks(ckpt.theta):
            block[...] = ckpt.theta[lo:lo + block.size]  # rounds as astype("<f4")
            fh.write(block)


def load_checkpoint(path) -> ModelCheckpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    The header's dims fix the payload size, which the file must match
    exactly before anything is read; every value must be finite.  Each
    error names the path and the byte offset.  θ is read a block at a time
    through one reused float32 buffer.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValidationError(f"{path}: truncated checkpoint header at byte "
                                  f"{len(header)} of {_HEADER.size}")
        magic, version, dim, hidden, gamma, seed, epoch = _HEADER.unpack(header)
        if magic != CKPT_MAGIC:
            raise ValidationError(f"{path}: bad checkpoint magic {magic!r} at byte 0")
        if version != CKPT_VERSION:
            raise ValidationError(
                f"{path}: unsupported checkpoint version {version} at byte 4")
        if dim < 1:
            raise ValidationError(f"{path}: checkpoint dim D=0 at byte 8 must be >= 1")
        if not (math.isfinite(gamma) and gamma >= MIN_GAMMA):
            raise ValidationError(f"{path}: checkpoint gamma {gamma} at byte 16 "
                                  f"must be finite and >= {MIN_GAMMA}")
        layout = param_layout(dim, hidden)
        end = _HEADER.size + 4 * layout[-1].stop
        size = os.fstat(fh.fileno()).st_size
        if size != end:
            raise ValidationError(
                f"{path}: {'truncated' if size < end else 'trailing bytes in'} "
                f"checkpoint: header dims D={dim}, H={hidden} put its end at "
                f"byte {end}, but the file ends at byte {size}")
        theta = np.empty(layout[-1].stop)
        for lo, block in _blocks(theta):
            got = fh.readinto(block)
            if got != block.nbytes:  # the file shrank after its size was read
                raise ValidationError(f"{path}: truncated checkpoint: read ended "
                                      f"at byte {_HEADER.size + 4 * lo + got} of {end}")
            finite = np.isfinite(block)
            if not finite.all():
                at = lo + int(finite.argmin())
                name = next(slot.name for slot in layout if at < slot.stop)
                raise ValidationError(
                    f"{path}: checkpoint tensor {name} has a non-finite value "
                    f"at byte {_HEADER.size + 4 * at}")
            theta[lo:lo + block.size] = block
    return ModelCheckpoint(theta, dim=int(dim), hidden=int(hidden),
                           gamma=float(gamma), seed=int(seed), epoch=int(epoch))
