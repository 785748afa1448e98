"""Optimization loop over stub or cached embeddings.

Only the adapter, the detector, and the two log-variance loss weights are
trainable; encoders are frozen inputs.  All gradients are analytic and
float64 and come back as one vector in the layout of the checkpoint's θ.
Adam updates θ in place with decoupled weight decay applied to weight
tensors only (never to biases or to the log-variance weights).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .datakit import ClipRecord
from .embeddings import DEFAULT_DIM, EncoderHandle, encode_text
from .errors import (NonFiniteLossError, ValidationError, json_bool, json_int,
                     json_number, json_str, replace_on_success)
from .evalkit import ScoredSet, roc_auc
from .mil import (DEFAULT_GAMMA, DEFAULT_SNIPPET_LEN, DEFAULT_SNIPPET_STRIDE,
                  MIN_GAMMA, Bag, encode_clip, segment_lse_pool)
from .model import (DEFAULT_HIDDEN, ModelCheckpoint, Workspace, forward_rows,
                    heads_backward, init_checkpoint, param_layout, param_views,
                    row_blocks)
from .numerics import sigmoid, softplus

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 14  # θ entries per block of an Adam step
DEFAULT_EVAL_BATCH = 64  # clips per forward when scoring or tracing


@dataclass
class TrainConfig:
    """Training configuration; mirrored one-to-one by the CLI JSON config."""

    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    epochs: int = 50
    train_batch: int = 256
    eval_batch: int = DEFAULT_EVAL_BATCH
    seed: int = 0
    gamma: float = DEFAULT_GAMMA
    mode: str = "mil"  # "mil" | "clip"
    split_fraction: float = 0.8
    pos_weight: float | str = "auto"  # "auto" = n_negative / n_positive
    embed_dim: int = DEFAULT_DIM
    hidden_dim: int = DEFAULT_HIDDEN
    snippet_len: int = DEFAULT_SNIPPET_LEN
    snippet_stride: int = DEFAULT_SNIPPET_STRIDE
    zero_first_layer: bool = True

    def __post_init__(self):
        self.check_fields(vars(self))
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        for name, least in (("gamma", MIN_GAMMA), ("weight_decay", 0), ("epochs", 0),
                            ("train_batch", 1), ("eval_batch", 1), ("embed_dim", 1),
                            ("hidden_dim", 0), ("snippet_len", 1), ("snippet_stride", 1)):
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be >= {least}")
        if not (0.0 < self.split_fraction < 1.0):
            raise ValidationError("split_fraction must be in (0, 1)")
        if self.mode not in ("mil", "clip"):
            raise ValidationError(f"mode must be 'mil' or 'clip', got {self.mode!r}")
        if self.pos_weight != "auto" and not self.pos_weight > 0:
            raise ValidationError("pos_weight must be positive or 'auto'")

    @classmethod
    def from_dict(cls, data) -> "TrainConfig":
        return cls(**cls.check_fields(data))

    @classmethod
    def check_fields(cls, data) -> dict:
        """``data`` if it is an object of known fields, each holding a JSON
        value that the grammar its annotation picks accepts."""
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        fields = cls.__dataclass_fields__
        for name, value in data.items():
            if name not in fields:
                raise ValidationError(f"unknown config key {name!r}")
            _GRAMMAR[fields[name].type](value, name)
        return data


_GRAMMAR = {"float": json_number, "int": json_int, "str": json_str, "bool": json_bool,
            "float | str": lambda v, name: v if v == "auto" else json_number(v, name)}


def uncertainty_weighted_total(l_sim: float, l_cls: float,
                               s_sim: float, s_cls: float) -> float:
    """exp(-s)/2-weighted sum of both losses plus the log-variance terms.

    With s = log(variance) this is the standard homoscedastic multi-task
    weighting; the value may be negative through the s terms.
    """
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
        """The breakdown; a total that a non-finite loss or weight spoils is refused."""
        if l_sim < 0 or l_cls < 0:
            raise ValidationError("component losses must be non-negative")
        total = uncertainty_weighted_total(l_sim, l_cls, s_sim, s_cls)
        if not math.isfinite(total):
            raise NonFiniteLossError(
                f"non-finite total loss at s_sim={s_sim!r}, s_cls={s_cls!r}")
        return cls(l_sim, l_cls, s_sim, s_cls, total)


class SplitResult(NamedTuple):
    train: List[ClipRecord]
    validation: List[ClipRecord]
    warnings: List[str]


def split_dataset(records: Sequence[ClipRecord], fraction: float,
                  seed: int) -> SplitResult:
    """Seeded stratified split: disjoint, exhaustive, per-class counts
    preserved within one record.  A class missing from either side is
    reported as a warning, not an error."""
    if len(records) < 2:
        raise ValidationError("need at least 2 records to split")
    rng = np.random.default_rng(seed)
    train: List[ClipRecord] = []
    val: List[ClipRecord] = []
    warnings: List[str] = []
    for label in (0, 1):
        members = [r for r in records if r.label == label]
        if not members:
            warnings.append(f"class {label} absent from the dataset")
            continue
        order = rng.permutation(len(members))
        n_train = int(math.floor(fraction * len(members) + 0.5))
        chosen = [members[i] for i in order]
        train.extend(chosen[:n_train])
        val.extend(chosen[n_train:])
        if n_train == 0:
            warnings.append(f"class {label} absent from the train split")
        if n_train == len(members):
            warnings.append(f"class {label} absent from the validation split")
    return SplitResult(train, val, warnings)


@dataclass
class TrainExample:
    """One clip prepared for the objective: snippet block plus caption."""

    clip_id: str
    snippets: np.ndarray  # (T, D) in the encoder's dtype; T == 1 in clip mode
    text: np.ndarray  # (D,) float64, read-only: examples may share it
    label: int


def prepare_examples(records: Sequence[ClipRecord], encoder: EncoderHandle,
                     config: TrainConfig) -> List[TrainExample]:
    """Encode records into training examples (frozen-feature work up front).

    Each distinct caption is encoded once; the examples that carry it share
    one read-only float64 vector.
    """
    out = []
    texts = {}  # caption -> its text vector
    for rec in records:
        if not rec.caption.strip():
            raise ValidationError(f"{rec.name} has no caption; run captioning first")
        text = texts.get(rec.caption)
        if text is None:
            text = encode_text(rec.caption, encoder).values.astype(np.float64)
            text.flags.writeable = False
            texts[rec.caption] = text
        bag = encode_clip(rec, config.mode, encoder, config.snippet_len,
                          config.snippet_stride)
        out.append(TrainExample(rec.clip_id, bag.snippets, text, rec.label))
    return out


def _cosines(adapted: np.ndarray, na: np.ndarray, texts: Sequence[np.ndarray],
             ws: Workspace) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise cos(adapted_t, texts[t]) and |adapted_t| |texts[t]|.

    ``na`` holds the adapted rows' norms; the text rows are stacked a
    ``ROW_BLOCK`` at a time into the workspace's scratch, so no (N, D)
    block of them is built."""
    nt, dot = np.empty(len(texts)), np.empty(len(texts))
    for r, scratch in row_blocks(ws, *adapted.shape):
        np.concatenate(texts[r], out=scratch.reshape(-1))  # np.stack, less its views
        np.einsum("ij,ij->i", scratch, scratch, out=nt[r])
        np.einsum("ij,ij->i", adapted[r], scratch, out=dot[r])
    norms = na * np.sqrt(nt, out=nt)
    return dot / norms, norms


class Stack(NamedTuple):
    """Forward state of a batch of clips stacked into one block of rows."""

    starts: np.ndarray  # (B,) first row of each clip
    seg: np.ndarray  # (N,) clip index of each row
    hidden: np.ndarray  # (N, H)
    adapted: np.ndarray  # (N, D)
    logits: np.ndarray  # (N,) snippet logits
    pooled: np.ndarray  # (B,) pooled clip logits
    attn: np.ndarray  # (N,) pooling attention within each clip


def forward_stack(ckpt: ModelCheckpoint, examples: Sequence,
                  workspace: Workspace) -> Stack:
    """One forward over every snippet row of ``examples``, pooled per clip.

    The only offline snippet kernel: training and ``forward_chunks`` run
    it.  ``examples`` may be ``TrainExample``s or ``mil.Bag``s, each with a
    ``.clip_id`` and, unchecked, ``encode_clip``'s (T >= 1, ckpt.dim)
    ``.snippets`` from an encoder of the checkpoint's D.  In clip mode T is
    1, which pools to its own logit with attention 1, so both modes share
    this path.  The rows are stacked into the workspace's ``b``, where the
    adapter forms the adapted rows over them; the hidden and adapted rows
    are views of ``h`` and ``b``.
    """
    counts = np.asarray([ex.snippets.shape[0] for ex in examples], dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    seg = np.repeat(np.arange(counts.size), counts)
    blocks = [ex.snippets for ex in examples]
    rows = np.concatenate(blocks, casting="safe",
                          out=workspace.buffer("b", (seg.size, ckpt.dim)))
    hidden, adapted, z = forward_rows(rows, ckpt, workspace, blocks)
    bad = ~np.isfinite(z)
    if bad.any():
        raise NonFiniteLossError(
            f"non-finite snippet logits for clip {examples[seg[bad.argmax()]].clip_id}")
    pooled, attn = segment_lse_pool(z, starts, ckpt.gamma)
    return Stack(starts, seg, hidden, adapted, z, pooled, attn)


def batch_objective(ckpt: ModelCheckpoint, batch: Sequence[TrainExample],
                    mode: str = "mil", pos_weight: float = 1.0,
                    unmatched: Sequence[np.ndarray] | None = None, *,
                    workspace: Workspace) -> Tuple[LossBreakdown, np.ndarray]:
    """Uncertainty-weighted objective and its analytic gradient.

    The whole batch runs as one stacked, ragged kernel: every clip's snippet
    rows are concatenated into one (sum T, D) block with per-clip offsets,
    the adapter and detector run once over it, and LSE pooling, attention,
    BCE and the alignment losses reduce per clip with ``np.*.reduceat``.
    In MIL mode, positive bags weight per-snippet ``1 - cos`` by the
    pooling-induced attention (gradients flow through the attention as
    well) and negative bags average the clamped similarities.  In clip mode
    each example is one row with a matched pair against its own caption plus
    one unmatched pair against ``unmatched`` (one text vector per example).
    Unchecked, as ``fit``, ``validate_record`` and ``TrainConfig`` ensure: the
    batch is non-empty, labels are 0 or 1, and ``pos_weight`` is > 0.

    Returns the loss breakdown (batch means) and the gradient as one vector
    in the layout of ``ckpt.theta``.  Scalar loss sums use ``math.fsum``
    (exactly order-independent); the gradient reductions run as single
    matrix products over the stacked rows in batch order.

    Every (N, D), (N, H) and θ-sized array lives in ``workspace``: the
    stacked rows in ``b``, over which the adapter forms the adapted rows,
    which become dL/d(adapted) a ``ROW_BLOCK`` of rows at a time, with the
    captions stacked into ``scratch`` per block and, in clip mode, the
    unmatched captions' term into an ``unmatched`` block of as many rows;
    the hidden rows in ``h``, and ``heads_backward``'s buffers.  The
    returned gradient is the workspace's ``grad``.
    """
    n = len(batch)
    fw = forward_stack(ckpt, batch, workspace)
    seg, attn, adapted = fw.seg, fw.attn, fw.adapted
    y = np.asarray([ex.label for ex in batch], dtype=np.float64)
    ws_sim = 0.5 * math.exp(-ckpt.s_sim)
    wc = 0.5 * math.exp(-ckpt.s_cls)

    l_cls = pos_weight * y * softplus(-fw.pooled) + (1 - y) * softplus(fw.pooled)
    d_pooled = -pos_weight * y * sigmoid(-fw.pooled) + (1 - y) * sigmoid(fw.pooled)
    dz_cls = d_pooled[seg] * attn
    na = np.sqrt(np.einsum("ij,ij->i", adapted, adapted))
    texts = [batch[i].text for i in seg]  # each row's caption
    cos, norms = _cosines(adapted, na, texts, workspace)
    if mode == "mil":
        counts = np.diff(fw.starts, append=seg.size)
        positive = y == 1
        l_sim = np.where(positive,
                         np.add.reduceat(attn * (1.0 - cos), fw.starts),
                         np.add.reduceat(np.maximum(0.0, cos), fw.starts) / counts)
        row_pos = positive[seg]
        dz_sim = np.where(row_pos,
                          ckpt.gamma * attn * ((1.0 - cos) - l_sim[seg]), 0.0)
        factor = np.where(row_pos, -attn, (cos > 0) / counts[seg])
    else:
        c_un, norms_un = _cosines(adapted, na, unmatched, workspace)
        l_sim = (1.0 - cos) + np.maximum(0.0, c_un)
        dz_sim = 0.0
        scale_un = c_un / (na * na)
    dz = (ws_sim * dz_sim + wc * dz_cls) / n
    g_w = adapted.T @ dz
    scale = cos / (na * na)

    # dL/d(adapted) over the adapted rows, one block at a time:
    # g_e = ws_sim * de_sim / n + dz wᵀ, rounding for rounding as the
    # cosine gradient's terms were once formed over whole (N, D) blocks
    g_e = adapted
    names = ("scratch", "unmatched") if mode == "clip" else ("scratch",)
    for r, scratch, *un in row_blocks(workspace, *adapted.shape, *names):
        e = g_e[r]
        if mode == "clip":
            # dc_un = texts / norms - (c_un / |a|²) a, clamped at c_un <= 0
            u = un[0]
            np.concatenate(unmatched[r], out=u.reshape(-1))
            u /= norms_un[r, None]
            u -= np.multiply(scale_un[r, None], e, out=scratch)
            u *= (c_un > 0)[r, None]
        np.concatenate(texts[r], out=scratch.reshape(-1))
        scratch /= norms[r, None]
        e *= scale[r, None]  # (cos / |a|²) a: the product commutes exactly
        np.subtract(scratch, e, out=e)  # d cos / d adapted
        if mode == "mil":
            e *= factor[r, None]
        else:
            np.negative(e, out=e)
            e += u
        e *= ws_sim  # (ws_sim * de_sim) / n: two roundings, never folded
        e /= n
        # d + fl(dz w) is fl(dz w) + d, the order the detector's backward adds
        e += np.multiply(dz[r, None], ckpt.w, out=scratch)
    grad = heads_backward([ex.snippets for ex in batch], fw.hidden, ckpt, dz=dz,
                          g_adapted=g_e, g_w=g_w, workspace=workspace)
    breakdown = LossBreakdown.compute(math.fsum(l_sim) / n, math.fsum(l_cls) / n,
                                      ckpt.s_sim, ckpt.s_cls)
    # max and min carry a NaN through, so both are finite iff every entry is,
    # and no θ-sized mask is formed
    if not (np.isfinite(grad.max()) and np.isfinite(grad.min())):
        raise NonFiniteLossError("non-finite gradient in batch objective")
    g = param_views(grad, ckpt.dim, ckpt.hidden)
    g["s_sim"][...] = -ws_sim * breakdown.l_sim + 1.0
    g["s_cls"][...] = -wc * breakdown.l_cls + 1.0
    return breakdown, grad


class AdamState:
    """Adam moments over θ with decoupled weight decay on weight tensors only.

    Holds the moments ``m`` and ``v`` and one scratch pair of at most
    ``ADAM_BLOCK`` entries, all allocated here: a step walks θ slot by slot
    in blocks of the scratch's size, so it allocates nothing θ-sized and
    writes only these arrays and the ``theta`` it is given.
    """

    def __init__(self, ckpt: ModelCheckpoint):
        self.m = np.zeros_like(ckpt.theta)
        self.v = np.zeros_like(ckpt.theta)
        self._layout = param_layout(ckpt.dim, ckpt.hidden)
        self._a = np.empty(min(ADAM_BLOCK, ckpt.theta.size))
        self._b = np.empty_like(self._a)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float,
             weight_decay: float) -> None:
        """Update ``theta`` in place from its gradient ``grad``.

        Computes, rounding for rounding, m = β1 m + (1-β1) g,
        v = β2 v + ((1-β2) g) g and θ -= lr ((m/bc1) / (sqrt(v/bc2) + ε)
        + (wd decayed) θ), with ``decayed`` 1 or 0 per slot; only the
        operands of a product or a sum are swapped.
        """
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        size = self._a.size
        for slot in self._layout:
            decay = slot.decayed * weight_decay  # the 0/1 mask times wd
            for lo in range(slot.start, slot.stop, size):
                hi = min(lo + size, slot.stop)
                m, v, g, th = self.m[lo:hi], self.v[lo:hi], grad[lo:hi], theta[lo:hi]
                a, b = self._a[:hi - lo], self._b[:hi - lo]
                m *= ADAM_BETA1
                np.multiply(g, 1 - ADAM_BETA1, out=a)
                m += a
                v *= ADAM_BETA2
                np.multiply(g, 1 - ADAM_BETA2, out=a)
                a *= g
                v += a
                np.divide(v, bc2, out=a)  # a: the denominator
                np.sqrt(a, out=a)
                a += ADAM_EPS
                np.divide(m, bc1, out=b)  # b: the update
                b /= a
                np.multiply(th, decay, out=a)
                b += a
                b *= lr
                th -= b


@dataclass
class EpochStats:
    epoch: int
    breakdown: LossBreakdown
    val_auc: float


class TrainResult(NamedTuple):
    checkpoint: ModelCheckpoint
    history: List[EpochStats]
    warnings: List[str]


def _resolve_pos_weight(config: TrainConfig, records: Sequence[ClipRecord]) -> float:
    if config.pos_weight != "auto":
        return float(config.pos_weight)
    n_pos = sum(r.label for r in records)
    n_neg = len(records) - n_pos
    return n_neg / n_pos if n_pos else 1.0


def forward_chunks(ckpt: ModelCheckpoint, examples: Iterable,
                   eval_batch: int = DEFAULT_EVAL_BATCH,
                   workspace: Workspace | None = None) -> Iterator[Tuple[list, Stack]]:
    """``(chunk, forward_stack(ckpt, chunk, workspace))`` per run of
    ``eval_batch`` clips of any iterable, such as a generator that encodes
    one clip at a time.  The one scoring loop, so ``scores_for``, ``vlaad
    eval`` and ``vlaad trace`` share chunks; memory scales with a chunk, not
    all clips.  Every chunk runs in ``workspace`` (one made here without
    it), so a chunk's stack is overwritten by the next.  A chunk's logits
    agree to rounding with another chunking's: a matrix product may round a
    row differently as its row count changes."""
    it, ws = iter(examples), workspace or Workspace()
    while chunk := list(islice(it, eval_batch)):
        yield chunk, forward_stack(ckpt, chunk, ws)


def scores_for(ckpt: ModelCheckpoint, examples: Iterable,
               eval_batch: int = DEFAULT_EVAL_BATCH,
               workspace: Workspace | None = None) -> np.ndarray:
    """Bag probabilities (MIL pooled, or the single clip logit in clip mode),
    one chunk of ``forward_chunks`` at a time; other ``eval_batch`` values
    give the same probabilities to rounding, not always bit for bit."""
    probs = [sigmoid(fw.pooled) for _, fw in
             forward_chunks(ckpt, examples, eval_batch, workspace)]
    return np.concatenate(probs) if probs else np.empty(0)


class TrainData(NamedTuple):
    """What training reads once the clips are encoded: no record, no encoder."""

    examples: List[TrainExample]
    val_bags: List[Bag]  # validation is scored like eval, reading no caption
    val_labels: np.ndarray
    pos_weight: float
    dim: int
    warnings: List[str]


def prepare_training(config: TrainConfig, records: Sequence[ClipRecord],
                     encoder: EncoderHandle,
                     val_records: Sequence[ClipRecord] | None = None,
                     source: str = "dataset") -> TrainData:
    """Split off a stratified validation set unless one is supplied, and
    encode both sides; the records and the encoder are not needed after.
    A train side without both classes is refused, naming ``source`` (where
    the records came from) and each class's count on that side."""
    warnings: List[str] = []
    if val_records is None:
        train_recs, val_recs, warnings = split_dataset(
            records, config.split_fraction, config.seed)
    else:
        train_recs, val_recs = list(records), list(val_records)
    n_pos = sum(r.label == 1 for r in train_recs)
    if not 0 < n_pos < len(train_recs):
        side = (f"split_fraction={config.split_fraction} leaves"
                if val_records is None else "the records hold")
        raise ValidationError(
            f"{source}: training split must contain both classes, but {side} "
            f"{len(train_recs) - n_pos} clips of class 0 and {n_pos} of class 1 "
            f"on the train side")
    return TrainData(
        prepare_examples(train_recs, encoder, config),
        [encode_clip(r, config.mode, encoder, config.snippet_len,
                     config.snippet_stride) for r in val_recs],
        np.asarray([r.label for r in val_recs], dtype=np.int64),
        _resolve_pos_weight(config, train_recs), encoder.dim, warnings)


@np.errstate(all="ignore")  # a run that diverges is refused by the checks, unwarned
def fit(config: TrainConfig, data: TrainData) -> TrainResult:
    """Run the optimization loop; deterministic for a fixed config and data.

    Trains for the configured number of epochs and records one loss
    breakdown plus validation AUC per epoch.  Every step and validation
    chunk runs in one workspace, which grows only for a batch or chunk
    larger than every earlier one.  A run that diverges raises one
    ``NonFiniteLossError`` naming the epoch.
    """
    examples, val_bags, val_labels = data.examples, data.val_bags, data.val_labels
    ckpt = init_checkpoint(dim=data.dim, hidden=config.hidden_dim,
                           gamma=config.gamma, seed=config.seed,
                           zero_first_layer=config.zero_first_layer)
    adam = AdamState(ckpt)
    history: List[EpochStats] = []
    n = len(examples)
    ws = Workspace()

    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 1000 + epoch])
        order = rng.permutation(n)
        sim_total = 0.0
        cls_total = 0.0
        for bi, start in enumerate(range(0, n, config.train_batch)):
            idx = order[start:start + config.train_batch]
            batch = [examples[j] for j in idx]
            unmatched = None
            if config.mode == "clip":
                # one caption per example, drawn uniformly from the n - 1 others (n >= 2)
                unmatched = [examples[(j + 1 + int(rng.integers(0, n - 1))) % n].text
                             for j in idx]
            try:
                breakdown, grad = batch_objective(ckpt, batch, config.mode,
                                                  data.pos_weight, unmatched,
                                                  workspace=ws)
            except (NonFiniteLossError, OverflowError) as exc:  # math.exp(-s) overflows
                raise NonFiniteLossError(f"epoch {epoch}, batch {bi}: {exc}") from exc
            adam.step(ckpt.theta, grad, config.learning_rate, config.weight_decay)
            sim_total += breakdown.l_sim * len(batch)
            cls_total += breakdown.l_cls * len(batch)
        ckpt.epoch = epoch + 1
        val_auc = float("nan")
        try:
            stats = LossBreakdown.compute(sim_total / n, cls_total / n, ckpt.s_sim, ckpt.s_cls)
            if val_bags and {0, 1} == set(val_labels.tolist()):
                probs = scores_for(ckpt, val_bags, config.eval_batch, ws)
                val_auc = roc_auc(ScoredSet(probs, val_labels))
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"epoch {epoch}, after its last batch: {exc}") from exc
        history.append(EpochStats(epoch + 1, stats, val_auc))

    return TrainResult(ckpt, history, data.warnings)


def train(config: TrainConfig, records: Sequence[ClipRecord],
          encoder: EncoderHandle,
          val_records: Sequence[ClipRecord] | None = None) -> TrainResult:
    """``fit`` on ``prepare_training``'s data."""
    return fit(config, prepare_training(config, records, encoder, val_records))


def write_history_csv(path, history: Sequence[EpochStats]) -> None:
    """One CSV row per epoch; the file replaces ``path`` only once every row
    is written."""
    with (replace_on_success(path) as tmp,
          open(tmp, "w", newline="", encoding="utf-8") as fh):
        writer = csv.writer(fh)
        writer.writerow(["epoch", "L_sim", "L_cls", "s_sim", "s_cls",
                         "L_total", "val_auc"])
        for row in history:
            b = row.breakdown
            writer.writerow([row.epoch, repr(b.l_sim), repr(b.l_cls),
                             repr(b.s_sim), repr(b.s_cls), repr(b.l_total),
                             repr(row.val_auc)])
