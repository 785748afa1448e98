"""Independent re-implementations used as test oracles.

Everything here is deliberately written from scratch (brute force,
enumeration, direct formulas) and must stay independent of the package
code paths it checks.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import struct

import numpy as np

from vlaad.embeddings import Embedding, FrameWindow, encode_video_snippet
from vlaad.errors import (DegenerateInputError, DimensionMismatchError, EmptyInputError,
                         ValidationError)
from vlaad.mil import (Bag, lse_pool, pooling_attention, segment_clip,
                       segment_lse_pool)
from vlaad.model import (ModelCheckpoint, Workspace, adapter_forward, bag_logits,
                         forward_rows, heads_backward, param_layout, param_views)
from vlaad.numerics import sigmoid, softplus
from vlaad.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LossBreakdown,
                           batch_objective)


def stub_video_embedding(frames, seed, dim):
    """Standalone recomputation of the stub video encoding."""
    pooled = np.asarray(frames, dtype=np.float64).mean(axis=0)
    rng = np.random.default_rng([seed, 101, pooled.shape[0], dim])
    proj = rng.standard_normal((pooled.shape[0], dim)) / math.sqrt(pooled.shape[0])
    vec = pooled @ proj
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def per_snippet_bag(clip, snippet_len, stride, encoder):
    """``segment_clip`` one snippet at a time, snippet i keyed ``clip_id:i``.

    ``encoder`` is a stub, called once per snippet on a validated
    ``FrameWindow``, or the id -> vector entries written to a cache file,
    read by key."""
    feats = clip.feature_matrix()
    rows, times = [], []
    for i, s in enumerate(range(0, feats.shape[0] - snippet_len + 1, stride)):
        if isinstance(encoder, dict):
            rows.append(np.asarray(encoder[f"{clip.clip_id}:{i}"], np.float32))
        else:
            window = FrameWindow(
                frames=feats[s:s + snippet_len],
                timestamps=np.arange(s, s + snippet_len) / clip.frame_hz)
            rows.append(encode_video_snippet(window, encoder).values)
        times.append(s / clip.frame_hz)
    return Bag(clip_id=clip.clip_id, snippets=np.stack(rows),
               start_times=np.asarray(times), label=clip.label)


def check_bag(bag):
    """The invariants every bag the package builds meets (``mil.Bag`` itself
    checks none): a (T >= 1, D) float32 block of rows, one float64 start time
    per row, strictly increasing, and a 0/1 label."""
    rows, times = bag.snippets, bag.start_times
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise EmptyInputError("bag must contain at least one snippet")
    if times.shape != (rows.shape[0],):
        raise ValidationError("one start time per snippet required")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("snippet start times must be strictly increasing")
    if bag.label not in (0, 1):
        raise ValidationError(f"bag label must be 0 or 1, got {bag.label}")
    if rows.dtype != np.float32 or times.dtype != np.float64:
        raise ValidationError(f"rows are {rows.dtype} and start times "
                              f"{times.dtype}, not float32 and float64")


def check_embedding(emb, dim):
    """The invariants every embedding an encoder returns meets (``Embedding``
    itself checks none): a (dim,) float32 vector of finite values."""
    vals = emb.values
    if vals.dtype != np.float32 or vals.shape != (dim,):
        raise ValidationError(f"embedding is {vals.dtype} of shape {vals.shape}, "
                              f"not float32 of shape ({dim},)")
    if not np.all(np.isfinite(vals)):
        raise ValidationError("embedding has non-finite entries")


def stub_text_embedding(caption, seed, buckets, dim):
    """Standalone recomputation of the hash-bucket caption encoding."""
    counts = np.zeros(buckets)
    for token in caption.strip().lower().split():
        digest = hashlib.sha256(token.encode()).digest()
        counts[int.from_bytes(digest[:8], "little") % buckets] += 1.0
    rng = np.random.default_rng([seed, 202, buckets, dim])
    proj = rng.standard_normal((buckets, dim)) / math.sqrt(buckets)
    vec = counts @ proj
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def brute_force_auc(scores, labels):
    """All positive/negative pairs; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def exhaustive_youden(scores, labels):
    """Best J over every candidate threshold by direct counting."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    distinct = np.unique(scores)
    candidates = ([distinct[0] - 1.0]
                  + [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
                  + [distinct[-1] + 1.0])
    best = -np.inf
    for tau in candidates:
        preds = scores >= tau
        tp = int((preds & (labels == 1)).sum())
        fp = int((preds & (labels == 0)).sum())
        tpr = tp / max(1, (labels == 1).sum())
        fpr = fp / max(1, (labels == 0).sum())
        best = max(best, tpr - fpr)
    return best, candidates


def lse_pool_max_shift(logits, gamma):
    """One bag's log-sum-exp pool and its attention, shifted by the bag's
    max and summed with ``np.sum``: rounding may differ from the package's
    ``np.add.reduceat`` in the last bits."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = np.exp(gamma * (z - z.max()))
    return (float(z.max()) + (np.log(shifted.sum()) - np.log(z.size)) / gamma,
            shifted / shifted.sum())


def epoch_loss_means(steps, epochs):
    """Each epoch's (L_sim, L_cls): the mean of its steps' breakdowns weighted
    by batch size.  ``steps`` holds (batch size, breakdown) per step in call
    order, with as many steps in every epoch."""
    per_epoch = len(steps) // epochs
    means = []
    for e in range(epochs):
        chunk = steps[e * per_epoch:(e + 1) * per_epoch]
        n = sum(size for size, _ in chunk)
        means.append((math.fsum(size * b.l_sim for size, b in chunk) / n,
                      math.fsum(size * b.l_cls for size, b in chunk) / n))
    return means


def naive_bce(logit, y, pos_weight=1.0):
    """Textbook -[w y log p + (1-y) log(1-p)]; valid for |logit| <= 30."""
    p = 1.0 / (1.0 + math.exp(-logit))
    return -(pos_weight * y * math.log(p) + (1 - y) * math.log(1.0 - p))


def central_difference(fn, x, index, step):
    up = np.array(x, dtype=np.float64)
    down = np.array(x, dtype=np.float64)
    up[index] += step
    down[index] -= step
    return (fn(up) - fn(down)) / (2.0 * step)


def wilcoxon_brute_force_p(deltas):
    """One-sided exact p by literally iterating all 2^n sign patterns.

    Midranks computed by direct averaging; usable up to n ~ 14.
    """
    d = np.asarray(deltas, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    absd = np.abs(d)
    ranks = np.empty(n)
    for i, v in enumerate(absd):
        less = (absd < v).sum()
        equal = (absd == v).sum()
        ranks[i] = less + (equal + 1) / 2.0
    w_obs = ranks[d > 0].sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w >= w_obs - 1e-12:
            count += 1
    return w_obs, count / 2.0 ** n


def merge_then_tile_negatives(total, frames, guard, clip_frames):
    """Start frames of the negative clips ``assemble_clips`` tiles: the guard
    zones [f - guard, f + guard + 1) clamped to the stream are merged where
    they overlap or touch, the gaps between them listed, and each gap tiled
    from its start with whole clips."""
    zones = sorted((max(0, f - guard), min(total, f + guard + 1)) for f in frames)
    merged = []
    for a, b in zones:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    gaps, prev = [], 0
    for a, b in merged:
        if a > prev:
            gaps.append((prev, a))
        prev = b
    if prev < total:
        gaps.append((prev, total))
    starts = []
    for a, b in gaps:
        s = a
        while s + clip_frames <= b:
            starts.append(s)
            s += clip_frames
    return starts


def v20_penalty_product(counts, weights):
    """Literal product loop for the multiplicative penalty."""
    penalty = 1.0
    for kind, num in counts.items():
        for _ in range(num):
            penalty *= weights[kind]
    return penalty


def matched_cosine_loss_mean(snippets, text):
    """Uniform average of matched per-snippet losses, brute-force loop."""
    total = 0.0
    for row in snippets:
        c = float(np.dot(row, text)
                  / (np.linalg.norm(row) * np.linalg.norm(text)))
        total += 1.0 - c
    return total / len(snippets)


def _cosines_with_grads(adapted, text):
    """Row-wise cos(adapted_t, text) and its gradient in each row."""
    nt = np.linalg.norm(text)
    na = np.linalg.norm(adapted, axis=1)
    cos = adapted @ text / (na * nt)
    dcos = text[None, :] / (na * nt)[:, None] - (cos / (na * na))[:, None] * adapted
    return cos, dcos


def per_clip_objective(ckpt, batch, mode="mil", pos_weight=1.0, unmatched=None):
    """The training objective computed one clip at a time.

    Each clip runs its own adapter forward, ``lse_pool``,
    ``pooling_attention`` and scalar BCE; only the final gradient products
    run over the concatenated rows.  Returns (LossBreakdown, gradient in
    θ's layout), as ``trainer.batch_objective`` does.
    """
    n = len(batch)
    ws = 0.5 * math.exp(-ckpt.s_sim)
    wc = 0.5 * math.exp(-ckpt.s_cls)
    l_sims, l_clses = [], []
    snips_blocks, hidden_blocks, adapted_blocks = [], [], []
    dz_blocks, de_blocks = [], []
    for i, ex in enumerate(batch):
        snips = np.asarray(ex.snippets, dtype=np.float64)
        h, adapted = adapter_forward(snips, ckpt, Workspace())
        z = adapted @ ckpt.w + ckpt.b
        t_count = z.shape[0]
        cos, dcos = _cosines_with_grads(adapted, ex.text)
        if mode == "mil":
            attn = pooling_attention(z, ckpt.gamma)
            pooled = lse_pool(z, ckpt.gamma)
            l_cls = binary_cross_entropy_from_logit(pooled, ex.label, pos_weight)
            d_pooled = (-pos_weight * ex.label * sigmoid(-pooled)
                        + (1 - ex.label) * sigmoid(pooled))
            dz_cls = d_pooled * attn
            if ex.label == 1:
                l_sim = float(attn @ (1.0 - cos))
                dz_sim = ckpt.gamma * attn * ((1.0 - cos) - l_sim)
                de_sim = attn[:, None] * (-dcos)
            else:
                l_sim = float(np.maximum(0.0, cos).mean())
                dz_sim = np.zeros_like(z)
                de_sim = (cos > 0)[:, None] * dcos / t_count
        else:
            z0 = float(z[0])
            l_cls = binary_cross_entropy_from_logit(z0, ex.label, pos_weight)
            dz_cls = np.array([-pos_weight * ex.label * sigmoid(-z0)
                               + (1 - ex.label) * sigmoid(z0)])
            dz_sim = np.zeros_like(z)
            cu, dcu = _cosines_with_grads(adapted[:1], unmatched[i])
            c_un, dc_un = float(cu[0]), dcu[0]
            l_sim = (1.0 - float(cos[0])) + max(0.0, c_un)
            de_sim = (-dcos[0] + (c_un > 0) * dc_un)[None, :]
        l_sims.append(l_sim)
        l_clses.append(l_cls)
        snips_blocks.append(snips)
        hidden_blocks.append(h)
        adapted_blocks.append(adapted)
        dz_blocks.append((ws * dz_sim + wc * dz_cls) / n)
        de_blocks.append(ws * de_sim / n)
    grad = heads_backward_through_detector(
        np.concatenate(snips_blocks), np.concatenate(hidden_blocks),
        np.concatenate(adapted_blocks), ckpt,
        dz=np.concatenate(dz_blocks), d_adapted=np.concatenate(de_blocks))
    l_sim = math.fsum(l_sims) / n
    l_cls = math.fsum(l_clses) / n
    g = param_views(grad, ckpt.dim, ckpt.hidden)
    g["s_sim"][...] = -ws * l_sim + 1.0
    g["s_cls"][...] = -wc * l_cls + 1.0
    return LossBreakdown.compute(l_sim, l_cls, ckpt.s_sim, ckpt.s_cls), grad


# --- helpers that only tests call, moved out of the package ----------------


def cosine_similarity(a, b) -> float:
    """cos(a, b); raises on zero-norm input rather than emitting NaN."""
    va, vb = (np.asarray(e.values if isinstance(e, Embedding) else e,
                         dtype=np.float64) for e in (a, b))
    if va.shape != vb.shape:
        raise DimensionMismatchError(f"shape mismatch {va.shape} vs {vb.shape}")
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateInputError("cosine of a zero-norm vector is undefined")
    return float(va @ vb / (na * nb))


def cosine_alignment_loss(e_video, e_text, matched: bool) -> float:
    """1 - cos for matched pairs; max(0, cos) for unmatched pairs."""
    c = cosine_similarity(e_video, e_text)
    return 1.0 - c if matched else max(0.0, c)


def binary_cross_entropy_from_logit(logit: float, y: int, pos_weight: float = 1.0) -> float:
    """Stable BCE in logit space; pos_weight scales the y=1 term."""
    if not np.isfinite(logit):
        raise ValidationError("logit must be finite")
    if y not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {y}")
    if not pos_weight > 0:
        raise ValidationError("pos_weight must be positive")
    # -log sigmoid(z) = softplus(-z);  -log(1 - sigmoid(z)) = softplus(z)
    return float(pos_weight * y * softplus(-logit) + (1 - y) * softplus(logit))


def mil_alignment_loss(adapted_snippets, e_text, attention, y: int) -> float:
    """Bag-level alignment loss of one bag, one snippet at a time.

    Positive bags weight per-snippet matched losses by the pooling-induced
    attention; negative bags uniformly average the clamped similarities to
    discourage uniformly high activations.
    """
    snips = np.asarray(adapted_snippets, dtype=np.float64)
    if snips.ndim != 2 or snips.shape[0] < 1:
        raise ValidationError("at least one adapted snippet required")
    if y not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {y}")
    cosines = np.array([cosine_similarity(row, e_text) for row in snips])
    if y == 1:
        a = np.asarray(attention, dtype=np.float64)
        if a.shape != (snips.shape[0],):
            raise ValidationError("one attention weight per snippet required")
        if abs(float(a.sum()) - 1.0) > 1e-6:
            raise ValidationError(f"attention sums to {a.sum()}, expected 1")
        return float(a @ (1.0 - cosines))
    return float(np.maximum(0.0, cosines).mean())


def pooled_logit_with_grad(bag, ckpt):
    """Pooled bag logit and its analytic gradient in θ's layout.

    The pooling gradient with respect to the snippet logits is exactly the
    pooling-induced attention, so the chain is attention-weighted.
    """
    snips = np.asarray(bag.snippets, dtype=np.float64)
    h, adapted, z = forward_rows(snips, ckpt, Workspace())
    grad = heads_backward_through_detector(snips, h, adapted, ckpt,
                                           dz=pooling_attention(z, ckpt.gamma))
    return lse_pool(z, ckpt.gamma), grad


def roc_curve(scored):
    """(FPR, TPR) points swept over the distinct scores, high to low."""
    scored.require_both_classes()
    n_pos = int((scored.labels == 1).sum())
    n_neg = scored.labels.size - n_pos
    fpr, tpr = [0.0], [0.0]
    for tau in np.unique(scored.scores)[::-1]:
        preds = scored.scores >= tau
        tpr.append(float((preds & (scored.labels == 1)).sum()) / n_pos)
        fpr.append(float((preds & (scored.labels == 0)).sum()) / n_neg)
    return np.asarray(fpr), np.asarray(tpr)


def roc_auc_trapezoid(scored) -> float:
    """Trapezoidal area under the ROC curve; equals ``roc_auc`` exactly."""
    fpr, tpr = roc_curve(scored)
    return float(np.trapezoid(tpr, fpr))


def make_global_state(risk: float, velocity: float, command_index: int,
                      command_count: int) -> np.ndarray:
    """Concatenate [risk, velocity, onehot(command)] in that fixed order: the
    driver-bridge global-state token.  Out-of-range risk is an error, never
    a silent clamp."""
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
    """Affine map of the global state to 2 waypoints (4 reals): a stand-in
    consumer for the risk token, deterministic by construction."""
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


def serialize_global_state(state) -> str:
    return json.dumps([float(x) for x in state])


def parse_global_state(text: str) -> np.ndarray:
    values = np.asarray(json.loads(text), dtype=np.float64)
    if values.ndim != 1 or values.size < 3:
        raise ValidationError("global state must be [risk, velocity, onehot...]")
    onehot = values[2:]
    if abs(float(onehot.sum()) - 1.0) > 1e-9 or np.any(onehot < 0):
        raise ValidationError("command one-hot must sum to 1")
    return values


def vector_objective(template, batch, mode="mil", pos_weight=1.0, unmatched=None):
    """Wrap ``batch_objective`` as a (loss, gradient) handle over θ vectors."""

    def fn(vec):
        breakdown, grad = batch_objective(
            dataclasses.replace(template, theta=vec), batch, mode, pos_weight,
            unmatched, workspace=Workspace())
        return breakdown.l_total, grad

    return fn


def gradient_check(loss_and_grad, params, step=1e-5, n_coords=64, seed=0) -> float:
    """Worst relative error of analytic vs central-difference gradients over
    a seeded random coordinate subset (at least ``n_coords`` when available).
    """
    params = np.asarray(params, dtype=np.float64)
    _, grad = loss_and_grad(params)
    if not np.all(np.isfinite(grad)):
        raise ValidationError("analytic gradient is non-finite")
    rng = np.random.default_rng(seed)
    count = min(n_coords, params.size)
    coords = rng.choice(params.size, size=count, replace=False)
    worst = 0.0
    for idx in coords:
        probe = params.copy()
        probe[idx] = params[idx] + step
        up, _ = loss_and_grad(probe)
        probe[idx] = params[idx] - step
        down, _ = loss_and_grad(probe)
        fd = (up - down) / (2.0 * step)
        denom = max(abs(fd), abs(grad[idx]), 1e-8)
        worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst


# --- the per-clip trace path, oracle for the stacked `vlaad trace` ---------


@dataclasses.dataclass
class RiskTrace:
    """Per-snippet logits of one clip plus their pooled value."""

    clip_id: str
    logits: np.ndarray  # (T,)
    pooled: float
    prob: float
    gamma: float

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        lo, hi = float(self.logits.mean()), float(self.logits.max())
        if not (lo - 1e-9 <= self.pooled <= hi + 1e-9):
            raise ValidationError(
                f"pooled logit {self.pooled} outside [mean, max] = [{lo}, {hi}]")


def make_trace(clip_id: str, logits, gamma: float) -> RiskTrace:
    """Bundle logits into a RiskTrace with pooled logit and probability."""
    pooled = lse_pool(logits, gamma)
    return RiskTrace(clip_id=clip_id, logits=np.asarray(logits, dtype=np.float64),
                     pooled=pooled, prob=float(sigmoid(pooled)), gamma=gamma)


def forward_bag(bag, ckpt) -> RiskTrace:
    """Full bag pass: adapt, detect, pool with the checkpoint's gamma."""
    return make_trace(bag.clip_id, bag_logits(bag, ckpt), ckpt.gamma)


def per_clip_trace_rows(records, ckpt, encoder, snippet_len=8, stride=8):
    """`vlaad trace` CSV rows computed one clip and one snippet at a time:
    (clip_id, snippet_index, t_start_s, logit, prob, attention)."""
    rows = []
    for rec in records:
        bag = segment_clip(rec, snippet_len, stride, encoder)
        trace = forward_bag(bag, ckpt)
        attention = pooling_attention(trace.logits, ckpt.gamma)
        for i, (t, z, a) in enumerate(zip(bag.start_times, trace.logits,
                                          attention)):
            rows.append((rec.clip_id, i, float(t), float(z),
                         float(sigmoid(z)), float(a)))
    return rows


def init_checkpoint_out_of_place(dim, hidden, gamma, seed, zero_first_layer):
    """``model.init_checkpoint`` as it was written before it drew in place:
    each tensor drawn as a fresh array, scaled into another, then copied."""
    rng = np.random.default_rng(seed)
    ckpt = ModelCheckpoint(np.zeros(param_layout(dim, hidden)[-1].stop),
                           dim=dim, hidden=hidden, gamma=gamma, seed=seed)
    if not zero_first_layer:
        ckpt.w1 = rng.uniform(-1, 1, size=(dim, hidden)) / np.sqrt(dim)
    ckpt.w2 = rng.uniform(-1, 1, size=(hidden, dim)) / np.sqrt(hidden)
    ckpt.w = rng.uniform(-1, 1, size=dim) / np.sqrt(dim)
    return ckpt


# --- the training step written out of place --------------------------------
# Every expression here allocates its result, exactly as the package did
# before its step was rewritten to work in place.  The in-place step must
# perform the same float operations in the same order, so it has to equal
# these bit for bit (``==``, never approx).


def adapter_forward_out_of_place(snips, params):
    u = snips @ params.w1 + params.b1
    h = np.tanh(u)
    adapted = snips + h @ params.w2 + params.b2
    return u, h, adapted


def heads_backward_through_detector(snips, hidden, adapted, ckpt, *, dz,
                                   d_adapted=0.0):
    """``model.heads_backward`` from dL/dz and a direct dL/d(adapted) term,
    the detector's part written out of place: g_adapted = d_adapted + dz wᵀ
    (added in the order ``trainer.batch_objective`` adds them) and the
    detector-weight gradient adaptedᵀ dz."""
    g_adapted = np.asarray(d_adapted, dtype=np.float64) + dz[:, None] * ckpt.w[None, :]
    return heads_backward([snips], hidden, ckpt, dz=dz, g_adapted=g_adapted,
                          g_w=adapted.T @ dz, workspace=Workspace())


def heads_backward_out_of_place(snips, hidden, adapted, ckpt, *, dz, d_adapted=0.0):
    grad = np.zeros_like(ckpt.theta)
    g = param_views(grad, ckpt.dim, ckpt.hidden)
    g_e = np.asarray(d_adapted, dtype=np.float64) + dz[:, None] * ckpt.w[None, :]
    g_u = (g_e @ ckpt.w2.T) * (1.0 - hidden * hidden)
    g["w1"][...] = snips.T @ g_u
    g["b1"][...] = g_u.sum(axis=0)
    g["w2"][...] = hidden.T @ g_e
    g["b2"][...] = g_e.sum(axis=0)
    g["w"][...] = adapted.T @ dz
    g["b"][...] = dz.sum()
    return grad


def cosines_with_grads_out_of_place(adapted, texts):
    """Row-wise cos(adapted_t, text_t) and its gradient in each adapted row."""
    nt = np.sqrt(np.einsum("ij,ij->i", texts, texts))
    na = np.sqrt(np.einsum("ij,ij->i", adapted, adapted))
    cos = np.einsum("ij,ij->i", adapted, texts) / (na * nt)
    dcos = texts / (na * nt)[:, None] - (cos / (na * na))[:, None] * adapted
    return cos, dcos


def forward_stack_out_of_place(ckpt, examples):
    """``trainer.forward_stack`` over valid input: (rows, starts, seg,
    hidden, adapted, logits, pooled, attn), every array a fresh one."""
    counts = np.asarray([ex.snippets.shape[0] for ex in examples], dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    seg = np.repeat(np.arange(counts.size), counts)
    rows = np.concatenate([ex.snippets for ex in examples], dtype=np.float64)
    _, hidden, adapted = adapter_forward_out_of_place(rows, ckpt)
    z = adapted @ ckpt.w + ckpt.b
    return (rows, starts, seg, hidden, adapted, z,
            *segment_lse_pool(z, starts, ckpt.gamma))


def batch_objective_out_of_place(ckpt, batch, mode="mil", pos_weight=1.0,
                                 unmatched=None):
    """``trainer.batch_objective`` over valid input, every step out of place."""
    rows, starts, seg, hidden, adapted, _, pooled, attn = forward_stack_out_of_place(
        ckpt, batch)
    n = len(batch)
    y = np.asarray([ex.label for ex in batch], dtype=np.float64)
    ws = 0.5 * math.exp(-ckpt.s_sim)
    wc = 0.5 * math.exp(-ckpt.s_cls)

    l_cls = pos_weight * y * softplus(-pooled) + (1 - y) * softplus(pooled)
    d_pooled = -pos_weight * y * sigmoid(-pooled) + (1 - y) * sigmoid(pooled)
    dz_cls = d_pooled[seg] * attn
    texts = np.stack([ex.text for ex in batch])
    cos, dcos = cosines_with_grads_out_of_place(adapted, texts[seg])
    if mode == "mil":
        counts = np.diff(starts, append=seg.size)
        positive = y == 1
        l_sim = np.where(positive,
                         np.add.reduceat(attn * (1.0 - cos), starts),
                         np.add.reduceat(np.maximum(0.0, cos), starts) / counts)
        row_pos = positive[seg]
        dz_sim = np.where(row_pos,
                          ckpt.gamma * attn * ((1.0 - cos) - l_sim[seg]), 0.0)
        de_sim = np.where(row_pos, -attn, (cos > 0) / counts[seg])[:, None] * dcos
    else:
        c_un, dc_un = cosines_with_grads_out_of_place(adapted, np.stack(unmatched))
        l_sim = (1.0 - cos) + np.maximum(0.0, c_un)
        dz_sim = 0.0
        de_sim = -dcos + (c_un > 0)[:, None] * dc_un

    grad = heads_backward_out_of_place(rows, hidden, adapted, ckpt,
                                       dz=(ws * dz_sim + wc * dz_cls) / n,
                                       d_adapted=ws * de_sim / n)
    l_sim = math.fsum(l_sim) / n
    l_cls = math.fsum(l_cls) / n
    breakdown = LossBreakdown.compute(l_sim, l_cls, ckpt.s_sim, ckpt.s_cls)
    g = param_views(grad, ckpt.dim, ckpt.hidden)
    g["s_sim"][...] = -ws * l_sim + 1.0
    g["s_cls"][...] = -wc * l_cls + 1.0
    return breakdown, grad


class AdamOutOfPlace:
    """``trainer.AdamState`` with a fresh array for every expression."""

    def __init__(self, ckpt):
        self.m = np.zeros_like(ckpt.theta)
        self.v = np.zeros_like(ckpt.theta)
        self.decay = np.zeros_like(ckpt.theta)
        for slot in param_layout(ckpt.dim, ckpt.hidden):
            self.decay[slot.start:slot.stop] = slot.decayed
        self.t = 0

    def step(self, theta, grad, lr, weight_decay):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad * grad
        update = (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)
        theta -= lr * (update + weight_decay * self.decay * theta)


@dataclasses.dataclass
class ListRingBuffer:
    """``inference.CausalBuffer`` as a Python list of frames: each update
    tick stacks the list into a new array and builds a validated
    ``FrameWindow``.  Drive it with ``list_ring_push_tick``."""

    encoder: object
    size: int = 8
    subsample_period: int = 5
    tick_rate_hz: float = 20.0
    frames: list = dataclasses.field(default_factory=list)
    frame_ticks: list = dataclasses.field(default_factory=list)
    cached_token: float = 0.5
    encoder_calls: int = 0
    last_tick: int | None = None

    def window(self):
        if not self.frames:
            return None
        return FrameWindow(
            frames=np.stack(self.frames),
            timestamps=np.asarray(self.frame_ticks, dtype=np.float64)
            / self.tick_rate_hz)

    def compute_token(self, ckpt) -> float:
        window = self.window()
        if window is None:
            return 0.5
        emb = encode_video_snippet(window, self.encoder)
        self.encoder_calls += 1
        logit = forward_rows(emb.values.astype(np.float64)[None, :], ckpt,
                             Workspace())[2][0]
        if not np.isfinite(logit):
            raise ValidationError("detector produced a non-finite logit")
        return float(sigmoid(logit))


def held_frames(buffer):
    """The frames an ``inference.CausalBuffer`` holds, oldest first, gathered
    slot by slot from the first K rows of its ring; None while it holds
    none."""
    if not buffer.held:
        return None
    slots = [(buffer._next - buffer.held + j) % buffer.size
             for j in range(buffer.held)]
    return buffer._ring[slots]


def list_ring_push_tick(buffer, frame, tick, ckpt, caching=True) -> float:
    """``inference.push_tick`` over a ``ListRingBuffer``."""
    if buffer.last_tick is not None and tick <= buffer.last_tick:
        raise ValidationError(f"out-of-order tick {tick} after {buffer.last_tick}")
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
    buffer.last_tick = tick
    if tick % buffer.subsample_period == 0:
        buffer.frames.append(frame)
        buffer.frame_ticks.append(tick)
        if len(buffer.frames) > buffer.size:
            buffer.frames.pop(0)
            buffer.frame_ticks.pop(0)
        buffer.cached_token = buffer.compute_token(ckpt)
        return buffer.cached_token
    if caching:
        return buffer.cached_token
    return buffer.compute_token(ckpt)


def midranks_loop(values) -> np.ndarray:
    """1-based ranks, tied values sharing the average of their rank run,
    found by walking the sorted order one run at a time."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def youden_threshold_matrix(validation):
    """``evalkit.youden_threshold`` by a (candidates x n) boolean matrix:
    (threshold, J, degenerate)."""
    validation.require_both_classes()
    distinct = np.unique(validation.scores)
    candidates = np.concatenate([
        [distinct[0] - 1.0],
        (distinct[:-1] + distinct[1:]) / 2.0,
        [distinct[-1] + 1.0],
    ])
    pos = validation.labels == 1
    n_pos = int(pos.sum())
    n_neg = validation.labels.size - n_pos
    preds = validation.scores[None, :] >= candidates[:, None]
    tpr = (preds & pos[None, :]).sum(axis=1) / n_pos
    fpr = (preds & ~pos[None, :]).sum(axis=1) / n_neg
    j = tpr - fpr
    best = int(np.argmax(j))
    return float(candidates[best]), float(j[best]), bool(j[best] <= 0.0)


# --- the whole-file embedding-cache reader ----------------------------------
# The package's reader scans the file into an id -> offset index and reads
# vectors per clip.  This is the reader it replaced: it loads every vector,
# and it must accept and reject the same files with the same error text.

_CACHE_HEADER = struct.Struct("<4sIIQ")  # magic, version, D, count


def read_embedding_cache_whole(path):
    """(id -> row, (count, D) float32 block, D); an id stored twice maps to
    its last record.  Checks, in order: header, magic, version, D, count
    against the file size, each record's length and UTF-8 id, trailing bytes,
    then the first non-finite vector."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_CACHE_HEADER.size)
        if len(header) != _CACHE_HEADER.size:
            raise ValidationError(f"{path}: truncated embedding cache header at "
                                  f"byte {len(header)} of {_CACHE_HEADER.size}")
        magic, version, dim, count = _CACHE_HEADER.unpack(header)
        if magic != b"VLEC":
            raise ValidationError(
                f"{path}: not an embedding cache file: bad magic {magic!r} at byte 0")
        if version != 1:
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
        vectors = np.empty((count, dim), dtype="<f4")
        rows, starts = {}, []
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
            starts.append(at)
            at += 2 + klen + 4 * dim
        if at != size:
            raise ValidationError(
                f"{path}: trailing bytes in embedding cache: its {count} records "
                f"end at byte {at}, but the file ends at byte {size}")
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValidationError(f"{path}: embedding cache record {i} at byte "
                                  f"{starts[i]} has a non-finite value")
    return rows, vectors, int(dim)
