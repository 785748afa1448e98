"""Independent re-implementations used as test oracles.

Everything here is deliberately written from scratch (brute force,
enumeration, direct formulas) and must stay independent of the package
code paths it checks.
"""

import hashlib
import itertools
import math

import numpy as np

from vlaad.losses import LossBreakdown, binary_cross_entropy_from_logit
from vlaad.mil import lse_pool, pooling_attention
from vlaad.model import adapter_forward, heads_backward
from vlaad.numerics import sigmoid


def stub_video_embedding(frames, seed, dim):
    """Standalone recomputation of the stub video encoding."""
    pooled = np.asarray(frames, dtype=np.float64).mean(axis=0)
    rng = np.random.default_rng([seed, 101, pooled.shape[0], dim])
    proj = rng.standard_normal((pooled.shape[0], dim)) / math.sqrt(pooled.shape[0])
    vec = pooled @ proj
    return (vec / np.linalg.norm(vec)).astype(np.float32)


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
    run over the concatenated rows.  Returns (LossBreakdown, gradients by
    parameter name), as ``trainer.batch_objective`` does.
    """
    n = len(batch)
    ws = 0.5 * math.exp(-ckpt.s_sim)
    wc = 0.5 * math.exp(-ckpt.s_cls)
    l_sims, l_clses = [], []
    snips_blocks, hidden_blocks, adapted_blocks = [], [], []
    dz_blocks, de_blocks = [], []
    for i, ex in enumerate(batch):
        snips = np.asarray(ex.snippets, dtype=np.float64)
        _, h, adapted = adapter_forward(snips, ckpt.adapter)
        z = adapted @ ckpt.detector.w + ckpt.detector.b
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
    grads = heads_backward(
        np.concatenate(snips_blocks), np.concatenate(hidden_blocks),
        np.concatenate(adapted_blocks), ckpt.adapter, ckpt.detector,
        np.concatenate(dz_blocks), np.concatenate(de_blocks))
    l_sim = math.fsum(l_sims) / n
    l_cls = math.fsum(l_clses) / n
    grads["s_sim"] = np.asarray([-ws * l_sim + 1.0])
    grads["s_cls"] = np.asarray([-wc * l_cls + 1.0])
    return LossBreakdown.compute(l_sim, l_cls, ckpt.s_sim, ckpt.s_cls), grads
