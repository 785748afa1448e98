"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from oracles import (brute_force_auc, exhaustive_youden, gradient_check,
                     v20_penalty_product, vector_objective)
from vlaad.datakit import (InfractionLog, SynthConfig, assemble_clips,
                           augment_collision_position,
                           generate_synthetic_dataset, read_manifest,
                           write_manifest)
from vlaad.embeddings import StubEncoder
from vlaad.evalkit import (DEFAULT_V21_COEFFICIENTS, DrivingRunRecord,
                           ScoredSet, infraction_penalty, roc_auc,
                           summarize_run, threshold_metrics,
                           wilcoxon_signed_rank, youden_threshold)
from vlaad.inference import CausalBuffer, push_tick
from vlaad.mil import lse_pool, pooling_attention, segment_clip
from vlaad.model import bag_logits, init_checkpoint, save_checkpoint
from vlaad.trainer import (TrainConfig, TrainExample, scores_for,
                           split_dataset, train)

# Pinned desk-scale configuration: 300 synthetic clips (150/150) split 2:1
# into 200 train / 100 validation, feature dim 32, shared shift direction.
DATA_SEED = 2
TRAIN_SEED = 0
SPLIT_FRACTION = 2.0 / 3.0


def synth_split(separation):
    records = generate_synthetic_dataset(
        SynthConfig(n_normal=150, n_collision=150, feature_dim=32,
                    separation=separation, seed=DATA_SEED))
    train_recs, val_recs, warnings = split_dataset(
        records, SPLIT_FRACTION, seed=TRAIN_SEED)
    assert not warnings
    assert len(train_recs) == 200 and len(val_recs) == 100
    return train_recs, val_recs


def train_config(mode="mil"):
    return TrainConfig(learning_rate=1e-3, weight_decay=1e-4, epochs=50,
                       train_batch=256, eval_batch=64, seed=TRAIN_SEED,
                       gamma=10.0, mode=mode, embed_dim=768, hidden_dim=256)


@pytest.fixture(scope="module")
def mil_run():
    train_recs, val_recs = synth_split(4.0)
    encoder = StubEncoder(dim=768, seed=TRAIN_SEED)
    started = time.perf_counter()
    result = train(train_config(), train_recs, encoder, val_recs)
    elapsed = time.perf_counter() - started
    return result, val_recs, encoder, elapsed


def test_criterion_1_wilcoxon_reproduction():
    """Exact enumeration reproduces the reference route-paired p-values."""
    cases = {162.0: ((10, 18, 20), 0.016),
             170.0: ((1, 19, 20), 0.007),
             98.0: ((7, 15, 16, 17, 18, 19, 20), 0.608)}
    for w_target, (excluded, p_target) in cases.items():
        deltas = np.arange(1.0, 21.0)
        for e in excluded:
            deltas[e - 1] *= -1
        started = time.perf_counter()
        res = wilcoxon_signed_rank(deltas)
        elapsed = time.perf_counter() - started
        assert res.method == "exact"
        assert res.n_effective == 20
        assert res.statistic == w_target
        assert abs(res.p_one_sided - p_target) <= 0.005
        assert elapsed < 5.0
    print("[acceptance 1] PASS: exact one-sided p at n=20 matches "
          "0.016/0.007/0.608 within 0.005, each under 5 s")


def test_criterion_2_leaderboard_scoring():
    got = infraction_penalty({"vehicle": 2, "pedestrian": 1},
                             DEFAULT_V21_COEFFICIENTS, "v21")
    assert abs(got - 1.0 / 3.4) <= 1e-9
    assert infraction_penalty({}, {}, "v20") == 1.0
    assert infraction_penalty({}, {}, "v21") == 1.0
    rng = np.random.default_rng(77)
    kinds = ["pedestrian", "vehicle", "layout", "red_light", "stop_sign"]
    for _ in range(100):
        counts = {k: int(rng.integers(0, 6)) for k in kinds}
        weights = {k: float(rng.uniform(0.2, 1.0)) for k in kinds}
        mine = infraction_penalty(counts, weights, "v20")
        oracle = v20_penalty_product(counts, weights)
        assert mine == pytest.approx(oracle, rel=1e-12)
    print("[acceptance 2] PASS: v2.1 penalty 1/3.4 exact, zero-infraction "
          "P=1.0, v2.0 matches product oracle on 100 random vectors")


def test_criterion_3_lse_property_suite():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        t = int(rng.integers(1, 9))
        z = rng.uniform(-10.0, 10.0, size=t)
        gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        pooled = lse_pool(z, gamma)
        # bounds
        assert z.mean() - 1e-12 <= pooled <= z.max() + 1e-12
        # permutation invariance
        perm = rng.permutation(t)
        assert lse_pool(z[perm], gamma) == pytest.approx(pooled, abs=1e-12)
        # monotonicity: raising the argmax strictly raises the pool;
        # raising any coordinate never lowers it
        bumped = z.copy()
        bumped[int(np.argmax(z))] += 0.5
        assert lse_pool(bumped, gamma) > pooled
        other = z.copy()
        other[int(rng.integers(0, t))] += 0.5
        assert lse_pool(other, gamma) >= pooled - 1e-12
        # gradient identity vs central differences
        attn = pooling_attention(z, gamma)
        assert attn.sum() == pytest.approx(1.0, abs=1e-12)
        for i in range(t):
            step = 1e-5 * max(1.0, abs(z[i]))
            up, down = z.copy(), z.copy()
            up[i] += step
            down[i] -= step
            fd = (lse_pool(up, gamma) - lse_pool(down, gamma)) / (2 * step)
            assert abs(fd - attn[i]) <= 1e-6 * max(1.0, abs(attn[i]))
        # temperature limits on the two-snippet family where the stated
        # tolerances hold analytically (|pool-max| = log T / gamma worst case)
        z2 = rng.uniform(-2.0, 2.0, size=2)
        assert lse_pool(z2, 1e-6) == pytest.approx(float(z2.mean()), abs=1e-5)
        assert lse_pool(z2, 1e3) == pytest.approx(float(z2.max()), abs=1e-3)
    # overflow safety at extreme logits
    for _ in range(100):
        z = rng.choice([-1e4, 1e4], size=int(rng.integers(1, 9)))
        assert math.isfinite(lse_pool(z, 10.0))
        assert math.isfinite(pooling_attention(z, 10.0).sum())
    print("[acceptance 3] PASS: bounds, permutation, monotonicity, "
          "gamma-limits, gradient=softmax(gamma z), overflow safety on "
          "1000 seeded inputs")


def test_criterion_4_gradient_verification():
    worst_overall = 0.0
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        ckpt = init_checkpoint(dim=10, hidden=6, gamma=10.0, seed=seed,
                               zero_first_layer=False)
        batch = [
            TrainExample("p", rng.standard_normal((3, 10)),
                         rng.standard_normal(10), 1),
            TrainExample("n", rng.standard_normal((3, 10)),
                         rng.standard_normal(10), 0),
        ]
        fn = vector_objective(ckpt, batch, "mil", pos_weight=1.7)
        worst = gradient_check(fn, ckpt.theta, step=1e-5,
                               n_coords=96, seed=seed)
        worst_overall = max(worst_overall, worst)
        assert worst <= 1e-4
    print(f"[acceptance 4] PASS: full MIL objective gradients vs central "
          f"differences, worst relative error {worst_overall:.2e} <= 1e-4 "
          f"at 3 random initializations")


def test_criterion_5_end_to_end_synthetic_learning(mil_run, tmp_path):
    result, val_recs, encoder, elapsed = mil_run
    auc = result.history[-1].val_auc
    assert auc >= 0.95
    assert elapsed < 300.0

    # byte-identical re-run with the same seed
    train_recs, val_recs2 = synth_split(4.0)
    result2 = train(train_config(), train_recs,
                    StubEncoder(dim=768, seed=TRAIN_SEED), val_recs2)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, result.checkpoint)
    save_checkpoint(b, result2.checkpoint)
    assert a.read_bytes() == b.read_bytes()
    assert ([h.breakdown.l_total for h in result.history]
            == [h.breakdown.l_total for h in result2.history])

    # no-signal control
    train0, val0 = synth_split(0.0)
    started = time.perf_counter()
    result0 = train(train_config(), train0,
                    StubEncoder(dim=768, seed=TRAIN_SEED), val0)
    elapsed0 = time.perf_counter() - started
    auc0 = result0.history[-1].val_auc
    assert 0.40 <= auc0 <= 0.60
    assert elapsed0 < 300.0
    print(f"[acceptance 5] PASS: separable AUC {auc:.4f} >= 0.95, "
          f"no-signal AUC {auc0:.4f} in [0.40, 0.60], runs "
          f"{elapsed:.0f}s/{elapsed0:.0f}s < 300s, reruns byte-identical")


def test_criterion_6_mil_localization(mil_run):
    result, val_recs, encoder, _ = mil_run
    hits = total = 0
    for rec in val_recs:
        if rec.label != 1:
            continue
        bag = segment_clip(rec, 8, 8, encoder)
        attn = pooling_attention(bag_logits(bag, result.checkpoint),
                                 result.checkpoint.gamma)
        peak = int(np.argmax(attn))
        start, end = rec.event_window
        hits += int(start <= peak < end)
        total += 1
    rate = hits / total
    assert rate >= 0.90
    print(f"[acceptance 6] PASS: argmax attention inside the ground-truth "
          f"window for {hits}/{total} = {rate:.2f} of validation positives "
          f"(clip-mode model exempt by design)")


def test_criterion_7_causality_and_caching():
    ckpt = init_checkpoint(dim=12, hidden=4, gamma=10.0, seed=5,
                           zero_first_layer=False)
    encoder = StubEncoder(dim=12, seed=9)
    ticks = 200
    master = np.random.default_rng(70)
    for _ in range(1000):
        seed = int(master.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((ticks, 6))

        cached_buf = CausalBuffer(encoder)
        cached = [push_tick(cached_buf, f, t, ckpt, caching=True)
                  for t, f in enumerate(frames)]
        assert cached_buf.encoder_calls == math.ceil(ticks / 5)

        uncached_buf = CausalBuffer(encoder)
        uncached = [push_tick(uncached_buf, f, t, ckpt, caching=False)
                    for t, f in enumerate(frames)]
        assert cached == uncached

        cut = int(rng.integers(20, ticks - 20))
        perturbed = frames.copy()
        perturbed[cut + 1:] += rng.standard_normal(perturbed[cut + 1:].shape)
        pert_buf = CausalBuffer(encoder)
        pert = [push_tick(pert_buf, f, t, ckpt, caching=True)
                for t, f in enumerate(perturbed)]
        assert pert[:cut + 1] == cached[:cut + 1]
    print("[acceptance 7] PASS: 1000 random 200-tick streams: causal, "
          "cache-coherent, encoder calls = ceil(ticks/5)")


def test_criterion_8_augmentation_statistics():
    spacing = 121
    n_pos = 1000
    stream = np.random.default_rng(80).standard_normal(
        (spacing * n_pos + 40, 2)).astype(np.float32)
    logs = [InfractionLog(60 + spacing * i, "vehicle", f"collision {i}", "s")
            for i in range(n_pos)]
    result = assemble_clips(stream, logs, seed=8)
    positives = [c for c in result.clips if c.label == 1]
    assert len(positives) == n_pos
    assert all(10 <= c.collision_frame <= 30 for c in positives)

    augmented = []
    per_source = {}
    for clip in positives:
        copies = augment_collision_position(clip, copies=5, seed=13)
        per_source[clip.clip_id] = len(copies)
        augmented.extend(copies)
    assert len(augmented) == 5 * n_pos
    assert set(per_source.values()) == {5}
    ks = np.asarray([c.collision_frame for c in augmented])
    assert ks.min() >= 4 and ks.max() <= 36
    counts = np.bincount(ks, minlength=37)[4:37]
    p = scipy_stats.chisquare(counts).pvalue
    assert p > 0.01
    print(f"[acceptance 8] PASS: 5000 augmented positives uniform over "
          f"[4, 36] (chi-square p={p:.3f} > 0.01), exactly 5 copies per "
          f"source, assembled positives always in [2.5 s, 7.5 s]")


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(90)
    for _ in range(500):
        n = int(rng.integers(4, 40))
        labels = (rng.uniform(size=n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, size=n), 2)  # ties likely
        scored = ScoredSet(scores, labels)
        assert abs(roc_auc(scored) - brute_force_auc(scores, labels)) <= 1e-12
        res = youden_threshold(scored)
        best, _ = exhaustive_youden(scores, labels)
        assert res.j_statistic == pytest.approx(best, abs=1e-12)
        m = threshold_metrics(scored, res.threshold)
        assert m["tpr"] - m["fpr"] == pytest.approx(best, abs=1e-12)
    print("[acceptance 9] PASS: roc_auc matches brute force and Youden "
          "attains the exhaustive-candidate maximum on 500 random sets")


def test_criterion_10_external_ingestion_contract(mil_run, tmp_path):
    """The published corpus/simulator results are NOT reproducible at desk
    scale: they need the pretrained backbone, the real datasets, and the
    simulator.  What the toolkit guarantees instead is that externally
    produced manifests and run records in the documented schemas are
    ingested and every reported metric is computed from them."""
    result, _, encoder, _ = mil_run

    # externally produced clip manifest (features only, schema-conformant)
    rng = np.random.default_rng(100)
    external = generate_synthetic_dataset(
        SynthConfig(n_normal=20, n_collision=20, feature_dim=32,
                    separation=4.0, seed=DATA_SEED), split="test")
    for rec in external:
        rec.source = "external"
        rec.event_window = None
    manifest = tmp_path / "external.jsonl"
    write_manifest(external, manifest)
    loaded = read_manifest(manifest)
    assert len(loaded) == 40

    cfg = train_config()
    from vlaad.trainer import prepare_examples

    examples = prepare_examples(loaded, encoder, cfg)
    probs = scores_for(result.checkpoint, examples)
    labels = np.asarray([r.label for r in loaded])
    scored = ScoredSet(probs, labels)
    auc = roc_auc(scored)
    tau = youden_threshold(scored).threshold
    metrics = threshold_metrics(scored, tau)
    assert 0.0 <= auc <= 1.0
    assert 0.0 <= metrics["f1"] <= 1.0

    # externally produced run records -> driving scores + significance
    runs = tmp_path / "runs.jsonl"
    rows = []
    rng2 = np.random.default_rng(101)
    base_ds, improved = [], []
    for i in range(20):
        rc = float(rng2.uniform(20, 80))
        counts = {"vehicle": int(rng2.integers(0, 4)),
                  "pedestrian": int(rng2.integers(0, 2))}
        rows.append({"route_id": f"route{i:02d}", "km": 10.0,
                     "route_completion": rc, "infractions": counts})
        summary = summarize_run(DrivingRunRecord(f"route{i:02d}", 10.0, rc,
                                                 counts))
        base_ds.append(summary["DS"])
        improved.append(summary["DS"] + float(rng2.uniform(-0.5, 2.0)))
    runs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    from vlaad.evalkit import read_run_records

    records = read_run_records(runs)
    assert len(records) == 20
    deltas = np.asarray(improved) - np.asarray(base_ds)
    res = wilcoxon_signed_rank(deltas)
    assert res.method == "exact"
    assert 0.0 <= res.p_one_sided <= 1.0
    print("[acceptance 10] PASS: published real-data/simulator numbers "
          "(AUC 0.766 / 0.672, closed-loop driving scores) are explicitly "
          "out of desk-scale reach (pretrained backbone + corpora + "
          "simulator required); external manifests and run records in the "
          "documented schemas ingest cleanly and all metrics compute "
          f"(demo AUC {auc:.3f}, Wilcoxon p {res.p_one_sided:.3f})")
