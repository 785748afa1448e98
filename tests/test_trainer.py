import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_clip
from oracles import (binary_cross_entropy_from_logit, gradient_check,
                     heads_backward_through_detector, per_clip_objective,
                     vector_objective)
from vlaad.datakit import (SynthConfig, generate_synthetic_dataset, read_manifest,
                           write_manifest)
from vlaad.embeddings import _TEXT_STREAM, _VIDEO_STREAM, StubEncoder
from vlaad.errors import NonFiniteLossError, ValidationError
from vlaad.mil import Bag, encode_clip, lse_pool, pooling_attention
from vlaad.model import (Workspace, adapter_forward, bag_logits, init_checkpoint,
                         param_views, save_checkpoint)
from vlaad.numerics import sigmoid
from vlaad.trainer import (AdamState, LossBreakdown, TrainConfig, TrainData,
                           TrainExample, EpochStats, batch_objective, fit,
                           prepare_examples, scores_for, split_dataset, train,
                           write_history_csv)


def synth_records(n=30, dim=8, delta=4.0, seed=1):
    half = n // 2
    return generate_synthetic_dataset(
        SynthConfig(half, n - half, feature_dim=dim, separation=delta,
                    seed=seed))


def random_examples(rng, n=4, t=3, dim=6, labels=None):
    out = []
    for i in range(n):
        label = labels[i] if labels else int(i % 2)
        snips = rng.standard_normal((t, dim))
        text = rng.standard_normal(dim)
        out.append(TrainExample(f"e{i}", snips, text, label))
    return out


class TestSplitDataset:
    def test_stratified_counts(self):
        recs = synth_records(10, seed=2)
        train_set, val_set, warnings = split_dataset(recs, 0.8, seed=0)
        assert len(train_set) == 8 and len(val_set) == 2
        assert sum(r.label for r in train_set) == 4
        assert sum(r.label for r in val_set) == 1
        assert warnings == []

    def test_deterministic(self):
        recs = synth_records(12, seed=3)
        a = split_dataset(recs, 0.8, seed=5)
        b = split_dataset(recs, 0.8, seed=5)
        assert [r.clip_id for r in a.train] == [r.clip_id for r in b.train]
        assert [r.clip_id for r in a.validation] == [r.clip_id for r in b.validation]

    def test_disjoint_exhaustive_membership_oracle(self):
        recs = synth_records(4, seed=4)
        train_set, val_set, _ = split_dataset(recs, 0.5, seed=1)
        assert len(train_set) == 2 and len(val_set) == 2
        train_ids = {r.clip_id for r in train_set}
        val_ids = {r.clip_id for r in val_set}
        all_ids = {r.clip_id for r in recs}
        # brute-force set check: disjoint and exhaustive
        assert train_ids & val_ids == set()
        assert train_ids | val_ids == all_ids

    def test_single_member_class_warns(self):
        recs = synth_records(6, seed=5)
        lone = [r for r in recs if r.label == 1][:1]
        negs = [r for r in recs if r.label == 0]
        _, _, warnings = split_dataset(negs + lone, 0.8, seed=0)
        assert any("absent from the validation split" in w for w in warnings)

    def test_too_few_records(self):
        with pytest.raises(ValidationError):
            split_dataset(synth_records(6)[:1], 0.8, seed=0)


class TestBatchObjective:
    def test_matches_composed_pieces(self, rng):
        """Loss value recomposed from the public loss functions."""
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=10.0, seed=1,
                               zero_first_layer=False)
        batch = random_examples(rng)
        breakdown, _ = batch_objective(ckpt, batch, "mil", pos_weight=2.0,
                                       workspace=Workspace())
        sims, clses = [], []
        for ex in batch:
            _, adapted = adapter_forward(ex.snippets, ckpt, Workspace())
            z = adapted @ ckpt.w + ckpt.b
            attn = pooling_attention(z, ckpt.gamma)
            clses.append(binary_cross_entropy_from_logit(
                lse_pool(z, ckpt.gamma), ex.label, 2.0))
            cos = np.array([float(a @ ex.text
                                  / (np.linalg.norm(a) * np.linalg.norm(ex.text)))
                            for a in adapted])
            if ex.label == 1:
                sims.append(float(attn @ (1 - cos)))
            else:
                sims.append(float(np.maximum(0, cos).mean()))
        assert breakdown.l_sim == pytest.approx(np.mean(sims), abs=1e-12)
        assert breakdown.l_cls == pytest.approx(np.mean(clses), abs=1e-12)

    def test_order_independence_within_1e10(self, rng):
        ckpt = init_checkpoint(dim=6, hidden=4, seed=2, zero_first_layer=False)
        batch = random_examples(rng, n=8)
        _, g1 = batch_objective(ckpt, batch, "mil", workspace=Workspace())
        perm = list(reversed(batch))
        _, g2 = batch_objective(ckpt, perm, "mil", workspace=Workspace())
        np.testing.assert_allclose(g1, g2, rtol=0, atol=1e-10)

    def test_non_finite_raises(self, rng):
        ckpt = init_checkpoint(dim=6, hidden=4, seed=2, zero_first_layer=False)
        huge = random_examples(rng, n=3)
        with np.errstate(over="ignore", invalid="ignore"):
            for ex in huge[1:]:
                ex.snippets = ex.snippets * 1e308
            # the first offending clip of the stacked block is named
            with pytest.raises(NonFiniteLossError, match="clip e1$"):
                batch_objective(ckpt, huge, "mil", workspace=Workspace())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_non_finite_gradient_entry_raises(self, rng, monkeypatch, value, where):
        """One non-finite gradient entry under finite losses is refused."""
        import vlaad.trainer as trainer_mod

        real = trainer_mod.heads_backward

        def spoiled(*args, **kwargs):
            grad = real(*args, **kwargs)
            grad[where] = value
            return grad

        monkeypatch.setattr(trainer_mod, "heads_backward", spoiled)
        ckpt = init_checkpoint(dim=6, hidden=4, seed=2, zero_first_layer=False)
        with pytest.raises(NonFiniteLossError, match="^non-finite gradient in batch objective$"):
            batch_objective(ckpt, random_examples(rng), "mil", workspace=Workspace())

    def test_clip_mode_needs_unmatched(self, rng, monkeypatch):
        """``batch_objective`` takes its unmatched captions from ``fit``:
        in clip mode exactly one per example, each another example's."""
        import vlaad.trainer as trainer_mod

        examples = random_examples(rng, n=7, t=1)
        calls = []

        def spy(ckpt, batch, mode, pos_weight, unmatched, *, workspace):
            calls.append((list(batch), list(unmatched)))
            return batch_objective(ckpt, batch, mode, pos_weight, unmatched,
                                   workspace=workspace)

        monkeypatch.setattr(trainer_mod, "batch_objective", spy)
        config = TrainConfig(mode="clip", epochs=3, train_batch=3, embed_dim=6,
                             hidden_dim=4, seed=2)
        fit(config, TrainData(examples, [], np.empty(0, dtype=np.int64), 1.0, 6, []))
        assert len(calls) == 3 * 3
        for batch, unmatched in calls:
            assert len(unmatched) == len(batch)
            for ex, text in zip(batch, unmatched):  # every example's text is its own
                assert text is not ex.text and any(text is o.text for o in examples)

    @pytest.mark.parametrize("n_frames", [1, 7, 40, 93])
    def test_clip_mode_needs_one_row_per_example(self, n_frames):
        """Clip mode's one row per example comes from ``encode_clip``: one
        (1, D) row whatever the clip's frame count."""
        bag = encode_clip(make_clip(n_frames=n_frames), "clip", StubEncoder(dim=5))
        assert bag.snippets.shape == (1, 5) and bag.size == 1

    def test_label_and_pos_weight_checked(self, tmp_path):
        """``pos_weight`` is checked by ``TrainConfig`` (0 and below refused)
        and each label by the manifest reader, before any objective runs."""
        for bad in (0.0, -1, -1e-300):
            with pytest.raises(ValidationError, match="pos_weight must be positive"):
                TrainConfig(pos_weight=bad)
        path = tmp_path / "m.jsonl"
        write_manifest(synth_records(4), path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "label": 2})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="line 3: label must be 0 or 1, got 2"):
            read_manifest(path)


def ragged_batch(seed, lengths, labels, dim=6):
    """Float32 snippet blocks of the given lengths, as the encoders emit."""
    rng = np.random.default_rng(seed)
    return [TrainExample(f"e{i}", rng.standard_normal((t, dim)).astype(np.float32),
                         rng.standard_normal(dim), y)
            for i, (t, y) in enumerate(zip(lengths, labels))]


@st.composite
def ragged_cases(draw):
    mode = draw(st.sampled_from(["mil", "clip"]))
    n = draw(st.integers(1, 6))
    lengths = (draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
               if mode == "mil" else [1] * n)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return (mode, lengths, labels, draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.floats(0.1, 5.0)), draw(st.floats(0.5, 20.0)))


class TestStackedKernel:
    """The stacked objective and scores against the per-clip loop."""

    @settings(max_examples=150, deadline=None)
    @given(ragged_cases())
    def test_matches_per_clip_oracle(self, case):
        mode, lengths, labels, seed, pos_weight, gamma = case
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=gamma, seed=seed % 1000,
                               zero_first_layer=False)
        ckpt.s_sim, ckpt.s_cls = 0.3, -0.2
        batch = ragged_batch(seed, lengths, labels)
        unmatched = None
        if mode == "clip":
            unmatched = list(np.random.default_rng([seed, 1]).standard_normal(
                (len(batch), 6)))
        got, g_got = batch_objective(ckpt, batch, mode, pos_weight, unmatched,
                                     workspace=Workspace())
        want, g_want = per_clip_objective(ckpt, batch, mode, pos_weight,
                                          unmatched)
        for field in ("l_sim", "l_cls", "s_sim", "s_cls", "l_total"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-10
        want = param_views(g_want, ckpt.dim, ckpt.hidden)
        for key, got_view in param_views(g_got, ckpt.dim, ckpt.hidden).items():
            np.testing.assert_allclose(got_view, want[key], rtol=0, atol=1e-10,
                                       err_msg=key)

    @pytest.mark.parametrize("mode", ["mil", "clip"])
    def test_scores_independent_of_eval_batch(self, mode):
        lengths = [1] * 7 if mode == "clip" else [3, 1, 9, 5, 2, 5, 4]
        examples = ragged_batch(5, lengths, [0, 1, 1, 0, 1, 0, 0])
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=10.0, seed=5,
                               zero_first_layer=False)
        # the per-clip reference: sigmoid of each bag's own pooled logit
        expected = [sigmoid(lse_pool(bag_logits(
            Bag(ex.clip_id, ex.snippets, np.arange(float(len(ex.snippets))),
                ex.label), ckpt), ckpt.gamma)) for ex in examples]
        for eval_batch in (1, 3, len(examples)):
            probs = scores_for(ckpt, examples, eval_batch)
            np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)
        empty = scores_for(ckpt, [], 3)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


class TestGradientCheck:
    def test_full_mil_objective_three_snippet_bag(self, rng):
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=10.0, seed=3,
                               zero_first_layer=False)
        batch = random_examples(rng, n=2, t=3)
        fn = vector_objective(ckpt, batch, "mil", pos_weight=1.5)
        assert gradient_check(fn, ckpt.theta, n_coords=80) <= 1e-4

    def test_clip_mode_objective(self, rng):
        ckpt = init_checkpoint(dim=6, hidden=4, seed=4, zero_first_layer=False)
        batch = random_examples(rng, n=3, t=1)
        unmatched = [rng.standard_normal(6) for _ in batch]
        fn = vector_objective(ckpt, batch, "clip", 1.0, unmatched)
        assert gradient_check(fn, ckpt.theta, n_coords=80) <= 1e-4

    def test_bce_only_zero_init(self, rng):
        """BCE-only loss on a zero-initialized model, production analytic
        gradients vs central differences."""
        template = init_checkpoint(dim=5, hidden=3, gamma=10.0, seed=0,
                                   zero_first_layer=True)
        snips = rng.standard_normal((3, 5))

        def loss_and_grad(vec):
            ckpt = dataclasses.replace(template, theta=vec)
            h, adapted = adapter_forward(snips, ckpt, Workspace())
            z = adapted @ ckpt.w + ckpt.b
            pooled = lse_pool(z, ckpt.gamma)
            loss = binary_cross_entropy_from_logit(pooled, 1, 1.0)
            dz = -sigmoid(-pooled) * pooling_attention(z, ckpt.gamma)
            return loss, heads_backward_through_detector(snips, h, adapted, ckpt,
                                                         dz=dz)

        assert gradient_check(loss_and_grad, template.theta,
                              n_coords=64) <= 1e-4

    def test_constant_loss_zero_gradient(self):
        def loss_and_grad(vec):
            return 3.5, np.zeros_like(vec)

        assert gradient_check(loss_and_grad, np.ones(10)) == 0.0

    def test_non_finite_gradient_rejected(self):
        def loss_and_grad(vec):
            return 0.0, np.full_like(vec, np.nan)

        with pytest.raises(ValidationError):
            gradient_check(loss_and_grad, np.ones(4))


class TestAdam:
    def test_decoupled_decay_exact_shrink(self):
        ckpt = init_checkpoint(dim=5, hidden=3, seed=1, zero_first_layer=False)
        ckpt.theta[:] = np.random.default_rng(2).standard_normal(ckpt.theta.size)
        before = param_views(ckpt.theta.copy(), 5, 3)
        adam = AdamState(ckpt)
        lr, wd = 1e-3, 1e-4
        adam.step(ckpt.theta, np.zeros_like(ckpt.theta), lr, wd)
        for key in ("w1", "w2", "w"):
            # exact decay rule up to one rounding of the fused form
            np.testing.assert_allclose(getattr(ckpt, key), before[key] * (1 - lr * wd),
                                       rtol=4e-16, atol=0)
        for key in ("b1", "b2", "b", "s_sim", "s_cls"):
            np.testing.assert_array_equal(getattr(ckpt, key), before[key])


class TestTrain:
    def small_config(self, **kw):
        defaults = dict(embed_dim=24, hidden_dim=8, epochs=3, seed=0,
                        split_fraction=0.8)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_epochs_equals_initialization(self):
        recs = synth_records(10, seed=6)
        enc = StubEncoder(dim=24, seed=0)
        result = train(self.small_config(epochs=0), recs, enc)
        ref = init_checkpoint(dim=24, hidden=8, gamma=10.0, seed=0)
        np.testing.assert_array_equal(result.checkpoint.w2, ref.w2)
        np.testing.assert_array_equal(result.checkpoint.w, ref.w)
        assert result.checkpoint.s_sim == 0.0
        assert result.history == []

    def test_seed_determinism_byte_identical(self, tmp_path):
        recs = synth_records(14, seed=7)
        outs = []
        histories = []
        for run in range(2):
            enc = StubEncoder(dim=24, seed=0)
            result = train(self.small_config(), recs, enc)
            path = tmp_path / f"run{run}.bin"
            save_checkpoint(path, result.checkpoint)
            outs.append(path.read_bytes())
            histories.append([(h.breakdown.l_total, h.val_auc)
                              for h in result.history])
        assert outs[0] == outs[1]
        assert histories[0] == histories[1]

    def test_single_class_rejected(self):
        recs = [r for r in synth_records(12, seed=8) if r.label == 0]
        with pytest.raises(ValidationError):
            train(self.small_config(), recs, StubEncoder(dim=24, seed=0))

    def test_encoder_untouched(self):
        recs = synth_records(10, seed=9)
        enc = StubEncoder(dim=24, seed=0)

        def projections():  # the frozen weights: 8-wide frames, captions
            return (enc._projection(_VIDEO_STREAM, 8).tobytes()
                    + enc._projection(_TEXT_STREAM, 512).tobytes())

        before = projections()
        train(self.small_config(), recs, enc)
        assert set(enc._projections) == {(_VIDEO_STREAM, 8), (_TEXT_STREAM, 512)}
        assert projections() == before

    def test_non_finite_validation_names_epoch(self, rng):
        """A validation logit that is not finite is refused with the epoch."""
        examples = random_examples(rng, n=4)
        val = [Bag("v0", np.zeros((2, 6), np.float32), np.zeros(2), 0),
               Bag("v1", np.full((2, 6), np.nan, np.float32), np.zeros(2), 1)]
        config = TrainConfig(epochs=2, embed_dim=6, hidden_dim=4, seed=2)
        with pytest.raises(NonFiniteLossError, match="^epoch 0, after its last batch: "
                           "non-finite snippet logits for clip v1$"):
            fit(config, TrainData(examples, val, np.array([0, 1]), 1.0, 6, []))

    def test_non_finite_abort_names_epoch_and_batch(self, monkeypatch):
        import vlaad.trainer as trainer_mod

        def bad_objective(*args, **kwargs):
            raise NonFiniteLossError("injected")

        monkeypatch.setattr(trainer_mod, "batch_objective", bad_objective)
        recs = synth_records(10, seed=10)
        with pytest.raises(NonFiniteLossError, match="epoch 0, batch 0"):
            train(self.small_config(), recs, StubEncoder(dim=24, seed=0))

    def test_monotone_loss_trend_on_separable_data(self):
        recs = synth_records(60, dim=8, delta=4.0, seed=11)
        enc = StubEncoder(dim=32, seed=0)
        cfg = TrainConfig(embed_dim=32, hidden_dim=16, epochs=12, seed=0)
        result = train(cfg, recs, enc)
        losses = [h.breakdown.l_total for h in result.history]
        assert np.median(losses[-5:]) < np.median(losses[:5])

    def test_pos_weight_auto(self):
        recs = synth_records(12, seed=12)
        negs = [r for r in recs if r.label == 0]
        poss = [r for r in recs if r.label == 1]
        skewed = negs + poss[:2]
        from vlaad.trainer import _resolve_pos_weight

        assert _resolve_pos_weight(TrainConfig(), skewed) == pytest.approx(3.0)
        assert _resolve_pos_weight(TrainConfig(pos_weight=2.5), skewed) == 2.5

    def test_clip_mode_trains(self):
        recs = synth_records(16, seed=13)
        enc = StubEncoder(dim=24, seed=0)
        result = train(self.small_config(mode="clip", epochs=2), recs, enc)
        assert len(result.history) == 2
        assert math.isfinite(result.history[-1].breakdown.l_total)

    def test_residual_identity_before_training(self):
        recs = synth_records(10, seed=14)
        enc = StubEncoder(dim=24, seed=0)
        result = train(self.small_config(epochs=0), recs, enc)
        examples = prepare_examples(recs, enc, self.small_config(epochs=0))
        ex = examples[0]
        z = bag_logits(
            __import__("vlaad.mil", fromlist=["Bag"]).Bag(
                "b", ex.snippets.astype(np.float32),
                np.arange(float(len(ex.snippets))), ex.label),
            result.checkpoint)
        raw = ex.snippets @ result.checkpoint.w
        np.testing.assert_allclose(z, raw, atol=1e-6)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(split_fraction=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(mode="bag")
        with pytest.raises(ValidationError):
            TrainConfig(pos_weight=-1.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            TrainConfig.from_dict({"learning_rte": 0.1})

    def test_round_trip(self):
        cfg = TrainConfig(epochs=7, gamma=5.0)
        assert TrainConfig.from_dict(dataclasses.asdict(cfg)) == cfg


class TestHistoryCsv:
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_bad_row_leaves_previous_file(self, tmp_path, k):
        """A row that cannot be written at epoch k leaves the previous
        history byte for byte, and no temporary file."""
        history = [EpochStats(e, LossBreakdown(0.5, 0.25, 0.0, 0.0, 0.75), 0.5)
                   for e in range(5)]
        path = tmp_path / "h.csv"
        write_history_csv(path, history[:1])
        before = path.read_bytes()
        history[k] = dataclasses.replace(history[k], breakdown=None)
        with pytest.raises(AttributeError):
            write_history_csv(path, history)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["h.csv"]
