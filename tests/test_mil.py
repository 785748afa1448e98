import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_clip
from oracles import (RiskTrace, check_bag, forward_bag, lse_pool_max_shift,
                     per_snippet_bag)
from vlaad.embeddings import CachedEncoder, StubEncoder, write_embedding_cache
from vlaad.errors import DimensionMismatchError, EmptyInputError, ValidationError
from vlaad.mil import (MIN_GAMMA, Bag, encode_clip, lse_pool, pooling_attention,
                       segment_clip, segment_lse_pool)

finite_logits = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8)
gammas = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)


class TestLsePool:
    def test_constant_input_identity(self):
        for t in (1, 3, 7):
            assert lse_pool([2.5] * t, 10.0) == pytest.approx(2.5, abs=1e-12)

    def test_two_point_value(self):
        # direct numeric evaluation of the pooling formula
        expected = (math.log(1 + math.exp(10.0)) - math.log(2.0)) / 10.0
        assert lse_pool([0.0, 1.0], 10.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9306898218339271, abs=1e-12)

    def test_limits_mean_and_max(self, rng):
        z = rng.uniform(-5, 5, size=6)
        assert lse_pool(z, 1e-6) == pytest.approx(float(z.mean()), abs=1e-5)
        # max limit: deviation is bounded by log(T)/gamma exactly
        pooled = lse_pool(z, 1e3)
        assert z.max() - math.log(z.size) / 1e3 - 1e-12 <= pooled <= z.max() + 1e-12
        # the two-element case meets the 1e-3 tolerance outright
        assert lse_pool([0.0, 1.0], 1e3) == pytest.approx(1.0, abs=1e-3)

    def test_overflow_safety(self):
        assert math.isfinite(lse_pool([1e4, -1e4, 5.0], 10.0))
        assert lse_pool([1e4, -1e4], 10.0) == pytest.approx(
            1e4 - math.log(2.0) / 10.0)

    def test_errors(self):
        with pytest.raises(ValidationError):
            lse_pool([0.0, 1.0], 0.0)
        with pytest.raises(ValidationError):
            lse_pool([0.0, 1.0], -1.0)
        with pytest.raises(EmptyInputError):
            lse_pool([], 10.0)
        with pytest.raises(ValidationError):
            lse_pool([np.inf, 0.0], 10.0)

    def test_gamma_bound(self):
        """At MIN_GAMMA the pool is still the small-gamma expansion mean +
        gamma var / 2 to 1e-9; below it every pool refuses gamma, since
        near 1e-16 it read the max (0.5 here), not the mean."""
        z = np.array([0.1, 0.5, -0.2])
        expansion = z.mean() + MIN_GAMMA * z.var() / 2
        assert abs(lse_pool(z, MIN_GAMMA) - expansion) < 1e-9
        for gamma in (1e-7, 1e-16, 1e-300, float("nan")):
            for pool in (lse_pool, pooling_attention,
                         lambda z, g: segment_lse_pool(z, [0], g)):
                with pytest.raises(ValidationError, match="gamma must be >= 1e-06"):
                    pool(z, gamma)

    @settings(max_examples=200, deadline=None)
    @given(finite_logits, gammas)
    def test_bounds_and_permutation(self, z, gamma):
        pooled = lse_pool(z, gamma)
        assert np.mean(z) - 1e-9 <= pooled <= np.max(z) + 1e-9
        assert lse_pool(list(reversed(z)), gamma) == pytest.approx(
            pooled, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=8),
           st.floats(0.1, 2.0), st.integers(0, 7), st.floats(0.1, 2.0))
    def test_strict_monotonicity(self, z, gamma, idx, bump):
        # strictness is representable only while gamma * spread stays small
        # enough that the raised term is not lost to rounding
        idx = idx % len(z)
        raised = list(z)
        raised[idx] += bump
        assert lse_pool(raised, gamma) > lse_pool(z, gamma)

    @settings(max_examples=100, deadline=None)
    @given(finite_logits, gammas, st.integers(0, 7), st.floats(0.01, 2.0))
    def test_monotone_nondecreasing_everywhere(self, z, gamma, idx, bump):
        idx = idx % len(z)
        raised = list(z)
        raised[idx] += bump
        assert lse_pool(raised, gamma) >= lse_pool(z, gamma) - 1e-12


class TestPoolingAttention:
    def test_uniform_on_constant(self):
        a = pooling_attention([1.0, 1.0, 1.0, 1.0], 10.0)
        np.testing.assert_allclose(a, 0.25)

    def test_two_point_value(self):
        a = pooling_attention([0.0, 1.0], 10.0)
        expected = np.array([1.0, math.exp(10.0)]) / (1.0 + math.exp(10.0))
        np.testing.assert_allclose(a, expected, rtol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(finite_logits, gammas)
    def test_simplex_and_equivariance(self, z, gamma):
        a = pooling_attention(z, gamma)
        assert a.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(a > 0)
        flipped = pooling_attention(list(reversed(z)), gamma)
        np.testing.assert_allclose(flipped, a[::-1], rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_logits, gammas)
    def test_gradient_identity_by_finite_differences(self, z, gamma):
        """Attention must equal the gradient of the pool in every coordinate."""
        a = pooling_attention(z, gamma)
        for t in range(len(z)):
            step = 1e-5 * max(1.0, abs(z[t]))
            up, down = list(z), list(z)
            up[t] += step
            down[t] -= step
            fd = (lse_pool(up, gamma) - lse_pool(down, gamma)) / (2 * step)
            assert abs(fd - a[t]) <= 1e-6 * max(1.0, abs(a[t]))


class TestSegmentLsePool:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(finite_logits, st.floats(-1e3, 1e3)),
                    min_size=1, max_size=6), gammas)
    def test_matches_per_bag_pooling(self, shifted_bags, gamma):
        """Ragged stacked pooling equals each bag's own max-shifted pool and
        attention, and ``lse_pool`` / ``pooling_attention`` of that bag bit
        for bit.

        Bags sit up to 2e3 apart, so one shared max shift would underflow.
        """
        bags = [[v + shift for v in bag] for bag, shift in shifted_bags]
        starts = np.cumsum([0] + [len(b) for b in bags[:-1]])
        pooled, attn = segment_lse_pool(np.concatenate(bags), starts, gamma)
        assert pooled.shape == (len(bags),)
        for k, bag in enumerate(bags):
            want_pool, want_attn = lse_pool_max_shift(bag, gamma)
            assert abs(pooled[k] - want_pool) <= 1e-12
            assert pooled[k] == lse_pool(bag, gamma)
            rows = attn[starts[k]:starts[k] + len(bag)]
            np.testing.assert_allclose(rows, want_attn, rtol=0, atol=1e-12)
            assert np.array_equal(rows, pooling_attention(bag, gamma))

    def test_rejects_bad_offsets(self):
        z = np.arange(4.0)
        for starts in ([], [1, 2], [0, 2, 2], [0, 4], [0, 3, 1]):
            with pytest.raises(ValidationError):
                segment_lse_pool(z, starts, 10.0)
        with pytest.raises(ValidationError):
            segment_lse_pool(z, [0], 0.0)


class TestSegmentClip:
    def test_default_layout_count(self, small_encoder):
        bag = segment_clip(make_clip(n_frames=40), 8, 8, small_encoder)
        assert bag.size == 5
        np.testing.assert_allclose(bag.start_times, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_overlap_count(self, small_encoder):
        bag = segment_clip(make_clip(n_frames=40), 8, 4, small_encoder)
        assert bag.size == 9

    def test_single_snippet_edge(self, small_encoder, small_ckpt):
        clip = make_clip(n_frames=8)
        bag = segment_clip(clip, 8, 8, small_encoder)
        assert bag.size == 1
        trace = forward_bag(bag, small_ckpt)
        assert trace.pooled == pytest.approx(float(trace.logits[0]), abs=1e-12)

    def test_too_short_clip_rejected(self, small_encoder):
        with pytest.raises(ValidationError):
            segment_clip(make_clip(n_frames=5), 8, 8, small_encoder)

    def test_ordering_preserved(self, small_encoder):
        clip = make_clip(n_frames=24, seed=5)
        bag = segment_clip(clip, 8, 8, small_encoder)
        # each snippet embedding must match encoding its own window
        from vlaad.embeddings import FrameWindow, encode_video_snippet

        for i in range(3):
            frames = clip.features[8 * i:8 * (i + 1)]
            w = FrameWindow(frames, np.arange(8 * i, 8 * i + 8) / 4.0)
            expected = encode_video_snippet(w, small_encoder).values
            assert np.array_equal(bag.snippets[i], expected)

    @settings(max_examples=150, deadline=None)
    @given(snippet_len=st.integers(1, 10), stride=st.integers(1, 10),
           extra=st.integers(0, 59), feat_dim=st.integers(1, 40),
           seed=st.integers(0, 2 ** 16))
    @example(snippet_len=8, stride=8, extra=0, feat_dim=6, seed=0)  # F == len
    @example(snippet_len=3, stride=10, extra=20, feat_dim=6, seed=1)  # stride > len
    @example(snippet_len=1, stride=1, extra=59, feat_dim=1, seed=2)
    def test_rows_equal_per_snippet_oracle(self, snippet_len, stride, extra,
                                           feat_dim, seed):
        """One encoder call per clip gives the per-snippet rows exactly,
        with the stub and with a cache encoder."""
        n_frames = min(snippet_len + extra, 60)
        clip = make_clip(n_frames=n_frames, feat_dim=feat_dim, seed=seed)
        stub = StubEncoder(dim=16, seed=7)
        bag = segment_clip(clip, snippet_len, stride, stub)
        expected = per_snippet_bag(clip, snippet_len, stride, stub)
        assert bag.size == (n_frames - snippet_len) // stride + 1
        assert np.array_equal(bag.snippets, expected.snippets)
        assert np.array_equal(bag.start_times, expected.start_times)

        rng = np.random.default_rng(seed)
        entries = {f"{clip.clip_id}:{i}": rng.standard_normal(5).astype(np.float32)
                   for i in range(bag.size + 2)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.vlec"
            write_embedding_cache(path, entries, dim=5)
            with CachedEncoder(path) as cached:
                bag = segment_clip(clip, snippet_len, stride, cached)
        expected = per_snippet_bag(clip, snippet_len, stride, entries)
        assert np.array_equal(bag.snippets, expected.snippets)
        assert np.array_equal(bag.start_times, expected.start_times)

    @settings(max_examples=100, deadline=None)
    @given(mode=st.sampled_from(["mil", "clip"]), snippet_len=st.integers(1, 10),
           stride=st.integers(1, 10), extra=st.integers(0, 30),
           label=st.integers(0, 1), seed=st.integers(0, 2 ** 16))
    def test_bags_pass_bag_checks(self, mode, snippet_len, stride, extra,
                                  label, seed):
        """``Bag`` checks nothing; every bag ``encode_clip`` builds
        (``segment_clip``'s, in MIL mode), with the stub and with a cache
        encoder, meets the invariants ``check_bag`` holds it to."""
        n_frames = snippet_len + extra
        clip = make_clip(n_frames=n_frames, label=label, seed=seed,
                         collision_frame=n_frames - 1 if label else None)
        rng = np.random.default_rng(seed)
        entries = {key: rng.standard_normal(16).astype(np.float32)
                   for key in [f"clip0:{i}" for i in range(n_frames)] + ["clip0:clip"]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.vlec"
            write_embedding_cache(path, entries, dim=16)
            with CachedEncoder(path) as cached:
                for encoder in (StubEncoder(dim=16, seed=7), cached):
                    bag = encode_clip(clip, mode, encoder, snippet_len, stride)
                    check_bag(bag)
                    assert (bag.clip_id, bag.label) == ("clip0", label)

    def test_wrong_width_encoder_rejected(self):
        class WideEncoder(StubEncoder):
            def encode_windows(self, frames, starts, length, keys):
                return np.zeros((len(starts), self.dim + 1), np.float32)

        with pytest.raises(DimensionMismatchError, match=r"\(5, 17\)"):
            segment_clip(make_clip(n_frames=40), 8, 8, WideEncoder(dim=16))


class TestBagAndTrace:
    def test_bag_validation(self, rng):
        """``check_bag`` rejects the three bags ``Bag`` once rejected."""
        with pytest.raises(EmptyInputError):
            check_bag(Bag("c", np.zeros((0, 4)), np.zeros(0), 0))
        with pytest.raises(ValidationError, match="strictly increasing"):
            check_bag(Bag("c", rng.standard_normal((2, 4)), np.array([1.0, 1.0]), 0))
        with pytest.raises(ValidationError, match="label must be 0 or 1"):
            check_bag(Bag("c", rng.standard_normal((2, 4)), np.array([0.0, 1.0]), 2))
        rows = rng.standard_normal((2, 4))
        with pytest.raises(ValidationError, match="not float32 and float64"):
            check_bag(Bag("c", rows, np.array([0.0, 1.0]), 1))
        check_bag(Bag("c", rows.astype(np.float32), np.array([0.0, 1.0]), 1))

    def test_trace_pool_bounds_invariant(self):
        with pytest.raises(ValidationError):
            RiskTrace("c", np.array([0.0, 1.0]), pooled=2.0, prob=0.8,
                      gamma=10.0)
        RiskTrace("c", np.array([0.0, 1.0]), pooled=0.9, prob=0.7, gamma=10.0)
