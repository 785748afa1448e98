import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_clip, run_trace
from oracles import (ListRingBuffer, forward_bag, held_frames,
                     list_ring_push_tick, make_global_state, parse_global_state,
                     serialize_global_state, toy_policy_step)
from vlaad.embeddings import StubEncoder
from vlaad.errors import ValidationError
from vlaad.inference import CausalBuffer, push_tick, stream_tokens
from vlaad.mil import lse_pool, segment_clip
from vlaad.model import Workspace, forward_rows, init_checkpoint
from vlaad.numerics import sigmoid


@pytest.fixture
def ckpt():
    return init_checkpoint(dim=16, hidden=8, gamma=10.0, seed=3,
                           zero_first_layer=False)


def run_stream(frames, ckpt, encoder, caching=True, start_tick=0, buffer=None):
    buffer = buffer or CausalBuffer(encoder)
    tokens = []
    for i, frame in enumerate(frames):
        tokens.append(push_tick(buffer, frame, start_tick + i, ckpt,
                                caching=caching))
    return buffer, tokens


class TestPushTick:
    def test_five_ticks_one_encoder_call(self, ckpt, small_encoder, rng):
        frames = rng.standard_normal((5, 4))
        buffer, tokens = run_stream(frames, ckpt, small_encoder)
        assert buffer.encoder_calls == 1
        assert len(set(tokens)) == 1  # cached token repeated

    def test_hundred_ticks_twenty_calls(self, ckpt, rng):
        class CountingEncoder(StubEncoder):
            windows = 0

            def encode_window(self, window):
                self.windows += 1
                return super().encode_window(window)

        encoder = CountingEncoder(dim=16, seed=7)
        frames = rng.standard_normal((100, 4))
        buffer, _ = run_stream(frames, ckpt, encoder)
        assert buffer.encoder_calls == 20
        assert encoder.windows == 20  # one encode_window call per update tick

    def test_warmup_before_first_update_tick(self, ckpt, small_encoder, rng):
        buffer = CausalBuffer(small_encoder)
        token = push_tick(buffer, rng.standard_normal(4), 1, ckpt)
        assert token == 0.5  # empty buffer: zero-logit convention
        assert buffer.encoder_calls == 0

    def test_caching_on_off_identical(self, ckpt, small_encoder, rng):
        frames = rng.standard_normal((200, 4))
        _, cached = run_stream(frames, ckpt, small_encoder, caching=True)
        _, uncached = run_stream(frames, ckpt, small_encoder, caching=False)
        assert cached == uncached

    def test_out_of_order_tick_rejected(self, ckpt, small_encoder, rng):
        buffer = CausalBuffer(small_encoder)
        push_tick(buffer, rng.standard_normal(4), 5, ckpt)
        with pytest.raises(ValidationError):
            push_tick(buffer, rng.standard_normal(4), 5, ckpt)
        with pytest.raises(ValidationError):
            push_tick(buffer, rng.standard_normal(4), 3, ckpt)

    def test_ring_keeps_last_k_subsampled_frames(self, ckpt, rng):
        enc = StubEncoder(dim=16, seed=7)
        buffer = CausalBuffer(enc, size=3, subsample_period=5)
        frames = rng.standard_normal((40, 4))
        run_stream(frames, ckpt, enc, buffer=buffer)
        # update ticks 0,5,...,35; last three subsampled frames survive
        np.testing.assert_array_equal(held_frames(buffer), frames[[25, 30, 35]])

    def test_update_tick_encodes_the_ring_in_place(self, ckpt, rng):
        """Each update tick hands ``encode_window`` the held block as a view
        of the ring, oldest frame first."""
        blocks = []

        class RecordingEncoder(StubEncoder):
            def encode_window(self, frames):
                blocks.append(frames)
                return super().encode_window(frames)

        encoder = RecordingEncoder(dim=16, seed=7)
        buffer = CausalBuffer(encoder, size=3, subsample_period=2)
        for tick, frame in enumerate(rng.standard_normal((11, 4))):
            push_tick(buffer, frame, tick, ckpt)
            assert len(blocks) == tick // 2 + 1
            block = blocks[-1]
            assert type(block) is np.ndarray
            assert np.shares_memory(block, buffer._ring)
            assert block.tobytes() == held_frames(buffer).tobytes()

    def test_causality_future_perturbation(self, ckpt, small_encoder, rng):
        frames = rng.standard_normal((60, 4))
        _, base = run_stream(frames, ckpt, small_encoder)
        cut = 31
        perturbed = frames.copy()
        perturbed[cut + 1:] += rng.standard_normal(perturbed[cut + 1:].shape)
        _, modified = run_stream(perturbed, ckpt, small_encoder)
        assert base[:cut + 1] == modified[:cut + 1]

    @settings(max_examples=200, deadline=None)
    @given(feat=st.integers(1, 12), dim=st.sampled_from([1, 2, 7, 64, 768]),
           hidden=st.integers(1, 16), size=st.integers(1, 10),
           period=st.integers(1, 7), n_ticks=st.integers(1, 60),
           caching=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
    def test_update_token_equals_offline_bag_logit(self, feat, dim, hidden, size,
                                                   period, n_ticks, caching, seed):
        """Every streamed token, on update ticks and between them, is the
        offline score of the frames held: ``sigmoid`` of ``forward_rows``
        over the stub's ``encode_windows`` of them, bit for bit."""
        ckpt = init_checkpoint(dim=dim, hidden=hidden, gamma=10.0, seed=seed,
                               zero_first_layer=False)
        enc = StubEncoder(dim=dim, seed=seed)
        frames = np.random.default_rng(seed).standard_normal((n_ticks, feat))
        buffer = CausalBuffer(enc, size=size, subsample_period=period)
        _, tokens = run_stream(frames, ckpt, enc, caching=caching, buffer=buffer)
        for tick, token in enumerate(tokens):
            held = np.arange(0, tick + 1, period)[-size:]
            rows = enc.encode_windows(frames[held], [0], held.size, ["window"])
            logits = forward_rows(rows.astype(np.float64), ckpt, Workspace())[2]
            assert token == sigmoid(logits)[0]

    @pytest.mark.parametrize("caching", [True, False])
    def test_update_ticks_reuse_one_workspace(self, ckpt, small_encoder, rng, caching):
        """Every token's forward runs in the buffer's one workspace, whose
        buffers stay the same arrays from the first update tick on."""
        buffer = CausalBuffer(small_encoder)
        workspace = buffer._workspace
        push_tick(buffer, rng.standard_normal(4), 0, ckpt, caching)
        first = dict(workspace._buffers)
        assert first.keys() == {"h", "b"}
        run_stream(rng.standard_normal((23, 4)), ckpt, small_encoder, caching,
                   start_tick=1, buffer=buffer)
        assert buffer.encoder_calls == (5 if caching else 24)
        assert buffer._workspace is workspace
        assert workspace._buffers.keys() == first.keys()
        assert all(workspace._buffers[name] is first[name] for name in first)

    def test_frame_width_change_rejected(self, ckpt, small_encoder, rng):
        buffer = CausalBuffer(small_encoder)
        push_tick(buffer, rng.standard_normal(4), 0, ckpt)
        with pytest.raises(ValidationError, match="width 5 differs"):
            push_tick(buffer, rng.standard_normal(5), 1, ckpt)
        with pytest.raises(ValidationError, match="feature vector"):
            push_tick(buffer, rng.standard_normal((2, 4)), 2, ckpt)

    def test_tokens_bounded(self, ckpt, small_encoder, rng):
        frames = 100.0 * rng.standard_normal((50, 4))
        _, tokens = run_stream(frames, ckpt, small_encoder)
        assert all(0.0 <= t <= 1.0 for t in tokens)


class TestRingAgainstListRing:
    """The preallocated ring against the list ring it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 10), period=st.integers(1, 7),
           width=st.integers(1, 40), caching=st.booleans(),
           gaps=st.lists(st.integers(1, 20), min_size=1, max_size=60),
           start=st.integers(-1, 30), seed=st.integers(0, 2 ** 31 - 1))
    def test_same_tokens_calls_and_window(self, size, period, width, caching,
                                          gaps, start, seed):
        # gaps up to 20 skip update ticks for every period 1..7
        ckpt = init_checkpoint(dim=8, hidden=4, gamma=10.0, seed=3,
                               zero_first_layer=False)
        encoder = StubEncoder(dim=8, seed=7)
        ring = CausalBuffer(encoder, size=size, subsample_period=period)
        oracle = ListRingBuffer(encoder, size=size, subsample_period=period)
        frames = np.random.default_rng(seed).standard_normal((len(gaps), width))
        for tick, frame in zip((start + np.cumsum(gaps)).tolist(), frames):
            assert (push_tick(ring, frame, tick, ckpt, caching)
                    == list_ring_push_tick(oracle, frame, tick, ckpt, caching))
            assert ring.encoder_calls == oracle.encoder_calls
            got, want = held_frames(ring), oracle.window()
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.frames.tobytes()

    @pytest.mark.parametrize("rate, ticks", [
        (-20.0, (0, 5)),  # negative rate: decreasing stamps
        (float("inf"), (0, 5)),  # every stamp 0
        (20.0, (5 * 2 ** 58, 5 * 2 ** 58 + 5)),  # stamps equal in float64
    ])
    def test_stamps_not_increasing_rejected_like_list_ring(self, ckpt, rate, ticks):
        """The list ring rejects the second stamp; the ring rejects a rate
        that is not finite and > 0 when it is built, and past float64
        precision at the same tick as the list ring, before it writes the
        refused frame."""
        encoder = StubEncoder(dim=16, seed=7)
        oracle = ListRingBuffer(encoder, tick_rate_hz=rate)
        list_ring_push_tick(oracle, np.ones(4), ticks[0], ckpt)
        with pytest.raises(ValidationError,
                           match="^timestamps must be strictly increasing$"):
            list_ring_push_tick(oracle, np.ones(4), ticks[1], ckpt)
        if rate < 0 or math.isinf(rate):
            with pytest.raises(ValidationError,
                               match=f"^tick rate {rate} Hz must be finite and > 0$"):
                CausalBuffer(encoder, tick_rate_hz=rate)
            return
        ring = CausalBuffer(encoder, tick_rate_hz=rate)
        push_tick(ring, np.ones(4), ticks[0], ckpt)
        with pytest.raises(ValidationError,
                           match="^timestamps must be strictly increasing$"):
            push_tick(ring, np.full(4, 2.0), ticks[1], ckpt)
        assert held_frames(ring).tolist() == [[1.0] * 4]

    def test_single_frame_ring_never_compares_stamps(self, ckpt):
        encoder = StubEncoder(dim=16, seed=7)
        ring = CausalBuffer(encoder, size=1)
        oracle = ListRingBuffer(encoder, size=1)
        for k in range(3):  # ticks whose stamps are equal in float64
            tick, frame = 5 * 2 ** 58 + 5 * k, np.full(4, k + 1.0)
            assert (push_tick(ring, frame, tick, ckpt)
                    == list_ring_push_tick(oracle, frame, tick, ckpt))


class TestScalarSigmoid:
    def test_bits_equal_array_sigmoid(self):
        """A float, an ``np.float64``, a 0-d array and an ``np.float32`` each
        give the bits of the array path over the same values."""
        rng = np.random.default_rng(11)
        tiny = np.finfo(np.float64).smallest_subnormal
        logits = np.concatenate([
            rng.standard_normal(20000) * 10.0, rng.uniform(-800, 800, 20000),
            [0.0, -0.0, 745.0, -745.0, 745.2, -745.2, 800.0, -800.0,
             tiny, -tiny, 1e-310, -1e-310, np.finfo(np.float64).tiny]])
        floats = [sigmoid(x) for x in logits.tolist()]
        assert {type(p) for p in floats} == {float}
        want = sigmoid(logits).tobytes()
        assert np.array(floats).tobytes() == want
        assert np.array([sigmoid(x) for x in logits]).tobytes() == want  # np.float64
        zero_d = np.array([sigmoid(np.array(x)) for x in logits])
        assert zero_d.tobytes() == want
        narrow = logits.astype(np.float32)
        assert (np.array([sigmoid(x) for x in narrow]).tobytes()
                == sigmoid(narrow).tobytes())


class TestScoreClipTrace:
    """``vlaad trace`` on one clip: layout, the per-clip oracle, determinism."""

    def test_default_layout_timestamps(self, ckpt, tmp_path):
        rows, _ = run_trace(tmp_path, [make_clip(n_frames=40)], ckpt)
        assert [r[1] for r in rows] == [0, 1, 2, 3, 4]
        np.testing.assert_allclose([r[2] for r in rows], [0, 2, 4, 6, 8])
        assert sum(r[5] for r in rows) == pytest.approx(1.0)

    def test_matches_forward_bag(self, ckpt, tmp_path):
        clip = make_clip(n_frames=40, seed=9)
        rows, read = run_trace(tmp_path, [clip], ckpt)
        bag = segment_clip(clip, 8, 8, StubEncoder(dim=read.dim, seed=read.seed))
        trace = forward_bag(bag, read)
        # one clip is one row block, so the stacked forward is the bag's own
        np.testing.assert_array_equal([r[3] for r in rows], trace.logits)
        assert lse_pool([r[3] for r in rows], read.gamma) == trace.pooled

    def test_deterministic(self, ckpt, tmp_path):
        clip = make_clip(n_frames=40, seed=4)
        assert (run_trace(tmp_path, [clip], ckpt)[0]
                == run_trace(tmp_path, [clip], ckpt)[0])


class TestGlobalState:
    def test_construction(self):
        state = make_global_state(0.5, 0.0, command_index=2, command_count=6)
        np.testing.assert_array_equal(
            state, [0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_out_of_range_risk_never_clamped(self):
        with pytest.raises(ValidationError):
            make_global_state(1.2, 0.0, 0, 4)
        with pytest.raises(ValidationError):
            make_global_state(-0.1, 0.0, 0, 4)

    def test_bad_command_index(self):
        with pytest.raises(ValidationError):
            make_global_state(0.5, 1.0, 6, 6)

    def test_serialization_round_trip(self, rng):
        state = make_global_state(0.73, 12.5, 3, 5)
        parsed = parse_global_state(serialize_global_state(state))
        np.testing.assert_array_equal(parsed, state)

    def test_parse_rejects_bad_onehot(self):
        with pytest.raises(ValidationError):
            parse_global_state(json.dumps([0.5, 1.0, 0.4, 0.4]))


class TestToyPolicy:
    def test_zero_params_zero_waypoints(self):
        state = make_global_state(0.9, 3.0, 1, 4)
        out = toy_policy_step(state, np.zeros((6, 4)))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_risk_column_linearity(self, rng):
        weights = rng.standard_normal((6, 4))
        low = make_global_state(0.0, 3.0, 1, 4)
        high = make_global_state(1.0, 3.0, 1, 4)
        diff = toy_policy_step(high, weights) - toy_policy_step(low, weights)
        np.testing.assert_allclose(diff, weights[0], atol=1e-12)

    def test_matrix_oracle(self, rng):
        weights = rng.standard_normal((6, 4))
        bias = rng.standard_normal(4)
        state = make_global_state(0.3, 7.0, 2, 4)
        expected = np.array([sum(state[i] * weights[i, j] for i in range(6))
                             + bias[j] for j in range(4)])
        np.testing.assert_allclose(toy_policy_step(state, weights, bias),
                                   expected, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            toy_policy_step(make_global_state(0.1, 1.0, 0, 4),
                            np.zeros((5, 4)))


class TestStreamTokens:
    def test_ndjson_round_trip(self, ckpt, small_encoder, rng):
        frames = rng.standard_normal((12, 4))
        lines = [json.dumps({"tick": i, "features": f.tolist()})
                 for i, f in enumerate(frames)]
        tokens = list(stream_tokens(lines, ckpt, small_encoder))
        _, expected = run_stream(frames, ckpt, small_encoder)
        assert tokens == expected

    def test_width_change_names_lineno(self, ckpt, small_encoder):
        lines = [json.dumps({"tick": t, "features": [0.5] * width})
                 for t, width in enumerate((3, 3, 4))]
        with pytest.raises(ValidationError, match="stream line 3: frame width"):
            list(stream_tokens(lines, ckpt, small_encoder))

    def test_malformed_line_names_lineno(self, ckpt, small_encoder):
        lines = [json.dumps({"tick": 0, "features": [1, 2, 3]}), "{oops"]
        with pytest.raises(ValidationError, match="line 2"):
            list(stream_tokens(lines, ckpt, small_encoder))
