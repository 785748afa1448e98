import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (check_embedding, read_embedding_cache_whole,
                     stub_text_embedding, stub_video_embedding)
from vlaad import embeddings
from vlaad.embeddings import (CachedEncoder, Embedding, FrameWindow,
                              StubEncoder, encode_text, encode_video_snippet,
                              read_embedding_cache, write_embedding_cache)
from vlaad.errors import (DegenerateInputError, DimensionMismatchError,
                          EmptyInputError, ValidationError)


def window(frames):
    frames = np.asarray(frames, dtype=np.float64)
    return FrameWindow(frames, np.arange(frames.shape[0]) / 4.0)


class TestStubVideoEncoder:
    def test_zero_frames_degenerate(self):
        enc = StubEncoder(dim=8, seed=7)
        with pytest.raises(DegenerateInputError):
            encode_video_snippet(window(np.zeros((4, 5))), enc)

    def test_deterministic_bitwise(self, rng):
        enc = StubEncoder(dim=8, seed=7)
        frames = rng.standard_normal((6, 5))
        a = encode_video_snippet(window(frames), enc)
        b = encode_video_snippet(window(frames), enc)
        assert np.array_equal(a.values, b.values)

    def test_one_frame_difference_matches_standalone_projection(self, rng):
        """Cosine of two windows differing in one frame, against a fully
        independent recomputation of the seeded projection."""
        enc = StubEncoder(dim=8, seed=7)
        frames = rng.standard_normal((6, 5))
        other = frames.copy()
        other[3] += rng.standard_normal(5)
        a = encode_video_snippet(window(frames), enc).values
        b = encode_video_snippet(window(other), enc).values
        cos = float(a @ b)
        assert cos < 1.0
        oa = stub_video_embedding(frames, seed=7, dim=8)
        ob = stub_video_embedding(other, seed=7, dim=8)
        assert abs(cos - float(oa @ ob)) < 1e-6
        np.testing.assert_allclose(a, oa, atol=1e-7)

    @pytest.mark.parametrize("frames", [
        [[1e200, 1e200]],  # the norm overflows
        [[1.7e308, 1.0], [1.7e308, 1.0]],  # the mean overflows
    ])
    def test_overflow_refused_without_a_warning(self, frames):
        enc = StubEncoder(dim=8, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails it
            with pytest.raises(DegenerateInputError,
                               match=r"^projected window has a norm of (inf|nan), "
                                     r"not finite$"):
                enc.encode_window(np.array(frames))

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyInputError):
            FrameWindow(np.zeros((0, 5)), np.zeros(0))

    def test_timestamps_must_increase(self):
        with pytest.raises(ValidationError):
            FrameWindow(np.ones((2, 3)), np.array([1.0, 1.0]))

    def test_one_timestamp_per_frame(self):
        with pytest.raises(ValidationError, match="^one timestamp per frame required$"):
            FrameWindow(np.ones((3, 2)), np.array([0.0, 0.25]))

    def test_dim_at_least_1(self):
        with pytest.raises(ValidationError, match="^encoder dim must be >= 1$"):
            StubEncoder(dim=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.integers(2, 9))
    def test_unit_norm(self, seed, n_frames, feat):
        enc = StubEncoder(dim=12, seed=3)
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((n_frames, feat))
        emb = encode_video_snippet(window(frames), enc)
        assert abs(float(np.linalg.norm(emb.values.astype(np.float64))) - 1.0) < 1e-6


class TestStubTextEncoder:
    def test_identical_captions_identical_vectors(self):
        enc = StubEncoder(dim=8, seed=7)
        a = encode_text("a vehicle collides with a pedestrian", enc)
        b = encode_text("a vehicle collides with a pedestrian", enc)
        assert np.array_equal(a.values, b.values)
        assert float(a.values @ b.values) == pytest.approx(1.0, abs=1e-6)

    def test_trailing_whitespace_trimmed(self):
        enc = StubEncoder(dim=8, seed=7)
        a = encode_text("a car turning left", enc)
        b = encode_text("a car turning left   \n", enc)
        assert np.array_equal(a.values, b.values)

    def test_left_right_cosine_matches_standalone(self):
        enc = StubEncoder(dim=8, seed=7)
        a = encode_text("a car turning left", enc).values
        b = encode_text("a car turning right", enc).values
        cos = float(a @ b)
        assert -1.0 < cos < 1.0
        oa = stub_text_embedding("a car turning left", 7, enc.text_buckets, 8)
        ob = stub_text_embedding("a car turning right", 7, enc.text_buckets, 8)
        assert abs(cos - float(oa @ ob)) < 1e-6

    def test_empty_caption_rejected(self):
        enc = StubEncoder(dim=8, seed=7)
        with pytest.raises(EmptyInputError):
            encode_text("   \t ", enc)


class TestEmbeddingType:
    def test_non_finite_rejected(self):
        """``check_embedding`` rejects the vector ``Embedding`` once rejected."""
        with pytest.raises(ValidationError, match="non-finite"):
            check_embedding(Embedding(np.array([1.0, np.nan], np.float32)), 2)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_frames=st.integers(1, 9),
           feat=st.integers(1, 9), scale=st.sampled_from([1e-6, 1.0, 1e30]),
           words=st.lists(st.sampled_from(["a", "car", "Turns", "left", "é"]),
                          min_size=1, max_size=6))
    def test_encoders_return_checked_embeddings(self, seed, n_frames, feat,
                                                 scale, words):
        """``Embedding`` checks nothing; every vector the stub returns for a
        window or a caption, and every caption vector the cache encoder
        serves, meets the invariants ``check_embedding`` holds it to."""
        rng = np.random.default_rng(seed)
        stub = StubEncoder(dim=12, seed=seed)
        frames = scale * rng.standard_normal((n_frames, feat))
        caption = " ".join(words)
        check_embedding(encode_video_snippet(window(frames), stub), 12)
        text = encode_text(caption, stub)
        check_embedding(text, 12)
        stored = (scale * rng.standard_normal(12)).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.vlec"
            write_embedding_cache(path, {caption: text.values, "x": stored}, dim=12)
            with CachedEncoder(path) as cached:
                for key in (caption, "x"):
                    check_embedding(encode_text(key, cached), 12)


class TestEmbeddingCache:
    def test_round_trip_bitwise(self, tmp_path, rng):
        path = tmp_path / "emb.bin"
        entries = {f"clip:{i}": rng.standard_normal(8).astype(np.float32)
                   for i in range(5)}
        write_embedding_cache(path, entries, dim=8)
        rows, vectors, dim = read_embedding_cache_whole(path)
        assert dim == 8
        assert vectors.shape == (5, 8)
        assert list(rows) == list(entries)
        for key, vec in entries.items():
            assert np.array_equal(vectors[rows[key]], vec)

    def test_id_length_bound(self, tmp_path, rng):
        """An id is stored behind a u16 length: 65,535 UTF-8 bytes round-trip,
        65,536 are refused and leave no file."""
        vec = rng.standard_normal(4).astype(np.float32)
        longest, path = "é" * 32767 + "a", tmp_path / "long.vlec"
        assert len(longest.encode()) == 0xFFFF
        write_embedding_cache(path, {longest: vec, "x": vec}, dim=4)
        with CachedEncoder(path) as enc:
            assert np.array_equal(encode_text(longest, enc).values, vec)
        too_long, bad = longest + "b", tmp_path / "bad.vlec"
        with pytest.raises(ValidationError, match="embedding id too long"):
            write_embedding_cache(bad, {"x": vec, too_long: vec}, dim=4)
        assert sorted(os.listdir(tmp_path)) == ["long.vlec"]

    def test_cached_encoder_serves_vectors_as_is(self, tmp_path, rng):
        path = tmp_path / "emb.bin"
        vec = (3.0 * rng.standard_normal(8)).astype(np.float32)  # not unit
        other = rng.standard_normal(8).astype(np.float32)
        write_embedding_cache(path, {"w:0": vec, "w:1": other, "hello": vec},
                              dim=8)
        with CachedEncoder(path) as enc:
            out = enc.encode_windows(np.ones((4, 3)), [2, 0, 2], 2,
                                     ["w:1", "w:0", "w:1"])
            assert out.tobytes() == np.stack([other, vec, other]).tobytes()
            assert np.array_equal(encode_text("hello", enc).values, vec)

    @pytest.mark.parametrize("layout", ["clip_order", "interleaved", "reversed"])
    def test_served_rows_in_any_layout(self, tmp_path, rng, layout):
        """Windows come back in key order whatever the record layout: a
        clip's records in file order, forwards or backwards, take one read
        of the span from its first record to its last; records spread over
        twice the bytes served take one read each."""
        clips, windows, dim = ["a", "bb", "c"], 12, 8
        vecs = {f"{c}:{i}": rng.standard_normal(dim).astype(np.float32)
                for c in clips for i in range(windows)}
        order = ([f"{c}:{i}" for c in clips for i in range(windows)]
                 if layout != "interleaved" else
                 [f"{c}:{i}" for i in range(windows) for c in clips])
        path = tmp_path / "e.vlec"
        write_embedding_cache(path, [(k, vecs[k]) for k in order], dim)
        keys = [f"bb:{i}" for i in range(windows)]
        if layout == "reversed":
            keys.reverse()
        offsets, _ = read_embedding_cache(path)
        at = sorted(offsets[k] for k in keys)
        with CachedEncoder(path) as enc, mock.patch.object(
                embeddings.os, "pread", wraps=os.pread) as pread:
            out = enc.encode_windows(None, range(windows), 8, keys)
        assert out.tobytes() == np.stack([vecs[k] for k in keys]).tobytes()
        reads = [call.args[1:] for call in pread.call_args_list]
        if layout == "interleaved":
            assert reads == [(4 * dim, offsets[k]) for k in keys]
        else:
            assert reads == [(at[-1] + 4 * dim - at[0], at[0])]

    def test_missing_key_and_missing_id(self, tmp_path, rng):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.ones(4, np.float32)}, dim=4)
        with CachedEncoder(path) as enc:
            with pytest.raises(ValidationError,
                               match="embedding id 'b' not present"):
                enc.encode_windows(np.ones((2, 3)), [0, 0], 2, ["a", "b"])
            with pytest.raises(ValidationError,
                               match="embedding id 'b' not present"):
                encode_text("b", enc)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValidationError):
            read_embedding_cache(path)

    def test_wrong_dim_entry_rejected(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            write_embedding_cache(tmp_path / "e.bin",
                                  {"a": np.ones(3, np.float32)}, dim=4)

    @pytest.mark.parametrize("k", [0, 7, 19])
    def test_bad_entry_leaves_previous_file(self, tmp_path, rng, k):
        """An entry of the wrong shape at record k leaves the previous cache
        byte for byte, and no temporary file."""
        path = tmp_path / "e.vlec"
        write_embedding_cache(path, {"old": np.ones(4, np.float32)}, dim=4)
        before = path.read_bytes()
        entries = [(f"w:{i}", rng.standard_normal(3 if i == k else 4))
                   for i in range(20)]
        with pytest.raises(DimensionMismatchError, match=f"'w:{k}' has shape"):
            write_embedding_cache(path, entries, dim=4)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["e.vlec"]

    def test_index_points_at_each_vector(self, tmp_path, rng):
        """The scan maps each id to the byte offset of its vector; an id
        stored twice maps to its last record."""
        path = tmp_path / "e.vlec"
        entries = [("a", rng.standard_normal(4)), ("bb", rng.standard_normal(4)),
                   ("a", rng.standard_normal(4))]
        write_embedding_cache(path, entries, dim=4)
        offsets, dim = read_embedding_cache(path)
        data = path.read_bytes()
        assert dim == 4 and list(offsets) == ["a", "bb"]
        for key, vec in dict(entries).items():
            at = offsets[key]
            assert data[at:at + 16] == vec.astype("<f4").tobytes()


class TestEncoderContract:
    def test_dimension_mismatch_detected(self):
        class BadEncoder:
            dim = 8

            def encode_window(self, frames):
                return np.ones(5, np.float32) / np.sqrt(5)

            def encode_text(self, c):
                return Embedding(np.ones(5, np.float32) / np.sqrt(5))

        with pytest.raises(DimensionMismatchError):
            encode_video_snippet(window(np.ones((2, 3))), BadEncoder())
        with pytest.raises(DimensionMismatchError):
            encode_text("hi", BadEncoder())
