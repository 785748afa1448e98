import http.server
import json
import os
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import merge_then_tile_negatives
from vlaad.cli import run
from vlaad.datakit import (AUGMENT_MAX_FRAME, AUGMENT_MIN_FRAME, CLIP_FRAMES,
                           COLLISION_CAPTIONS, NEGATIVE_GUARD_FRAMES,
                           NORMAL_CAPTIONS, SUMMARIZER_URL_ENV, CaptionResult,
                           ClipRecord, InfractionLog, StubSummarizerClient,
                           SynthConfig, assemble_clips,
                           augment_collision_position, caption_collision_clip,
                           caption_normal_clip, generate_synthetic_dataset,
                           read_manifest, record_to_json, validate_record,
                           write_manifest)
from vlaad.errors import EmptyInputError, SummarizerError, ValidationError


def log_at(frame, kind="vehicle"):
    return InfractionLog(frame_number=frame, infraction_type=kind,
                         message=f"Agent collided against object with "
                                 f"type={kind}.x at frame {frame}. Details follow.",
                         scenario_type="ControlLoss")


def stream(n_frames, dim=3, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n_frames, dim)).astype(np.float32)


class TestAssembleClips:
    def test_single_infraction_placement(self):
        result = assemble_clips(stream(400), [log_at(200)], seed=5)
        positives = [c for c in result.clips if c.label == 1]
        assert len(positives) == 1
        clip = positives[0]
        assert 10 <= clip.collision_frame <= 30
        assert clip.features.shape[0] == CLIP_FRAMES
        # the collision frame points at the infraction's stream frame
        np.testing.assert_array_equal(
            clip.features[clip.collision_frame],
            clip.source_stream[200])

    def test_zero_infractions_negative_count(self):
        result = assemble_clips(stream(403), [], seed=0)
        assert all(c.label == 0 for c in result.clips)
        assert len(result.clips) == 403 // 40

    def test_edge_infraction_skipped_with_report(self):
        result = assemble_clips(stream(100), [log_at(5)], seed=0)
        assert not [c for c in result.clips if c.label == 1]
        assert len(result.skipped) == 1
        assert "frame 5" in result.skipped[0]

    def test_negatives_respect_guard_band(self):
        result = assemble_clips(stream(400), [log_at(200)], seed=1)
        for clip in result.clips:
            if clip.label == 0:
                lo = clip.source_start
                assert lo + CLIP_FRAMES <= 160 or lo >= 241

    def test_invalid_log_frame_rejected(self):
        with pytest.raises(ValidationError):
            assemble_clips(stream(100), [log_at(150)], seed=0)

    def test_stream_must_be_a_matrix(self):
        with pytest.raises(ValidationError,
                           match="^stream must be a \\(frames, features\\) matrix$"):
            assemble_clips(np.zeros(100), [], seed=0)

    def test_unique_ids_and_validity(self):
        result = assemble_clips(stream(800), [log_at(200), log_at(600)], seed=2)
        ids = [c.clip_id for c in result.clips]
        assert len(ids) == len(set(ids))
        for clip in result.clips:
            validate_record(clip)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 700).flatmap(lambda total: st.tuples(
        st.just(total), st.lists(st.integers(0, total - 1), max_size=8))),
        st.integers(0, 2 ** 16))
    def test_negatives_match_merge_then_tile(self, case, seed):
        """Negatives are the gaps between merged guard zones, each tiled from
        its start: ids in order, start frames, the frames they copy."""
        total, frames = case
        frames_in = stream(total, dim=2, seed=seed)
        result = assemble_clips(frames_in, [log_at(f) for f in frames], seed=seed)
        labels = [c.label for c in result.clips]
        assert labels == sorted(labels, reverse=True)  # positives first
        negatives = result.clips[labels.count(1):]
        starts = merge_then_tile_negatives(total, frames, NEGATIVE_GUARD_FRAMES,
                                           CLIP_FRAMES)
        assert [c.clip_id for c in negatives] == [
            f"stream-neg{j:04d}" for j in range(len(starts))]
        assert [c.source_start for c in negatives] == starts
        for clip, s in zip(negatives, starts):
            assert np.array_equal(clip.features, frames_in[s:s + CLIP_FRAMES])

    def test_placement_uniform_chi_square(self):
        """10,000 positives; collision index uniform over {10..30}."""
        spacing = 121
        n = 10_000
        frames = stream(spacing * n + CLIP_FRAMES, dim=1, seed=3)
        logs = [log_at(60 + spacing * i) for i in range(n)]
        result = assemble_clips(frames, logs, seed=7)
        ks = [c.collision_frame for c in result.clips if c.label == 1]
        assert len(ks) == n
        counts = np.bincount(np.asarray(ks), minlength=31)[10:31]
        p = stats.chisquare(counts).pvalue
        assert p > 0.01


class TestAugmentation:
    def _positive(self, seed=0):
        result = assemble_clips(stream(400, seed=seed), [log_at(200)], seed=seed)
        return [c for c in result.clips if c.label == 1][0]

    def test_five_copies_in_band(self):
        copies = augment_collision_position(self._positive(), copies=5, seed=0)
        assert len(copies) == 5
        for c in copies:
            assert AUGMENT_MIN_FRAME <= c.collision_frame <= AUGMENT_MAX_FRAME
            assert c.source == "augmented"
            assert c.clip_id.startswith(self._positive().clip_id + "#aug")
            validate_record(c)

    def test_zero_copies(self):
        assert augment_collision_position(self._positive(), copies=0) == []

    def test_negative_copies_rejected(self):
        with pytest.raises(ValidationError, match="^copies must be >= 0$"):
            augment_collision_position(self._positive(), copies=-1)

    def test_stream_too_short_to_recrop(self):
        """A collision at frame 2 of a 40-frame stream has no crop that puts
        it inside [4, 36]."""
        clip = ClipRecord("p", features=np.zeros((40, 2), np.float32), label=1,
                          collision_frame=2, source="external",
                          source_stream=np.zeros((40, 2), np.float32), source_start=0)
        with pytest.raises(ValidationError,
                           match="^clip p: source stream too short to re-crop$"):
            augment_collision_position(clip, copies=1)

    def test_negative_clip_rejected(self):
        neg = ClipRecord("n", features=np.zeros((40, 2), np.float32),
                         label=0, source="external")
        with pytest.raises(ValidationError):
            augment_collision_position(neg, copies=5)

    def test_no_source_stream_rejected(self):
        clip = ClipRecord("p", features=np.zeros((40, 2), np.float32),
                          label=1, collision_frame=20, source="external")
        with pytest.raises(ValidationError):
            augment_collision_position(clip, copies=5)

    def test_copies_recrop_the_same_event(self):
        src = self._positive()
        for c in augment_collision_position(src, copies=5, seed=3):
            np.testing.assert_array_equal(
                c.features[c.collision_frame],
                src.features[src.collision_frame])


class TestSyntheticGenerator:
    def test_counts_and_windows(self):
        recs = generate_synthetic_dataset(SynthConfig(10, 10, seed=0))
        assert len(recs) == 20
        assert sum(r.label for r in recs) == 10
        for r in recs:
            validate_record(r)
            if r.label == 1:
                assert r.event_window is not None
                assert r.collision_frame is not None
            else:
                assert r.event_window is None

    def test_purity_byte_identical_manifests(self, tmp_path):
        cfg = SynthConfig(6, 6, feature_dim=5, seed=9)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifest(generate_synthetic_dataset(cfg), a)
        write_manifest(generate_synthetic_dataset(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_caption_pools_disjoint(self):
        assert not set(COLLISION_CAPTIONS) & set(NORMAL_CAPTIONS)
        recs = generate_synthetic_dataset(SynthConfig(20, 20, seed=1))
        for r in recs:
            pool = COLLISION_CAPTIONS if r.label else NORMAL_CAPTIONS
            assert r.caption in pool

    def test_delta_zero_no_signal(self):
        recs = generate_synthetic_dataset(
            SynthConfig(0, 400, feature_dim=8, separation=0.0, seed=2))
        window_feats = []
        for r in recs:
            s, e = r.event_window
            slots = r.features.reshape(5, 8, 8)[:, 0, :]
            window_feats.append(slots[s:e])
        window_feats = np.concatenate(window_feats)
        # zero shift: window snippets remain standard normal
        assert abs(window_feats.mean()) < 0.02
        assert abs(window_feats.std() - 1.0) < 0.02

    def test_delta_four_bayes_separability(self):
        """Event-window snippets separate from normal ones with error below
        0.03 under a linear score, matching the Gaussian tail at delta/2."""
        cfg = SynthConfig(0, 1000, feature_dim=32, separation=4.0, seed=4)
        recs = generate_synthetic_dataset(cfg)
        half = len(recs) // 2
        estimate, evaluate = recs[:half], recs[half:]

        def split_snippets(records):
            inside, outside = [], []
            for r in records:
                s, e = r.event_window
                slots = r.features.reshape(5, 8, 32)[:, 0, :]
                for i in range(5):
                    (inside if s <= i < e else outside).append(slots[i])
            return np.asarray(inside), np.asarray(outside)

        ins_a, out_a = split_snippets(estimate)
        direction = ins_a.mean(axis=0) - out_a.mean(axis=0)
        direction /= np.linalg.norm(direction)
        ins_b, out_b = split_snippets(evaluate)
        threshold = cfg.separation / 2.0
        errors = ((ins_b @ direction < threshold).sum()
                  + (out_b @ direction >= threshold).sum())
        rate = errors / (len(ins_b) + len(out_b))
        assert rate < 0.03

    def test_tiled_slots_recoverable_by_mean_pool(self):
        recs = generate_synthetic_dataset(SynthConfig(1, 0, feature_dim=4, seed=5))
        feats = recs[0].features
        for slot in range(5):
            block = feats[8 * slot:8 * slot + 8]
            np.testing.assert_array_equal(block, np.tile(block[0], (8, 1)))


class CountingClient:
    def __init__(self, replies=None, fail_times=0):
        self.calls = []
        self.replies = replies
        self.fail_times = fail_times

    def generate(self, prompt, model):
        self.calls.append((prompt, model))
        if self.fail_times:
            self.fail_times -= 1
            raise SummarizerError("unreachable")
        if self.replies is not None:
            return self.replies.pop(0)
        return "stubbed reply."


class TestCaptioning:
    def test_stub_collision_caption_first_sentence(self):
        client = StubSummarizerClient()
        log = log_at(200)
        caption = caption_collision_clip(log, client,
                                         rng=np.random.default_rng(0))
        assert caption == "Agent collided against object with type=vehicle.x at frame 200."

    def test_model_choice_balanced(self):
        client = CountingClient()
        rng = np.random.default_rng(123)
        for _ in range(1000):
            caption_collision_clip(log_at(50), client, rng=rng)
        models = [m for _, m in client.calls]
        n_llama = models.count("llama3.2:3b")
        assert abs(n_llama - 500) <= 50
        assert n_llama + models.count("gemma2:2b") == 1000

    def test_unreachable_errors_after_three_attempts(self, rng):
        client = CountingClient(fail_times=99)
        with pytest.raises(SummarizerError):
            caption_collision_clip(log_at(50), client, rng)
        assert len(client.calls) == 3

    def test_empty_response_no_retry(self, rng):
        client = CountingClient(replies=["   "])
        with pytest.raises(SummarizerError):
            caption_collision_clip(log_at(50), client, rng)
        assert len(client.calls) == 1

    def test_two_stage_single_annotation(self, rng):
        result = caption_normal_clip(["the road is clear. nothing ahead."],
                                     StubSummarizerClient(), rng)
        assert isinstance(result, CaptionResult)
        assert result.text
        assert not result.warning

    def test_two_stage_matches_recomposition(self):
        """Stub pipeline equals manually composing the two stub stages."""
        client = StubSummarizerClient()
        annotations = ["a car waits at the light. more text.",
                       "the light turns green. the car moves."]
        got = caption_normal_clip(annotations, client,
                                  rng=np.random.default_rng(0))
        stage1 = [client.generate(
            f"Summarize the following text:\n{a}\n"
            f"Only output the summarized message with nothing before it.", "m")
            for a in annotations]
        joined = "\n".join(stage1)
        expected = client.generate(
            f"Summarize the following text:\n{joined}\n"
            f"Only output the summarized message with nothing before it.", "m")
        assert got.text == expected

    def test_paraphrase_constraint_single_requery_then_warning(self, rng):
        replies = ["frame one.", "final summary.",
                   "no keyword here.", "still missing it."]
        client = CountingClient(replies=replies)
        result = caption_normal_clip(["ann one."], client, rng, paraphrase=True)
        assert result.warning
        assert result.text == "still missing it."
        paraphrase_calls = [p for p, _ in client.calls if p.startswith("Paraphrase")]
        assert len(paraphrase_calls) == 2  # original + exactly one re-query

    def test_paraphrase_keeps_compliant_output(self, rng):
        replies = ["frame one.", "final summary.", "a calm drive onward."]
        client = CountingClient(replies=replies)
        result = caption_normal_clip(["ann one."], client, rng, paraphrase=True)
        assert not result.warning
        assert "drive" in result.text

    def test_no_annotations_rejected(self, rng):
        with pytest.raises(EmptyInputError):
            caption_normal_clip([], StubSummarizerClient(), rng)


class TestHttpClient:
    def test_import_loads_no_http_stack(self, tmp_path):
        """urllib.request (and with it http.client, ssl and email) loads only
        when the HTTP summarizer sends a request; the thread pool (and with it
        logging) only for ``caption``, and hashlib (OpenSSL) only where a
        caption or an augmentation is hashed.  Each child compares against
        what numpy loaded itself: numpy 1.x imports numpy.random, and with it
        secrets and hashlib, eagerly."""
        runs = tmp_path / "runs.jsonl"
        runs.write_text(json.dumps({"route_id": "r0", "km": 1.0,
                                    "route_completion": 50.0}) + "\n", encoding="utf-8")
        modules = ("urllib.request", "http.client", "ssl", "email",
                   "concurrent.futures", "logging", "html", "secrets",
                   "hashlib", "_hashlib")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for step in ("import vlaad.cli; assert 'vlaad.datakit' in sys.modules",
                     f"from vlaad.cli import run; assert run(['score', '--runs', "
                     f"{str(runs)!r}]) == 0"):
            code = (f"import sys, numpy; before = set(sys.modules); {step}; "
                    f"print(sorted(m for m in {modules!r} "
                    f"if m in sys.modules and m not in before))")
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, encoding="utf-8").stdout
            assert out.splitlines()[-1] == "[]", step

    def test_unreachable_url_exit_1(self, tmp_path, monkeypatch, capsys):
        """``caption --client http`` on a closed local port: three attempts,
        then one error line and exit 1."""
        with socket.socket() as sock:  # a port that was free a moment ago
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setenv(SUMMARIZER_URL_ENV, f"http://127.0.0.1:{port}/api")
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps({"type": "normal",
                                    "annotations": ["a car drives on"]}) + "\n",
                        encoding="utf-8")
        code = run(["caption", "--jobs", str(jobs), "-o",
                    str(tmp_path / "out.jsonl"), "--client", "http"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: summarizer unreachable after 3 attempts: "
                       "summarizer request failed: <urlopen error [Errno 111] "
                       "Connection refused>\n")


class _ReplyHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with the server's ``reply``: bytes as they are,
    anything else as JSON.  The server counts the requests."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests += 1
        reply = self.server.reply
        body = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # no request log on stderr
        pass


class TestHttpReply:
    """``caption --client http`` against a stdlib server on 127.0.0.1."""

    def caption(self, tmp_path, monkeypatch, capsys, reply):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ReplyHandler)
        server.reply, server.requests = reply, 0
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv(SUMMARIZER_URL_ENV,
                               f"http://127.0.0.1:{server.server_address[1]}/api")
            jobs, out = tmp_path / "jobs.jsonl", tmp_path / "out.jsonl"
            jobs.write_text(json.dumps({"type": "normal", "id": "j0",
                                        "annotations": ["a car drives on"]}) + "\n",
                            encoding="utf-8")
            code = run(["caption", "--jobs", str(jobs), "-o", str(out),
                        "--client", "http"])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        self.requests = server.requests
        return code, capsys.readouterr(), out

    def test_reply_with_response(self, tmp_path, monkeypatch, capsys):
        code, io, out = self.caption(tmp_path, monkeypatch, capsys,
                                     {"response": " The car drives on. "})
        assert (code, io.err, io.out) == (0, "", "captioned 1 jobs\n")
        assert json.loads(out.read_text(encoding="utf-8")) == {
            "id": "j0", "caption": "The car drives on.", "warning": False}

    def test_reply_without_response_exit_1(self, tmp_path, monkeypatch, capsys):
        """The server answered, so its reply is refused at the first attempt."""
        code, io, out = self.caption(tmp_path, monkeypatch, capsys, {"text": "x"})
        assert code == 1
        assert io.err == "error: summarizer reply missing 'response' field\n"
        assert self.requests == 1
        assert not out.exists()

    @pytest.mark.parametrize("reply, message", [
        (b"<html>busy</html>", "summarizer reply is not JSON: Expecting value: "
                               "line 1 column 1 (char 0)"),
        (b"\xff", "summarizer reply is not JSON: 'utf-8' codec can't decode byte "
                  "0xff in position 0: invalid start byte"),
        (7, "summarizer reply missing 'response' field"),
        (["response"], "summarizer reply missing 'response' field"),
    ], ids=["html", "not_utf8", "number", "list"])
    def test_malformed_reply_not_retried(self, tmp_path, monkeypatch, capsys, reply,
                                         message):
        """A reply that is not a JSON object holding ``response`` exits 1 with
        one line saying so, after one request."""
        code, io, out = self.caption(tmp_path, monkeypatch, capsys, reply)
        assert (code, io.err, self.requests) == (1, f"error: {message}\n", 1)
        assert not out.exists()

    def test_url_unset_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(SUMMARIZER_URL_ENV, raising=False)
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps({"type": "normal", "annotations": ["a"]}) + "\n",
                        encoding="utf-8")
        code = run(["caption", "--jobs", str(jobs), "-o", str(tmp_path / "out.jsonl"),
                    "--client", "http"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: summarizer URL required (set {SUMMARIZER_URL_ENV})\n")


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        recs = generate_synthetic_dataset(SynthConfig(3, 3, feature_dim=4, seed=6))
        path = tmp_path / "m.jsonl"
        write_manifest(recs, path)
        loaded = read_manifest(path)
        assert len(loaded) == 6
        for a, b in zip(recs, loaded):
            assert a.clip_id == b.clip_id
            assert a.caption == b.caption
            assert a.label == b.label
            assert a.event_window == b.event_window
            np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())

    def test_infraction_round_trip(self, tmp_path):
        result = assemble_clips(stream(400), [log_at(200)], seed=1)
        path = tmp_path / "m.jsonl"
        write_manifest(result.clips, path)
        loaded = read_manifest(path)
        pos = [c for c in loaded if c.label == 1][0]
        assert pos.infraction.infraction_type == "vehicle"
        assert pos.infraction.scenario_type == "ControlLoss"

    def test_duplicate_ids_rejected(self, tmp_path):
        recs = generate_synthetic_dataset(SynthConfig(2, 0, feature_dim=4, seed=0))
        recs[1].clip_id = recs[0].clip_id
        with pytest.raises(ValidationError):
            write_manifest(recs, tmp_path / "m.jsonl")

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_bad_record_leaves_previous_file(self, tmp_path, k):
        """A record that fails re-validation at record k leaves the previous
        manifest byte for byte, and no temporary file."""
        path = tmp_path / "m.jsonl"
        recs = generate_synthetic_dataset(SynthConfig(6, 0, feature_dim=4, seed=0))
        write_manifest(recs[:1], path)
        before = path.read_bytes()
        recs[k].label = 1  # now violates label <-> collision_frame
        with pytest.raises(ValidationError, match=recs[k].clip_id):
            write_manifest(recs, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.jsonl"]

    def test_validation_rerun_on_write(self, tmp_path):
        recs = generate_synthetic_dataset(SynthConfig(1, 0, feature_dim=4, seed=0))
        recs[0].label = 1  # now violates label <-> collision_frame
        with pytest.raises(ValidationError):
            write_manifest(recs, tmp_path / "m.jsonl")

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(record_to_json(
            generate_synthetic_dataset(SynthConfig(1, 0, feature_dim=4, seed=0))[0]))
        path.write_text(good + "\n{not json}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            read_manifest(path)

    def test_frames_path_reference(self, tmp_path):
        feats = np.ones((40, 3), dtype=np.float32)
        npy = tmp_path / "clip.npy"
        np.save(npy, feats)
        rec = ClipRecord("ext0", frames_path=str(npy), label=0,
                         source="external", caption="x")
        np.testing.assert_array_equal(rec.feature_matrix(), feats)


class TestClipRecordInvariants:
    def test_label_collision_frame_coupling(self):
        with pytest.raises(ValidationError):
            ClipRecord("a", features=np.zeros((40, 2), np.float32), label=1,
                       source="external")
        with pytest.raises(ValidationError):
            ClipRecord("a", features=np.zeros((40, 2), np.float32), label=0,
                       collision_frame=12, source="external")

    def test_assembled_window_enforced(self):
        with pytest.raises(ValidationError):
            ClipRecord("a", features=np.zeros((40, 2), np.float32), label=1,
                       collision_frame=5, source="assembled")

    def test_assembled_needs_40_frames(self):
        with pytest.raises(ValidationError):
            ClipRecord("a", features=np.zeros((30, 2), np.float32), label=0,
                       source="assembled")

    def test_name_follows_the_frames(self, tmp_path):
        """Inline frames name their manifest line until decoded; a frames
        file names itself; frames in memory name only the clip."""
        path = tmp_path / "m.jsonl"
        feats = np.zeros((40, 2), np.float32)
        write_manifest([ClipRecord("a", features=feats),
                        ClipRecord("b", frames_path="b.npy")], path)
        inline, in_file = read_manifest(path)
        assert inline.name == f"{path}: manifest line 1: clip a"
        inline.feature_matrix()
        assert inline.name == "clip a"
        assert in_file.name == "clip b: frames file b.npy"
        with pytest.raises(ValidationError, match="^clip b: frames file b.npy: "):
            in_file.feature_matrix()
        assert ClipRecord("c", features=feats).name == "clip c"

    @pytest.mark.parametrize("clip_id, message", [
        ("", "clip_id must be a non-empty string"),
        (5, "clip_id must be a string, got 5"),
    ])
    def test_clip_id_non_empty_string(self, clip_id, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ClipRecord(clip_id, features=np.zeros((40, 2), np.float32))

    def test_needs_features_or_frames_path(self):
        with pytest.raises(ValidationError,
                           match="^clip a needs features or a frames path$"):
            ClipRecord("a")

    def test_infraction_type_enum(self):
        with pytest.raises(ValidationError):
            InfractionLog(1, "bicycle", "msg", "scen")

    def test_synth_config_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(-1, 0)
        with pytest.raises(ValidationError):
            SynthConfig(1, 1, separation=-0.5)
        with pytest.raises(ValidationError):
            SynthConfig(1, 1, event_len=9)
