import base64
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import resource
import select
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_clip, run_trace
from oracles import epoch_loss_means, per_clip_trace_rows, read_embedding_cache_whole
import vlaad
from vlaad import cli, datakit, embeddings, evalkit, trainer
from vlaad.cli import build_parser, run
from vlaad.datakit import ClipRecord, read_manifest, write_manifest
from vlaad.embeddings import StubEncoder, write_embedding_cache
from vlaad.errors import ValidationError, replace_on_success
from vlaad.mil import segment_clip, segment_lse_pool
from vlaad.model import Workspace, init_checkpoint, load_checkpoint, save_checkpoint
from vlaad.numerics import sigmoid
from vlaad.plotting import TRACE_HEADER, emit_trace_plot, parse_trace_csv
from vlaad.trainer import (TrainConfig, forward_stack, prepare_examples,
                           scores_for)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def manifest(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    code, _, err = run_cli(capsys, "synth", "--n-normal", "12",
                           "--n-collision", "12", "--dim", "8",
                           "--seed", "0", "-o", str(path))
    assert code == 0, err
    return path


class TestParserContract:
    def test_help_lists_every_accepted_flag(self):
        """Flags in the help text and flags accepted must coincide."""
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if hasattr(a, "choices") and a.choices)
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            documented = set(re.findall(r"--[a-z][a-z-]*", help_text))
            accepted = {opt for action in sub._actions
                        for opt in action.option_strings
                        if opt.startswith("--")}
            assert documented == accepted, name

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "synth", "--n-normal", "1",
                             "--n-collision", "1", "-o", "x", "--bogus")
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_help_exit_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "train", "--help")[0] == 0

    def test_one_parser_serves_every_run(self, capsys, monkeypatch):
        """``run`` reuses one parser: a ``--set`` list from one call does not
        reach the next, and help and usage errors print the same bytes as a
        freshly built parser, every time."""
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "train",
                            lambda args: seen.append(args.set) or 0)
        argv = ["train", "--manifest", "m.jsonl", "-o", "c.bin"]
        assert run_cli(capsys, *argv, "--set", "epochs=3")[0] == 0
        assert run_cli(capsys, *argv)[0] == 0
        assert seen == [["epochs=3"], []]
        helps = [run_cli(capsys, "--help") for _ in range(2)]
        assert helps[0] == helps[1] == (0, build_parser().format_help(), "")
        errors = [run_cli(capsys, "frobnicate") for _ in range(2)]
        assert errors[0] == errors[1] and errors[0][0] == 2


class TestSynthIngest:
    def test_synth_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "synth", "--n-normal", "10",
                                 "--n-collision", "10", "--seed", "0",
                                 "-o", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 20

    def test_synth_dim_at_least_1(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        code, _, err = run_cli(capsys, "synth", "--n-normal", "1", "--n-collision",
                               "1", "--dim", "0", "-o", str(out))
        assert code == 2
        assert_one_error_line(err, "^error: feature_dim must be >= 1$")
        assert not out.exists()

    def test_ingest_summary(self, manifest, capsys):
        code, out, _ = run_cli(capsys, "ingest", "--manifest", str(manifest))
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 24
        assert summary["positives"] == 12

    def test_ingest_missing_file_exit_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "ingest", "--manifest",
                             str(tmp_path / "nope.jsonl"))
        assert code == 1

    def test_ingest_bad_manifest_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\"clip_id\": \"x\"}\n")
        code, _, _ = run_cli(capsys, "ingest", "--manifest", str(bad))
        assert code == 2


    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_caption_failure_leaves_previous_output(self, tmp_path, capsys, k):
        """A write that raises at caption k leaves the previous output byte
        for byte, and no temporary file."""
        jobs, out = tmp_path / "jobs.jsonl", tmp_path / "captions.jsonl"
        jobs.write_text("".join(json.dumps(
            {"type": "normal", "id": i, "annotations": [f"frame {i}. more."]})
            + "\n" for i in range(5)))
        out.write_bytes(b"old\n")
        dumps, calls = json.dumps, []

        def failing_dumps(obj, **kw):
            calls.append(obj)
            if len(calls) == k + 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return dumps(obj, **kw)

        with mock.patch.object(vlaad.cli.json, "dumps", failing_dumps):
            code, _, err = run_cli(capsys, "caption", "--jobs", str(jobs),
                                   "-o", str(out))
        assert code == 1 and "No space left" in err, err
        assert out.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["captions.jsonl", "jobs.jsonl"]


class TestTrainEval:
    def train_args(self, manifest, out):
        return ["train", "--manifest", str(manifest), "-o", str(out),
                "--set", "embed_dim=24", "--set", "hidden_dim=8",
                "--set", "epochs=2", "--seed", "0"]

    def test_train_then_eval_deterministic(self, manifest, tmp_path, capsys):
        ckpt_a = tmp_path / "a.bin"
        ckpt_b = tmp_path / "b.bin"
        code, out_a, _ = run_cli(capsys, *self.train_args(manifest, ckpt_a))
        assert code == 0
        code, out_b, _ = run_cli(capsys, *self.train_args(manifest, ckpt_b))
        assert code == 0
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        ja, jb = json.loads(out_a), json.loads(out_b)
        ja.pop("checkpoint"), jb.pop("checkpoint")
        assert ja == jb

        evals = []
        for ckpt in (ckpt_a, ckpt_b):
            code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                   "--manifest", str(manifest))
            assert code == 0
            evals.append(json.loads(out))
        assert evals[0] == evals[1]
        for key in ("auc", "f1", "accuracy", "tau", "tpr", "fpr"):
            assert key in evals[0]

    def test_hidden_dim_zero_trains_and_evals(self, manifest, tmp_path, capsys):
        """H = 0 is in range: the adapter is the identity plus its bias."""
        ckpt = tmp_path / "c.bin"
        code, _, err = run_cli(capsys, *self.train_args(manifest, ckpt),
                               "--set", "hidden_dim=0")
        assert code == 0, err
        assert load_checkpoint(ckpt).hidden == 0
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                 "--manifest", str(manifest))
        assert code == 0 and json.loads(out)["n"] == 24, err

    def test_history_csv(self, manifest, tmp_path, capsys):
        ckpt = tmp_path / "c.bin"
        hist = tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, *self.train_args(manifest, ckpt),
                             "--history", str(hist))
        assert code == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "epoch,L_sim,L_cls,s_sim,s_cls,L_total,val_auc"
        assert len(lines) == 3

    def test_history_losses_are_batch_weighted_means(self, manifest, tmp_path,
                                                     monkeypatch):
        """Each epoch's L_sim and L_cls are its batches' losses weighted by
        batch size (20 train clips in batches of 7, 7 and 6), and L_total
        is their uncertainty-weighted total at the epoch's s_sim and s_cls."""
        steps = []

        def spy(ckpt, batch, *args, _objective=trainer.batch_objective, **kwargs):
            breakdown, grad = _objective(ckpt, batch, *args, **kwargs)
            steps.append((len(batch), breakdown))
            return breakdown, grad

        monkeypatch.setattr(trainer, "batch_objective", spy)
        hist = tmp_path / "h.csv"
        code, err = run_quiet([*self.train_args(manifest, tmp_path / "c.bin"),
                               "--set", "epochs=3", "--set", "train_batch=7",
                               "--history", hist])
        assert code == 0, err
        assert [size for size, _ in steps] == [7, 7, 6] * 3
        with open(hist, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, (l_sim, l_cls) in zip(rows, epoch_loss_means(steps, 3)):
            s_sim, s_cls = float(row["s_sim"]), float(row["s_cls"])
            total = (0.5 * math.exp(-s_sim) * l_sim + 0.5 * math.exp(-s_cls) * l_cls
                     + s_sim + s_cls)
            for key, want in (("L_sim", l_sim), ("L_cls", l_cls), ("L_total", total)):
                assert float(row[key]) == pytest.approx(want, rel=1e-12, abs=1e-12), key

    def test_blank_caption_names_manifest_line(self, manifest, tmp_path):
        """A training clip with a blank caption exits 2 naming the manifest
        line it came from."""
        lines = manifest.read_text().splitlines()
        obj = {**json.loads(lines[2]), "caption": " "}
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n".join([*lines[:2], json.dumps(obj), *lines[3:]]) + "\n")
        code, err = run_quiet([*self.train_args(blank, tmp_path / "c.bin"),
                               "--val-manifest", manifest])
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(
            f"error: {blank}: manifest line 3: clip {obj['clip_id']} has no "
            f"caption; run captioning first") + "$")
        assert not (tmp_path / "c.bin").exists()

    def test_set_needs_key_equals_value(self, manifest, tmp_path):
        code, err = run_quiet([*self.train_args(manifest, tmp_path / "c.bin"),
                               "--set", "epochs"])
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(
            "error: --set expects KEY=VALUE, got 'epochs'") + "$")

    def test_set_bare_string_value(self, manifest, tmp_path):
        """A --set value that is not JSON is taken as a string: mode=clip
        trains as mode="clip" does."""
        blobs = []
        for value in ("clip", '"clip"'):
            ckpt = tmp_path / "c.bin"
            code, err = run_quiet([*self.train_args(manifest, ckpt),
                                   "--set", f"mode={value}"])
            assert code == 0 and err == "", err
            blobs.append(ckpt.read_bytes())
        code, err = run_quiet(self.train_args(manifest, tmp_path / "mil.bin"))
        assert code == 0, err
        assert blobs[0] == blobs[1] != (tmp_path / "mil.bin").read_bytes()

    @pytest.mark.parametrize("lr, batch, message", [
        ("1e5", 256, r"after its last batch: non-finite total loss at s_sim=-9\S+, "
                     r"s_cls=-9\S+$"),
        ("1e300", 256, r"after its last batch: non-finite total loss at s_sim=-9\S+, "
                       r"s_cls=-9\S+$"),
        ("1e5", 8, r"batch 1: math range error$"),  # math.exp(-s_sim)
        ("1e300", 8, r"batch 1: non-finite snippet logits for clip synth-train-\w+$"),
    ], ids=["lr_1e5", "lr_1e300", "lr_1e5_batch_8", "lr_1e300_batch_8"])
    def test_diverging_run_ends_with_one_error_line(self, tmp_path, lr, batch,
                                                    message):
        """A run whose loss goes non-finite exits 1 with one line naming the
        epoch: once ``math.exp(-s_sim)`` raised ``OverflowError`` with a
        traceback, and a non-finite validation logit named no epoch after
        three numpy warnings (which pytest turns into errors here)."""
        manifest, ckpt = tmp_path / "m.jsonl", tmp_path / "c.bin"
        assert run_quiet(["synth", "--n-normal", 20, "--n-collision", 20, "--seed", 2,
                          "-o", manifest])[0] == 0
        code, err = run_quiet(["train", "--manifest", manifest, "-o", ckpt,
                               *[arg for kv in ("embed_dim=32", "hidden_dim=8",
                                                f"learning_rate={lr}",
                                                f"train_batch={batch}")
                                 for arg in ("--set", kv)]])
        assert code == 1, err
        assert_one_error_line(err, "^error: epoch 0, " + message)
        assert not ckpt.exists()

    def test_class_absent_from_validation_warns(self, tmp_path, capsys):
        """One positive clip goes to the train side (floor(0.8 · 1 + 0.5) = 1):
        training runs, warns once on stderr and reports no validation AUC."""
        path = tmp_path / "seven.jsonl"
        assert run_quiet(["synth", "--n-normal", 6, "--n-collision", 1, "--dim", 8,
                          "-o", path])[0] == 0
        code, out, err = run_cli(capsys, *self.train_args(path, tmp_path / "c.bin"))
        assert code == 0, err
        assert err == "warning: class 1 absent from the validation split\n"
        assert json.loads(out, parse_constant=reject_constant)["val_auc"] is None

    def test_bad_config_key_exit_2(self, manifest, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "train", "--manifest", str(manifest),
                             "-o", str(tmp_path / "x.bin"),
                             "--set", "learning_rte=0.1")
        assert code == 2

    def test_config_file_with_flag_precedence(self, manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embed_dim": 24, "hidden_dim": 8,
                                   "epochs": 5, "seed": 9}))
        ckpt = tmp_path / "c.bin"
        code, _, _ = run_cli(capsys, "train", "--manifest", str(manifest),
                             "--config", str(cfg), "-o", str(ckpt),
                             "--set", "epochs=1", "--seed", "0")
        assert code == 0
        from vlaad.model import load_checkpoint

        loaded = load_checkpoint(ckpt)
        assert loaded.epoch == 1  # --set beats the file
        assert loaded.seed == 0  # --seed beats both

    def test_cache_dim_must_match_embed_dim(self, manifest, tmp_path, capsys):
        stub = StubEncoder(dim=16, seed=0)
        entries = {}
        for rec in read_manifest(manifest):
            for i, row in enumerate(segment_clip(rec, 8, 8, stub).snippets):
                entries[f"{rec.clip_id}:{i}"] = row
            entries[rec.caption.strip()] = stub.encode_text(rec.caption).values
        cache = tmp_path / "d16.vlec"
        write_embedding_cache(cache, entries, dim=16)
        ckpt = tmp_path / "c.bin"
        argv = ["train", "--manifest", manifest, "-o", ckpt, "--set", "epochs=1",
                "--embedding-cache", cache]
        code, err = run_quiet(argv)  # embed_dim defaults to 768
        assert code == 2, err
        assert_one_error_line(err, re.escape(str(cache)), "D=16", "768")
        assert not ckpt.exists()
        code, err = run_quiet([*argv, "--set", "embed_dim=16"])
        assert code == 0, err
        assert load_checkpoint(ckpt).dim == 16

    @pytest.mark.parametrize("mode", ["mil", "clip"])
    def test_eval_needs_no_captions(self, manifest, tmp_path, capsys, mode):
        """Scores come from the video snippets alone: blank captions change
        nothing."""
        bare = tmp_path / "bare.jsonl"
        records = read_manifest(manifest)
        for rec in records:
            rec.caption = ""
        write_manifest(records, bare)
        ckpt = tmp_path / "c.bin"
        save_checkpoint(ckpt, init_checkpoint(dim=24, hidden=8, gamma=10.0,
                                              seed=0, zero_first_layer=False))
        outs = []
        for path in (manifest, bare):
            code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                     "--manifest", str(path), "--mode", mode)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_validation_needs_no_captions(self, manifest, tmp_path):
        """Validation is scored as eval scores: a blank-captioned
        --val-manifest trains to the same checkpoint and history."""
        bare = tmp_path / "bare.jsonl"
        records = read_manifest(manifest)
        for rec in records:
            rec.caption = ""
        write_manifest(records, bare)
        blobs = []
        for val in (manifest, bare):
            ckpt, history = tmp_path / "c.bin", tmp_path / "h.csv"
            code, err = run_quiet(["train", "--manifest", manifest,
                                   "--val-manifest", val, "-o", ckpt,
                                   "--history", history, "--set", "embed_dim=24",
                                   "--set", "hidden_dim=8", "--set", "epochs=2"])
            assert code == 0, err
            blobs.append(ckpt.read_bytes() + history.read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_memory_bounded_by_one_chunk(self, tmp_path):
        """eval streams the manifest and holds one chunk of snippet rows, not
        every clip's (about 20 MB more at 1,280 clips)."""
        assert_peak_flat_in_clips(tmp_path, "eval")

    @pytest.mark.parametrize("case", ["epochs_0", "one_class_validation", "both"])
    def test_train_stdout_is_strict_json(self, manifest, tmp_path, capsys, case):
        """A run with no validation AUC prints ``"val_auc": null``, not NaN."""
        argv = self.train_args(manifest, tmp_path / "c.bin")
        if case == "epochs_0":
            argv += ["--set", "epochs=0"]
        elif case == "one_class_validation":
            val = tmp_path / "val.jsonl"
            write_manifest([r for r in read_manifest(manifest) if r.label == 0], val)
            argv += ["--val-manifest", str(val)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        summary = json.loads(out, parse_constant=reject_constant)
        assert (summary["val_auc"] is None) == (case != "both")
        if case == "both":
            assert 0.0 <= summary["val_auc"] <= 1.0

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "NaN"])
    def test_eval_refuses_a_tau_not_finite(self, manifest, tmp_path, tau):
        ckpt = tmp_path / "c.bin"
        save_checkpoint(ckpt, init_checkpoint(dim=768, hidden=8, seed=0))
        code, err = run_quiet(["eval", "--checkpoint", ckpt, "--manifest", manifest,
                               f"--tau={tau}"])
        assert code == 2, err
        assert_one_error_line(err, "--tau must be a finite number")

    @pytest.mark.parametrize("command, keep, labels", [
        ("eval", 1, [1]),  # one label
        ("eval", None, []),  # no clip
        ("train", 0, [0]),
    ])
    def test_one_class_manifest_named(self, manifest, tmp_path, command, keep,
                                      labels):
        """A manifest without both classes exits 2 with one error line naming
        it, its clip count and the labels it holds."""
        records = [r for r in read_manifest(manifest) if r.label == keep]
        path = tmp_path / "one.jsonl"
        write_manifest(records, path)
        ckpt = tmp_path / "c.bin"
        save_checkpoint(ckpt, init_checkpoint(dim=768, hidden=8, seed=0))
        argv = (["eval", "--checkpoint", ckpt, "--manifest", path]
                if command == "eval" else self.train_args(path, tmp_path / "m.bin"))
        code, err = run_quiet(argv)
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(
            f"error: {path}: both classes must be present, but its "
            f"{len(records)} clips have labels {labels}") + "$")

    def test_one_class_train_split_named(self, tmp_path):
        """Both classes in the manifest, but the split leaves the one
        positive clip out of training (floor(0.3 · 1 + 0.5) = 0): one error
        line naming the manifest, split_fraction and each class's count on
        the train side (floor(0.3 · 6 + 0.5) = 2 negatives)."""
        path = tmp_path / "seven.jsonl"
        assert run_quiet(["synth", "--n-normal", 6, "--n-collision", 1, "--dim", 8,
                          "-o", path])[0] == 0
        code, err = run_quiet([*self.train_args(path, tmp_path / "m.bin"),
                               "--set", "split_fraction=0.3"])
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(
            f"error: {path}: training split must contain both classes, but "
            f"split_fraction=0.3 leaves 2 clips of class 0 and 0 of class 1 "
            f"on the train side") + "$")
        assert not (tmp_path / "m.bin").exists()

    def test_eval_stdout_is_strict_json(self, manifest, tmp_path, capsys):
        ckpt = tmp_path / "c.bin"
        save_checkpoint(ckpt, init_checkpoint(dim=768, hidden=8, seed=0))
        for tau in ([], ["--tau", "0.5"]):
            code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                     "--manifest", str(manifest), *tau)
            assert code == 0, err
            json.loads(out, parse_constant=reject_constant)

    def test_records_and_encoder_released_before_training(
            self, manifest, tmp_path, monkeypatch):
        """By the first step, training holds the encoded clips only: no
        manifest record (train or validation) and no encoder is alive."""
        alive = []  # weak references to every record and encoder made

        class TrackedEncoder(StubEncoder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))

        def tracked_read(path, _read=datakit.read_manifest):
            records = _read(path)
            alive.extend(weakref.ref(r) for r in records)
            return records

        steps = []

        def checked_objective(*args, _objective=trainer.batch_objective, **kwargs):
            if not steps:
                steps.append([ref() for ref in alive if ref() is not None])
            return _objective(*args, **kwargs)

        monkeypatch.setattr(cli, "StubEncoder", TrackedEncoder)
        monkeypatch.setattr(datakit, "read_manifest", tracked_read)
        monkeypatch.setattr(trainer, "batch_objective", checked_objective)
        code, err = run_quiet([*self.train_args(manifest, tmp_path / "c.bin"),
                               "--val-manifest", manifest])
        assert code == 0, err
        assert len(alive) == 1 + 2 * 24  # the encoder and both manifests' records
        assert steps == [[]]


def reject_constant(name):
    """``json.loads``'s ``parse_constant``: NaN and Infinity are not JSON."""
    raise ValueError(f"stdout holds {name}, which strict JSON has no value for")


def assert_peak_flat_in_clips(tmp_path, *command):
    """The traced peak of ``command`` at D=768 over 64, 128 and 1,280 clips.
    From 64 to 128 clips it grows by the second chunk, which is scored while
    the first is still referenced (about 5 MB); from 128 to 1,280 it must not
    grow, as it would by every clip's frames if the manifest were held."""
    ckpt = tmp_path / "c.bin"
    save_checkpoint(ckpt, init_checkpoint(dim=768, hidden=16, gamma=10.0,
                                          seed=0, zero_first_layer=False))
    peaks = []
    for n in (64, 128, 1280):
        path = tmp_path / f"{n}.jsonl"
        assert run_quiet(["synth", "--n-normal", n // 2, "--n-collision",
                          n // 2, "--dim", 8, "-o", path])[0] == 0
        tracemalloc.start()
        try:
            code, err = run_quiet([*command, "--checkpoint", ckpt,
                                   "--manifest", path])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert peaks[2] - peaks[0] <= 6 * 2 ** 20, peaks
    assert peaks[2] - peaks[1] <= 2 ** 18, peaks


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A small manifest and the bytes of a valid D=6, H=4 checkpoint."""
    root = tmp_path_factory.mktemp("reader")
    manifest = root / "m.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["synth", "--n-normal", "3", "--n-collision", "3",
                    "--dim", "8", "--seed", "0", "-o", str(manifest)]) == 0
    save_checkpoint(root / "good.bin", init_checkpoint(
        dim=6, hidden=4, gamma=7.5, seed=42, zero_first_layer=False))
    return root, manifest, (root / "good.bin").read_bytes()


def run_quiet(argv):
    """``cli.run`` with stdout dropped: (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, err.getvalue()


def assert_one_error_line(err, *parts):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for part in parts:
        assert re.search(part, err), err


def eval_bytes(root, manifest, data):
    """``vlaad eval`` on a checkpoint file holding ``data``: (code, stderr, path)."""
    path = root / "ckpt.bin"
    path.write_bytes(data)
    code, err = run_quiet(["eval", "--checkpoint", path, "--manifest", manifest])
    return code, err, path


class TestCheckpointReader:
    """Malformed checkpoints exit 2 with one error line naming path and byte."""

    HEADER = struct.Struct("<4sIIIdQI")  # 36 bytes; the good file has 304

    def assert_rejected(self, eval_inputs, data, pattern):
        code, err, path = eval_bytes(*eval_inputs[:2], data)
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err and re.search(pattern, err), err

    def test_dims_overflowing_int64(self, eval_inputs):
        good = eval_inputs[2]
        header = self.HEADER.pack(b"VLAD", 1, 4_000_000_000, 4_000_000_000,
                                  7.5, 42, 13)
        self.assert_rejected(eval_inputs, header + good[36:],
                             r"truncated .* ends at byte 304$")

    def test_large_dims_read_nothing(self, eval_inputs):
        good = eval_inputs[2]
        header = self.HEADER.pack(b"VLAD", 1, 4000, 4000, 7.5, 42, 13)
        tracemalloc.start()
        try:
            self.assert_rejected(eval_inputs, header + good[36:],
                                 r"truncated .* ends at byte 304$")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20  # w1 alone would be 64 MB

    def test_zero_dim(self, eval_inputs):
        header = self.HEADER.pack(b"VLAD", 1, 0, 4, 7.5, 42, 13)
        self.assert_rejected(eval_inputs, header + bytes(4 * 7), r"D=0 at byte 8")

    @pytest.mark.parametrize("gamma", [9.9e-7, 1e-300])
    def test_gamma_below_bound(self, eval_inputs, gamma):
        """A header gamma this small would pool every clip to its max."""
        header = self.HEADER.pack(b"VLAD", 1, 6, 4, gamma, 42, 13)
        self.assert_rejected(eval_inputs, header + eval_inputs[2][36:],
                             re.escape(f"gamma {gamma} at byte 16 must be finite "
                                       f"and >= 1e-06") + "$")

    def test_body_cut_mid_float(self, eval_inputs):
        self.assert_rejected(eval_inputs, eval_inputs[2][:-2],
                             r"truncated .* byte 304, .* ends at byte 302$")

    def test_trailing_bytes(self, eval_inputs):
        self.assert_rejected(eval_inputs, eval_inputs[2] + b"\0",
                             r"trailing bytes .* byte 304, .* ends at byte 305$")

    HEADER_FIELDS = {  # strategies for each field of HEADER, in order
        "magic": st.binary(min_size=4, max_size=4),
        "version": st.integers(0, 2 ** 32 - 1),
        "dim": st.one_of(st.just(0), st.integers(1, 16), st.integers(0, 2 ** 32 - 1)),
        "hidden": st.one_of(st.just(0), st.integers(1, 16), st.integers(0, 2 ** 32 - 1)),
        "gamma": st.floats(width=64),
        "seed": st.integers(0, 2 ** 64 - 1),
        "epoch": st.integers(0, 2 ** 32 - 1),
    }

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fuzz_truncate_extend_bitflip(self, eval_inputs, data):
        """Cut, extended, bit-flipped or header-rewritten checkpoints: eval
        exits 0, or 2 with one error line naming the path and a byte."""
        root, manifest, good = eval_inputs
        kind = data.draw(st.sampled_from(["truncate", "extend", "flip", "header"]))
        if kind == "truncate":
            blob = good[:data.draw(st.integers(0, len(good) - 1))]
        elif kind == "extend":
            blob = good + data.draw(st.binary(min_size=1, max_size=64))
        elif kind == "flip":
            blob = bytearray(good)
            for bit in data.draw(st.lists(st.integers(0, 8 * len(good) - 1),
                                          min_size=1, max_size=3)):
                blob[bit // 8] ^= 1 << (bit % 8)
        else:
            fields = list(self.HEADER.unpack(good[:36]))
            i = data.draw(st.integers(0, len(fields) - 1))
            fields[i] = data.draw(list(self.HEADER_FIELDS.values())[i])
            blob = self.HEADER.pack(*fields) + good[36:]
        code, err, path = eval_bytes(root, manifest, bytes(blob))
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(path) in err and re.search(r"\bbyte \d+", err), err


@pytest.fixture(scope="module")
def cache_inputs(eval_inputs):
    """``eval_inputs`` plus the bytes of a valid D=6 cache for its manifest."""
    root, manifest, _ = eval_inputs
    stub = StubEncoder(dim=6, seed=42)
    entries = {}
    for rec in read_manifest(manifest):
        for i, row in enumerate(segment_clip(rec, 8, 8, stub).snippets):
            entries[f"{rec.clip_id}:{i}"] = row
        entries[rec.caption.strip()] = stub.encode_text(rec.caption).values
    write_embedding_cache(root / "good.vlec", entries, dim=6)
    return root, manifest, (root / "good.vlec").read_bytes()


def eval_cache_bytes(root, manifest, data):
    """``vlaad eval`` with an embedding cache holding ``data``: (code, stderr, path)."""
    path = root / "cache.vlec"
    path.write_bytes(data)
    code, err = run_quiet(["eval", "--checkpoint", root / "good.bin", "--manifest",
                           manifest, "--embedding-cache", path])
    return code, err, path


class TestEmbeddingCacheReader:
    """Malformed caches exit 2 with one error line naming path and byte."""

    def assert_rejected(self, cache_inputs, data, pattern):
        code, err, path = eval_cache_bytes(*cache_inputs[:2], data)
        assert code == 2, err
        assert_one_error_line(err, re.escape(str(path)), pattern)

    def test_valid_cache_scores(self, cache_inputs):
        code, err, _ = eval_cache_bytes(*cache_inputs)
        assert code == 0, err

    def test_header_cut_short(self, cache_inputs):
        self.assert_rejected(cache_inputs, cache_inputs[2][:10],
                             r"truncated embedding cache header at byte 10 of 20$")

    def test_body_cut_mid_float(self, cache_inputs):
        good = cache_inputs[2]
        self.assert_rejected(cache_inputs, good[:-2],
                             rf"truncated .* record \d+ at byte \d+: .* "
                             rf"ends at byte {len(good) - 2}$")

    def test_count_beyond_file_size(self, cache_inputs):
        good = cache_inputs[2]
        data = good[:12] + struct.pack("<Q", 10 ** 12) + good[20:]
        self.assert_rejected(cache_inputs, data,
                             rf"count 1000000000000 at byte 12 .* ends at "
                             rf"byte {len(good)}$")

    def test_trailing_bytes(self, cache_inputs):
        good = cache_inputs[2]
        self.assert_rejected(cache_inputs, good + b"\0",
                             rf"trailing bytes .* end at byte {len(good)}, .* "
                             rf"ends at byte {len(good) + 1}$")

    def test_zero_dim(self, cache_inputs):
        good = cache_inputs[2]
        self.assert_rejected(cache_inputs, good[:8] + bytes(4) + good[12:],
                             r"D=0 at byte 8")

    def test_bad_magic_and_version(self, cache_inputs):
        good = cache_inputs[2]
        self.assert_rejected(cache_inputs, b"VLAD" + good[4:],
                             r"not an embedding cache file: bad magic b'VLAD' at byte 0$")
        self.assert_rejected(cache_inputs, good[:4] + struct.pack("<I", 2) + good[8:],
                             r"unsupported embedding cache version 2 at byte 4$")

    def test_id_not_utf8(self, cache_inputs):
        data = bytearray(cache_inputs[2])
        data[22] = 0xFF  # first byte of the first record's id
        self.assert_rejected(cache_inputs, bytes(data),
                             r"record 0 id at byte 22 is not UTF-8")

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_value(self, cache_inputs, value):
        data = bytearray(cache_inputs[2])
        second = 22 + int.from_bytes(data[20:22], "little") + 4 * 6
        at = second + 2 + int.from_bytes(data[second:second + 2], "little")
        data[at + 12:at + 16] = np.float32(value).tobytes()  # its fourth value
        self.assert_rejected(cache_inputs, bytes(data),
                             rf"record 1 at byte {second} has a non-finite value$")

    def test_missing_window_id(self, cache_inputs):
        root, manifest, _ = cache_inputs
        rows, vectors, dim = read_embedding_cache_whole(root / "good.vlec")
        missing = f"{read_manifest(manifest)[0].clip_id}:2"
        write_embedding_cache(root / "short.vlec", {k: vectors[i] for k, i in
                                                    rows.items() if k != missing}, dim)
        code, err, _ = eval_cache_bytes(root, manifest,
                                        (root / "short.vlec").read_bytes())
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"embedding id {missing!r} not present"))

    def test_clip_mode_on_snippet_cache(self, cache_inputs):
        """``clip_id:clip`` is not in a cache of snippet ids: one error line
        names the manifest line, the clip, the cache and the missing id."""
        root, manifest, good = cache_inputs
        path = root / "cache.vlec"
        path.write_bytes(good)
        code, err = run_quiet(["eval", "--checkpoint", root / "good.bin",
                               "--manifest", manifest, "--mode", "clip",
                               "--embedding-cache", path])
        clip = read_manifest(manifest)[0].clip_id
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(
            f"error: {manifest}: manifest line 1: clip {clip}: {path}: "
            f"embedding id '{clip}:clip' not present in cache") + "$")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fuzz_truncate_extend_bitflip(self, cache_inputs, data):
        root, manifest, good = cache_inputs
        kind = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
        if kind == "truncate":
            blob = good[:data.draw(st.integers(0, len(good) - 1))]
        elif kind == "extend":
            blob = good + data.draw(st.binary(min_size=1, max_size=64))
        else:
            blob = bytearray(good)
            for bit in data.draw(st.lists(st.integers(0, 8 * len(good) - 1),
                                          min_size=1, max_size=3)):
                blob[bit // 8] ^= 1 << (bit % 8)
        code, err, _ = eval_cache_bytes(root, manifest, bytes(blob))
        assert code in (0, 2), err
        if code == 2:
            assert_one_error_line(err)


def padded_cache(entries, path, extra, dim, seed=0):
    """A cache of ``entries`` followed by ``extra`` records no clip asks for."""
    rng = np.random.default_rng(seed)
    pad = rng.standard_normal((extra, dim)).astype(np.float32)
    write_embedding_cache(path, [*entries.items(),
                                 *((f"pad:{i}", v) for i, v in enumerate(pad))], dim)
    return path


def scan_outcome(path):
    """The cache scan's index as {id: vector bytes}, or its error text; the
    same for the whole-file oracle."""
    data = Path(path).read_bytes()
    outcomes = []
    try:
        offsets, dim = embeddings.read_embedding_cache(path)
        outcomes.append({k: data[at:at + 4 * dim] for k, at in offsets.items()})
    except ValidationError as exc:
        outcomes.append(str(exc))
    try:
        rows, vectors, _ = read_embedding_cache_whole(path)
        outcomes.append({k: vectors[i].tobytes() for k, i in rows.items()})
    except ValidationError as exc:
        outcomes.append(str(exc))
    return outcomes


@pytest.fixture(scope="module")
def padded_inputs(cache_inputs):
    """``cache_inputs`` with 6,000 unused D=6 records appended (about 200 KB,
    more than one scan block when blocks are at their smallest)."""
    root, manifest, good = cache_inputs
    rows, vectors, dim = read_embedding_cache_whole(root / "good.vlec")
    path = padded_cache({k: vectors[i] for k, i in rows.items()},
                        root / "padded.vlec", 6000, dim)
    return root, manifest, path.read_bytes()


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestCacheIndex:
    """Commands hold an id -> offset index of the cache and read vectors per
    clip; the scan checks what the whole-file reader checked, and a served
    block is checked again."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scan_agrees_with_whole_file_oracle(self, padded_inputs, data):
        """Byte mutations: the scan and the whole-file oracle accept the same
        files, serve the same vectors, and reject the rest with the same
        text, whether the scan takes the file in one block or in several."""
        root, manifest, good = padded_inputs
        kind = data.draw(st.sampled_from(["truncate", "extend", "flip", "set",
                                          "non_finite"]))
        blob = bytearray(good)
        if kind == "truncate":
            blob = blob[:data.draw(st.integers(0, len(good) - 1))]
        elif kind == "extend":
            blob += data.draw(st.binary(min_size=1, max_size=64))
        elif kind == "flip":
            for bit in data.draw(st.lists(st.integers(0, 8 * len(good) - 1),
                                          min_size=1, max_size=3)):
                blob[bit // 8] ^= 1 << (bit % 8)
        elif kind == "set":
            at = data.draw(st.integers(0, len(good) - 1))
            blob[at] = data.draw(st.integers(0, 255))
        else:
            at = data.draw(st.integers(20, len(good) - 4))
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            blob[at:at + 4] = np.float32(value).tobytes()
        path = root / "mutated.vlec"
        path.write_bytes(bytes(blob))
        block = data.draw(st.sampled_from([0, embeddings._SCAN_BLOCK_BYTES]))
        with mock.patch.object(embeddings, "_SCAN_BLOCK_BYTES", block):
            scanned, whole = scan_outcome(path)
        assert scanned == whole
        code, err = run_quiet(["eval", "--checkpoint", root / "good.bin",
                               "--manifest", manifest, "--embedding-cache", path])
        assert code in (0, 2), err
        if code == 2:
            assert_one_error_line(err)

    @pytest.mark.parametrize("record", [0, 3000, -1])
    def test_non_finite_record_in_any_block(self, padded_inputs, tmp_path, record):
        """Blocks at their smallest: the scan names the record and the byte
        the oracle names, in the first block, a middle one or the last."""
        root, _, good = padded_inputs
        offsets, _ = embeddings.read_embedding_cache(root / "padded.vlec")
        at = list(offsets.values())[record] + 4
        blob = bytearray(good)
        blob[at:at + 4] = np.float32(np.nan).tobytes()
        path = tmp_path / "c.vlec"
        path.write_bytes(bytes(blob))
        with mock.patch.object(embeddings, "_SCAN_BLOCK_BYTES", 0):
            scanned, whole = scan_outcome(path)
        assert re.search(r"record \d+ at byte \d+ has a non-finite value$", whole)
        assert scanned == whole

    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("edge", ["length", "id", "vector"])
    def test_block_edge_inside_a_record(self, tmp_path, edge, nan):
        """Blocks at their smallest (one longest record): the first block
        ends inside record 1's length prefix, id or vector, with or without
        a NaN in the value the edge cuts (or the first value past it); the
        scan re-reads record 1 from its start and gives the oracle's index
        or error text."""
        dim, header = 4, embeddings._CACHE_HEADER.size
        block = 2 + 0xFFFF + 4 * dim
        into = {"length": 1, "id": 2 + 3, "vector": 2 + 5 + 6}[edge]
        start1 = header + block - into  # record 1 starts here
        entries = [("a" * (start1 - header - 2 - 4 * dim), np.ones(dim)),
                   ("bbbbb", np.arange(dim) + 1.0),
                   *((f"z:{i}", np.full(dim, i + 1.0)) for i in range(3))]
        path = tmp_path / "edge.vlec"
        write_embedding_cache(path, entries, dim)
        if nan:
            with open(path, "r+b") as fh:
                fh.seek(start1 + 2 + 5 + 4)  # record 1's second value
                fh.write(np.float32(np.nan).tobytes())
        with mock.patch.object(embeddings, "_SCAN_BLOCK_BYTES", 0), \
                mock.patch.object(embeddings.os, "pread",
                                  wraps=os.pread) as pread:
            scanned, whole = scan_outcome(path)
        reads = [call.args[1:] for call in pread.call_args_list]
        assert reads[1:3] == [(block, header), (block, start1)]
        assert scanned == whole
        if nan:
            assert whole.endswith(f"embedding cache record 1 at byte {start1} "
                                  f"has a non-finite value")
        else:
            assert list(whole) == ["a" * len(entries[0][0]), "bbbbb",
                                   "z:0", "z:1", "z:2"]

    @pytest.mark.parametrize("change", ["nan", "cut"])
    def test_served_block_checked_again(self, cache_inputs, tmp_path,
                                        monkeypatch, change):
        """The file changes in place after the scan built its index: serving
        exits 2 naming the path and the byte, on the same open file."""
        root, manifest, good = cache_inputs
        path = tmp_path / "c.vlec"
        path.write_bytes(good)
        offsets, dim = embeddings.read_embedding_cache(path)
        key = f"{read_manifest(manifest)[2].clip_id}:1"
        at = offsets[key] + 4 * 3  # the fourth value of that window
        scan = embeddings.read_embedding_cache

        def scan_then_change(*args):
            index = scan(*args)
            if change == "nan":
                with open(path, "r+b") as fh:
                    fh.seek(at)
                    fh.write(np.float32(np.nan).tobytes())
            else:
                os.truncate(path, at)
            return index

        monkeypatch.setattr(embeddings, "read_embedding_cache", scan_then_change)
        code, err = run_quiet(["eval", "--checkpoint", root / "good.bin",
                               "--manifest", manifest, "--embedding-cache", path])
        assert code == 2, err
        message = (rf"embedding cache value at byte {at} is not finite; the "
                   rf"file changed after it was read$" if change == "nan" else
                   rf"embedding cache read at byte \d+ needs \d+ bytes, but the "
                   rf"file now ends at byte {at}$")
        assert_one_error_line(err, "^error: " + re.escape(f"{path}: ") + message)

    def test_eval_memory_flat_in_cache_padding(self, tmp_path):
        """A cache with 10x records no clip asks for raises eval's peak by
        its index only; reading the whole cache would add 3 MB at D=1,024."""
        dim = 1024
        ckpt = tmp_path / "c.bin"
        save_checkpoint(ckpt, init_checkpoint(dim=dim, hidden=8, gamma=10.0,
                                              seed=0, zero_first_layer=False))
        manifest = tmp_path / "m.jsonl"
        assert run_quiet(["synth", "--n-normal", 8, "--n-collision", 8,
                          "--dim", 8, "-o", manifest])[0] == 0
        exact = stub_cache(manifest, tmp_path / "exact.vlec", dim=dim)
        rows, vectors, _ = read_embedding_cache_whole(exact)
        padded = padded_cache({k: vectors[i] for k, i in rows.items()},
                              tmp_path / "padded.vlec", 10 * len(rows), dim)
        peaks = []
        for cache in (exact, padded):
            tracemalloc.start()
            try:
                code, err = run_quiet(["eval", "--checkpoint", ckpt, "--manifest",
                                       manifest, "--embedding-cache", cache])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        assert peaks[1] - peaks[0] <= 2 ** 20, peaks

    def test_score_memory_bounded_by_output(self, tmp_path):
        """score keeps its output lines and three columns, not the records."""
        runs = tmp_path / "runs.jsonl"
        rng = np.random.default_rng(0)
        with open(runs, "w", encoding="utf-8") as fh:
            for i in range(5000):
                fh.write(json.dumps({
                    "route_id": f"route-{i:05d}", "km": float(rng.uniform(0.5, 5)),
                    "route_completion": float(rng.uniform(40, 100)),
                    "infractions": {"vehicle": int(rng.integers(0, 3)),
                                    "red_light": int(rng.integers(0, 2))},
                    "coefficients": {"vehicle": 0.7, "red_light": 0.4}}) + "\n")
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = run(["score", "--runs", str(runs)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        size = len(out.getvalue())
        assert peak <= 2 * size + 2 ** 19, (peak, size)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    @pytest.mark.parametrize("case", ["eval", "trace", "train", "missing_id",
                                      "bad_cache", "clip_not_found"])
    def test_no_descriptor_left_open(self, cache_inputs, tmp_path, case):
        """The cache file is closed when the command ends, also when it
        fails while scanning, while serving, or after serving."""
        root, manifest, good = cache_inputs
        cache = tmp_path / "c.vlec"
        cache.write_bytes(good + b"\0" if case == "bad_cache" else good)
        if case == "missing_id":
            rows, vectors, dim = read_embedding_cache_whole(cache)
            missing = f"{read_manifest(manifest)[3].clip_id}:0"
            write_embedding_cache(cache, {k: vectors[i] for k, i in rows.items()
                                          if k != missing}, dim)
        common = ["--manifest", manifest, "--embedding-cache", cache]
        scored = ["--checkpoint", root / "good.bin", *common]
        argv = {"train": ["train", *common, "-o", tmp_path / "m.bin", "--set",
                          "embed_dim=6", "--set", "hidden_dim=4", "--set",
                          "epochs=1"],
                "trace": ["trace", *scored, "-o", tmp_path / "t.csv"],
                "clip_not_found": ["trace", *scored, "--clip-id", "nope",
                                   "-o", tmp_path / "t.csv"],
                }.get(case, ["eval", *scored])
        before = open_fds()
        code, err = run_quiet(argv)
        assert code == (0 if case in ("eval", "trace", "train") else 2), err
        assert open_fds() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    @pytest.mark.parametrize("command", ["eval", "trace", "train"])
    def test_cache_dim_differs_exit_2(self, cache_inputs, tmp_path, command):
        """A cache whose D differs from the checkpoint's (or the config's
        embed_dim) is refused before any clip is scored, naming the cache
        and both dims, and its file is closed."""
        root, manifest, _ = cache_inputs
        cache = tmp_path / "d4.vlec"
        write_embedding_cache(cache, {"c:0": np.ones(4)}, dim=4)
        ckpt = root / "good.bin"
        common = ["--manifest", manifest, "--embedding-cache", cache]
        argv = {"eval": ["eval", "--checkpoint", ckpt, *common],
                "trace": ["trace", "--checkpoint", ckpt, *common,
                          "-o", tmp_path / "t.csv"],
                "train": ["train", *common, "-o", tmp_path / "m.bin",
                          "--set", "embed_dim=6"]}[command]
        named = "embed_dim" if command == "train" else f"the dim of checkpoint {ckpt}"
        before = open_fds()
        code, err = run_quiet(argv)
        assert code == 2
        assert_one_error_line(err, "^" + re.escape(
            f"error: {cache}: embedding cache has D=4, but {named} is 6") + "$")
        assert open_fds() == before
        assert not (tmp_path / "t.csv").exists()


def write_frames(root, case):
    """A frames file for ``case``; every case but "valid" is malformed."""
    feats = np.random.default_rng(0).standard_normal((40, 8)).astype(np.float32)
    path = root / f"{case}.npy"
    if case == "nan":
        feats[17, 3] = np.nan
    elif case == "zero":
        feats[:] = 0.0
    elif case == "one_dim":
        feats = feats[0]
    elif case == "three_dim":
        feats = feats[None]
    elif case == "npz":
        path = root / "frames.npz"
        np.savez(path, feats=feats)
        return path
    if case == "missing":
        return path
    np.save(path, feats)
    if case == "header_cut":
        path.write_bytes(path.read_bytes()[:20])
    elif case == "body_cut":
        path.write_bytes(path.read_bytes()[:-7])
    elif case == "empty":
        path.write_bytes(b"")
    return path


class TestFramesPathReader:
    """A manifest's frames file must hold a finite (F, dim) array; otherwise
    eval and trace exit 2 with one error line naming the clip and the file."""

    MESSAGES = {
        "nan": r"non-finite features$",
        "zero": r"projected window has \(near-\)zero norm; refusing to emit NaN$",
        "one_dim": r"must be \(F, dim\) with F >= 1, got shape \(8,\)$",
        "three_dim": r"must be \(F, dim\) with F >= 1, got shape \(1, 40, 8\)$",
        "header_cut": r"EOF: reading array header",
        "body_cut": r"mmap length is greater than file size$",
        "empty": r"No data left in file$",
        "npz": r"an \.npz archive, not one \.npy array$",
        "missing": r"\[Errno 2\] No such file or directory",
    }

    def run_on(self, eval_inputs, tmp_path, case, *argv):
        root, good_manifest = eval_inputs[:2]
        frames = write_frames(tmp_path, case)
        manifest = tmp_path / "m.jsonl"
        caption = read_manifest(good_manifest)[0].caption  # one the cache holds
        write_manifest([ClipRecord("ext0", frames_path=str(frames), label=0,
                                   caption=caption)], manifest)
        common = ["--checkpoint", root / "good.bin", "--manifest", manifest]
        if argv[0] == "trace":
            argv = (*argv, "-o", tmp_path / "t.csv")
        code, err = run_quiet([*argv, *common])
        return code, err, frames

    @pytest.mark.parametrize("command", [("eval",), ("trace",)])
    @pytest.mark.parametrize("case", list(MESSAGES))
    def test_malformed_frames_exit_2(self, eval_inputs, tmp_path, case, command):
        code, err, frames = self.run_on(eval_inputs, tmp_path, case, *command)
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"clip ext0: frames file {frames}: "),
                              self.MESSAGES[case])

    def test_non_finite_frames_with_cache_encoder(self, cache_inputs, tmp_path):
        root = cache_inputs[0]
        code, err, frames = self.run_on(
            cache_inputs, tmp_path, "nan", "eval", "--embedding-cache",
            root / "good.vlec")
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"clip ext0: frames file {frames}: "),
                              self.MESSAGES["nan"])

    def test_valid_frames_trace(self, eval_inputs, tmp_path):
        code, err, _ = self.run_on(eval_inputs, tmp_path, "valid", "trace")
        assert code == 0, err
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 5

    def test_header_claiming_more_than_the_file_holds(self, eval_inputs, tmp_path):
        """A header that claims 512 GiB of frames: the frames file is mapped,
        not read, so ``eval`` in a child process held to 3 GiB of address
        space exits 2 naming the clip and the file, not with a MemoryError."""
        frames = tmp_path / "huge.npy"
        with open(frames, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f4", "fortran_order": False, "shape": (1 << 30, 128)})
            fh.write(bytes(64))
        manifest = tmp_path / "m.jsonl"
        write_manifest([ClipRecord("ext0", frames_path=str(frames), label=0)], manifest)
        limit = 3 << 30
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(vlaad.__file__).resolve().parents[1])]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "vlaad.cli", "eval", "--checkpoint",
             str(eval_inputs[0] / "good.bin"), "--manifest", str(manifest)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr
        assert_one_error_line(proc.stderr, re.escape(f"clip ext0: frames file {frames}: "),
                              r"mmap length is greater than file size$")

    def test_snippet_longer_than_the_clip_names_the_file(self, eval_inputs, tmp_path):
        code, err, frames = self.run_on(eval_inputs, tmp_path, "valid", "trace",
                                        "--snippet-len", "100")
        assert code == 2, err
        assert_one_error_line(err, re.escape(
            f"clip ext0: frames file {frames} has 40 frames, fewer than "
            "snippet_len 100") + "$")


def inline_manifest(path, n, edits=()):
    """``n`` inline external clips ``c0``..., 40 frames of width 3, labels
    alternating; ``edits`` maps a 1-based line number to a function of that
    line's JSON object."""
    write_manifest([make_clip(f"c{i}", feat_dim=3, label=i % 2,
                              collision_frame=4 if i % 2 else None, seed=i)
                    for i in range(n)], path)
    lines = path.read_text().splitlines()
    for lineno, edit in dict(edits).items():
        obj = json.loads(lines[lineno - 1])
        edit(obj)
        lines[lineno - 1] = json.dumps(obj)
    path.write_text("".join(line + "\n" for line in lines))
    return path


def nan_frame(obj):
    """Make one value of a line's inline frame matrix NaN, in valid base64."""
    feats = np.frombuffer(base64.b64decode(obj["frames"]["b64"]), "<f4").copy()
    feats[7] = np.nan
    obj["frames"]["b64"] = base64.b64encode(feats.tobytes()).decode()


def set_in(keys, value):
    """An edit that sets ``obj[k0][k1]...`` to ``value``."""
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    return edit


@pytest.fixture(scope="module")
def inline_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("inline") / "c.bin"
    save_checkpoint(path, init_checkpoint(dim=16, hidden=8, gamma=10.0, seed=0,
                                          zero_first_layer=False))
    return path


def stub_cache(manifest, path, dim=16, seed=0):
    """A cache of the stub encoder's window vectors for every clip of a
    valid manifest."""
    stub = StubEncoder(dim=dim, seed=seed)
    entries = {}
    for rec in read_manifest(manifest):
        for i, row in enumerate(segment_clip(rec, 8, 8, stub).snippets):
            entries[f"{rec.clip_id}:{i}"] = row
    write_embedding_cache(path, entries, dim=dim)
    return path


class TestInlineFrames:
    """Inline frames are decoded when a clip is encoded with the stub, never
    for the cache encoder; every other field is checked as its line is read."""

    @pytest.mark.parametrize("command", ["eval", "trace", "train"])
    def test_bad_matrix_of_an_encoded_clip_names_file_line_clip(
            self, tmp_path, inline_ckpt, command):
        manifest = inline_manifest(tmp_path / "m.jsonl", 6, {3: nan_frame})
        argv = {"eval": ["eval", "--checkpoint", inline_ckpt],
                "trace": ["trace", "--checkpoint", inline_ckpt,
                          "-o", tmp_path / "t.csv"],
                "train": ["train", "-o", tmp_path / "c.bin", "--set",
                          "embed_dim=16", "--set", "epochs=1"]}[command]
        code, err = run_quiet([*argv, "--manifest", manifest])
        assert code == 2, err
        assert_one_error_line(err, re.escape(
            f"{manifest}: manifest line 3: clip c2: non-finite features") + "$")

    def test_snippet_longer_than_the_clip_names_file_line_clip(
            self, tmp_path, inline_ckpt):
        manifest = inline_manifest(tmp_path / "m.jsonl", 3)
        code, err = run_quiet(["trace", "--checkpoint", inline_ckpt, "--manifest",
                               manifest, "-o", tmp_path / "t.csv", "--snippet-len", "100"])
        assert code == 2, err
        assert_one_error_line(err, re.escape(
            f"{manifest}: manifest line 1: clip c0 has 40 frames, fewer than "
            "snippet_len 100") + "$")

    @pytest.mark.parametrize("edit, message", [
        (set_in(["frames", "b64"], "AAAA"),
         "need 480 bytes, but their b64 holds at most 3$"),
        (set_in(["frames", "b64"], "A" * 656),
         "clip c1: cannot reshape array of size 123 into shape \\(40, ?3\\)$"),
        (set_in(["frames", "b64"], "A" * 641),
         "clip c1: Invalid base64-encoded string"),
    ])
    def test_undecodable_matrix(self, tmp_path, inline_ckpt, edit, message):
        manifest = inline_manifest(tmp_path / "m.jsonl", 2, {2: edit})
        code, err = run_quiet(["eval", "--checkpoint", inline_ckpt,
                               "--manifest", manifest])
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"{manifest}: manifest line 2: "),
                              message)

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_cache_encoder_never_decodes(self, tmp_path, inline_ckpt, command):
        """With --embedding-cache no frame is read, so a NaN inline matrix
        goes unseen and the output equals the valid manifest's."""
        good = inline_manifest(tmp_path / "good.jsonl", 6)
        bad = inline_manifest(tmp_path / "bad.jsonl", 6, {3: nan_frame})
        cache = stub_cache(good, tmp_path / "e.vlec")
        outs = []
        for manifest in (good, bad):
            out = tmp_path / f"{manifest.stem}.csv"
            argv = [command, "--checkpoint", inline_ckpt, "--manifest", manifest,
                    "--embedding-cache", cache]
            code, err = run_quiet([*argv, "-o", out] if command == "trace" else argv)
            assert code == 0, err
            outs.append(out.read_bytes() if command == "trace" else err)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_all_zero_matrix_names_file_line_clip(self, tmp_path, inline_ckpt,
                                                  command):
        """The stub cannot normalize a window of zero frames; the error names
        where the clip came from, not only the window."""
        zeros = set_in(["frames", "b64"], "A" * 640)  # 40 x 3 float32 zeros
        manifest = inline_manifest(tmp_path / "m.jsonl", 3, {2: zeros})
        argv = [command, "--checkpoint", inline_ckpt, "--manifest", manifest]
        code, err = run_quiet([*argv, "-o", tmp_path / "t.csv"]
                              if command == "trace" else argv)
        assert code == 2, err
        assert_one_error_line(err, re.escape(
            f"{manifest}: manifest line 2: clip c1: projected window has "
            f"(near-)zero norm; refusing to emit NaN") + "$")

    def test_ingest_checks_every_matrix(self, tmp_path):
        manifest = inline_manifest(tmp_path / "m.jsonl", 4, {4: nan_frame})
        code, err = run_quiet(["ingest", "--manifest", manifest,
                               "-o", tmp_path / "re.jsonl"])
        assert code == 2, err
        assert_one_error_line(err, re.escape(
            f"{manifest}: manifest line 4: clip c3: non-finite features") + "$")

    def test_clip_id_decodes_only_its_clip(self, tmp_path, inline_ckpt):
        """trace --clip-id reads and checks every line, but decodes only the
        clip it traces."""
        manifest = inline_manifest(tmp_path / "m.jsonl", 3, {3: nan_frame})
        argv = ["trace", "--checkpoint", inline_ckpt, "--manifest", manifest,
                "-o", tmp_path / "t.csv"]
        code, err = run_quiet([*argv, "--clip-id", "c0"])
        assert code == 0, err
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 5
        code, err = run_quiet([*argv, "--clip-id", "c2"])
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"{manifest}: manifest line 3: clip c2: "))

    @pytest.mark.parametrize("edit, message", [
        (set_in(["label"], 7), "label must be 0 or 1"),
        (set_in(["frames", "shape"], [4000, 3]),
         "clip c2: inline frames of shape \\[4000, 3\\] need 48000 bytes"),
        (set_in(["frames", "shape"], [40, 0]),
         "clip c2: inline frames shape must be \\[F, dim\\] with F, dim >= 1"),
        (set_in(["frames", "shape"], [40, 3, 1]), "got \\[40, 3, 1\\]$"),
        (set_in(["frames", "shape"], [40.0, 3]), "frames shape must be an integer, got 40.0$"),
        (set_in(["frames", "b64"], 7), "inline frames b64 must be a string, got 7$"),
        (lambda obj: obj["frames"].pop("b64"), "missing key 'b64'$"),
    ])
    def test_clip_id_still_checks_every_line(self, tmp_path, inline_ckpt,
                                             edit, message):
        manifest = inline_manifest(tmp_path / "m.jsonl", 3, {3: edit})
        out = tmp_path / "t.csv"
        code, err = run_quiet(["trace", "--checkpoint", inline_ckpt, "--manifest",
                               manifest, "--clip-id", "c0", "-o", out])
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"{manifest}: manifest line 3: "),
                              message)
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["nan", "missing_file"])
    def test_trace_failure_leaves_previous_outputs(self, tmp_path, inline_ckpt,
                                                   fault):
        """Clip 101 fails after the first chunk of 64 clips was traced: the
        previous CSV and SVG stay byte for byte, and no temporary file is
        left."""
        edit = nan_frame if fault == "nan" else set_in(["frames"], "nope.npy")
        manifest = inline_manifest(tmp_path / "m.jsonl", 150, {101: edit})
        out, svg = tmp_path / "trace.csv", tmp_path / "trace.svg"
        out.write_bytes(b"previous trace\n")
        svg.write_bytes(b"previous plot\n")
        before = sorted(os.listdir(tmp_path))
        code, err = run_quiet(["trace", "--checkpoint", inline_ckpt, "--manifest",
                               manifest, "-o", out, "--plot", svg])
        assert code == 2, err
        assert_one_error_line(err, "clip c100: ")
        assert out.read_bytes() == b"previous trace\n"
        assert svg.read_bytes() == b"previous plot\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_trace_clip_not_found_leaves_previous_csv(self, tmp_path, inline_ckpt):
        manifest = inline_manifest(tmp_path / "m.jsonl", 2)
        out = tmp_path / "t.csv"
        out.write_bytes(b"previous\n")
        code, err = run_quiet(["trace", "--checkpoint", inline_ckpt, "--manifest",
                               manifest, "--clip-id", "c9", "-o", out])
        assert code == 2, err
        assert_one_error_line(err, "clip 'c9' not in manifest$")
        assert out.read_bytes() == b"previous\n"
        assert sorted(os.listdir(tmp_path)) == ["m.jsonl", "t.csv"]

    def test_trace_memory_bounded_by_one_chunk(self, tmp_path):
        """trace streams the manifest and writes each chunk as it is scored."""
        assert_peak_flat_in_clips(tmp_path, "trace", "-o", tmp_path / "t.csv")


class TestLineReaderTypes:
    """Well-formed JSON of the wrong shape exits 2 naming the path and line."""

    def test_manifest_line_not_an_object(self, manifest, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(manifest.read_text().splitlines()[0] + "\n[1,2]\n")
        code, err = run_quiet(["ingest", "--manifest", bad])
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"{bad}: manifest line 2:"))

    def test_run_record_km_not_a_number(self, tmp_path):
        bad = tmp_path / "runs.jsonl"
        bad.write_text(json.dumps({"route_id": "r0", "km": "x",
                                   "route_completion": 50.0}) + "\n")
        code, err = run_quiet(["score", "--runs", bad])
        assert code == 2, err
        assert_one_error_line(err, re.escape(f"{bad}: run record line 1:"))


def ragged_clips(n, seed=0):
    """``n`` external clips of 8 to 40 frames, labels alternating."""
    rng = np.random.default_rng(seed)
    return [make_clip(f"c{i:03d}", n_frames=int(rng.integers(8, 41)),
                      label=i % 2, collision_frame=4 if i % 2 else None, seed=i)
            for i in range(n)]


@pytest.fixture
def trace_ckpt():
    return init_checkpoint(dim=64, hidden=24, gamma=10.0, seed=3,
                           zero_first_layer=False)


class TestTraceKernel:
    """``vlaad trace`` runs eval's stacked kernel over more than one chunk;
    the per-clip path in ``oracles`` checks every value."""

    def test_logits_are_evals(self, tmp_path, trace_ckpt):
        clips = ragged_clips(70)
        rows, ckpt = run_trace(tmp_path, clips, trace_ckpt)
        cfg = TrainConfig(epochs=0, embed_dim=ckpt.dim, hidden_dim=ckpt.hidden,
                          gamma=ckpt.gamma, seed=ckpt.seed)
        examples = prepare_examples(
            clips, StubEncoder(dim=ckpt.dim, seed=ckpt.seed), cfg)
        kernel = np.concatenate([forward_stack(ckpt, examples[s:s + 64], Workspace())
                                 .logits for s in range(0, len(examples), 64)])
        logits = np.array([r[3] for r in rows])
        assert np.array_equal(logits, kernel)
        starts = np.flatnonzero([r[1] == 0 for r in rows])
        pooled, _ = segment_lse_pool(logits, starts, ckpt.gamma)
        assert np.array_equal(sigmoid(pooled), scores_for(ckpt, examples))

    @pytest.mark.parametrize("snippet_len, stride", [(8, 8), (5, 3), (8, 2)])
    def test_matches_per_clip_oracle(self, tmp_path, trace_ckpt, snippet_len,
                                     stride):
        clips = ragged_clips(70, seed=snippet_len + stride)
        rows, ckpt = run_trace(tmp_path, clips, trace_ckpt, "--snippet-len",
                               str(snippet_len), "--stride", str(stride))
        expected = per_clip_trace_rows(
            clips, ckpt, StubEncoder(dim=ckpt.dim, seed=ckpt.seed),
            snippet_len, stride)
        assert [r[:3] for r in rows] == [e[:3] for e in expected]
        np.testing.assert_allclose([r[3:] for r in rows],
                                   [e[3:] for e in expected], rtol=0, atol=1e-12)

    def test_clip_id_matches_per_clip_oracle(self, tmp_path, trace_ckpt):
        clips = ragged_clips(70)
        longest = max(clips[1:], key=lambda c: c.features.shape[0])
        rows, ckpt = run_trace(tmp_path, clips, trace_ckpt, "--clip-id",
                               longest.clip_id)
        expected = per_clip_trace_rows(
            [longest], ckpt, StubEncoder(dim=ckpt.dim, seed=ckpt.seed))
        assert len(rows) == len(expected) > 1
        assert [r[:3] for r in rows] == [e[:3] for e in expected]
        np.testing.assert_allclose([r[3:] for r in rows],
                                   [e[3:] for e in expected], rtol=0, atol=1e-12)

    def test_rows_are_csv_writers(self, tmp_path, trace_ckpt):
        """The trace CSV is byte for byte what ``csv.writer`` writes for its
        rows, clip ids that need quoting included."""
        ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rid", " lead", "ü-ß"]
        clips = [make_clip(cid, n_frames=16 + 8 * i, seed=i)
                 for i, cid in enumerate(ids)]
        rows, _ = run_trace(tmp_path, clips, trace_ckpt)
        assert [r[0] for r in rows if r[1] == 0] == ids
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(TRACE_HEADER)
        writer.writerows(rows)
        assert (tmp_path / "trace.csv").read_bytes() == expected.getvalue().encode()

    def test_empty_manifest_header_only(self, tmp_path, trace_ckpt):
        assert run_trace(tmp_path, [], trace_ckpt)[0] == []
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"clip_id,snippet_index,t_start_s,logit,prob,attention\r\n")


class TestTraceAndPlot:
    def make_ckpt(self, manifest, tmp_path, capsys):
        ckpt = tmp_path / "t.bin"
        code, _, _ = run_cli(capsys, "train", "--manifest", str(manifest),
                             "-o", str(ckpt), "--set", "embed_dim=24",
                             "--set", "hidden_dim=8", "--set", "epochs=1",
                             "--seed", "0")
        assert code == 0
        return ckpt

    def test_trace_csv_and_plot(self, manifest, tmp_path, capsys):
        ckpt = self.make_ckpt(manifest, tmp_path, capsys)
        csv_path = tmp_path / "trace.csv"
        svg_path = tmp_path / "trace.svg"
        code, _, _ = run_cli(capsys, "trace", "--checkpoint", str(ckpt),
                             "--manifest", str(manifest),
                             "--clip-id", "synth-train-n00000",
                             "-o", str(csv_path), "--plot", str(svg_path))
        assert code == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "clip_id,snippet_index,t_start_s,logit,prob,attention"
        assert len(rows) == 6  # header + 5 snippets
        svg = svg_path.read_text()
        assert svg.count('class="marker"') == 5
        assert svg.count("<polyline") == 1

    def test_wide_csv_two_variants(self, tmp_path):
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text(
            "t_start_s,mil,no_mil\n0,0.1,0.3\n2,0.2,0.5\n4,0.9,0.6\n")
        out = tmp_path / "wide.svg"
        assert emit_trace_plot(csv_path, out) == 2
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert svg.count('class="marker"') == 6
        assert ">mil</text>" in svg and ">no_mil</text>" in svg

    @pytest.mark.parametrize("layout", ["trace", "wide"])
    def test_series_names_escaped_in_svg(self, tmp_path, capsys, small_ckpt, layout):
        """A clip id or a wide header name holding ``&``, ``<`` or ``>`` is
        escaped in the legend, and a character no XML may hold (a control
        character, U+FFFE) is shown as U+FFFD, so the SVG is well-formed XML."""
        for case, name, legend in [("markup", "a<b&c>d", "a<b&c>d"),
                                   ("control", "bell\x07\tvt\x0b\ufffe",
                                    "bell\ufffd\tvt\ufffd\ufffd")]:
            root = tmp_path / case
            root.mkdir()
            if layout == "trace":
                manifest, ckpt = root / "m.jsonl", root / "c.bin"
                write_manifest([make_clip(name)], manifest)
                save_checkpoint(ckpt, small_ckpt)
                argv = ["--checkpoint", ckpt, "--manifest", manifest, "-o", root / "t.csv"]
            else:
                wide = root / "wide.csv"
                wide.write_text(f"time,{name},plain\n0,0.1,0.2\n1,0.3,0.4\n")
                argv = ["--from-csv", wide]
            code, _, err = run_cli(capsys, "trace", *map(str, argv),
                                   "--plot", str(root / "t.svg"))
            assert code == 0, err
            legends = [e.text for e in ET.parse(root / "t.svg").getroot()
                       if e.get("class") == "legend"]
            assert legends == ([legend] if layout == "trace" else [legend, "plain"])

    def test_failed_write_leaves_previous_plot(self, tmp_path):
        """The plot writer replaces its own output only once it is whole."""
        csv_path, out = tmp_path / "wide.csv", tmp_path / "wide.svg"
        csv_path.write_text("t_start_s,mil\n0,0.1\n2,0.2\n")
        out.write_bytes(b"previous plot\n")
        with mock.patch("vlaad.plotting.render_series_svg", return_value=None):
            with pytest.raises(TypeError):  # writing None fails mid-file
                emit_trace_plot(csv_path, out)
        assert out.read_bytes() == b"previous plot\n"
        assert sorted(os.listdir(tmp_path)) == ["wide.csv", "wide.svg"]

    def test_temporary_name_beside_output(self, tmp_path):
        """An output is written whole to ``.{name}.{pid}.{8 hex digits}.tmp``
        beside it, then moved over it."""
        out = tmp_path / "out.svg"
        with replace_on_success(out) as tmp:
            assert os.path.dirname(tmp) == str(tmp_path)
            assert re.fullmatch(rf"\.out\.svg\.{os.getpid()}\.[0-9a-f]{{8}}\.tmp",
                                os.path.basename(tmp)), tmp
            Path(tmp).write_bytes(b"plot\n")
        assert out.read_bytes() == b"plot\n"
        assert os.listdir(tmp_path) == ["out.svg"]

    def test_empty_trace_no_file_written(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("clip_id,snippet_index,t_start_s,logit,prob,attention\n")
        out = tmp_path / "out.svg"
        code, _, err = run_cli(capsys, "trace", "--from-csv", str(empty),
                               "--plot", str(out))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", ["empty_manifest", "plot_dir_missing"])
    def test_failed_plot_leaves_output_csv(self, tmp_path, capsys, small_ckpt, case):
        """A trace whose plot fails, refused (exit 2, naming -o) or unwritable
        (exit 1), leaves -o byte for byte and no temporary file."""
        manifest, ckpt = tmp_path / "m.jsonl", tmp_path / "c.bin"
        write_manifest([] if case == "empty_manifest" else [make_clip("c0")], manifest)
        save_checkpoint(ckpt, small_ckpt)
        out = tmp_path / "t.csv"
        svg = tmp_path / ("t.svg" if case == "empty_manifest" else "no_dir/t.svg")
        out.write_bytes(b"previous trace\n")
        code, stdout, err = run_cli(capsys, "trace", "--checkpoint", str(ckpt),
                                    "--manifest", str(manifest), "-o", str(out),
                                    "--plot", str(svg))
        assert stdout == ""
        if case == "empty_manifest":
            assert code == 2
            assert_one_error_line(err, "^" + re.escape(
                f"error: {out}: trace CSV has a header but no data rows") + "$")
        else:
            assert code == 1
            assert_one_error_line(err, "No such file or directory")
        assert out.read_bytes() == b"previous trace\n"
        assert sorted(os.listdir(tmp_path)) == ["c.bin", "m.jsonl", "t.csv"]

    def test_malformed_row_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,mil\n0,0.1\n1,not_a_number\n")
        with pytest.raises(Exception, match="line 3"):
            parse_trace_csv(bad)

    TRACE_LINE = "clip_id,snippet_index,t_start_s,logit,prob,attention\r\n"

    @pytest.mark.parametrize("data, message", [
        # a trace row's prob, then its t_start_s; a wide row's time, then a value
        (TRACE_LINE + "c,0,0.0,0.1,0.5,1.0\r\nc,1,2.0,0.2,nan,1.0\r\n",
         r"non-finite value at line 3$"),
        (TRACE_LINE + "c,0,inf,0.1,0.5,1.0\r\n", r"non-finite value at line 2$"),
        ("t,mil\n0,0.1\n-inf,0.2\n", r"non-finite value at line 3$"),
        ("t,mil\n0,0.1\n1,Infinity\n", r"non-finite value at line 3$"),
        # a quoted clip id that holds a newline: the bad value is on file line 4
        (TRACE_LINE + '"c\nd",0,0.0,0.1,0.5,1.0\r\nc,1,2.0,0.2,high,1.0\r\n',
         r"non-numeric value at line 4$"),
        (b"t,mil\n0,0.1\n1,\xff0.2\n", r"line 3 is not UTF-8: invalid start byte at byte 2 "
         r"of the line$"),
        ("t,a,a\n0,0.1,0.2\n", r"series 'a' repeated in the header at line 1$"),
        ("t,a\n0,0.1\n1," + "2" * 200_000 + "\n",
         r"line 3: field larger than field limit \(131072\)$"),
        (TRACE_LINE, r"trace CSV has a header but no data rows$"),
        ("t\n0\n1\n", r"need a time column plus one series$"),
        ("t,a,b\n0,0.1,0.2\n1,0.3\n", r"malformed row at line 3$"),
        ("", r"empty trace CSV$"),
    ], ids=["trace_prob_nan", "trace_time_inf", "wide_time_minus_inf",
            "wide_value_infinity", "quoted_newline", "not_utf8", "repeated_series",
            "field_too_large", "header_only", "one_column", "short_row", "empty"])
    def test_from_csv_refuses_bad_input(self, tmp_path, capsys, data, message):
        """Each cell is UTF-8 and finite and each wide series is named once;
        else ``trace --from-csv`` exits 2 naming the file and its line, and
        writes no plot."""
        bad, out = tmp_path / "bad.csv", tmp_path / "out.svg"
        bad.write_bytes(data if isinstance(data, bytes) else data.encode())
        code, _, err = run_cli(capsys, "trace", "--from-csv", str(bad), "--plot", str(out))
        assert code == 2
        assert_one_error_line(err, "^" + re.escape(f"error: {bad}: "), message)
        assert not out.exists()

    GOOD_CSVS = (TRACE_LINE + 'c0,0,0.0,-0.5,0.37,0.25\r\n"c,1",0,0.0,0.2,0.55,0.5\r\n'
                 "c0,1,2.0,1.5,0.82,0.75\r\n").encode(), b"t,mil,no_mil\n0,0.1,0.3\n2,0.2,0.5\n"
    INSERTS = (b"\xff", b"\xc3", b"\x00", b'"', b"\r", b"\n", b",", b"nan", b"1e999")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fuzz_from_csv_plot(self, tmp_path_factory, data):
        """Flipped, cut, deleted or inserted bytes in either CSV shape:
        ``trace --from-csv --plot`` writes a well-formed SVG, or exits 2 with
        one error line naming the CSV and leaves the plot path as it was."""
        root = tmp_path_factory.getbasetemp() / "fuzz_from_csv"
        root.mkdir(exist_ok=True)
        blob = bytearray(data.draw(st.sampled_from(self.GOOD_CSVS)))
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["flip", "cut", "delete", "insert"]))
            at = data.draw(st.integers(0, len(blob)))
            if kind == "flip" and at < len(blob):
                blob[at] ^= 1 << data.draw(st.integers(0, 7))
            elif kind == "cut":
                del blob[at:]
            elif kind == "delete":
                del blob[at:at + data.draw(st.integers(1, 8))]
            elif kind == "insert":
                blob[at:at] = data.draw(st.sampled_from(self.INSERTS))
        bad, out = root / "in.csv", root / "out.svg"
        bad.write_bytes(bytes(blob))
        out.write_bytes(b"previous plot\n")
        code, err = run_quiet(["trace", "--from-csv", bad, "--plot", out])
        assert code in (0, 2), err
        if code == 0:
            assert err == ""
            assert ET.parse(out).getroot().tag == "{http://www.w3.org/2000/svg}svg"
        else:
            assert_one_error_line(err, "^" + re.escape(f"error: {bad}: "))
            assert out.read_bytes() == b"previous plot\n"
        assert sorted(os.listdir(root)) == ["in.csv", "out.svg"]

    def test_one_point_plots_constant_series(self, tmp_path, capsys):
        """A lone point spans no range on either axis: each axis is widened
        by 1 either side, so the point sits mid-plot."""
        one, out = tmp_path / "one.csv", tmp_path / "one.svg"
        one.write_text(self.TRACE_LINE + "c,0,2.0,0.1,0.5,1.0\r\n")
        code, stdout, err = run_cli(capsys, "trace", "--from-csv", str(one),
                                    "--plot", str(out))
        assert (code, stdout, err) == (0, f"plotted 1 series to {out}\n", "")
        svg = out.read_text()
        assert svg.count('class="marker"') == 1
        assert '<circle class="marker" cx="338.00" cy="192.00"' in svg
        assert ">1</text>" in svg and ">3</text>" in svg  # the x axis: 2 ± 1

    @pytest.mark.parametrize("argv, message", [
        (["--from-csv", "t.csv"], "trace --from-csv requires --plot"),
        (["--checkpoint", "c.bin", "--manifest", "m.jsonl"],
         "trace needs --checkpoint, --manifest and -o (or --from-csv)"),
    ], ids=["from_csv_without_plot", "without_output"])
    def test_missing_flag_exit_2(self, argv, message):
        code, err = run_quiet(["trace", *argv])
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(f"error: {message}") + "$")

    @pytest.mark.parametrize("flag", ["--snippet-len", "--stride"])
    def test_snippet_len_and_stride_at_least_1(self, eval_inputs, tmp_path, flag):
        """Both flags are checked before the manifest is read: over a manifest
        with no clip, ``--stride 0`` once printed ``traced 0 clips`` and wrote
        a header-only CSV."""
        root, manifest, data = eval_inputs
        ckpt, out, empty = tmp_path / "c.bin", tmp_path / "t.csv", tmp_path / "e.jsonl"
        ckpt.write_bytes(data)
        empty.write_bytes(b"")
        for path in (manifest, empty):
            code, err = run_quiet(["trace", "--checkpoint", ckpt, "--manifest", path,
                                   "-o", out, flag, 0])
            assert code == 2, err
            assert_one_error_line(err, "^" + re.escape(
                f"error: {flag} must be >= 1, got 0") + "$")
            assert not out.exists()

    def test_from_csv_splits_lines_as_text_does(self, tmp_path):
        """\\r\\n, \\n and a lone \\r all end a line, as in a file opened as text
        with newline=""; a quoted cell keeps its line break."""
        csv_path = tmp_path / "mixed.csv"
        csv_path.write_bytes(b't,"a\r\nb"\r\n0,0.1\n1,0.2\r2,0.3\r\n')
        assert parse_trace_csv(csv_path) == {"a\r\nb": ([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])}


@st.composite
def run_record_objects(draw, version):
    """A valid run-record object: any route id, int or float distances and
    completions (km 0 with no collisions), and the parameters ``version``
    needs."""
    kinds = draw(st.lists(st.sampled_from(
        ["pedestrian", "vehicle", "layout", "static", "red_light"]),
        unique=True, max_size=4))
    km = draw(st.one_of(st.just(0), st.just(0.0), st.integers(1, 500),
                        st.floats(1e-3, 1e4)))
    counts = {k: 0 if km == 0 and k in evalkit.COLLISION_TYPES
              else draw(st.integers(0, 4)) for k in kinds}
    row = {"route_id": draw(st.text(max_size=10)), "km": km,
           "route_completion": draw(st.one_of(st.integers(0, 100),
                                              st.floats(0, 100))),
           "infractions": counts}
    if version == "v20":
        row["penalty_weights"] = {k: draw(st.one_of(st.just(1), st.floats(0.05, 1)))
                                  for k in kinds}
    elif "red_light" in kinds or draw(st.booleans()):
        row["coefficients"] = {k: draw(st.one_of(st.integers(0, 3), st.floats(0, 3)))
                               for k in kinds}
    return row


class TestScoreWilcoxon:
    def test_score_runs(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        rows = [{"route_id": "r0", "km": 10.0, "route_completion": 50.0,
                 "infractions": {"pedestrian": 1}},
                {"route_id": "r1", "km": 5.0, "route_completion": 100.0,
                 "infractions": {}}]
        runs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, out, _ = run_cli(capsys, "score", "--runs", str(runs))
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0]["DS"] == pytest.approx(25.0)
        assert lines[1]["DS"] == pytest.approx(100.0)
        agg = lines[-1]["aggregate"]
        assert agg["routes"] == 2
        assert agg["Col_per_km"] == pytest.approx(1.0 / 15.0)

    @pytest.mark.parametrize("field, value, message", [
        ("km", -1, "km must be >= 0"),
        ("route_completion", 101, "route_completion must be in [0, 100]"),
        ("infractions", {"pedestrian": -1}, "negative count for infraction 'pedestrian'"),
    ])
    def test_score_refuses_out_of_range_record(self, tmp_path, field, value,
                                               message):
        runs = tmp_path / "runs.jsonl"
        good = {"route_id": "r0", "km": 1.0, "route_completion": 50.0,
                "infractions": {}}
        runs.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value})
                        + "\n")
        code, err = run_quiet(["score", "--runs", runs])
        assert code == 2, err
        assert_one_error_line(err, "^" + re.escape(
            f"error: {runs}: run record line 2: {message}") + "$")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), version=st.sampled_from(["v20", "v21"]))
    def test_score_lines_match_json_dumps(self, tmp_path_factory, data, version):
        """Each route line is ``json.dumps`` of the route id and its
        ``summarize_run`` summary, and the aggregate is the sum in record
        order and ``np.mean`` of each column, whatever the ids and number
        types."""
        rows = data.draw(st.lists(run_record_objects(version), min_size=1, max_size=6))
        path = tmp_path_factory.mktemp("score") / "runs.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["score", "--runs", str(path), "--version", version]) == 0
        records = [evalkit.DrivingRunRecord(**row) for row in rows]
        summaries = [evalkit.summarize_run(rec, version) for rec in records]
        km = collisions = 0.0
        for rec in records:
            km += rec.km
            collisions += sum(c for k, c in rec.infractions.items()
                              if k in evalkit.COLLISION_TYPES)
        aggregate = {"routes": len(rows), "km": km,
                     **{key: float(np.mean([s[key] for s in summaries]))
                        for key in ("RC", "IS", "DS")},
                     "Col_per_km": collisions / km if km > 0 else 0.0}
        assert out.getvalue().splitlines() == [
            *(json.dumps({"route_id": rec.route_id, **summary})
              for rec, summary in zip(records, summaries)),
            json.dumps({"aggregate": aggregate})]

    def test_wilcoxon_reference_route_deltas(self, tmp_path, capsys):
        deltas = np.arange(1.0, 21.0)
        for i in (10, 18, 20):
            deltas[i - 1] *= -1
        path = tmp_path / "deltas.json"
        path.write_text(json.dumps(list(deltas)))
        code, out, _ = run_cli(capsys, "wilcoxon", "--deltas", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["W"] == 162.0
        assert report["n"] == 20
        assert report["method"] == "exact"
        assert abs(report["p"] - 0.016) <= 0.005

    def test_wilcoxon_object_payload(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"deltas": [1.0, 2.0, 3.0]}))
        code, out, _ = run_cli(capsys, "wilcoxon", "--deltas", str(path))
        assert code == 0
        assert json.loads(out)["p"] == pytest.approx(0.125)

    def test_all_zero_deltas_exit_2(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        path.write_text("[0.0, 0.0]")
        assert run_cli(capsys, "wilcoxon", "--deltas", str(path))[0] == 2

    @pytest.mark.parametrize("text, message", [
        ("[NaN, 1, 2]", "deltas must be finite"),  # json.loads reads NaN
        ("[]", "deltas is empty; no pairs to test"),
    ], ids=["nan", "empty"])
    def test_deltas_refused_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "d.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "wilcoxon", "--deltas", str(path))
        assert code == 2 and out == ""
        assert_one_error_line(err, "^" + re.escape(
            f"error: {path}: deltas: {message}") + "$")


class TestCachedEncoderSeam:
    @staticmethod
    def stub_and_cache_evals(manifest, tmp_path, capsys, mode="mil",
                             caption_ids=True):
        """``eval`` stdout with the stub encoder, then with a cache holding
        the stub's own vectors for every window id of ``mode``."""
        ckpt_path = tmp_path / "c.bin"
        code, _, _ = run_cli(capsys, "train", "--manifest", str(manifest),
                             "-o", str(ckpt_path), "--set", "embed_dim=24",
                             "--set", "hidden_dim=8", "--set", "epochs=1",
                             "--seed", "0")
        assert code == 0
        code, stub_out, _ = run_cli(capsys, "eval", "--checkpoint",
                                    str(ckpt_path), "--manifest", str(manifest),
                                    "--mode", mode)
        assert code == 0

        ckpt = load_checkpoint(ckpt_path)
        stub = StubEncoder(dim=ckpt.dim, seed=ckpt.seed)
        entries = {}
        for rec in read_manifest(manifest):
            if mode == "clip":
                feats = rec.feature_matrix()
                entries[f"{rec.clip_id}:clip"] = stub.encode_windows(
                    feats, [0], len(feats), [None])[0]
            else:
                for i, row in enumerate(segment_clip(rec, 8, 8, stub).snippets):
                    entries[f"{rec.clip_id}:{i}"] = row
            if caption_ids:
                entries[rec.caption] = stub.encode_text(rec.caption).values
        cache = tmp_path / "emb.bin"
        write_embedding_cache(cache, entries, dim=ckpt.dim)

        code, cache_out, err = run_cli(capsys, "eval", "--checkpoint",
                                       str(ckpt_path), "--manifest",
                                       str(manifest), "--mode", mode,
                                       "--embedding-cache", str(cache))
        assert code == 0, err
        return stub_out, cache_out

    def test_eval_from_embedding_cache_matches_stub(self, manifest, tmp_path,
                                                    capsys):
        """External-backbone seam: precomputed embeddings served from the
        cache file reproduce the stub-encoder evaluation exactly."""
        stub_out, cache_out = self.stub_and_cache_evals(manifest, tmp_path, capsys)
        assert json.loads(cache_out) == json.loads(stub_out)

    @pytest.mark.parametrize("mode", ["mil", "clip"])
    def test_eval_from_cache_without_caption_ids(self, manifest, tmp_path,
                                                 capsys, mode):
        """eval looks up window ids only (``clip_id:clip`` in clip mode), so
        a cache without caption ids prints the stub's JSON."""
        stub_out, cache_out = self.stub_and_cache_evals(
            manifest, tmp_path, capsys, mode, caption_ids=False)
        assert cache_out == stub_out

    def test_encoder_env_var_ignored(self, manifest, tmp_path, capsys,
                                     monkeypatch):
        """Only --embedding-cache selects the cache encoder: VLAAD_ENCODER,
        which once did too, leaves train on the stub."""
        outs = []
        for env in (None, "cache"):
            if env:
                monkeypatch.setenv("VLAAD_ENCODER", env)
            path = tmp_path / f"{env}.bin"
            code, _, err = run_cli(capsys, "train", "--manifest", str(manifest),
                                   "-o", str(path), "--set", "epochs=1")
            assert code == 0, err
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestInfer:
    @staticmethod
    def checkpoint(tmp_path):
        path = tmp_path / "w.bin"
        save_checkpoint(path, init_checkpoint(dim=16, hidden=4, seed=0))
        return path

    @staticmethod
    def child_env():
        """The environment for ``python -m vlaad.cli`` in a child process."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(vlaad.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def test_stdin_stream(self, manifest, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "i.bin"
        code, _, _ = run_cli(capsys, "train", "--manifest", str(manifest),
                             "-o", str(ckpt), "--set", "embed_dim=24",
                             "--set", "hidden_dim=8", "--set", "epochs=1",
                             "--seed", "0")
        assert code == 0
        rng = np.random.default_rng(3)
        lines = "\n".join(
            json.dumps({"tick": t, "features": rng.standard_normal(8).tolist()})
            for t in range(12)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run_cli(capsys, "infer", "--checkpoint", str(ckpt))
        assert code == 0
        tokens = [float(x) for x in out.splitlines()]
        assert len(tokens) == 12
        assert all(0.0 <= t <= 1.0 for t in tokens)
        # non-update ticks repeat the cached token
        assert tokens[1] == tokens[0]

    def test_token_readable_before_next_frame(self, tmp_path):
        """On a pipe, with no PYTHONUNBUFFERED, a frame's token arrives while
        the client still holds the next frame back."""
        ckpt = tmp_path / "p.bin"
        save_checkpoint(ckpt, init_checkpoint(dim=16, hidden=4, seed=0))
        proc = subprocess.Popen(
            [sys.executable, "-m", "vlaad.cli", "infer", "--checkpoint", str(ckpt)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.child_env())
        try:
            proc.stdin.write(json.dumps({"tick": 0, "features": [0.5] * 8})
                             .encode() + b"\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10.0)
            assert ready, "no token within 10 s of the first frame"
            token = float(proc.stdout.readline())
            rest, err = proc.communicate(timeout=30)  # closes stdin: end of input
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert 0.0 <= token <= 1.0 and rest == b""

    def test_overflowing_frame_one_error_line(self, tmp_path):
        """A frame whose projected norm overflows float64 exits 2 with one
        error line naming the stream line: no numpy warning before it."""
        ckpt = self.checkpoint(tmp_path)
        stream = (b'{"tick":0,"features":[1,2]}\n'
                  b'{"tick":5,"features":[1e200,1e200]}\n')
        proc = subprocess.run(
            [sys.executable, "-m", "vlaad.cli", "infer", "--checkpoint", str(ckpt)],
            input=stream, capture_output=True, env=self.child_env(), timeout=60)
        assert proc.returncode == 2
        assert len(proc.stdout.splitlines()) == 1
        assert_one_error_line(proc.stderr.decode(), re.escape(
            "error: <stdin>: stream line 2: projected window has a norm of inf, "
            "not finite") + "$")

    def test_frame_width_change_exit_2(self, tmp_path, capsys, monkeypatch):
        ckpt = self.checkpoint(tmp_path)
        lines = "".join(json.dumps({"tick": t, "features": [0.5] * width}) + "\n"
                        for t, width in enumerate((8, 8, 8, 9, 8)))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = run_cli(capsys, "infer", "--checkpoint", str(ckpt))
        assert code == 2
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "line 4" in errors[0]
        assert "Traceback" not in err
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("rate", ["0", "-20", "inf", "nan"])
    def test_bad_tick_rate_exit_2_before_any_token(self, rate, tmp_path, capsys,
                                                   monkeypatch):
        ckpt = self.checkpoint(tmp_path)
        lines = "".join(json.dumps({"tick": t, "features": [0.5] * 8}) + "\n"
                        for t in range(11))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails it
            code, out, err = run_cli(capsys, "infer", "--checkpoint", str(ckpt),
                                     "--tick-rate", rate)
        assert code == 2 and out == ""
        assert_one_error_line(
            err, re.escape(f"tick rate {float(rate)} Hz must be finite and > 0"))

    @pytest.mark.parametrize("flag", ["--buffer-size", "--period"])
    def test_buffer_size_and_period_at_least_1(self, flag, tmp_path, capsys,
                                               monkeypatch):
        ckpt = self.checkpoint(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            json.dumps({"tick": 0, "features": [0.5] * 8}) + "\n"))
        code, out, err = run_cli(capsys, "infer", "--checkpoint", str(ckpt), flag, "0")
        assert code == 2 and out == ""
        assert_one_error_line(err, "^" + re.escape(
            "error: buffer size and period must be >= 1") + "$")

    def test_embedding_cache_flag_rejected(self, tmp_path, capsys):
        """infer always streams through the stub: it has no cache flag."""
        code, out, err = run_cli(capsys, "infer", "--checkpoint",
                                 str(self.checkpoint(tmp_path)),
                                 "--embedding-cache", str(tmp_path / "c.vlec"))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --embedding-cache" in err
