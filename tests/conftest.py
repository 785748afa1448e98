import contextlib
import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from vlaad.cli import run
from vlaad.datakit import ClipRecord, write_manifest
from vlaad.embeddings import StubEncoder
from vlaad.model import init_checkpoint, load_checkpoint, save_checkpoint


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_encoder():
    return StubEncoder(dim=16, seed=7)


@pytest.fixture
def small_ckpt():
    return init_checkpoint(dim=16, hidden=8, gamma=10.0, seed=3,
                           zero_first_layer=False)


def make_clip(clip_id="clip0", n_frames=40, feat_dim=6, label=0,
              collision_frame=None, seed=0, caption="the car drives on",
              source="external"):
    rng = np.random.default_rng(seed)
    return ClipRecord(
        clip_id=clip_id,
        features=rng.standard_normal((n_frames, feat_dim)).astype(np.float32),
        caption=caption, label=label, collision_frame=collision_frame,
        source=source)


@pytest.fixture
def clip_factory():
    return make_clip


def run_trace(tmp_path, clips, ckpt, *flags):
    """``vlaad trace`` over ``clips`` with the stub encoder.

    Returns the CSV data rows as (clip_id, snippet_index, t_start_s, logit,
    prob, attention) tuples and the checkpoint as the command read it.
    """
    manifest, ckpt_path = tmp_path / "trace.jsonl", tmp_path / "trace.bin"
    out = tmp_path / "trace.csv"
    write_manifest(clips, manifest)
    save_checkpoint(ckpt_path, ckpt)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["trace", "--checkpoint", str(ckpt_path), "--manifest",
                    str(manifest), "-o", str(out), *flags])
    assert code == 0, err.getvalue()
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["clip_id", "snippet_index", "t_start_s",
                                "logit", "prob", "attention"]
        rows = [(r[0], int(r[1]), *map(float, r[2:])) for r in reader]
    return rows, load_checkpoint(ckpt_path)
