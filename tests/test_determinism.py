"""Outputs depend only on inputs and flags, not on the process environment.

One child per environment runs the whole pipeline through ``vlaad.cli.run``
in its own working directory, with relative paths only; every file it
writes and every command's exit code, stdout and stderr must match byte for
byte.  The environments differ in hash seed, BLAS thread count, locale,
time zone, working directory and bytecode writing.  Under CPython 3.11's
string hash the two hash seeds iterate {"train", "test"} in opposite
orders, so a set of strings written in iteration order shows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import vlaad

PIPELINE = r'''
import contextlib, io, json, sys
from vlaad.cli import run
from vlaad.datakit import read_manifest
from vlaad.embeddings import StubEncoder, write_embedding_cache
from vlaad.mil import segment_clip

TRAIN = ["--set", "embed_dim=16", "--set", "hidden_dim=8", "--set", "epochs=4",
         "--set", "train_batch=5", "--seed", "2"]
COMMANDS = [
    ["synth", "--n-normal", "8", "--n-collision", "8", "--dim", "8", "--seed", "3",
     "-o", "train.jsonl"],
    ["synth", "--n-normal", "4", "--n-collision", "4", "--dim", "8", "--seed", "4",
     "--split", "test", "-o", "test.jsonl"],
    "concatenate",
    ["ingest", "--manifest", "all.jsonl", "-o", "ingested.jsonl"],
    ["train", "--manifest", "train.jsonl", "-o", "mil.bin", "--history", "mil.csv",
     *TRAIN],
    ["train", "--manifest", "train.jsonl", "-o", "clip.bin", "--history", "clip.csv",
     "--set", "mode=clip", *TRAIN],
    ["eval", "--checkpoint", "mil.bin", "--manifest", "test.jsonl"],
    ["eval", "--checkpoint", "clip.bin", "--manifest", "test.jsonl", "--mode", "clip"],
    "cache",
    ["eval", "--checkpoint", "mil.bin", "--manifest", "test.jsonl",
     "--embedding-cache", "cache.vlec"],
    ["trace", "--checkpoint", "mil.bin", "--manifest", "test.jsonl", "-o", "trace.csv",
     "--plot", "trace.svg"],
    ["score", "--runs", "runs.jsonl"],
    ["wilcoxon", "--deltas", "deltas.json"],
    ["infer", "--checkpoint", "mil.bin", "--buffer-size", "4", "--period", "3"],
]
for i, argv in enumerate(COMMANDS):
    if argv == "concatenate":
        with open("all.jsonl", "wb") as fh:
            fh.write(open("train.jsonl", "rb").read() + open("test.jsonl", "rb").read())
        continue
    if argv == "cache":  # snippet windows of the test clips, keyed as eval reads them
        stub = StubEncoder(dim=16, seed=2)
        write_embedding_cache("cache.vlec", [
            (f"{rec.clip_id}:{t}", row) for rec in read_manifest("test.jsonl")
            for t, row in enumerate(segment_clip(rec, 8, 8, stub).snippets)], 16)
        continue
    out, err = io.StringIO(), io.StringIO()
    if argv[0] == "infer":
        sys.stdin = open("stream.jsonl", encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    with open(f"{i:02d}-{argv[0]}.log", "w", encoding="utf-8") as fh:
        fh.write(f"{code}\n{out.getvalue()}{err.getvalue()}")
'''

ENVIRONMENTS = [
    {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "LC_ALL": "C", "TZ": "UTC",
     "PYTHONDONTWRITEBYTECODE": "1"},
    {"PYTHONHASHSEED": "3", "OPENBLAS_NUM_THREADS": "2", "LC_ALL": "C.utf8",
     "TZ": "Asia/Tokyo"},
]


def write_inputs(cwd: Path) -> None:
    rng = np.random.default_rng(7)
    runs = [{"route_id": f"r{i}", "km": float(rng.uniform(0.5, 3.0)),
             "route_completion": float(rng.uniform(20, 100)),
             "infractions": {"vehicle": int(rng.integers(0, 3)),
                             "static": int(rng.integers(0, 2))}} for i in range(5)]
    (cwd / "runs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in runs))
    (cwd / "deltas.json").write_text(json.dumps(rng.normal(0.2, 1.0, 12).tolist()))
    (cwd / "stream.jsonl").write_text("".join(
        json.dumps({"tick": t, "features": rng.standard_normal(8).tolist()}) + "\n"
        for t in range(20)))


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_outputs_independent_of_environment(tmp_path):
    src = str(Path(vlaad.__file__).resolve().parents[1])
    unset = {"PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", *ENVIRONMENTS[0]}
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [base.get("PYTHONPATH")])])
    procs, dirs = [], []
    for k, extra in enumerate(ENVIRONMENTS):
        cwd = tmp_path / f"run-{k}" / ("a" * (k + 1))  # another depth and name
        cwd.mkdir(parents=True)
        write_inputs(cwd)
        env = {**base, **extra}
        if "PYTHONDONTWRITEBYTECODE" not in extra:  # written, but not into the tree
            env["PYTHONPYCACHEPREFIX"] = str(tmp_path / "pycache")
        procs.append(subprocess.Popen([sys.executable, "-c", PIPELINE], cwd=cwd, env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        dirs.append(cwd)
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    first, second = (tree(d) for d in dirs)
    assert len(first) == 26 and first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []
    codes = {name: blob.split(b"\n", 1)[0] for name, blob in first.items()
             if name.endswith(".log")}
    assert set(codes.values()) == {b"0"}, codes
