"""The three workloads: set-up, one timed pass, and the output checks.

Every workload builds its inputs from the seed in ``setup`` and then runs
passes through the program's public entry points (``vlaad.cli.run`` or
``vlaad.inference.stream_tokens``), looked up at call time so that the traced
run sees the wrapped functions.  ``run_pass`` returns the pass's wall time;
output checks add to ``attempted`` and ``failed``, and whatever is slow to
check is checked after the pass, outside its timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import vlaad
import vlaad.cli
from vlaad import datakit, embeddings, mil, model, numerics, trainer


def percentile_summary(samples_ns, scale=1e3):
    """Median and p99 (microseconds by default) with the sample count.

    ``p_top`` is the highest of p99.9/p99/p90 that still has at least ten
    samples beyond it.
    """
    arr = np.sort(np.asarray(samples_ns, dtype=np.float64)) / scale
    n = arr.size
    out = {"n": int(n), "p50": float(np.percentile(arr, 50)),
           "p99": float(np.percentile(arr, 99))}
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            out["p_top"] = q
            out["p_top_value"] = float(np.percentile(arr, q))
            break
    return out


def run_cli(argv):
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vlaad.cli.run([str(a) for a in argv])
    except Exception:  # an uncaught error is a failed call, not a crash
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def last_json(text: str):
    """The last stdout line as JSON, or None when it is not JSON."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


class Workload:
    """Shared bookkeeping: attempts, failures and their first messages."""

    name = ""
    min_span_coverage = 0.0  # checked by the traced run when set

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.pass_walls: list[float] = []

    def check(self, ok: bool, what: str) -> bool:
        """One attempted operation; counts a failure unless ``ok``."""
        return self.check_many(1, 0 if ok else 1, what) == 0

    def check_many(self, attempted: int, bad: int, what: str) -> int:
        self.attempted += attempted
        self.failed += bad
        if bad and len(self.messages) < 20:
            self.messages.append(what)
        return bad

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> float:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the timed passes."""

    def details(self) -> dict:
        """The workload's own figures, printed before the result line."""
        return {}

    def layer_metrics(self) -> dict:
        """Per-layer figures the workload measures itself (not from spans)."""
        return {}


# --- train_acceptance ------------------------------------------------------

ACCEPTANCE_CONFIG = dict(learning_rate=1e-3, weight_decay=1e-4, epochs=50,
                         train_batch=256, eval_batch=64, gamma=10.0, mode="mil",
                         embed_dim=768, hidden_dim=256)
# The acceptance suite's 0.95 gate is for its pinned dataset.  On data drawn
# from other seeds the seed commit reaches 0.89-1.00 (60 seeds), so this gate
# is set to catch training that no longer learns (chance is 0.5).
MIN_VAL_AUC = 0.8


class TrainAcceptance(Workload):
    """`vlaad train` on the acceptance configuration (200 / 100 clips)."""

    name = "train_acceptance"
    min_span_coverage = 0.95

    def setup(self):
        records = datakit.generate_synthetic_dataset(datakit.SynthConfig(
            n_normal=150, n_collision=150, feature_dim=32, separation=4.0,
            seed=self.seed))
        train_recs, val_recs, _ = trainer.split_dataset(
            records, 2.0 / 3.0, seed=self.seed)
        self.train_path = self.work / "train.jsonl"
        self.val_path = self.work / "val.jsonl"
        self.config_path = self.work / "config.json"
        self.ckpt_path = self.work / "model.bin"
        self.history_path = self.work / "history.csv"
        datakit.write_manifest(train_recs, self.train_path)
        datakit.write_manifest(val_recs, self.val_path)
        self.config_path.write_text(json.dumps(
            {**ACCEPTANCE_CONFIG, "seed": self.seed}))
        self.first_bytes = None
        self.aucs: list[float] = []

    def run_pass(self):
        argv = ["train", "--manifest", self.train_path,
                "--val-manifest", self.val_path, "--config", self.config_path,
                "-o", self.ckpt_path, "--history", self.history_path]
        started = time.perf_counter()
        code, out, err = run_cli(argv)
        wall = time.perf_counter() - started
        summary = last_json(out) if code == 0 else None
        if not self.check(summary is not None, f"train exited {code}: {err.strip()}"):
            return wall
        auc = float(summary["val_auc"])
        self.aucs.append(auc)
        # the float64 history catches reruns that differ below float32
        blob = self.ckpt_path.read_bytes() + self.history_path.read_bytes()
        if self.first_bytes is None:
            self.first_bytes = blob
        ok = auc >= MIN_VAL_AUC and blob == self.first_bytes
        self.check(ok, f"train: val_auc {auc} (need >= {MIN_VAL_AUC}), checkpoint "
                   f"and history identical to the first pass: {blob == self.first_bytes}")
        return wall

    def details(self):
        return {"train_wall_s": statistics.median(self.pass_walls),
                "train_val_auc": statistics.median(self.aucs) if self.aucs else None,
                "passes": len(self.pass_walls)}


# --- stream_replay ---------------------------------------------------------

STREAM_TICKS = 6000  # five minutes of driving at 20 Hz
STREAM_FEATURES = 32
BUFFER, PERIOD, TICK_HZ = 8, 5, 20.0
PARITY_TOL = 1e-6


class CountingStubEncoder(embeddings.StubEncoder):
    """The stub encoder, counting the windows it encodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = 0

    def encode_window(self, window):
        self.windows += 1
        return super().encode_window(window)


class StreamReplay(Workload):
    """Closed-loop replay of one NDJSON frame stream, one client."""

    name = "stream_replay"

    def setup(self):
        ckpt = model.init_checkpoint(dim=768, hidden=256, gamma=10.0,
                                     seed=self.seed, zero_first_layer=False)
        path = self.work / "stream.bin"
        model.save_checkpoint(path, ckpt)
        self.ckpt = model.load_checkpoint(path)
        rng = np.random.default_rng([self.seed, 7])
        # rounding keeps lines short; the JSON round trip is exact
        self.frames = np.round(
            rng.standard_normal((STREAM_TICKS, STREAM_FEATURES)), 6)
        self.stream_path = self.work / "frames.ndjson"
        with open(self.stream_path, "w", encoding="utf-8") as fh:
            for tick, row in enumerate(self.frames.tolist()):
                fh.write(json.dumps({"tick": tick, "features": row}) + "\n")
        self.encoder = CountingStubEncoder(dim=self.ckpt.dim, seed=self.ckpt.seed)
        self.is_update = np.arange(STREAM_TICKS) % PERIOD == 0
        self.first_tokens = None
        self.latencies: list[np.ndarray] = []
        self.windows = 0
        self.parity_max_abs = float("nan")

    def run_pass(self):
        n = STREAM_TICKS
        lat = np.zeros(n, dtype=np.int64)
        tokens = np.zeros(n)
        clock = time.perf_counter_ns
        self.encoder.windows = 0
        produced, error = 0, ""
        started = time.perf_counter()
        with open(self.stream_path, "r", encoding="utf-8") as fh:
            it = vlaad.inference.stream_tokens(
                fh, self.ckpt, self.encoder, size=BUFFER,
                subsample_period=PERIOD, tick_rate_hz=TICK_HZ, caching=True)
            try:
                for k in range(n):
                    t0 = clock()
                    tokens[k] = next(it)
                    lat[k] = clock() - t0
                    produced += 1
                if next(it, None) is not None:
                    error = "more tokens than ticks"
            except StopIteration:
                error = f"{produced} tokens for {n} ticks"
            except Exception as exc:  # a failed tick, reported below
                error = f"tick {produced}: {exc!r}"
        wall = time.perf_counter() - started
        self.latencies.append(lat[:produced])
        self.windows += self.encoder.windows

        # one attempt per tick: a token in [0, 1], equal to the first replay's
        tokens = tokens[:produced]
        bad = ~((tokens >= 0.0) & (tokens <= 1.0))
        if self.first_tokens is None:
            self.first_tokens = tokens
        bad |= tokens != self.first_tokens[:produced]
        self.check_many(n, int(bad.sum()) + (n - produced),
                        f"stream: {int(bad.sum())} tokens outside [0, 1] or "
                        f"unlike the first replay; {error}")
        self.check(not error, f"stream: {error}")
        expected = math.ceil(n / PERIOD)
        self.check(self.encoder.windows == expected,
                   f"stream: {self.encoder.windows} encoder calls, "
                   f"expected ceil({n}/{PERIOD}) = {expected}")
        return wall

    def finish(self):
        """Each update-tick token against sigmoid of the offline bag logit."""
        if self.first_tokens is None or self.first_tokens.size != STREAM_TICKS:
            return
        ticks = np.flatnonzero(self.is_update)
        gaps = np.empty(ticks.size)
        for j, tick in enumerate(ticks):
            held = ticks[max(0, j - BUFFER + 1):j + 1]
            window = embeddings.FrameWindow(frames=self.frames[held],
                                            timestamps=held / TICK_HZ)
            emb = embeddings.encode_video_snippet(window, self.encoder)
            bag = mil.Bag(clip_id=f"tick{tick}", snippets=emb.values[None, :],
                          start_times=[tick / TICK_HZ], label=0)
            logit = model.bag_logits(bag, self.ckpt)[0]
            gaps[j] = abs(self.first_tokens[tick] - numerics.sigmoid(logit))
        self.parity_max_abs = float(gaps.max())
        self.check_many(gaps.size, int(np.count_nonzero(gaps > PARITY_TOL)),
                        f"stream: update ticks differ from the offline bag "
                        f"logit by up to {self.parity_max_abs} > {PARITY_TOL}")

    def details(self):
        lat = np.concatenate(self.latencies)
        upd = np.tile(self.is_update, len(self.latencies))[:lat.size]
        return {"stream_ticks_per_s": lat.size / sum(self.pass_walls),
                "stream_update_tick_us": percentile_summary(lat[upd]),
                "stream_cached_tick_us": percentile_summary(lat[~upd]),
                "replays": len(self.pass_walls),
                "inference.offline_parity_max_abs": self.parity_max_abs}

    def layer_metrics(self):
        ticks = STREAM_TICKS * len(self.pass_walls)
        updates = int(self.is_update.sum()) * len(self.pass_walls)
        return {"inference.cache_hit_ratio": 1.0 - self.windows / ticks,
                "inference.encoder_calls_per_update": self.windows / updates,
                "inference.offline_parity_max_abs": self.parity_max_abs}


# --- offline_eval ----------------------------------------------------------

TEST_PER_CLASS = 1000
TRAIN_PER_CLASS = 50
RUN_RECORDS = 20000
ROUTE_PAIRS = 400
# Reference route-paired cases: deltas 1..20 with the listed ranks negated,
# and their published one-sided p-values.
REFERENCE_CASES = (((10, 18, 20), 0.016), ((1, 19, 20), 0.007),
                   ((7, 15, 16, 17, 18, 19, 20), 0.608))
V21_COEFFICIENTS = {"pedestrian": 1.0, "vehicle": 0.70, "layout": 0.60,
                    "static": 0.60}


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pairwise_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly; ties count half."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def wilcoxon_normal_p(deltas, continuity: bool) -> float:
    """One-sided signed-rank p by the tie-corrected normal approximation."""
    d = [x for x in deltas if x != 0.0]
    n = len(d)
    order = sorted(range(n), key=lambda i: abs(d[i]))
    ranks = [0.0] * n
    i = 0
    ties = 0.0
    while i < n:
        j = i
        while j + 1 < n and abs(d[order[j + 1]]) == abs(d[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        t = j - i + 1
        ties += (t ** 3 - t) / 48.0
        i = j + 1
    w = sum(r for r, x in zip(ranks, d) if x > 0)
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ties
    z = (w - mu - (0.5 if continuity else 0.0)) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class OfflineEval(Workload):
    """`eval`, `trace`, `score` and `wilcoxon` over held-out inputs."""

    name = "offline_eval"

    def setup(self):
        w = self.work
        records = datakit.generate_synthetic_dataset(datakit.SynthConfig(
            n_normal=TEST_PER_CLASS + TRAIN_PER_CLASS,
            n_collision=TEST_PER_CLASS + TRAIN_PER_CLASS, feature_dim=32,
            separation=4.0, seed=self.seed), split="test")
        # the collision direction is seeded per dataset, so train and test
        # come from one draw
        fraction = TRAIN_PER_CLASS / (TEST_PER_CLASS + TRAIN_PER_CLASS)
        train_recs, test_recs, _ = trainer.split_dataset(records, fraction,
                                                        seed=self.seed)
        self.test_path, train_path = w / "test.jsonl", w / "train.jsonl"
        self.ckpt_path, self.cache_path = w / "model.bin", w / "cache.vlec"
        datakit.write_manifest(test_recs, self.test_path)
        datakit.write_manifest(train_recs, train_path)
        code, _, err = run_cli(["train", "--manifest", train_path,
                                "--set", "epochs=8", "--seed", self.seed,
                                "-o", self.ckpt_path])
        if code != 0:
            raise RuntimeError(f"set-up training failed: {err.strip()}")

        encoder = embeddings.StubEncoder(dim=768, seed=self.seed)
        entries = {}
        for rec in test_recs:
            bag = mil.segment_clip(rec, 8, 8, encoder)
            for i, row in enumerate(bag.snippets):
                entries[f"{rec.clip_id}:{i}"] = row
            text = rec.caption.strip()
            if text not in entries:
                entries[text] = embeddings.encode_text(text, encoder).values
        embeddings.write_embedding_cache(self.cache_path, entries, 768)
        self.labels = {r.clip_id: r.label for r in test_recs}
        self.n_snippets = len(entries) - len({r.caption.strip() for r in test_recs})
        self.plot_clip = next(r.clip_id for r in test_recs if r.label == 1)

        rng = np.random.default_rng([self.seed, 11])
        runs = []
        for i in range(RUN_RECORDS):
            counts = rng.poisson(0.3, size=len(V21_COEFFICIENTS))
            runs.append({"route_id": f"route-{i:05d}",
                         "km": round(float(rng.uniform(0.5, 5.0)), 3),
                         "route_completion": round(float(rng.uniform(40.0, 100.0)), 2),
                         "infractions": {k: int(c) for k, c in
                                         zip(V21_COEFFICIENTS, counts) if c}})
        self.runs_path = w / "runs.jsonl"
        with open(self.runs_path, "w", encoding="utf-8") as fh:
            for run in runs:
                fh.write(json.dumps(run) + "\n")
        self.expected_aggregate = self._aggregate(runs)

        self.delta_cases = []  # (path, continuity, expected p, exact?)
        for k, (negated, p) in enumerate(REFERENCE_CASES):
            deltas = np.arange(1.0, 21.0)
            deltas[np.asarray(negated) - 1] *= -1
            path = w / f"reference{k}.json"
            path.write_text(json.dumps(deltas.tolist()))
            self.delta_cases.append((path, False, p, True))
        paired = np.round(rng.normal(0.4, 5.0, size=ROUTE_PAIRS), 1).tolist()
        path = w / "paired.json"
        path.write_text(json.dumps({"deltas": paired}))
        for continuity in (False, True):
            self.delta_cases.append(
                (path, continuity, wilcoxon_normal_p(paired, continuity), False))

        self.trace_csv, self.one_csv = w / "trace.csv", w / "one.csv"
        self.svg_path = w / "one.svg"
        self.stage_walls = {"eval": [], "trace": [], "score": [], "wilcoxon": []}

    @staticmethod
    def _aggregate(runs):
        km = sum(r["km"] for r in runs)
        collisions = sum(sum(r["infractions"].values()) for r in runs)
        rc = [r["route_completion"] for r in runs]
        penalty = [1.0 / (1.0 + sum(V21_COEFFICIENTS[k] * c for k, c in
                                    r["infractions"].items())) for r in runs]
        return {"routes": len(runs), "km": km,
                "RC": float(np.mean(rc)), "IS": float(np.mean(penalty)),
                "DS": float(np.mean(np.asarray(rc) * np.asarray(penalty))),
                "Col_per_km": collisions / km}

    def run_pass(self):
        common = ["--checkpoint", self.ckpt_path, "--manifest", self.test_path,
                  "--embedding-cache", self.cache_path]
        clock = time.perf_counter
        os.environ["VLAAD_ENCODER"] = "cache"
        try:
            started = clock()
            eval_out = run_cli(["eval", *common])
            t_eval = clock()
            trace_out = run_cli(["trace", *common, "-o", self.trace_csv])
            plot_out = run_cli(["trace", *common, "--clip-id", self.plot_clip,
                                "-o", self.one_csv, "--plot", self.svg_path])
            t_trace = clock()
            score_out = run_cli(["score", "--runs", self.runs_path])
            t_score = clock()
            wilcoxon_outs = []
            for path, continuity, _, _ in self.delta_cases:
                t0 = clock()
                argv = ["wilcoxon", "--deltas", path]
                wilcoxon_outs.append(run_cli(argv + ["--continuity"] if continuity else argv))
                self.stage_walls["wilcoxon"].append(clock() - t0)
            ended = clock()
        finally:
            del os.environ["VLAAD_ENCODER"]
        self.stage_walls["eval"].append(t_eval - started)
        self.stage_walls["trace"].append(t_trace - t_eval)
        self.stage_walls["score"].append(t_score - t_trace)
        self._check_outputs(eval_out, trace_out, plot_out, score_out, wilcoxon_outs)
        return ended - started

    def _check_outputs(self, eval_out, trace_out, plot_out, score_out, wilcoxon_outs):
        code, out, err = trace_out
        ref_auc = None
        if self.check(code == 0, f"trace exited {code}: {err.strip()}"):
            ref_auc, what = self._trace_auc()
            self.check(ref_auc is not None, what)
        code, out, err = eval_out
        got = last_json(out) if code == 0 else None
        ok = got is not None and ref_auc is not None and abs(got["auc"] - ref_auc) <= 1e-9
        self.check(ok, f"eval exited {code} or its AUC differs from the "
                   f"pairwise AUC {ref_auc} of the trace logits: {out.strip()} {err.strip()}")
        code, _, err = plot_out
        svg = self.svg_path.read_text() if self.svg_path.exists() else ""
        self.check(code == 0 and svg.startswith("<svg") and "<polyline" in svg,
                   f"trace --plot exited {code}: {err.strip()}")

        code, out, err = score_out
        got = (last_json(out) or {}).get("aggregate", {}) if code == 0 else {}
        exp = self.expected_aggregate
        ok = got.keys() == exp.keys() and all(
            math.isclose(got[k], exp[k], rel_tol=1e-9) for k in exp)
        self.check(ok, f"score exited {code} or its aggregate differs "
                   f"from the recomputation: {out.strip().splitlines()[-1:]}")

        for (path, continuity, p_exp, exact), (code, out, err) in zip(
                self.delta_cases, wilcoxon_outs):
            res = last_json(out) if code == 0 else None
            ok = res is not None
            if ok:
                if exact:
                    ok = res["method"] == "exact" and abs(res["p"] - p_exp) < 5e-4
                else:
                    ok = (res["method"] == ("normal_cc" if continuity else "normal")
                          and math.isclose(res["p"], p_exp, rel_tol=1e-9))
            self.check(ok, f"wilcoxon {path.name} continuity={continuity}: "
                       f"exit {code}, {out.strip()}, expected p {p_exp}")

    def _trace_auc(self):
        """Pairwise AUC of the clip scores pooled from the trace CSV logits."""
        logits: dict[str, list[float]] = {}
        rows = 0
        with open(self.trace_csv, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                cells = line.rstrip("\n").split(",")
                logits.setdefault(cells[0], []).append(float(cells[3]))
                rows += 1
        if header[:4] != ["clip_id", "snippet_index", "t_start_s", "logit"]:
            return None, f"trace CSV header {header}"
        if rows != self.n_snippets or logits.keys() != self.labels.keys():
            return None, f"trace CSV has {rows} rows for {len(logits)} clips"
        gamma = 10.0
        pooled = []
        for clip_id in self.labels:
            z = np.asarray(logits[clip_id])
            m = z.max()
            pooled.append(m + (math.log(np.exp(gamma * (z - m)).sum())
                               - math.log(z.size)) / gamma)
        labels = np.asarray(list(self.labels.values()))
        return pairwise_auc(_sigmoid(pooled), labels), ""

    def details(self):
        n = len(self.labels)
        walls = self.stage_walls
        return {"eval_clips_per_s": n / statistics.median(walls["eval"]),
                "trace_clips_per_s": n / statistics.median(walls["trace"]),
                "score_routes_per_s": RUN_RECORDS / statistics.median(walls["score"]),
                "wilcoxon_ms": percentile_summary(np.asarray(walls["wilcoxon"]) * 1e9,
                                                  scale=1e6),
                "clips": n, "passes": len(self.pass_walls)}


WORKLOADS = {cls.name: cls for cls in (TrainAcceptance, StreamReplay, OfflineEval)}
