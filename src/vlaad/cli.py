"""Command-line front door wiring all modules together.

Exit codes: 0 success, 2 validation/config error, 1 runtime error.  Every
source of randomness flows from the ``--seed`` flag of the subcommand.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import datakit, evalkit, inference, plotting, trainer
from .embeddings import CachedEncoder, StubEncoder
from .errors import NonFiniteLossError, SummarizerError, ValidationError, VlaadError
from .mil import segment_clip
from .model import load_checkpoint, save_checkpoint
from .numerics import sigmoid

ENCODER_ENV = "VLAAD_ENCODER"
TRACE_HEADER = plotting.TRACE_HEADER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlaad",
        description="Weakly-supervised video collision-detection toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic feature-level manifest")
    p.add_argument("--n-normal", type=int, required=True)
    p.add_argument("--n-collision", type=int, required=True)
    p.add_argument("--dim", type=int, default=32, help="feature dimension")
    p.add_argument("--delta", type=float, default=4.0,
                   help="event-window mean shift")
    p.add_argument("--event-len", type=int, default=1,
                   help="event window length in snippets")
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("ingest", help="validate an external manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("-o", "--output", help="re-emit the validated manifest")

    p = sub.add_parser("caption", help="caption clips via the summarizer")
    p.add_argument("--jobs", required=True,
                   help="JSONL caption jobs (collision logs / frame annotations)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--client", choices=("stub", "http"), default="stub")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train adapter/detector heads")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest")
    p.add_argument("--config", help="JSON file mirroring the train config fields")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config field")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--embedding-cache", help="cache file for external embeddings")
    p.add_argument("-o", "--output", required=True, help="checkpoint path")
    p.add_argument("--history", help="per-epoch loss CSV path")

    p = sub.add_parser("eval", help="score a manifest and print metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=("mil", "clip"), default="mil")
    p.add_argument("--tau", type=float, help="fixed threshold (default: Youden)")
    p.add_argument("--embedding-cache")

    p = sub.add_parser("infer", help="stream risk tokens from stdin frames")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--buffer-size", type=int, default=inference.DEFAULT_BUFFER_FRAMES)
    p.add_argument("--period", type=int, default=inference.DEFAULT_SUBSAMPLE_PERIOD)
    p.add_argument("--tick-rate", type=float, default=inference.DEFAULT_TICK_RATE_HZ)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--embedding-cache")

    p = sub.add_parser("trace", help="emit per-snippet risk traces / plots")
    p.add_argument("--checkpoint")
    p.add_argument("--manifest")
    p.add_argument("--clip-id", help="restrict to one clip")
    p.add_argument("--from-csv", help="plot an existing trace CSV instead")
    p.add_argument("-o", "--output", help="trace CSV path")
    p.add_argument("--plot", help="SVG output path")
    p.add_argument("--snippet-len", type=int, default=8)
    p.add_argument("--stride", type=int, default=8)
    p.add_argument("--embedding-cache")

    p = sub.add_parser("score", help="summarize driving-run records")
    p.add_argument("--runs", required=True, help="JSONL run records")
    p.add_argument("--version", choices=("v20", "v21"), default="v21")

    p = sub.add_parser("wilcoxon", help="route-paired one-sided signed-rank test")
    p.add_argument("--deltas", required=True,
                   help="JSON array (or {'deltas': [...]}) of paired differences")
    p.add_argument("--continuity", action="store_true",
                   help="continuity correction in the normal branch")

    return parser


def _make_encoder(dim: int, seed: int, cache_path=None):
    kind = os.environ.get(ENCODER_ENV, "stub")
    if kind == "cache" or cache_path:
        if not cache_path:
            raise ValidationError(
                f"{ENCODER_ENV}=cache requires --embedding-cache PATH")
        return CachedEncoder(cache_path)
    if kind != "stub":
        raise ValidationError(f"unknown {ENCODER_ENV} value {kind!r}")
    return StubEncoder(dim=dim, seed=seed)


def _cmd_synth(args) -> int:
    cfg = datakit.SynthConfig(
        n_normal=args.n_normal, n_collision=args.n_collision,
        feature_dim=args.dim, separation=args.delta,
        event_len=args.event_len, seed=args.seed)
    records = datakit.generate_synthetic_dataset(cfg, split=args.split)
    n = datakit.write_manifest(records, args.output)
    print(f"wrote {n} records to {args.output}")
    return 0


def _cmd_ingest(args) -> int:
    records = datakit.read_manifest(args.manifest)
    for rec in records:
        datakit.validate_record(rec)
    summary = {
        "records": len(records),
        "positives": sum(r.label for r in records),
        "negatives": sum(1 - r.label for r in records),
        "splits": sorted({r.split for r in records}),
        "sources": sorted({r.source for r in records}),
    }
    if args.output:
        datakit.write_manifest(records, args.output)
    print(json.dumps(summary))
    return 0


def _caption_one(job, index, client, seed):
    rng = np.random.default_rng([seed, index])
    kind = job.get("type")
    if kind == "collision":
        log = job["log"]
        caption = datakit.caption_collision_clip(
            datakit.InfractionLog(
                frame_number=log["frame_number"], infraction_type=log["type"],
                message=log["message"], scenario_type=log["scenario"]),
            client, rng=rng)
        return {"id": job.get("id", index), "caption": caption, "warning": False}
    if kind == "normal":
        result = datakit.caption_normal_clip(
            job["annotations"], client, rng=rng,
            paraphrase=bool(job.get("paraphrase", False)))
        return {"id": job.get("id", index), "caption": result.text,
                "warning": result.warning}
    raise ValidationError(f"caption job {index}: unknown type {kind!r}")


def _cmd_caption(args) -> int:
    if args.client == "http":
        url = os.environ.get(datakit.SUMMARIZER_URL_ENV, "")
        client = datakit.HttpSummarizerClient(url)
    else:
        client = datakit.StubSummarizerClient()
    jobs = []
    with open(args.jobs, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                jobs.append(json.loads(line))
    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(
                lambda pair: _caption_one(pair[1], pair[0], client, args.seed),
                enumerate(jobs)))
    else:
        results = [_caption_one(job, i, client, args.seed)
                   for i, job in enumerate(jobs)]
    with open(args.output, "w", encoding="utf-8") as fh:  # append-ordered
        for res in results:
            fh.write(json.dumps(res, separators=(",", ":")) + "\n")
    print(f"captioned {len(results)} jobs")
    return 0


def _load_train_config(args) -> trainer.TrainConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data.update(json.load(fh))
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        fields = trainer.TrainConfig.__dataclass_fields__
        if key not in fields:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw  # bare strings like mode=mil
    if args.seed is not None:
        data["seed"] = args.seed
    return trainer.TrainConfig.from_dict(data)


def _cmd_train(args) -> int:
    config = _load_train_config(args)
    records = datakit.read_manifest(args.manifest)
    val_records = (datakit.read_manifest(args.val_manifest)
                   if args.val_manifest else None)
    encoder = _make_encoder(config.embed_dim, config.seed, args.embedding_cache)
    result = trainer.train(config, records, encoder, val_records)
    save_checkpoint(args.output, result.checkpoint)
    if args.history:
        trainer.write_history_csv(args.history, result.history)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    last_auc = result.history[-1].val_auc if result.history else float("nan")
    print(json.dumps({"epochs": config.epochs, "val_auc": last_auc,
                      "checkpoint": args.output}))
    return 0


def _scored_set(args, config_mode):
    ckpt = load_checkpoint(args.checkpoint)
    records = datakit.read_manifest(args.manifest)
    encoder = _make_encoder(ckpt.dim, ckpt.seed,
                            getattr(args, "embedding_cache", None))
    cfg = trainer.TrainConfig(epochs=0, mode=config_mode, embed_dim=ckpt.dim,
                              hidden_dim=ckpt.hidden, gamma=ckpt.gamma,
                              seed=ckpt.seed)
    examples = trainer.prepare_examples(records, encoder, cfg)
    probs = trainer.scores_for(ckpt, examples, config_mode)
    labels = np.asarray([r.label for r in records])
    return ckpt, records, encoder, evalkit.ScoredSet(probs, labels)


def _cmd_eval(args) -> int:
    _, _, _, scored = _scored_set(args, args.mode)
    auc = evalkit.roc_auc(scored)
    if args.tau is None:
        tau = evalkit.youden_threshold(scored).threshold
    else:
        tau = args.tau
    metrics = evalkit.threshold_metrics(scored, tau)
    out = {"n": int(scored.labels.size), "auc": auc, "tau": tau}
    out.update(metrics)
    print(json.dumps(out))
    return 0


def _cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    encoder = _make_encoder(ckpt.dim, ckpt.seed, args.embedding_cache)
    tokens = inference.stream_tokens(
        sys.stdin, ckpt, encoder, size=args.buffer_size,
        subsample_period=args.period, tick_rate_hz=args.tick_rate,
        caching=not args.no_cache)
    for token in tokens:
        print(f"{token:.8f}")
    return 0


def _cmd_trace(args) -> int:
    if args.from_csv:
        if not args.plot:
            raise ValidationError("trace --from-csv requires --plot")
        n = plotting.emit_trace_plot(args.from_csv, args.plot)
        print(f"plotted {n} series to {args.plot}")
        return 0
    if not (args.checkpoint and args.manifest and args.output):
        raise ValidationError(
            "trace needs --checkpoint, --manifest and -o (or --from-csv)")
    ckpt = load_checkpoint(args.checkpoint)
    records = datakit.read_manifest(args.manifest)
    if args.clip_id:
        records = [r for r in records if r.clip_id == args.clip_id]
        if not records:
            raise ValidationError(f"clip {args.clip_id!r} not in manifest")
    encoder = _make_encoder(ckpt.dim, ckpt.seed, args.embedding_cache)
    chunk = trainer.DEFAULT_EVAL_BATCH
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        # eval's chunks: the same row blocks give eval's logits bit for bit
        for start in range(0, len(records), chunk):
            bags = [segment_clip(rec, args.snippet_len, args.stride, encoder)
                    for rec in records[start:start + chunk]]
            fw = trainer.forward_stack(ckpt, bags, "mil")
            writer.writerows(zip(
                [bag.clip_id for bag in bags for _ in range(bag.size)],
                [i for bag in bags for i in range(bag.size)],
                np.concatenate([bag.start_times for bag in bags]).tolist(),
                fw.logits.tolist(), sigmoid(fw.logits).tolist(),
                fw.attn.tolist()))
    if args.plot:
        plotting.emit_trace_plot(args.output, args.plot)
    print(f"traced {len(records)} clips to {args.output}")
    return 0


def _cmd_score(args) -> int:
    records = evalkit.read_run_records(args.runs)
    if not records:
        raise ValidationError("no run records found")
    totals = {"km": 0.0, "collisions": 0.0}
    summaries = []
    for rec in records:
        summary = evalkit.summarize_run(rec, version=args.version)
        summaries.append({"route_id": rec.route_id, **summary})
        totals["km"] += rec.km
        totals["collisions"] += sum(
            c for k, c in rec.infractions.items() if k in evalkit.COLLISION_TYPES)
    for row in summaries:
        print(json.dumps(row))
    aggregate = {
        "routes": len(records),
        "km": totals["km"],
        "RC": float(np.mean([s["RC"] for s in summaries])),
        "IS": float(np.mean([s["IS"] for s in summaries])),
        "DS": float(np.mean([s["DS"] for s in summaries])),
        "Col_per_km": (totals["collisions"] / totals["km"]
                       if totals["km"] > 0 else 0.0),
    }
    print(json.dumps({"aggregate": aggregate}))
    return 0


def _cmd_wilcoxon(args) -> int:
    with open(args.deltas, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    deltas = payload["deltas"] if isinstance(payload, dict) else payload
    result = evalkit.wilcoxon_signed_rank(deltas, continuity=args.continuity)
    print(json.dumps({"W": result.statistic, "n": result.n_effective,
                      "p": result.p_one_sided, "method": result.method}))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "caption": _cmd_caption,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "trace": _cmd_trace,
    "score": _cmd_score,
    "wilcoxon": _cmd_wilcoxon,
}


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SummarizerError, NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VlaadError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
