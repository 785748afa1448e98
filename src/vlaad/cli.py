"""Command-line front door wiring all modules together.

Exit codes: 0 success, 2 validation/config error, 1 runtime error.  Every
source of randomness flows from the ``--seed`` flag of the subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from array import array

import numpy as np

from . import datakit, evalkit, inference, plotting, trainer
from .embeddings import CachedEncoder, StubEncoder
from .errors import (LINES_BUFFER, ValidationError, VlaadError, json_bool,
                     json_document, json_lines, json_loads, json_numbers,
                     json_strings, replace_on_success)
from .mil import (DEFAULT_SNIPPET_LEN, DEFAULT_SNIPPET_STRIDE, encode_clip,
                  segment_clip)
from .model import load_checkpoint, save_checkpoint


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

    p = sub.add_parser("trace", help="emit per-snippet risk traces / plots")
    p.add_argument("--checkpoint")
    p.add_argument("--manifest")
    p.add_argument("--clip-id", help="restrict to one clip")
    p.add_argument("--from-csv", help="plot an existing trace CSV instead")
    p.add_argument("-o", "--output", help="trace CSV path")
    p.add_argument("--plot", help="SVG output path")
    p.add_argument("--snippet-len", type=int, default=DEFAULT_SNIPPET_LEN)
    p.add_argument("--stride", type=int, default=DEFAULT_SNIPPET_STRIDE)
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


@contextlib.contextmanager
def _make_encoder(dim: int, seed: int, cache_path, named: str):
    """A context holding the cache encoder when ``--embedding-cache`` is
    given, else the stub; leaving it closes the cache file.  A cache whose
    D is not ``dim``, the dim that ``named`` names, is refused and closed."""
    if not cache_path:
        yield StubEncoder(dim=dim, seed=seed)
        return
    with CachedEncoder(cache_path) as encoder:
        if encoder.dim != dim:
            raise ValidationError(f"{cache_path}: embedding cache has D={encoder.dim}, "
                                  f"but {named} is {dim}")
        yield encoder


def _require_both_classes(manifest, labels) -> None:
    present = sorted(set(labels))
    if present != [0, 1]:
        raise ValidationError(f"{manifest}: both classes must be present, but its "
                              f"{len(labels)} clips have labels {present}")


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
    records = []
    for rec in datakit.iter_manifest(args.manifest):
        if rec.frames_path is None:  # inline frames are decoded line by line
            rec.feature_matrix()
        records.append(rec)
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


def _caption_job(obj):
    """A caption-jobs line as (the line, its captioner of client and rng)."""
    kind = obj.get("type")
    if kind == "collision":
        log = datakit.InfractionLog.from_json(obj["log"])
        return obj, lambda client, rng: (
            datakit.caption_collision_clip(log, client, rng=rng), False)
    if kind == "normal":
        return obj, functools.partial(
            datakit.caption_normal_clip, json_strings(obj["annotations"], "annotations"),
            paraphrase=json_bool(obj.get("paraphrase", False), "paraphrase"))
    raise ValidationError(f"unknown type {kind!r}")


def _caption_one(job, index, client, seed):
    obj, captioner = job
    text, warning = captioner(client, rng=np.random.default_rng([seed, index]))
    return {"id": obj.get("id", index), "caption": text, "warning": warning}


def _cmd_caption(args) -> int:
    if args.client == "http":
        url = os.environ.get(datakit.SUMMARIZER_URL_ENV, "")
        client = datakit.HttpSummarizerClient(url)
    else:
        client = datakit.StubSummarizerClient()
    with open(args.jobs, "rb", buffering=LINES_BUFFER) as fh:
        jobs = list(json_lines(fh, args.jobs, "caption job", _caption_job))
    from concurrent.futures import ThreadPoolExecutor  # here, so no other command loads logging
    with ThreadPoolExecutor(max_workers=max(1, args.parallel)) as pool:
        results = list(pool.map(  # in job order, whatever the thread count
            functools.partial(_caption_one, client=client, seed=args.seed),
            jobs, range(len(jobs))))
    with (replace_on_success(args.output) as tmp,  # append-ordered
          open(tmp, "w", encoding="utf-8") as fh):
        for res in results:
            fh.write(json.dumps(res, separators=(",", ":")) + "\n")
    print(f"captioned {len(results)} jobs")
    return 0


def _load_train_config(args) -> trainer.TrainConfig:
    data = {}
    if args.config:
        data = json_document(args.config, "train config",
                             trainer.TrainConfig.check_fields)
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json_loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings like mode=mil
        try:
            data.update(trainer.TrainConfig.check_fields({key: value}))
        except ValidationError as exc:
            raise ValidationError(f"--set {item}: {exc}") from None
    if args.seed is not None:
        data["seed"] = args.seed
    return trainer.TrainConfig.from_dict(data)


def _cmd_train(args) -> int:
    config = _load_train_config(args)
    records = datakit.read_manifest(args.manifest)
    _require_both_classes(args.manifest, [r.label for r in records])
    val_records = (datakit.read_manifest(args.val_manifest)
                   if args.val_manifest else None)
    with _make_encoder(config.embed_dim, config.seed, args.embedding_cache,
                       "embed_dim") as encoder:
        data = trainer.prepare_training(config, records, encoder, val_records,
                                        args.manifest)
    # the encoded clips are all training reads: the records (and their
    # decoded frames) and the encoder (and its projections) go before it
    del records, val_records, encoder
    result = trainer.fit(config, data)
    save_checkpoint(args.output, result.checkpoint)
    if args.history:
        trainer.write_history_csv(args.history, result.history)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    last_auc = result.history[-1].val_auc if result.history else math.nan
    print(json.dumps({"epochs": config.epochs,  # no AUC: null, strict JSON
                      "val_auc": None if math.isnan(last_auc) else last_auc,
                      "checkpoint": args.output}))
    return 0


def _cmd_eval(args) -> int:
    if args.tau is not None and not math.isfinite(args.tau):
        raise ValidationError(f"--tau must be a finite number, got {args.tau}")
    ckpt = load_checkpoint(args.checkpoint)
    labels = []

    def bags(encoder):  # the manifest is read as the clips are scored
        for rec in datakit.iter_manifest(args.manifest):
            labels.append(rec.label)
            yield encode_clip(rec, args.mode, encoder)

    with _make_encoder(ckpt.dim, ckpt.seed, args.embedding_cache,
                       f"the dim of checkpoint {args.checkpoint}") as encoder:
        scores = trainer.scores_for(ckpt, bags(encoder))
    _require_both_classes(args.manifest, labels)
    scored = evalkit.ScoredSet(scores, np.asarray(labels))
    auc = evalkit.roc_auc(scored)
    tau = evalkit.youden_threshold(scored).threshold if args.tau is None else args.tau
    print(json.dumps({"n": int(scored.labels.size), "auc": auc, "tau": tau,
                      **evalkit.threshold_metrics(scored, tau)}))
    return 0


def _cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    encoder = StubEncoder(dim=ckpt.dim, seed=ckpt.seed)
    tokens = inference.stream_tokens(  # bytes, so bad UTF-8 gets a line number
        getattr(sys.stdin, "buffer", sys.stdin), ckpt, encoder,
        size=args.buffer_size, subsample_period=args.period,
        tick_rate_hz=args.tick_rate, caching=not args.no_cache)
    for token in tokens:
        print(f"{token:.8f}", flush=True)  # a closed-loop client waits for it
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
    for flag, value in (("--snippet-len", args.snippet_len), ("--stride", args.stride)):
        if value < 1:
            raise ValidationError(f"{flag} must be >= 1, got {value}")
    ckpt = load_checkpoint(args.checkpoint)
    # every line is read and checked; only the clips traced are decoded
    records = datakit.iter_manifest(args.manifest)
    if args.clip_id:
        records = (r for r in records if r.clip_id == args.clip_id)
    with (_make_encoder(ckpt.dim, ckpt.seed, args.embedding_cache,
                        f"the dim of checkpoint {args.checkpoint}") as encoder,
          replace_on_success(args.output) as tmp):
        clips = (segment_clip(rec, args.snippet_len, args.stride, encoder)
                 for rec in records)
        n = plotting.write_trace_csv(tmp, trainer.forward_chunks(ckpt, clips))
        if args.clip_id and not n:
            raise ValidationError(f"clip {args.clip_id!r} not in manifest")
        if args.plot:  # before -o is replaced: a failed plot leaves -o as it was
            if not n:
                raise ValidationError(
                    f"{args.output}: trace CSV has a header but no data rows")
            plotting.emit_trace_plot(tmp, args.plot)
    print(f"traced {n} clips to {args.output}")
    return 0


def _cmd_score(args) -> int:
    lines = []  # written once every record has passed
    rcs, penalties, dss = array("d"), array("d"), array("d")
    km = collisions = 0.0  # added in record order (sum() may compensate)
    for rec, summary in evalkit.iter_run_summaries(args.runs, args.version):
        rc, penalty, ds = summary["RC"], summary["IS"], summary["DS"]
        # every value is a finite int or float (the record checks), so repr
        # writes what json.dumps would
        lines.append(f'{{"route_id": {json.dumps(rec.route_id)}, "RC": {rc!r}, '
                     f'"IS": {penalty!r}, "DS": {ds!r}, '
                     f'"Col_per_km": {summary["Col_per_km"]!r}}}\n')
        rcs.append(rc)
        penalties.append(penalty)
        dss.append(ds)
        km += rec.km
        collisions += rec.collisions
    if not lines:
        raise ValidationError(f"{args.runs}: no run records found")
    if not math.isfinite(km):
        raise ValidationError(f"{args.runs}: the routes' total km is not finite")
    sys.stdout.writelines(lines)
    print(json.dumps({"aggregate": {
        "routes": len(lines), "km": km, "RC": float(np.mean(rcs)),
        "IS": float(np.mean(penalties)), "DS": float(np.mean(dss)),
        "Col_per_km": collisions / km if km > 0 else 0.0}}))
    return 0


def _cmd_wilcoxon(args) -> int:
    def parse(payload) -> evalkit.WilcoxonResult:
        deltas = payload["deltas"] if isinstance(payload, dict) else payload
        return evalkit.wilcoxon_signed_rank(json_numbers(deltas, "deltas"),
                                            continuity=args.continuity)

    result = json_document(args.deltas, "deltas", parse)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, once per process: parsing leaves a parser as it
    was, and no command writes the lists it gets (``--set``'s default)."""
    return build_parser()


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (VlaadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
