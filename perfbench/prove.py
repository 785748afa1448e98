"""Run every workload on ten seeds, twice, and summarise the run-to-run spread.

    python3 perfbench/prove.py --out perfbench/baseline.json

Runs ``run.py`` one workload at a time (never in parallel: the machine's
cores belong to the run being measured).  The first set makes ten untraced
runs per workload on seeds 1..10, the second set ten more on seeds 11..20,
and one traced run per workload on seed 1 follows.  For every end-to-end
metric and set it records each run's value, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, the spread that each bound in BENCHMARK.json except that of
``setup_s`` must exceed.  It also records
how far the second set's median moved from the first's, which must stay
within the bound for every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = {}
    for line in lines[:-1]:
        label, _, payload = line[2:].partition(" ")
        details.setdefault(label, []).append(json.loads(payload))
    return {"result": json.loads(lines[-1]), "details": details,
            "elapsed_s": elapsed}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def run_set(name: str, seeds, seconds: int, bounds: dict) -> tuple[dict, dict]:
    """Untraced runs of one workload; returns its summary and machine record."""
    runs = [run_once(name, seed, seconds, 0) for seed in seeds]
    entry = {"seeds": list(seeds), "end_to_end": {},
             "failed": sum(r["result"]["failed"] for r in runs),
             "attempted": sum(r["result"]["attempted"] for r in runs),
             "run_elapsed_s": [r["elapsed_s"] for r in runs]}
    for metric in bounds:
        entry["end_to_end"][metric] = spread(
            [r["result"]["metrics"][metric]["value"] for r in runs])
    figures = {}
    for r in runs:
        for key, value in r["details"]["workload"][0].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                figures.setdefault(key, []).append(value)
            elif isinstance(value, dict):
                for stat, v in value.items():
                    figures.setdefault(f"{key}.{stat}", []).append(v)
    entry["details_median"] = {k: statistics.median(v) for k, v in figures.items()}
    for metric, row in entry["end_to_end"].items():
        print(f"{name:17s} {metric:12s} median {row['median']:.4f} "
              f"spread {row['spread']:.4f} (bound {bounds[metric]})", flush=True)
    print(f"{name:17s} failed {entry['failed']} of {entry['attempted']}",
          flush=True)
    return entry, runs[0]["details"]["machine"][0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "sets": [], "second_vs_first": {},
               "traced_seed1": {}}
    for first_seed in (1, SEEDS + 1):
        seeds = range(first_seed, first_seed + SEEDS)
        print(f"# set on seeds {seeds.start}..{seeds.stop - 1}", flush=True)
        workloads = {}
        for name in names:
            workloads[name], machine = run_set(name, seeds, seconds, bounds)
            summary.setdefault("machine", machine)
        summary["sets"].append(workloads)

    first, second = summary["sets"]
    for name in names:
        moves = {}
        for metric, bound in bounds.items():
            m1 = first[name]["end_to_end"][metric]["median"]
            m2 = second[name]["end_to_end"][metric]["median"]
            moves[metric] = {"change": m2 / m1 - 1.0, "bound": bound}
            print(f"{name:17s} {metric:12s} second median {m2 / m1 - 1.0:+.4f} "
                  f"of the first (bound {bound})", flush=True)
        summary["second_vs_first"][name] = moves

    for name in names:
        traced = run_once(name, 1, seconds, 1)
        summary["traced_seed1"][name] = {
            "failed": traced["result"]["failed"],
            "per_layer": {k: v["value"]
                          for k, v in traced["result"]["metrics"].items()}}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
