"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the passes run untraced and the last line holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate
and the last line holds the per-layer metrics.  Lines before the last one
are ``# ``-prefixed details: the machine, every workload figure, the span
table and any failed check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up is repeated at least this often and for at least this long; setup_s
# is the median, so one slow process start does not move it
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
MIN_PASSES = 2


def _clamp_blas_threads(nproc: int) -> None:
    """Keep any BLAS thread setting at or below nproc (before numpy loads)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var)
        if value and value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)


def blas_record() -> dict:
    """BLAS library name, version and live thread count (when queryable)."""
    import ctypes

    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # checkouts without .git record no commit
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "git_commit": commit, "seed": seed}


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vlaad"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120)
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def detail(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, default=str)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vlaad" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'vlaad'} is missing",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    _clamp_blas_threads(nproc)
    os.environ.pop("VLAAD_ENCODER", None)  # each workload picks its encoder
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import vlaad
    if Path(vlaad.__file__).resolve().parent != (SRC / "vlaad").resolve():
        print(f"error: imported vlaad from {vlaad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        detail("machine", machine_record(args.seed))

        setups = []
        while True:
            t_import = import_seconds()
            started = time.perf_counter()
            wl.setup()
            setups.append(t_import + time.perf_counter() - started)
            if args.trace or (len(setups) >= SETUP_MIN_REPEATS
                              and sum(setups) >= SETUP_MIN_SECONDS):
                break  # the traced run sets up once
        rss_after_setup = peak_rss_mb()

        recorder = SpanRecorder()
        traced_walls, untraced_walls = [], []
        started = time.perf_counter()
        while (time.perf_counter() - started < args.seconds
               or len(wl.pass_walls) < MIN_PASSES):
            traced = bool(args.trace) and len(wl.pass_walls) % 2 == 1
            if traced:
                with recorder.installed(vlaad):
                    wall = wl.run_pass()
                traced_walls.append(wall)
            else:
                wall = wl.run_pass()
                untraced_walls.append(wall)
            wl.pass_walls.append(wall)
        wl.finish()

        if args.trace:
            metrics = layer_metrics(recorder, wl, traced_walls, untraced_walls)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "pass_s": statistics.median(untraced_walls),
                "peak_rss_mb": peak_rss_mb(),
            }
        # which phase sets the peak: set-up, or the passes after it
        detail("workload", {"name": args.workload, "setup_s_samples": setups,
                            "pass_s_samples": wl.pass_walls,
                            "peak_rss_after_setup_mb": rss_after_setup,
                            "peak_rss_after_passes_mb": peak_rss_mb(),
                            **wl.details()})
        if args.trace:
            detail("spans", {name: row for name, row in recorder.table().items()
                             if row["calls"]})
        for message in wl.messages:
            detail("failed-check", message)
        result = {
            "correct": wl.failed == 0,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                    "unit": m["unit"]}
                        for m in bench["per_layer" if args.trace else "end_to_end"]},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(recorder, wl, traced_walls, untraced_walls) -> dict:
    """Per-layer figures per traced pass, plus the span coverage and cost."""
    table = recorder.table()
    passes = len(traced_walls)
    out = {}
    for name, row in table.items():
        for stat, value in row.items():
            out[f"{name}.{stat}"] = value / passes
    fwd = table.get("model.adapter_forward")
    if fwd and fwd["calls"]:
        out["model.adapter_forward.rows_per_call"] = fwd["rows"] / fwd["calls"]
    out.update(wl.layer_metrics())
    # cli.run's own time is argument parsing and output glue, not a layer
    covered = sum(row["self_ms"] for name, row in table.items() if name != "cli.run")
    coverage = covered / 1e3 / sum(traced_walls)
    out["trace.span_coverage"] = coverage
    out["trace.overhead_share"] = (statistics.median(traced_walls)
                                   / statistics.median(untraced_walls) - 1.0)
    if wl.min_span_coverage:
        wl.check(coverage >= wl.min_span_coverage,
                 f"spans cover {coverage:.4f} of the traced wall time, "
                 f"below {wl.min_span_coverage}")
    return out


if __name__ == "__main__":
    sys.exit(main())
