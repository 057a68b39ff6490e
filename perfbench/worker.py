"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with BLAS threads pinned to 1 and ``src`` on the path;
writes its result as JSON to ``--out``.  The timed phase runs whole passes
over the workload's input pool and starts another pass only while it still
fits in ``--seconds``.  Every item is checked after its timer stops; an item
that fails is counted and left out of the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import robust_scatter
from spans import Recorder, finish, layer_metrics
from workloads import WORKLOADS, CheckFailed, Schemas, call_failure


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "robust_scatter": robust_scatter.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "ROBUST_SCATTER_THREADS")},
        "cli_threads": 1,
    }


def spans_path(out: Path) -> Path:
    """The traced run's spans go next to its result: ``<tag>.spans.jsonl.gz``."""
    return out.with_name(out.stem + ".spans.jsonl.gz")


def run_item(wl, item, schemas, run):
    """Time one item, then check it.  Returns the item's record."""
    item.calls, item.outputs = [], {}
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        run(item)
        error = None
    except Exception as exc:
        error = (f"{type(exc).__name__}: {exc}",
                 isinstance(exc, robust_scatter.RobustScatterError))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    error = error or call_failure(item)
    rec = {"item": item.index, "wall_s": wall, "cpu_s": cpu, "ok": error is None}
    if error is not None:
        rec["reason"], rec["typed"] = error
        return rec
    try:
        rec["quality"] = wl.check(item, schemas)
    except CheckFailed as exc:
        rec.update(ok=False, reason=f"check: {exc}", typed=False)
    return rec


def summarize(passes, layer_passes, wl_name):
    """End-to-end, quality and per-layer figures from the pass records."""
    first = passes[0]
    ok = [r for r in first if r["ok"]]
    verdict = {"correct": True, "problems": []}
    for p in passes[1:]:
        for a, b in zip(first, p):
            if a["ok"] != b["ok"] or a.get("quality") != b.get("quality"):
                verdict["problems"].append(f"item {a['item']} differs between passes")
    for r in (r for p in passes for r in p if not r["ok"] and not r["typed"]):
        verdict["problems"].append(f"item {r['item']}: {r['reason']}")
    verdict["correct"] = not verdict["problems"]

    e2e = {}
    for key in ("wall_s", "cpu_s"):
        per_pass = [statistics.fmean(r[key] for r in p if r["ok"]) for p in passes
                    if any(r["ok"] for r in p)]
        e2e[key] = statistics.median(per_pass) if per_pass else None
    quality = {}
    if ok:
        quality["rho"] = statistics.fmean(r["quality"]["rho"] for r in ok)
        if wl_name == "tune_fit":
            quality["ar_gap"] = statistics.fmean(r["quality"]["ar_gap"] for r in ok)
        if wl_name == "oracle":
            quality["if_rel_err"] = statistics.median(
                x for r in ok for x in r["quality"]["if_rel"])

    layers = {}
    if layer_passes:
        for key in sorted(layer_passes[0]):
            vals = [lp.get(key, 0.0) for lp in layer_passes]
            if not key.endswith("_s") and key not in ("estimator.us_per_iter",
                                                      "metrics.ms_per_refit"):
                if len(set(vals)) > 1:
                    verdict["problems"].append(f"count {key} differs between passes: {vals}")
                    verdict["correct"] = False
            layers[key] = statistics.median(vals)
    return verdict, e2e, quality, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    if Path(robust_scatter.__file__).resolve().parent.parent != src:
        print(f"robust_scatter was imported from {robust_scatter.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    schemas = Schemas(args.root)

    items = wl.prepare(args.seed, args.workdir / "items")
    wl.warmup(args.workdir / "warmup")

    recorder = Recorder()
    run = wl.run
    if args.trace:
        recorder.install()
        run = recorder.span("bench.item", wl.run)
    passes, layer_passes = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        records, marks = [], []
        for item in items:
            first = len(recorder.spans)
            records.append(run_item(wl, item, schemas, run))
            marks.append((first, len(recorder.spans)))
        passes.append(records)
        n_ok = sum(r["ok"] for r in records)
        if args.trace and n_ok:
            totals = {}
            for rec, (a, b) in zip(records, marks):
                if rec["ok"]:
                    for k, v in layer_metrics(recorder.spans, a, b).items():
                        totals[k] = totals.get(k, 0.0) + v
            layer_passes.append(finish(totals, n_ok))
        now = time.perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    measured = time.perf_counter() - begin
    recorder.uninstall()
    if args.trace:
        recorder.write(spans_path(args.out))

    verdict, e2e, quality, layers = summarize(passes, layer_passes, args.workload)
    records = [r for p in passes for r in p]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured,
        "passes": len(passes),
        "pool": len(items),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        **verdict,
        "end_to_end": {**e2e,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "quality": quality,
        "per_layer": layers,
        "spans_file": spans_path(args.out).name if args.trace else None,
        "failures": [{"pass": i, "item": r["item"], "reason": r["reason"]}
                     for i, p in enumerate(passes) for r in p if not r["ok"]],
        "items": passes[0],
        "environment": environment(args.root),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
