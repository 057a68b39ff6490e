"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload tune_fit --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  The run

1. starts ``worker.py`` in a fresh interpreter with BLAS threads pinned to 1,
   which builds the inputs from ``--seed``, warms up, times whole passes over
   the input pool for up to ``--seconds`` and checks every output;
2. times fresh interpreters importing ``robust_scatter`` and
   ``robust_scatter.cli``, ``SETUP_BEFORE`` of them before the worker and
   ``SETUP_AFTER`` after it, so that the samples span the run as the timed
   phase does (``setup_s`` is their median);
3. prints the metrics by name and unit, and as its last line one JSON
   object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
   ``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json,
   with ``--trace 1`` the ``per_layer`` ones, from a run whose calls into
   the package are wrapped in spans.

The worker's full result (quality figures, failures, per-item times and
the environment) is kept under ``.perfbench/results/``; a traced run also
leaves every span there, as ``<tag>.spans.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BEFORE = 3
SETUP_AFTER = 4
CHILD_TIMEOUT_S = 150
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ROBUST_SCATTER_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(env, repeats: int) -> list[float]:
    """Wall time from a fresh interpreter to the package and CLI imported."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls at 50 ms steps and quantizes the time
        subprocess.run([sys.executable, "-c", "import robust_scatter, robust_scatter.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def missing_sources() -> list[str]:
    need = [ROOT / "src" / "robust_scatter" / "__init__.py", ROOT / "docs" / "schemas",
            ROOT / "BENCHMARK.json"]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"not a robust-scatter checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".perfbench" / "results"
    workdir = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    out = results / f"{tag}.json"
    env = child_env()
    try:
        setup = setup_seconds(env, SETUP_BEFORE)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(ROOT), "--workdir", str(workdir),
               "--out", str(out)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode == 0:
            setup += setup_seconds(env, SETUP_AFTER)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"importing the package failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(out.read_text())
    result["end_to_end"]["setup_s"] = statistics.median(setup)
    result["setup_samples_s"] = setup
    out.write_text(json.dumps(result, indent=1) + "\n")

    if args.trace:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        wanted, values = spec["end_to_end"], {**result["end_to_end"], **result["quality"]}
    metrics, absent = {}, []
    for m in wanted:
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            absent.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if absent:
        print(f"no successful item to measure {', '.join(absent)}; see {out}", file=sys.stderr)
        return 1

    for f in result["failures"]:
        print(f"failed: pass {f['pass']} item {f['item']}: {f['reason']}")
    for name, q in result["quality"].items():
        if name not in metrics:
            print(f"{name:28s} {q:.6g}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
