"""Run the benchmark on every workload and report it in one place.

    python3 perfbench/report.py                       # seed 1, traced and untraced
    python3 perfbench/report.py --seeds 1-10 --no-trace --workloads simulate

For each workload and seed it runs ``run.py`` as a separate process, exactly
as an automated harness would, and prints every end-to-end metric by name and
unit with the quality figures and the correctness verdict.  With more than
one seed it prints the median and the spread (distance between the first
and third quartile over the median) of each metric, beside its bound.

Unless ``--no-trace`` is given, the first seed is also run traced, twice.
The report prints the per-layer metrics, the per-layer self times with the
part of the traced wall time they leave uncovered, and the tracing
overhead (traced minus untraced wall time per item).  It then checks
determinism: the per-item quality figures of the untraced run and of both
traced runs must be identical, and so must every count of the two traced
runs.  Each traced run leaves its spans in
``.perfbench/results/<workload>-seed<n>-trace1.spans.jsonl.gz``.

Everything, with the environment of each run, goes to ``--out`` as JSON.
The exit code is 1 if a run is not correct or a determinism check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / ".perfbench" / "results"
# self-time metrics that together cover the traced wall time of an item
SELF_TIMES = ("cli.self_s", "tuning.self_s", "estimator.self_s", "weights.weight_s",
              "metrics.self_s", "simgen.self_s", "trace.uncovered_s")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    return {"line": line, "detail": json.loads(detail.read_text())}


def determinism_problems(untraced: dict, traced: list[dict]) -> list[str]:
    """Differences between runs of one seed in what must repeat exactly."""
    problems = []
    base = untraced["detail"]["items"]
    for k, t in enumerate(traced, 1):
        for a, b in zip(base, t["detail"]["items"]):
            if a["ok"] != b["ok"] or a.get("quality") != b.get("quality"):
                problems.append(f"item {a['item']}: quality differs between the untraced "
                                f"run and traced run {k}")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "1")]
    first = traced[0]["line"]["metrics"]
    for t in traced[1:]:
        for name in counts:
            if t["line"]["metrics"][name]["value"] != first[name]["value"]:
                problems.append(f"{name} differs between traced runs: "
                                f"{first[name]['value']} != {t['line']['metrics'][name]['value']}")
    return problems


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def report_workload(name: str, seeds: list[int], seconds: int, traced: bool) -> dict:
    runs = [run_once(name, s, seconds, 0) for s in seeds]
    print(f"\n== {name}: {len(runs)} untraced run(s), seeds {seeds[0]}..{seeds[-1]}")
    problems = []
    for s, r in zip(seeds, runs):
        d = r["detail"]
        q = " ".join(f"{k}={v:.6g}" for k, v in d["quality"].items())
        print(f"  seed {s}: correct={r['line']['correct']} attempted={d['attempted']} "
              f"failed={d['failed']} passes={d['passes']} {q}")
        for f in d["failures"]:
            print(f"    failed: pass {f['pass']} item {f['item']}: {f['reason']}")
        problems += [f"seed {s}: {p}" for p in d["problems"]]
    summary = {}
    for m in SPEC["end_to_end"]:
        vals = [r["line"]["metrics"][m["name"]]["value"] for r in runs]
        med, spr = spread(vals)
        summary[m["name"]] = {"median": med, "spread": spr, "bound": m["bound"], "values": vals}
        print(f"  {m['name']:14s} {med:12.6g} {m['unit']:5s} spread {spr:6.3f} "
              f"(bound {m['bound']}, a third is {m['bound'] / 3:.3f})")
    out = {"seeds": seeds, "end_to_end": summary,
           "runs": [r["detail"] for r in runs]}
    if traced:
        ts = [run_once(name, seeds[0], seconds, 1) for _ in range(2)]
        layers = {k: v["value"] for k, v in ts[0]["line"]["metrics"].items()}
        walls = [t["line"]["metrics"]["trace.wall_s"]["value"] for t in ts]
        covered = sum(layers[k] for k in SELF_TIMES)
        untraced = runs[0]["line"]["metrics"]["wall_s"]["value"]
        overhead = statistics.fmean(walls) - untraced
        print(f"  traced run 1 of 2, seed {seeds[0]}: per item")
        for m in SPEC["per_layer"]:
            print(f"    {m['name']:28s} {layers[m['name']]:12.6g} {m['unit']}")
        print(f"    self times sum to {covered:.6g} s of the traced wall {walls[0]:.6g} s "
              f"(uncovered by any program span: {layers['trace.uncovered_s']:.3g} s)")
        print(f"    tracing overhead: traced ({', '.join(f'{w:.4g}' for w in walls)} s) minus "
              f"untraced ({untraced:.4g} s) wall per item {overhead:+.4g} s "
              f"({overhead / untraced:+.1%}); the runs are minutes apart, so this includes "
              f"the host's drift")
        print(f"    spans: {RESULTS / ts[-1]['detail']['spans_file']}")
        det = determinism_problems(runs[0], ts)
        print(f"    determinism (quality of untraced and traced runs, counts of both traced "
              f"runs): {'identical' if not det else f'{len(det)} difference(s)'}")
        for p in det:
            print(f"      {p}")
        problems += det + [p for t in ts for p in t["detail"]["problems"]]
        out["traced"] = {"per_layer": layers, "self_time_sum_s": covered,
                         "overhead_s": overhead, "details": [t["detail"] for t in ts]}
    out["problems"] = problems
    return out


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names), help="comma list")
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "report.json")
    args = ap.parse_args(argv)

    wanted = args.workloads.split(",")
    unknown = set(wanted) - set(names)
    if unknown:
        ap.error(f"unknown workloads: {sorted(unknown)}")
    seeds = seed_list(args.seeds)
    report = {"benchmark": SPEC, "workloads": {}}
    for name in wanted:
        report["workloads"][name] = report_workload(name, seeds, args.seconds,
                                                    not args.no_trace)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    problems = [f"{name}: {p}" for name, w in report["workloads"].items() for p in w["problems"]]
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
