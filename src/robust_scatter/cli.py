"""Command-line front end and the package's only file I/O: CSV in,
JSON/CSV artifacts out.

Subcommands

    tune       trace the active-ratio curve over the scale grid and select
               the working scale; emits ar_curve.json + tuning.json
    fit        fit at a given (or previously tuned) scale and emit the
               eigenmodel, per-row scores, and per-row weights
    simulate   run the replicate experiment over a config grid; emits
               experiment.csv + experiment.json
    benchmark  simulate with desk-scale comparison defaults

All failures are reported as a one-line JSON object on stderr with a
nonzero exit code; argparse usage problems exit with code 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from itertools import product

import numpy as np

from .errors import EmptyData, RobustScatterError
from .estimator import (
    DataSet,
    FitOptions,
    fit_sppca,
    pca,
    solution_set,
    squared_distances,
)
from .simgen import METHODS, SimConfig, run_experiment
from .tuning import build_grid, select_a_star, smooth_curve
from .weights import WeightSpec, weight


def load_csv(path, standardize: bool = True) -> DataSet:
    """Parse a headered numeric CSV into a DataSet.

    The body is parsed by ``np.loadtxt``, or cell by cell with ``float``
    where that fails, which names a ragged row or a non-numeric cell by row
    and column; blank lines are skipped and ``#`` is data.  Fewer than two
    rows are rejected.  With ``standardize`` each column is centered by its
    mean and scaled by its standard deviation (n - 1 denominator); constant
    columns are rejected.  Without it, values pass through bit-exact.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path}: file is empty") from None
        lines = fh.readlines()
    try:  # loadtxt warns on a body without data
        X = np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2,
                       comments=None) if any(map(str.strip, lines)) else None
    except ValueError:
        X = None
    if X is None or X.shape[1] != len(header):
        rows = []
        for r, row in enumerate(csv.reader(lines), start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {r} has {len(row)} cells, "
                                 f"the header has {len(header)}")
            vals = []
            for c, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {r}, column {header[c]!r}"
                    ) from None
            rows.append(vals)
        if not rows:
            raise EmptyData(f"{path}: no data rows")
        X = np.asarray(rows, dtype=float)
    if len(X) < 2:  # before the standard deviation, which needs two rows
        raise ValueError(f"{path}: need n >= 2 data rows, got {len(X)}")
    if standardize:
        mean = X.mean(axis=0)
        sd = X.std(axis=0, ddof=1)
        flat = np.nonzero(sd == 0.0)[0]
        if flat.size:
            names = ", ".join(header[j] for j in flat)
            raise ValueError(f"{path}: constant column(s) under standardization: {names}")
        X = (X - mean) / sd
    return DataSet(X, column_names=list(header))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # csv writes None as "" and a float as its repr


def _spec_opts(args):
    spec = WeightSpec(alpha=args.alpha)
    opts = FitOptions(
        tol=args.tol, max_iter=args.max_iter, diag_approx=not args.full_mahalanobis
    )
    return spec, opts


def cmd_tune(args) -> list[str]:
    data = load_csv(args.input, standardize=not args.no_standardize)
    spec, opts = _spec_opts(args)
    grid = build_grid(data.p, m=args.grid_size)
    path = solution_set(data, grid, spec=spec, opts=opts)
    curve = smooth_curve(path)
    result = select_a_star(curve)

    out_curve = os.path.join(args.out_dir, "ar_curve.json")
    out_tuning = os.path.join(args.out_dir, "tuning.json")
    _write_json(out_curve, {
        "a": curve.grid.tolist(),
        "ar_raw": curve.ar_raw.tolist(),
        "ar_smooth": curve.ar_smooth.tolist(),
        "slope": curve.slope.tolist(),
    })
    _write_json(out_tuning, {
        "a_star": result.a_star,
        "ar_at_a_star": result.ar_at_a_star,
        "fallback_used": result.fallback_used,
        "candidates": result.candidates.tolist(),
    })
    return [out_curve, out_tuning]


def cmd_fit_pca(args) -> list[str]:
    data = load_csv(args.input, standardize=not args.no_standardize)
    spec, opts = _spec_opts(args)
    if args.a is not None:
        a = args.a
    elif args.tuning is not None:
        with open(args.tuning) as fh:
            tuning = json.load(fh)
        a = tuning.get("a_star") if isinstance(tuning, dict) else None
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise ValueError(f"{args.tuning}: a_star must be a number")
    else:
        raise RobustScatterError("supply --a or --tuning with a prior tuning.json")
    k = args.k if args.k is not None else min(data.p, 2)
    fit = fit_sppca(data, a, spec=spec, opts=opts)
    model = pca(fit.ls, k)

    d = squared_distances(data.X - fit.ls.mu, fit.ls.V, fit.ls.diag_approx)
    w = weight(d, spec)
    scores = (data.X - fit.ls.mu) @ model.eigenvectors

    out_model = os.path.join(args.out_dir, "model.json")
    out_scores = os.path.join(args.out_dir, "scores.csv")
    out_weights = os.path.join(args.out_dir, "weights.csv")
    _write_json(out_model, {
        "mu": fit.ls.mu.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "eigenvectors": model.eigenvectors.tolist(),
        "a": float(a),
        "alpha": float(args.alpha),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "residual": float(fit.residual),
        "active_ratio": float(fit.active_ratio),
    })
    _write_csv(out_scores, [f"PC{j + 1}" for j in range(k)], scores.tolist())
    _write_csv(out_weights, ["index", "weight", "active"],
               zip(range(data.n), w.tolist(), (w > 0).astype(int).tolist()))
    return [out_model, out_scores, out_weights]


def _parse_list(text, typ):
    return [typ(tok) for tok in str(text).split(",") if tok != ""]


def _sim_configs(args, parser):
    try:
        ns = _parse_list(args.n, int)
        ps = _parse_list(args.p, int)
        ks = _parse_list(args.k_list, int)
        nus = _parse_list(args.nu, float)
        pis = _parse_list(args.pi, float)
        cs = _parse_list(args.c, float)
        if not all([ns, ps, ks, nus, pis, cs]):
            raise ValueError("empty parameter list")
        configs = [
            SimConfig(n=n, p=p, k=k, nu=nu, pi=pi, c=c, seed=args.seed)
            for n, p, k, nu, pi, c in product(ns, ps, ks, nus, pis, cs)
        ]
    except ValueError as exc:
        parser.error(f"invalid simulation grid: {exc}")
    methods = _parse_list(args.methods, str)
    if not methods or set(methods) - set(METHODS):
        parser.error(f"methods must be a subset of {','.join(METHODS)}")
    return configs, methods


def cmd_simulate(args, parser) -> list[str]:
    configs, methods = _sim_configs(args, parser)
    spec, opts = _spec_opts(args)
    table = run_experiment(
        configs, methods=methods, replicates=args.replicates,
        spec=spec, opts=opts,
    )
    out_csv = os.path.join(args.out_dir, "experiment.csv")
    out_json = os.path.join(args.out_dir, "experiment.json")
    cols = ["n", "p", "k", "nu", "pi", "c", "seed", "method", "mean_rho", "se_rho", "n_fail"]
    _write_csv(out_csv, cols, ([row[c] for c in cols] for row in table.rows))
    _write_json(out_json, {"results": table.rows, "replicates": table.replicates})
    return [out_csv, out_json]


def _add_common(sp, with_input=True):
    if with_input:
        sp.add_argument("input", help="input CSV (header row required)")
        sp.add_argument("--no-standardize", action="store_true",
                        help="skip per-column standardization of input CSV")
    sp.add_argument("--alpha", type=float, default=0.05, help="trimming threshold")
    sp.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    sp.add_argument("--max-iter", type=int, default=500, help="solver iteration cap")
    sp.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; no longer changes the computation")
    sp.add_argument("--full-mahalanobis", action="store_true",
                    help="use the full scatter in distances instead of its diagonal")
    sp.add_argument("--out-dir", default=".", help="output directory")


@cache  # main asks for it on every call: one build per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robust-scatter", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tune", help="select the working scale from the AR curve")
    _add_common(sp)
    sp.add_argument("--grid-size", type=int, default=50, help="grid points (default 50)")

    sp = sub.add_parser("fit", help="fit at a scale and emit the eigenmodel")
    _add_common(sp)
    sp.add_argument("--a", type=float, default=None, help="initialization scale")
    sp.add_argument("--tuning", default=None, help="tuning.json from a prior tune run")
    sp.add_argument("--k", type=int, default=None, help="retained rank (default min(p, 2))")

    for name, defaults in (
        ("simulate", dict(n="250", p="10", k_list="2", nu="10", pi="0.0", c="4", reps=20)),
        ("benchmark", dict(n="250", p="50", k_list="5", nu="10", pi="0.0,0.15", c="4", reps=20)),
    ):
        sp = sub.add_parser(name, help=f"{name} the estimator over a config grid")
        _add_common(sp, with_input=False)
        sp.add_argument("--seed", type=int, default=0, help="base random seed")
        sp.add_argument("--n", default=defaults["n"], help="comma list of sample sizes")
        sp.add_argument("--p", default=defaults["p"], help="comma list of dimensions")
        sp.add_argument("--k", dest="k_list", default=defaults["k_list"],
                        help="comma list of target ranks")
        sp.add_argument("--nu", default=defaults["nu"], help="comma list of main df")
        sp.add_argument("--pi", default=defaults["pi"], help="comma list of contamination rates")
        sp.add_argument("--c", default=defaults["c"], help="comma list of separation multipliers")
        sp.add_argument("--replicates", type=int, default=defaults["reps"])
        sp.add_argument("--methods", default=",".join(METHODS),
                        help=f"comma list from {{{','.join(METHODS)}}}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        if args.command == "tune":
            written = cmd_tune(args)
        elif args.command == "fit":
            written = cmd_fit_pca(args)
        else:
            written = cmd_simulate(args, parser)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
