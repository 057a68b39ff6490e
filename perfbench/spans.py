"""Outside-in span recorder and per-layer metrics for the traced run.

The recorder replaces module attributes at the call sites of the package's
public functions (``cli.build_grid``, ``tuning.fit_sppca``, ...) with thin
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Nothing inside ``robust_scatter`` is edited; undoing
the patches restores the original attributes.  Spans stay in memory and
are reduced to per-layer metrics, or written out, when the run ends.

A span is named after the function it times, as ``<module>.<function>``;
the module is the layer its self time is charged to.  A layer's self time
is the span duration minus the time covered by its direct child spans.
Calls are single-threaded (``--threads 1``), so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

def _fits(results):
    return {
        "fits": len(results),
        "iters": sum(f.iterations for f in results),
        "converged": sum(bool(f.converged) for f in results),
        "failed": sum(f.error is not None for f in results),
    }


def _fit(result):
    return {"iters": result.iterations, "converged": bool(result.converged)}


def _replicates(table):
    cells = {(r["n"], r["p"], r["k"], r["nu"], r["pi"], r["c"], r["seed"], r["rep"])
             for r in table.replicates}
    failed = {(r["n"], r["p"], r["k"], r["nu"], r["pi"], r["c"], r["seed"], r["rep"])
              for r in table.replicates if r["rho"] is None}
    return {"replicates": len(cells), "failed": len(failed)}


# (module whose attribute is replaced, attribute, span name, result note).
# The module is where the call happens; the span name is the callee.
CALL_SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_csv", "cli.load_csv", None),
    ("cli", "build_grid", "tuning.build_grid", lambda g: {"m": len(g)}),
    ("cli", "solution_set", "estimator.solution_set", _fits),
    ("cli", "smooth_curve", "tuning.smooth_curve", None),
    ("cli", "select_a_star", "tuning.select_a_star", None),
    ("cli", "fit_sppca", "estimator.fit_sppca", _fit),
    ("cli", "pca", "estimator.pca", None),
    ("cli", "weight", "weights.weight", None),
    ("cli", "run_experiment", "simgen.run_experiment", _replicates),
    ("tuning", "fit_sppca", "estimator.fit_sppca", _fit),
    ("tuning", "initial_estimate", "estimator.initial_estimate", None),
    ("estimator", "weight", "weights.weight", None),
    ("estimator", "initial_estimate", "estimator.initial_estimate", None),
    ("simgen", "gen_mixture", "simgen.gen_mixture", None),
    ("simgen", "solution_set", "estimator.solution_set", _fits),
    ("simgen", "pca", "estimator.pca", None),
    ("simgen", "similarity_rho", "metrics.similarity_rho", None),
    ("simgen", "smooth_curve", "tuning.smooth_curve", None),
    ("simgen", "select_a_star", "tuning.select_a_star", None),
    ("simgen", "fit_tme", "estimator.fit_tme", None),
    ("metrics", "fit_sppca", "estimator.fit_sppca", _fit),
    ("metrics", "initial_estimate", "estimator.initial_estimate", None),
    ("metrics", "pca", "estimator.pca", None),
    # called by the oracle workload itself through the module attribute
    ("metrics", "unit_scale_fit", "metrics.unit_scale_fit", None),
    ("metrics", "empirical_if", "metrics.empirical_if", None),
    ("metrics", "asymptotic_constants", "metrics.asymptotic_constants", None),
    ("metrics", "if_location", "metrics.closed_form", None),
    ("metrics", "if_eigenvalue_ratio", "metrics.closed_form", None),
    ("metrics", "if_eigenvector", "metrics.closed_form", None),
)


class Recorder:
    """Spans as ``[name, parent, start, end, note]`` lists, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    def span(self, name, fn, note=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(out)
            return out

        return traced

    def install(self):
        for module, attr, name, note in CALL_SITES:
            mod = importlib.import_module(f"robust_scatter.{module}")
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original, note))

    def uninstall(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def write(self, path):
        """All spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, t0, t1, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "note": note}) + "\n")


def layer_metrics(spans, first: int, last: int) -> dict:
    """Per-layer totals over ``spans[first:last]``, one or more whole items.

    Each item is a root ``bench.item`` span whose self time is the part of
    the timed region that no program span covers.
    """
    child_time = defaultdict(float)
    for name, parent, t0, t1, _ in spans[first:last]:
        if parent >= first:
            child_time[parent] += t1 - t0
    m = defaultdict(float)
    for i in range(first, last):
        name, parent, t0, t1, note = spans[i]
        dur = t1 - t0
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += dur - child_time[i]
        pname = spans[parent][0] if parent >= first else None
        note = note or {}
        if name == "bench.item":
            m["trace.wall_s"] += dur
        elif name == "weights.weight":
            m["weights.weight_calls"] += 1
            m["weights.weight_s"] += dur
        elif name == "estimator.solution_set":
            m["estimator.path_s"] += dur
            m["estimator.path_fits"] += note.get("fits", 0)
            m["estimator.path_fail"] += note.get("failed", 0)
            m["estimator.path_iters"] += note.get("iters", 0)
            m["fits"] += note.get("fits", 0)
            m["converged"] += note.get("converged", 0)
        elif name == "estimator.fit_sppca":
            m["fits"] += 1
            m["converged"] += note.get("converged", 0)
            if pname == "tuning.build_grid":
                m["tuning.probe_fits"] += 1
                m["tuning.probe_fail"] += "error" in note
            elif pname == "cli.main":
                m["estimator.fit_s"] += dur
                m["estimator.fit_iters"] += note.get("iters", 0)
            elif pname == "metrics.unit_scale_fit":
                m["metrics.unit_scale_fits"] += 1
            elif pname == "metrics.empirical_if":
                m["metrics.oracle_refits"] += 1
                m["metrics.refit_s"] += dur
                m["metrics.refit_iters"] += note.get("iters", 0)
        elif name == "estimator.initial_estimate":
            m["estimator.init_calls"] += 1
            m["estimator.init_s"] += dur
        elif name == "estimator.pca":
            m["estimator.pca_calls"] += 1
            m["estimator.pca_s"] += dur
        elif name == "estimator.fit_tme":
            m["estimator.tme_s"] += dur
        elif name == "tuning.build_grid":
            m["tuning.grid_s"] += dur
            m["tuning.grid_m"] += note.get("m", 0)
        elif name == "tuning.smooth_curve":
            m["tuning.smooth_calls"] += 1
            m["tuning.smooth_s"] += dur
        elif name == "cli.load_csv":
            m["cli.load_s"] += dur
        elif name == "simgen.run_experiment":
            m["simgen.replicates"] += note.get("replicates", 0)
            m["simgen.replicate_fail"] += note.get("failed", 0)
        elif name == "simgen.gen_mixture":
            m["simgen.generate_s"] += dur
        elif name == "metrics.unit_scale_fit":
            m["metrics.unit_scale_s"] += dur
        elif name == "metrics.asymptotic_constants":
            m["metrics.constants_s"] += dur
        elif name == "metrics.closed_form":
            m["metrics.closed_form_s"] += dur
        elif name == "metrics.similarity_rho":
            m["metrics.similarity_calls"] += 1
            m["metrics.similarity_s"] += dur
    return m


def finish(m: dict, items: int) -> dict:
    """Per-item averages of the totals ``m`` over ``items`` items, plus the
    derived ratios."""
    fits, converged = m.pop("fits", 0), m.pop("converged", 0)
    out = {k: v / items for k, v in m.items()}
    out["estimator.converged_frac"] = converged / fits if fits else 0.0
    iters = out.get("estimator.path_iters", 0.0)
    out["estimator.us_per_iter"] = 1e6 * out.get("estimator.path_s", 0.0) / iters if iters else 0.0
    refits = out.get("metrics.oracle_refits", 0.0)
    out["metrics.ms_per_refit"] = 1e3 * out.pop("metrics.refit_s", 0.0) / refits if refits else 0.0
    out["trace.uncovered_s"] = out.pop("bench.self_s", 0.0)
    return out
