"""The benchmark workloads: inputs from a seed, one timed call, checks.

Each workload turns the run's seed into a fixed pool of inputs before any
timing starts.  ``run`` is the timed part: it calls the package's public
entry points in-process, as a user would (``robust_scatter.cli.main`` for
the CLI workloads, the ``metrics`` functions for the oracle).  ``check``
runs after the timer stops: it validates what the call produced and
returns the item's quality figures, or raises ``CheckFailed``.

Quality figures are computed here from the artifacts and the generator's
ground truth, with the benchmark's own linear algebra, so that a change to
the package cannot change how it is scored.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np
import scipy.stats

from robust_scatter import cli, errors, metrics
from robust_scatter.estimator import DataSet, FitOptions, LocationScatter
from robust_scatter.metrics import RadialSpec
from robust_scatter.simgen import SimConfig, gen_mixture
from robust_scatter.weights import WeightSpec

# Error types the package documents; a call that ends in one of them is a
# reported failure, anything else is a crash.
PACKAGE_ERRORS = {name for name in dir(errors)
                  if isinstance(getattr(errors, name), type)
                  and issubclass(getattr(errors, name), errors.RobustScatterError)}


class CheckFailed(Exception):
    """An item's outputs are missing, malformed or wrong."""


@dataclass
class Item:
    """One input of the pool and whatever its last run left behind."""

    index: int
    workdir: Path
    inputs: dict
    calls: list = field(default_factory=list)  # (argv tail, exit code, stderr)
    outputs: dict = field(default_factory=dict)


def sub_seed(seed: int, workload: str, index: int) -> int:
    """32-bit seed of pool item ``index``, derived from the run's seed."""
    entropy = [seed, index, *workload.encode()]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def similarity(A, B) -> float:
    """Mean singular value of A'B for column-orthonormal p x k bases."""
    s = np.linalg.svd(np.asarray(A).T @ np.asarray(B), compute_uv=False)
    return float(np.clip(s, 0.0, 1.0).mean())


def _call_cli(item: Item, argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    item.calls.append((argv[0], code, err.getvalue()))
    return code


def _error_name(stderr: str) -> str | None:
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def call_failure(item: Item) -> tuple[str, bool] | None:
    """(reason, typed) for the first CLI call that exited nonzero."""
    for cmd, code, stderr in item.calls:
        if code != 0:
            name = _error_name(stderr)
            return f"{cmd} exit {code}: {name or stderr.strip()[:200]}", name in PACKAGE_ERRORS
    return None


class Schemas:
    def __init__(self, root: Path):
        self._validators = {}
        for path in sorted((root / "docs" / "schemas").glob("*.schema.json")):
            schema = json.loads(path.read_text())
            self._validators[path.name.split(".")[0]] = jsonschema.Draft202012Validator(schema)

    def load(self, path: Path, kind: str) -> dict:
        try:
            obj = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{path.name}: {exc}") from None
        errs = sorted(self._validators[kind].iter_errors(obj), key=str)
        if errs:
            raise CheckFailed(f"{path.name}: {errs[0].message}")
        return obj


def _write_csv(path: Path, X: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(X.shape[1])])
        writer.writerows([repr(float(v)) for v in row] for row in X)


class Tune:
    """``tune`` then ``fit --k 5`` on one CSV drawn from ``gen_mixture``."""

    k = 5

    def __init__(self, name, n, pool):
        self.name, self.n, self.pool = name, n, pool

    def _argv(self, item, *args):
        return [*args, str(item.inputs["csv"]), "--out-dir", str(item.workdir), "--threads", "1"]

    def prepare(self, seed: int, workdir: Path) -> list[Item]:
        items = []
        for j in range(self.pool):
            cfg = SimConfig(n=self.n, p=50, k=self.k, nu=10, pi=0.15, c=4,
                            seed=sub_seed(seed, self.name, j))
            data, truth = gen_mixture(cfg)
            d = workdir / f"item{j}"
            d.mkdir(parents=True)
            _write_csv(d / "input.csv", data.X)
            # the CLI standardizes columns, so the truth is D^-1 V_0 D^-1
            sd = data.X.std(axis=0, ddof=1)
            _, vecs = np.linalg.eigh(truth.V_0 / np.outer(sd, sd))
            items.append(Item(j, d, {
                "csv": d / "input.csv",
                "basis": vecs[:, ::-1][:, : self.k],
                "clean_fraction": 1.0 - float(truth.labels.mean()),
            }))
        return items

    def run(self, item: Item):
        if _call_cli(item, self._argv(item, "tune")) == 0:
            _call_cli(item, self._argv(item, "fit", "--k", str(self.k), "--tuning",
                                       str(item.workdir / "tuning.json")))

    def check(self, item: Item, schemas: Schemas) -> dict:
        d = item.workdir
        curve = schemas.load(d / "ar_curve.json", "ar_curve")
        tuning = schemas.load(d / "tuning.json", "tuning")
        model = schemas.load(d / "model.json", "model")
        if tuning["a_star"] not in curve["a"]:
            raise CheckFailed("a_star is not a point of the curve's grid")
        if model["a"] != tuning["a_star"]:
            raise CheckFailed("model.json was not fitted at a_star")
        E = np.asarray(model["eigenvectors"], dtype=float)
        if E.shape != (50, self.k):
            raise CheckFailed(f"eigenvectors have shape {E.shape}")
        if np.abs(E.T @ E - np.eye(self.k)).max() > 1e-8:
            raise CheckFailed("eigenvectors are not column-orthonormal within 1e-8")
        return {
            "rho": similarity(E, item.inputs["basis"]),
            "ar_gap": abs(tuning["ar_at_a_star"] - item.inputs["clean_fraction"]),
            "a_star": tuning["a_star"],
            "grid_m": len(curve["a"]),
        }

    def warmup(self, workdir: Path):
        """A small tune + fit, so lazy imports and caches fill before timing."""
        small = Tune(self.name, 100, 1)
        item = small.prepare(0, workdir)[0]
        small.run(item)


class Simulate:
    """``robust-scatter benchmark`` at its defaults with a derived ``--seed``."""

    def __init__(self, name, pool):
        self.name, self.pool = name, pool

    def prepare(self, seed: int, workdir: Path) -> list[Item]:
        items = []
        for j in range(self.pool):
            d = workdir / f"item{j}"
            d.mkdir(parents=True)
            items.append(Item(j, d, {"seed": sub_seed(seed, self.name, j)}))
        return items

    def run(self, item: Item, *extra):
        _call_cli(item, ["benchmark", "--seed", str(item.inputs["seed"]),
                         "--out-dir", str(item.workdir), "--threads", "1", *extra])

    def check(self, item: Item, schemas: Schemas) -> dict:
        exp = schemas.load(item.workdir / "experiment.json", "experiment")
        if not (item.workdir / "experiment.csv").is_file():
            raise CheckFailed("experiment.csv missing")
        cells = {(r["pi"], r["method"]): r for r in exp["results"]}
        if len(cells) != 6 or len(exp["results"]) != 6:
            raise CheckFailed("expected 2 configs x 3 methods in experiment.json")
        rho = cells[(0.15, "sppca_astar")]["mean_rho"]
        if rho is None:
            raise CheckFailed("no sppca_astar replicate succeeded at pi=0.15")
        return {
            "rho": rho,
            "replicate_fail": sum(r["rho"] is None for r in exp["replicates"]),
        }

    def warmup(self, workdir: Path):
        item = Item(0, workdir, {"seed": 0})
        self.run(item, "--n", "60", "--p", "5", "--k", "2", "--replicates", "2")


SPEC = WeightSpec(alpha=0.05)
ORACLE_OPTS = FitOptions(tol=1e-10, max_iter=2000, diag_approx=False)
ORACLE_FUNCTIONALS = (
    ("location", "if_location", {}),
    ("eigratio", "if_eigenvalue_ratio", {"i": 0, "j": 1}),
    ("eigvec", "if_eigenvector", {"j": 0}),
)


def _closed_form(fn_name, x, model, consts, kw):
    fn = getattr(metrics, fn_name)
    if fn_name == "if_eigenvalue_ratio":
        return np.atleast_1d(fn(x, kw["i"], kw["j"], model, consts, SPEC))
    if fn_name == "if_eigenvector":
        return np.atleast_1d(fn(x, kw["j"], model, consts, SPEC))
    return np.atleast_1d(fn(x, model, consts, SPEC))


class Oracle:
    """The influence-function oracle on the c4 reference at p = 3.

    A 5e4 x 3 Gaussian sample with shape diag(4, 2, 1) at the scale that
    keeps about 85% of the mass inside the trimming ball; the unit-scale
    fit, the constants, the closed forms, and ``empirical_if`` at the
    in-ball probes with the largest closed-form influence plus a few
    out-of-ball probes.
    """

    p = 3
    n_ref = 50_000

    def __init__(self, name, pool, probes, outside):
        self.name, self.pool, self.probes, self.outside = name, pool, probes, outside
        shape = np.diag([4.0, 2.0, 1.0])
        self.shape = shape / np.linalg.det(shape) ** (1.0 / self.p)
        self.sigma = SPEC.cutoff / scipy.stats.chi2.ppf(0.85, self.p)

    def _inputs(self, seed: int, n_ref: int, probes: int, outside: int) -> dict:
        p, cut = self.p, SPEC.cutoff
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_ref, p)) @ np.linalg.cholesky(self.sigma * self.shape).T
        Ls = np.linalg.cholesky(self.shape)
        model = LocationScatter(np.zeros(p), self.shape)
        consts = metrics.asymptotic_constants(RadialSpec.gaussian(p, sigma_s0=self.sigma), SPEC)
        cands = []
        for _ in range(150):
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            cands.append(Ls @ u * math.sqrt(rng.uniform(0.3, 0.65 * cut)))
        inside = []
        for name, fn_name, kw in ORACLE_FUNCTIONALS:
            norms = [np.linalg.norm(_closed_form(fn_name, x, model, consts, kw)) for x in cands]
            for i in np.argsort(norms)[::-1][:probes]:
                inside.append((name, fn_name, kw, cands[i]))
        out = []
        for k in range(outside):
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            out.append(Ls @ u * math.sqrt((1.3 + 0.2 * k) * cut))
        return {"ref": DataSet(X), "inside": inside, "outside": out}

    def prepare(self, seed: int, workdir: Path) -> list[Item]:
        return [Item(j, workdir, self._inputs(sub_seed(seed, self.name, j), self.n_ref,
                                              self.probes, self.outside))
                for j in range(self.pool)]

    def run(self, item: Item):
        ref, p = item.inputs["ref"], self.p
        base = metrics.unit_scale_fit(ref, spec=SPEC, opts=ORACLE_OPTS)
        consts = metrics.asymptotic_constants(RadialSpec.gaussian(p, sigma_s0=self.sigma), SPEC)
        model = LocationScatter(np.zeros(p), self.shape)
        kw_if = dict(eps=1e-3, spec=SPEC, opts=ORACLE_OPTS, base=base, linearity_tol=None)
        pairs = []
        for name, fn_name, kw, x in item.inputs["inside"]:
            cf = _closed_form(fn_name, x, model, consts, kw)
            emp = np.atleast_1d(metrics.empirical_if(name, x, ref, **kw_if, **kw))
            pairs.append((cf, emp))
        zeros = []
        for x in item.inputs["outside"]:
            for name, fn_name, kw in ORACLE_FUNCTIONALS:
                zeros.append(_closed_form(fn_name, x, model, consts, kw))
                zeros.append(np.atleast_1d(metrics.empirical_if(name, x, ref, **kw_if, **kw)))
        item.outputs = {"base": base, "pairs": pairs, "zeros": zeros}

    def check(self, item: Item, schemas: Schemas) -> dict:
        out = item.outputs
        base = out["base"]
        _, logdet = np.linalg.slogdet(base.ls.V)
        if abs(logdet / self.p) > 1e-6:
            raise CheckFailed(f"unit-scale fit has |log det|/p = {abs(logdet / self.p):.2e}")
        for z in out["zeros"]:
            if not np.array_equal(z, np.zeros_like(z)):
                raise CheckFailed("an out-of-ball probe has nonzero influence")
        rels = []
        for cf, emp in out["pairs"]:
            if not np.all(np.isfinite(emp)):
                raise CheckFailed("empirical influence is not finite")
            rels.append(float(np.linalg.norm(emp - cf) / np.linalg.norm(cf)))
        # the true leading eigenvector of diag(4, 2, 1) is e1
        _, vecs = np.linalg.eigh(base.ls.V)
        return {"rho": similarity(vecs[:, -1:], np.eye(self.p)[:, :1]), "if_rel": rels}

    def warmup(self, workdir: Path):
        item = Item(0, workdir, self._inputs(0, 2_000, 1, 1))
        self.run(item)


WORKLOADS = {
    w.name: w for w in (
        Tune("tune_fit", n=1000, pool=15),
        Simulate("simulate", pool=5),
        Oracle("oracle", pool=10, probes=4, outside=2),
    )
}
