"""Reproducible generation of contaminated elliptical data and the
replicate experiment harness.

Data are drawn from a two-component mixture: a p-variate t distribution
around the origin (the "main" cloud whose top-k eigenspace is the target of
PCA) plus, with probability ``pi``, a second t3 cloud centered at distance
``c * sqrt(p)`` in a random direction.  Scatter matrices for both components
are built from Haar-random eigenvectors and uniformly drawn eigenvalues,
signal eigenvalues scaled up with the aspect ratio p/n.

``run_experiment`` evaluates estimator variants over seeded replicates and
returns subspace-similarity summaries per configuration and method.

A replicate takes the top-k eigenvectors of the scatters it scores (its
whole path for ``sppca_opt``, else the tuned fit's, none for ``tme``
alone) from one stacked ``numpy.linalg.eigh`` call and scores them in one
``similarity_rho`` call.  The F quantile of ``gen_separable_mixture`` comes
from ``scipy.special``, imported inside that function, so importing the
package (every CLI command does) loads no ``scipy``.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import RobustScatterError
from .estimator import DataSet, FitOptions, fit_tme, pca, solution_set, top_eigenpairs
from .metrics import similarity_rho
from .tuning import build_grid, select_a_star, smooth_curve
from .weights import WeightSpec

METHODS = ("sppca_astar", "sppca_opt", "tme")
_EIGEN_DRAWS = 1000  # gen_eigenvalues gives up after this many draws

# gen_separable_mixture: the main cloud's squared-distance quantile, and the
# multiple of it that every clipped contaminant point keeps
_QUANTILE = 0.999
_MARGIN = 2.25


@dataclass(frozen=True)
class SimConfig:
    """Mixture-model parameters for one simulation configuration."""

    n: int
    p: int
    k: int
    nu: float
    pi: float
    c: float
    seed: int

    def __post_init__(self):
        if not self.n >= 2:
            raise ValueError("need n >= 2")
        if not self.k >= 1:
            raise ValueError("need k >= 1")
        if not self.k < self.p:
            raise ValueError("need k < p")
        if not 2 < self.nu < np.inf:
            raise ValueError("need a finite nu > 2 for the main component")
        if not 0.0 <= self.pi < 1.0:
            raise ValueError("pi must lie in [0, 1)")
        if not 0.0 <= self.c < np.inf:
            raise ValueError("need a finite c >= 0")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("need an integer seed >= 0")


@dataclass(frozen=True)
class GroundTruth:
    """Generating parameters recorded next to a simulated draw."""

    V_0: np.ndarray
    Gamma_k: np.ndarray
    mu_out: np.ndarray
    labels: np.ndarray  # True marks a contaminated row
    truncation_radius: float | None = None


def random_orthogonal(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with the sign fix."""
    A = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def gen_eigenvalues(n: int, p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k signal eigenvalues over [2u, 10u] with u = 1 + sqrt(p/n), plus
    p - k noise eigenvalues over [0, 2], sorted descending.

    Redrawn until all consecutive gaps exceed 1e-6 so the eigenvalues are
    strictly distinct; a draw succeeds with chance about exp(-p^2 / 2e6),
    so after ``_EIGEN_DRAWS`` draws this raises ValueError.
    """
    if not k >= 1:
        raise ValueError("need k >= 1")
    if not k < p:
        raise ValueError("need k < p")
    u = 1.0 + np.sqrt(p / n)
    for _ in range(_EIGEN_DRAWS):
        signal = rng.uniform(2.0 * u, 10.0 * u, size=k)
        noise = rng.uniform(0.0, 2.0, size=p - k)
        lam = np.sort(np.concatenate([signal, noise]))[::-1]
        if np.all(-np.diff(lam) > 1e-6):
            return lam
    raise ValueError(f"no eigenvalues 1e-6 apart in {_EIGEN_DRAWS} draws at p={p}, k={k}")


def sample_mvt(nu: float, mu, V, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the p-variate t with location mu and shape V.

    Constructed as mu + Z / sqrt(s) with Z ~ N(0, V) and s ~ chi2(nu)/nu.
    """
    mu = np.asarray(mu, dtype=float)
    V = np.asarray(V, dtype=float)
    L = np.linalg.cholesky(V)
    Z = rng.standard_normal((n, mu.size)) @ L.T
    s = rng.chisquare(nu, size=n) / nu
    return mu + Z / np.sqrt(s)[:, None]


def _component_params(cfg: SimConfig, rng: np.random.Generator):
    Gamma = random_orthogonal(cfg.p, rng)
    lam = gen_eigenvalues(cfg.n, cfg.p, cfg.k, rng)
    V = (Gamma * lam) @ Gamma.T
    return Gamma, lam, 0.5 * (V + V.T)


def _assemble(cfg: SimConfig, rng, V_0, contaminate_rows):
    labels = rng.random(cfg.n) < cfg.pi
    n_out = int(labels.sum())
    X = np.empty((cfg.n, cfg.p))
    X[~labels] = sample_mvt(cfg.nu, np.zeros(cfg.p), V_0, cfg.n - n_out, rng)
    if n_out:
        X[labels] = contaminate_rows(n_out, rng)
    return X, labels


def gen_mixture(cfg: SimConfig) -> tuple[DataSet, GroundTruth]:
    """One seeded draw from the contaminated mixture with its ground truth."""
    rng = np.random.default_rng(cfg.seed)
    Gamma, _, V_0 = _component_params(cfg, rng)
    _, _, V_out = _component_params(cfg, rng)
    u = rng.standard_normal(cfg.p)
    u /= np.linalg.norm(u)
    mu_out = cfg.c * np.sqrt(cfg.p) * u

    X, labels = _assemble(cfg, rng, V_0, lambda n_out, r: sample_mvt(3.0, mu_out, V_out, n_out, r))
    truth = GroundTruth(V_0=V_0, Gamma_k=Gamma[:, : cfg.k], mu_out=mu_out, labels=labels)
    return DataSet(X), truth


def gen_separable_mixture(cfg: SimConfig) -> tuple[DataSet, GroundTruth]:
    """Mixture whose contaminant is confined to a ball that provably misses
    a large central region of the main cloud.

    The contaminant center lies at norm ``c * sqrt(p)`` along the main
    scatter's smallest-eigenvalue eigenvector, the direction in which that
    norm has the largest squared distance ``(c * sqrt(p))^2 / lambda_min``
    in the main metric.  Contaminant draws are radially clipped to
    ``||x - mu_out|| <= r``, with ``r`` chosen so every clipped point keeps
    squared distance (from the main center, in the main metric) at least
    2.25 times the main cloud's 0.999 quantile level; when the full margin
    is out of reach the largest achievable one is used, down to a floor of
    1.2.  This realizes an exactly separable two-block scenario for tuning
    tests, which the unrestricted t3 contaminant of ``gen_mixture`` cannot.
    """
    from scipy.special import fdtri

    rng = np.random.default_rng(cfg.seed)
    Gamma, lam, V_0 = _component_params(cfg, rng)
    _, _, V_out = _component_params(cfg, rng)

    # main-cloud squared distances are p * F(p, nu) distributed; fdtri is
    # the F distribution's quantile function
    d_bulk = cfg.p * fdtri(cfg.p, cfg.nu, _QUANTILE)
    lam_min = lam[-1]
    norm_mu = cfg.c * np.sqrt(cfg.p)
    d_center = norm_mu**2 / lam_min

    r_floor = 0.05 * np.sqrt(cfg.p)
    reachable = (np.sqrt(d_center) - r_floor / np.sqrt(lam_min)) ** 2 / d_bulk
    margin_eff = min(_MARGIN, reachable)
    if margin_eff < 1.2:
        raise ValueError(
            f"cannot separate contaminant at c={cfg.c}: achievable margin "
            f"{reachable:.2f} below 1.2"
        )
    d_target = margin_eff * d_bulk
    r = np.sqrt(lam_min) * (np.sqrt(d_center) - np.sqrt(d_target))
    r = min(r, 0.75 * norm_mu)
    mu_out = norm_mu * Gamma[:, -1]

    def clipped_rows(n_out, rgen):
        rows = sample_mvt(3.0, mu_out, V_out, n_out, rgen)
        delta = rows - mu_out
        norms = np.linalg.norm(delta, axis=1)
        scale = np.minimum(1.0, r / np.maximum(norms, 1e-300))
        return mu_out + delta * scale[:, None]

    X, labels = _assemble(cfg, rng, V_0, clipped_rows)
    truth = GroundTruth(V_0=V_0, Gamma_k=Gamma[:, : cfg.k], mu_out=mu_out,
                        labels=labels, truncation_radius=float(r))
    return DataSet(X), truth


@dataclass(frozen=True)
class ExperimentTable:
    """Aggregated (``rows``, one per config and method) and per-replicate
    similarity results, as plain dicts; ``simulate`` writes them to disk."""

    rows: list[dict]
    replicates: list[dict]


def replicate_seed(seed: int, rep: int) -> int:
    """Deterministic 64-bit per-replicate seed derived from (seed, rep)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def _one_replicate(cfg, rep, methods, spec, opts):
    """Similarities for all requested methods on one seeded draw."""
    data, truth = gen_mixture(replace(cfg, seed=replicate_seed(cfg.seed, rep)))
    out: dict[str, float | None] = {}
    path = solution_set(data, build_grid(cfg.p), spec=spec, opts=opts)
    try:
        curve = smooth_curve(path)
    except RobustScatterError:  # fewer than 4 usable fits
        return {m: None for m in methods}
    sel = select_a_star(curve)
    astar_fit = next(f for f in path if f.a == sel.a_star)

    if "sppca_astar" in methods or "sppca_opt" in methods:
        # only sppca_opt scores the whole path; its scatters are formed
        # together, before the eigendecompositions: interleaving is slower
        scored = [f for f in path if f.error is None] if "sppca_opt" in methods else [astar_fit]
        _, vecs = top_eigenpairs(np.stack([f.ls.V for f in scored]), cfg.k)
        rho = similarity_rho(vecs, truth.Gamma_k)
        rhos = dict(zip((f.a for f in scored), rho.tolist()))
        if "sppca_astar" in methods:
            out["sppca_astar"] = rhos[sel.a_star]
        if "sppca_opt" in methods:
            out["sppca_opt"] = max(rhos.values())
    if "tme" in methods:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", category=UserWarning,
                                        module=r"robust_scatter\.estimator")
                ls = fit_tme(data, astar_fit.ls.mu, opts=opts)
            out["tme"] = similarity_rho(pca(ls, cfg.k).eigenvectors, truth.Gamma_k)
        except (RobustScatterError, np.linalg.LinAlgError):
            out["tme"] = None
    return out


def run_experiment(
    configs,
    methods=METHODS,
    replicates: int = 20,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions = FitOptions(),
) -> ExperimentTable:
    """Mean and standard error of the subspace similarity per config and
    method over seeded replicates, as an in-memory ``ExperimentTable``.

    ``sppca_astar`` picks the path element at the tuned scale, ``sppca_opt``
    the path element with the best similarity (an oracle, for reference
    only), and ``tme`` the unweighted baseline (``fit_tme`` with ``opts``, so
    under the diagonal metric by default) at the tuned location.
    Per-replicate seeds derive from (config seed, replicate index), so any
    replicate can be reproduced in isolation.  Replicates with failed fits
    are excluded per method and counted; a config-method cell failing more
    than 20% of replicates is flagged invalid.
    """
    if isinstance(configs, SimConfig):
        configs = [configs]
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")

    rows, rep_rows = [], []
    for cfg in configs:
        results = [_one_replicate(cfg, rep, methods, spec, opts) for rep in range(replicates)]

        for rep, res in enumerate(results):
            for method in methods:
                rep_rows.append(
                    {**asdict(cfg), "rep": rep, "method": method, "rho": res[method]}
                )
        for method in methods:
            vals = np.array([r[method] for r in results if r[method] is not None])
            n_fail = replicates - vals.size
            mean = float(vals.mean()) if vals.size else None
            se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else None
            rows.append(
                {
                    **asdict(cfg),
                    "method": method,
                    "mean_rho": mean,
                    "se_rho": se,
                    "n_fail": n_fail,
                    "valid": n_fail <= 0.2 * replicates,
                }
            )
    return ExperimentTable(rows=rows, replicates=rep_rows)
