import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from robust_scatter import (
    FitOptions,
    SimConfig,
    SingularScatter,
    build_grid,
    gen_eigenvalues,
    gen_mixture,
    gen_separable_mixture,
    random_orthogonal,
    run_experiment,
    pca,
    sample_mvt,
    similarity_rho,
    solution_set,
)
from robust_scatter import simgen
from robust_scatter.estimator import top_eigenpairs
from robust_scatter.simgen import replicate_seed


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=100, p=5, k=5, nu=10, pi=0.1, c=1.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=100, p=5, k=2, nu=2.0, pi=0.1, c=1.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=100, p=5, k=2, nu=10, pi=1.0, c=1.0, seed=0)


# --------------------------------------------------------- random rotations


def test_random_orthogonal_is_orthogonal(rng):
    for p in (1, 2, 5, 20):
        Q = random_orthogonal(p, rng)
        assert np.max(np.abs(Q.T @ Q - np.eye(p))) < 1e-10
        assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-8


def test_random_orthogonal_first_column_uniform(rng):
    # first coordinate of a uniform sphere vector: (1 + t) / 2 ~ Beta(a, a)
    p = 4
    draws = np.array([random_orthogonal(p, rng)[0, 0] for _ in range(10_000)])
    a = (p - 1) / 2.0
    stat = scipy.stats.kstest((draws + 1.0) / 2.0, scipy.stats.beta(a, a).cdf)
    assert stat.pvalue >= 0.01


# ----------------------------------------------------------- eigenvalue law


def test_gen_eigenvalues_intervals(rng):
    n, p, k = 250, 100, 5
    lo = 2.0 * (1.0 + np.sqrt(p / n))
    hi = 10.0 * (1.0 + np.sqrt(p / n))
    assert lo == pytest.approx(3.2649110640673518)
    assert hi == pytest.approx(16.32455532033676)
    for _ in range(20):
        lam = gen_eigenvalues(n, p, k, rng)
        assert lam.shape == (p,)
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam[:k] >= lo) and np.all(lam[:k] <= hi)
        assert np.all(lam[k:] >= 0.0) and np.all(lam[k:] <= 2.0)


def test_gen_eigenvalues_draws_once_at_large_p():
    # the signal values lie above the noise ones at any p, so nothing is redrawn
    lam = gen_eigenvalues(250, 8000, 5, np.random.default_rng(0))
    assert lam.shape == (8000,)
    assert np.all(np.diff(lam) <= 0)
    assert lam[4] > lam[5]


# -------------------------------------------------------------- t sampling


def test_sample_mvt_location(rng):
    nu, n = 5.0, 100_000
    V = np.diag([2.0, 1.0, 0.5])
    mu = np.array([1.0, -2.0, 0.5])
    X = sample_mvt(nu, mu, V, n, rng)
    bound = 4.0 * np.sqrt(np.trace(V) * nu / (nu - 2.0) / n)
    assert np.linalg.norm(X.mean(0) - mu) <= bound


def test_sample_mvt_gaussian_limit(rng):
    V = np.array([[2.0, 0.5], [0.5, 1.0]])
    X = sample_mvt(1e6, np.zeros(2), V, 100_000, rng)
    S = np.cov(X.T)
    assert np.linalg.norm(S - V, "fro") <= 0.05 * np.linalg.norm(V, "fro")


def test_sample_mvt_distance_quantile(rng):
    nu, p, n = 7.0, 3, 200_000
    X = sample_mvt(nu, np.zeros(p), np.eye(p), n, rng)
    d = np.einsum("ij,ij->i", X, X)
    med = np.median(d / p)
    expect = scipy.stats.f.ppf(0.5, p, nu)
    assert abs(med - expect) <= 0.02 * expect


def test_sample_mvt_heavy_tails(rng):
    p, n = 3, 100_000
    q = scipy.stats.chi2.ppf(0.999, p)
    d3 = np.einsum("ij,ij->i", *(2 * [sample_mvt(3.0, np.zeros(p), np.eye(p), n, rng)]))
    dg = np.einsum("ij,ij->i", *(2 * [sample_mvt(1e6, np.zeros(p), np.eye(p), n, rng)]))
    assert (d3 > q).mean() > (dg > q).mean()


# ------------------------------------------------------------ mixture draws


def test_gen_mixture_clean():
    cfg = SimConfig(n=200, p=10, k=3, nu=10.0, pi=0.0, c=4.0, seed=7)
    data, truth = gen_mixture(cfg)
    assert data.X.shape == (200, 10)
    assert not truth.labels.any()


def test_gen_mixture_centered_contaminant():
    cfg = SimConfig(n=100, p=6, k=2, nu=10.0, pi=0.3, c=0.0, seed=7)
    _, truth = gen_mixture(cfg)
    assert np.allclose(truth.mu_out, 0.0)


def test_gen_mixture_truth_self_consistent():
    cfg = SimConfig(n=100, p=8, k=3, nu=10.0, pi=0.1, c=3.0, seed=11)
    _, truth = gen_mixture(cfg)
    vals, vecs = np.linalg.eigh(truth.V_0)
    top = vecs[:, np.argsort(vals)[::-1][: cfg.k]]
    assert similarity_rho(truth.Gamma_k, top) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.linalg.norm(truth.mu_out) - cfg.c * np.sqrt(cfg.p)) < 1e-9


def test_gen_mixture_label_fraction():
    fracs = []
    for rep in range(200):
        cfg = SimConfig(n=250, p=4, k=1, nu=10.0, pi=0.15, c=4.0, seed=3000 + rep)
        _, truth = gen_mixture(cfg)
        fracs.append(truth.labels.mean())
    assert abs(np.mean(fracs) - 0.15) <= 0.01


def test_gen_mixture_deterministic():
    cfg = SimConfig(n=50, p=5, k=2, nu=10.0, pi=0.2, c=2.0, seed=42)
    d1, t1 = gen_mixture(cfg)
    d2, t2 = gen_mixture(cfg)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(t1.labels, t2.labels)


@pytest.mark.parametrize("p, nu", [(20, 10.0), (10, 10.0)])
def test_separable_mixture_quantile_is_f_ppf(p, nu):
    # gen_separable_mixture reads the F quantile from scipy.special.fdtri;
    # at the (p, nu) the tests draw with it equals scipy.stats' f.ppf exactly
    assert scipy.special.fdtri(p, nu, 0.999) == scipy.stats.f.ppf(0.999, p, nu)


def test_separable_mixture_is_separated():
    cfg = SimConfig(n=250, p=20, k=5, nu=10.0, pi=0.2, c=4.0, seed=9)
    data, truth = gen_separable_mixture(cfg)
    r = truth.truncation_radius
    assert r is not None and r > 0
    delta = data.X[truth.labels] - truth.mu_out
    assert np.max(np.linalg.norm(delta, axis=1)) <= r + 1e-9
    # every contaminated point keeps a large main-metric distance from 0
    d = np.einsum("ij,ij->i", data.X[truth.labels],
                  np.linalg.solve(truth.V_0, data.X[truth.labels].T).T)
    d_bulk = cfg.p * scipy.stats.f.ppf(0.999, cfg.p, cfg.nu)
    assert d.min() >= 2.25 * d_bulk - 1e-6
    # the centre sits at norm c sqrt(p) along V_0's smallest-eigenvalue direction
    norm_mu = np.linalg.norm(truth.mu_out)
    assert norm_mu == pytest.approx(cfg.c * np.sqrt(cfg.p), rel=1e-12)
    _, vecs = np.linalg.eigh(truth.V_0)
    assert abs(abs(vecs[:, 0] @ truth.mu_out) / norm_mu - 1.0) <= 1e-12


# ------------------------------------------------------------- experiments


def test_replicate_seed_is_stable():
    assert replicate_seed(42, 0) == replicate_seed(42, 0)
    assert replicate_seed(42, 0) != replicate_seed(42, 1)
    assert replicate_seed(42, 0) != replicate_seed(43, 0)


@pytest.mark.parametrize("n,p,k", [(250, 20, 3), (250, 50, 5), (400, 100, 5)])
def test_replicate_batch_eigenvectors_match_pca(n, p, k):
    # a replicate decomposes its path's scatters as one stack
    data, _ = gen_mixture(SimConfig(n=n, p=p, k=k, nu=10.0, pi=0.15, c=4.0, seed=p))
    path = [f for f in solution_set(data, build_grid(p)) if f.error is None]
    assert len(path) >= 10
    _, batch = top_eigenpairs(np.stack([f.ls.V for f in path]), k)
    assert batch.shape == (len(path), p, k)
    for f, vecs in zip(path, batch):
        np.testing.assert_allclose(vecs, pca(f.ls, k).eigenvectors, rtol=0, atol=1e-10)


def test_run_experiment_single_row():
    cfg = SimConfig(n=120, p=6, k=2, nu=10.0, pi=0.0, c=4.0, seed=5)
    table = run_experiment(cfg, methods=("sppca_astar",), replicates=1)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["method"] == "sppca_astar"
    assert row["n_fail"] == 0
    assert 0.0 <= row["mean_rho"] <= 1.0


def test_run_experiment_deterministic():
    cfg = SimConfig(n=100, p=5, k=2, nu=10.0, pi=0.1, c=3.0, seed=77)
    t1 = run_experiment(cfg, replicates=3)
    t2 = run_experiment(cfg, replicates=3)
    assert t1.rows == t2.rows
    assert t1.replicates == t2.replicates


def test_run_experiment_decomposes_only_what_its_methods_score(monkeypatch):
    # without sppca_opt a replicate decomposes the tuned fit's scatter
    # alone, and with tme alone none; its values are those of the
    # all-methods run, bit for bit
    cfg = SimConfig(n=120, p=6, k=2, nu=10.0, pi=0.1, c=4.0, seed=9)
    full = run_experiment(cfg, replicates=3)
    rho = {(r["rep"], r["method"]): r["rho"] for r in full.replicates}
    sizes = []

    def recording(stack, k):
        sizes.append(len(stack))
        return top_eigenpairs(stack, k)

    monkeypatch.setattr(simgen, "top_eigenpairs", recording)
    for methods, expected in ((("sppca_astar", "tme"), [1, 1, 1]), (("tme",), [])):
        sizes.clear()
        subset = run_experiment(cfg, methods=methods, replicates=3)
        assert sizes == expected
        assert all(r["rho"] is not None for r in subset.replicates)
        assert [r["rho"] for r in subset.replicates] == [
            rho[r["rep"], r["method"]] for r in subset.replicates]


def test_run_experiment_oracle_dominates_tuned():
    cfg = SimConfig(n=150, p=8, k=2, nu=10.0, pi=0.15, c=4.0, seed=13)
    table = run_experiment(cfg, methods=("sppca_astar", "sppca_opt"), replicates=4)
    by_rep = {}
    for row in table.replicates:
        by_rep.setdefault(row["rep"], {})[row["method"]] = row["rho"]
    for rep, vals in by_rep.items():
        assert vals["sppca_opt"] >= vals["sppca_astar"] - 1e-12


def test_run_experiment_clean_gaussianish_recovery():
    cfg = SimConfig(n=500, p=10, k=3, nu=10.0, pi=0.0, c=4.0, seed=21)
    table = run_experiment(cfg, methods=("sppca_astar",), replicates=3)
    assert table.rows[0]["mean_rho"] >= 0.95


@pytest.mark.parametrize("make, match", [
    (lambda: gen_eigenvalues(100, 5, 5, np.random.default_rng(0)), "^need k < p$"),
    (lambda: gen_eigenvalues(100, 5, 0, np.random.default_rng(0)), "^need k >= 1$"),
    (lambda: SimConfig(n=100, p=5, k=0, nu=10.0, pi=0.1, c=1.0, seed=0), "^need k >= 1$"),
    (lambda: SimConfig(n=100, p=5, k=-1, nu=10.0, pi=0.1, c=1.0, seed=0), "^need k >= 1$"),
    (lambda: gen_separable_mixture(SimConfig(n=50, p=5, k=2, nu=10.0, pi=0.2, c=0.5, seed=1)),
     "^cannot separate contaminant at c=0.5: achievable margin 0.06 below 1.2$"),
    (lambda: run_experiment(SimConfig(n=50, p=5, k=2, nu=10.0, pi=0.0, c=1.0, seed=1),
                            replicates=0), "^replicates must be >= 1$"),
], ids=["eigenvalues-k", "eigenvalues-k0", "config-k0", "config-k-neg", "separable-margin",
        "zero-replicates"])
def test_simgen_rejects_bad_arguments(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_run_experiment_rejects_unknown_method():
    cfg = SimConfig(n=100, p=5, k=2, nu=10.0, pi=0.0, c=1.0, seed=1)
    with pytest.raises(ValueError):
        run_experiment(cfg, methods=("robpca",), replicates=1)


def test_run_experiment_too_few_usable_fits_fails_every_method(monkeypatch):
    # three of the six scales trim every observation: no curve, no method
    monkeypatch.setattr(simgen, "build_grid",
                        lambda p: np.array([0.001, 0.002, 0.003, 5.0, 6.0, 7.0]))
    cfg = SimConfig(n=100, p=5, k=2, nu=10.0, pi=0.0, c=1.0, seed=1)
    table = run_experiment(cfg, replicates=1)
    assert all(r["rho"] is None for r in table.replicates)
    assert all(row["n_fail"] == 1 for row in table.rows)


def test_run_experiment_records_tme_failure(monkeypatch):
    def failing_tme(*args, **kwargs):
        raise SingularScatter("baseline scatter is singular")

    monkeypatch.setattr("robust_scatter.simgen.fit_tme", failing_tme)
    cfg = SimConfig(n=100, p=5, k=2, nu=10.0, pi=0.0, c=1.0, seed=1)
    table = run_experiment(cfg, replicates=1)
    rho = {r["method"]: r["rho"] for r in table.replicates}
    assert rho["tme"] is None
    assert rho["sppca_astar"] is not None and rho["sppca_opt"] is not None


def test_run_experiment_propagates_unexpected_tme_errors(monkeypatch):
    # only the package's errors and LinAlgError make a failed tme replicate;
    # a bug must surface
    def broken_tme(*args, **kwargs):
        raise TypeError("not a fit failure")

    monkeypatch.setattr("robust_scatter.simgen.fit_tme", broken_tme)
    cfg = SimConfig(n=100, p=5, k=2, nu=10.0, pi=0.0, c=1.0, seed=1)
    with pytest.raises(TypeError, match="not a fit failure"):
        run_experiment(cfg, methods=("tme",), replicates=1)


def test_run_experiment_silences_only_the_baselines_own_warnings(monkeypatch):
    # fit_tme's own warnings (here: non-convergence) stay silent; a
    # numerical fault's RuntimeWarning must surface
    real_tme = simgen.fit_tme

    def stopped_tme(data, mu):
        return real_tme(data, mu, opts=FitOptions(max_iter=1))

    def faulty_tme(data, mu):
        warnings.warn("overflow encountered in divide", RuntimeWarning)
        return real_tme(data, mu)

    cfg = SimConfig(n=100, p=5, k=2, nu=10.0, pi=0.0, c=1.0, seed=1)
    data, _ = gen_mixture(cfg)
    with pytest.warns(UserWarning, match="did not converge"):
        stopped_tme(data, np.zeros(cfg.p))
    monkeypatch.setattr(simgen, "fit_tme", stopped_tme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_experiment(cfg, methods=("tme",), replicates=1)
    assert table.replicates[0]["rho"] is not None
    monkeypatch.setattr(simgen, "fit_tme", faulty_tme)
    with pytest.warns(RuntimeWarning, match="overflow"):
        run_experiment(cfg, methods=("tme",), replicates=1)
