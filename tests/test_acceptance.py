"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import robust_scatter
from robust_scatter import (
    DataSet,
    FitOptions,
    LocationScatter,
    RadialSpec,
    RobustScatterError,
    SimConfig,
    WeightSpec,
    asymptotic_constants,
    build_grid,
    empirical_if,
    estimating_equation_residual,
    fit_sppca,
    gen_separable_mixture,
    if_eigenvalue_ratio,
    if_eigenvector,
    if_location,
    pca,
    run_experiment,
    sample_mvt,
    select_a_star,
    similarity_rho,
    smooth_curve,
    solution_set,
    unit_scale_fit,
    weight,
    weight_product,
)

SPEC = WeightSpec(alpha=0.05)
FULL = FitOptions(diag_approx=False)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_spd(p, rng, lo=0.5, hi=4.0):
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    lam = np.linspace(hi, lo, p)
    return (Q * lam) @ Q.T


def test_c1_estimating_equation_residual():
    """Criterion 1: moment-equation residual <= 1e-6 on every converged fit
    across Gaussian and t3 data, p in {2,5,10,50}, n in {250,2000}."""
    rng = np.random.default_rng(20250801)
    worst = 0.0
    checked = 0
    for dist in ("gaussian", "t3"):
        for p in (2, 5, 10, 50):
            for n in (250, 2000):
                V0 = _random_spd(p, rng)
                if dist == "gaussian":
                    X = rng.standard_normal((n, p)) @ np.linalg.cholesky(V0).T
                else:
                    X = sample_mvt(3.0, np.zeros(p), V0, n, rng)
                data = DataSet(X)
                fit = fit_sppca(data, a=float(p), spec=SPEC)
                if fit.converged:
                    worst = max(worst, estimating_equation_residual(data, fit, SPEC))
                    checked += 1
    report(1, checked >= 14 and worst <= 1e-6,
           f"max relative residual {worst:.2e} over {checked} converged fits (tol 1e-6)")


def test_c2_scale_law():
    """Criterion 2: |V(a)|^(1/p) / (a |V_init|^(1/p)) in (0,1) on 100% of
    converged fits over 10-point grids on [0.2p, 3p]."""
    from robust_scatter import initial_estimate

    rng = np.random.default_rng(20250802)
    lo, hi = np.inf, -np.inf
    n_fits = 0
    cases = [("gaussian", p) for p in (2, 5, 10)] + [("t3", p) for p in (2, 5, 10, 50)]
    for dist, p in cases:
        for n in (250, 2000):
            V0 = _random_spd(p, rng)
            if dist == "gaussian":
                X = rng.standard_normal((n, p)) @ np.linalg.cholesky(V0).T
            else:
                X = sample_mvt(3.0, np.zeros(p), V0, n, rng)
            data = DataSet(X)
            base = initial_estimate(data)
            logdet_init = float(np.sum(np.log(np.diag(base.V)))) / p
            for f in solution_set(data, np.linspace(0.2 * p, 3.0 * p, 10), spec=SPEC):
                if not f.converged:
                    continue
                sign, logdet = np.linalg.slogdet(f.ls.V)
                if sign <= 0:
                    report(2, False, f"converged fit with non-PD scatter at p={p}")
                ratio = math.exp(logdet / p - math.log(f.a) - logdet_init)
                lo, hi = min(lo, ratio), max(hi, ratio)
                n_fits += 1
    report(2, 0.0 < lo and hi < 1.0 and n_fits > 100,
           f"determinant ratio within ({lo:.4g}, {hi:.4g}) on {n_fits} converged fits")


def test_c3_shape_uniqueness():
    """Criterion 3: at (n,p) = (4000,5), determinant-normalized scatters at
    two mid-grid scales agree within 5p/sqrt(n) Frobenius, and the top-2
    eigenspace similarity exceeds 0.98 (median of 20 replicates)."""
    n, p = 4000, 5
    rot = np.random.default_rng(42)
    Q, _ = np.linalg.qr(rot.standard_normal((p, p)))
    V0 = (Q * np.array([5.0, 4.0, 3.0, 2.0, 1.0])) @ Q.T
    L = np.linalg.cholesky(V0)
    Gk = Q[:, :2]
    limit = 5.0 * p / math.sqrt(n)
    frob_ok, rhos = True, []
    worst_frob = 0.0
    for rep in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(333, rep)))
        data = DataSet(rng.standard_normal((n, p)) @ L.T)
        path = solution_set(data, np.linspace(0.2 * p, 3.0 * p, 10), spec=SPEC, opts=FULL)
        mids = [f for f in path if f.converged and 0.5 <= f.active_ratio < 1.0]
        assert len(mids) >= 2
        s1, s2 = (f.ls.V / np.linalg.det(f.ls.V) ** (1.0 / p) for f in mids[:2])
        worst_frob = max(worst_frob, float(np.linalg.norm(s1 - s2, "fro")))
        frob_ok &= worst_frob <= limit
        rhos.append(similarity_rho(pca(mids[0].ls, 2).eigenvectors, Gk))
    med_rho = float(np.median(rhos))
    report(3, frob_ok and med_rho >= 0.98,
           f"max shape distance {worst_frob:.3f} (limit {limit:.3f}), "
           f"median top-2 similarity {med_rho:.4f} (floor 0.98)")


IF_SHAPES = {2: [2.0, 0.5], 3: [4.0, 2.0, 1.0], 5: [16.0, 8.0, 4.0, 2.0, 1.0]}


def test_c4_influence_oracle_agreement():
    """Criterion 4: closed-form influence functions match the
    finite-perturbation oracle (n_ref 5e4, eps 1e-3) within the 10%
    tolerance at 20 in-ball probe points per functional and dimension
    (median across probes; every probe within 35%), and both vanish exactly
    at 5 out-of-ball probes."""
    opts = FitOptions(tol=1e-10, max_iter=2000, diag_approx=False)
    cut = SPEC.cutoff
    overall_ok = True
    lines = []
    for p in (2, 3, 5):
        shape = np.diag(IF_SHAPES[p])
        shape = shape / np.linalg.det(shape) ** (1.0 / p)
        # reference scale keeps ~85% of mass inside the fitted trimming ball
        sigma = cut / scipy.stats.chi2.ppf(0.85, p)
        Ldata = np.linalg.cholesky(sigma * shape)
        rng = np.random.default_rng(1000 + p)
        ref = DataSet(rng.standard_normal((50_000, p)) @ Ldata.T)
        base = unit_scale_fit(ref, spec=SPEC, opts=opts)
        model = LocationScatter(np.zeros(p), shape)
        consts = asymptotic_constants(RadialSpec.gaussian(p, sigma_s0=sigma), SPEC)
        Ls = np.linalg.cholesky(shape)
        prng = np.random.default_rng(97)
        cands = []
        for _ in range(150):
            u = prng.standard_normal(p)
            u /= np.linalg.norm(u)
            cands.append(Ls @ u * math.sqrt(prng.uniform(0.3, 0.65 * cut)))
        for name, cf_fn, kw in [
            ("location", lambda x: if_location(x, model, consts, SPEC), {}),
            ("eigratio", lambda x: if_eigenvalue_ratio(x, 0, 1, model, consts, SPEC),
             dict(i=0, j=1)),
            ("eigvec", lambda x: if_eigenvector(x, 0, model, consts, SPEC), dict(j=0)),
        ]:
            scored = sorted(((np.linalg.norm(np.atleast_1d(cf_fn(x))), x) for x in cands),
                            key=lambda t: -t[0])
            rels = []
            for _, x in scored[:20]:
                cf = np.atleast_1d(cf_fn(x))
                emp = np.atleast_1d(
                    empirical_if(name, x, ref, eps=1e-3, spec=SPEC, opts=opts,
                                 base=base, linearity_tol=None, **kw)
                )
                rels.append(float(np.linalg.norm(emp - cf) / np.linalg.norm(cf)))
            med, mx = float(np.median(rels)), float(np.max(rels))
            ok = med <= 0.10 and mx <= 0.35
            overall_ok &= ok
            lines.append(f"p={p} {name} med={med:.3f} max={mx:.3f}")
        # out-of-ball probes: both sides exactly zero
        for k in range(5):
            u = prng.standard_normal(p)
            u /= np.linalg.norm(u)
            x_out = Ls @ u * math.sqrt((1.3 + 0.2 * k) * cut)
            assert np.array_equal(if_location(x_out, model, consts, SPEC), np.zeros(p))
            assert if_eigenvalue_ratio(x_out, 0, 1, model, consts, SPEC) == 0.0
            assert np.array_equal(if_eigenvector(x_out, 0, model, consts, SPEC), np.zeros(p))
            emp = empirical_if("location", x_out, ref, eps=1e-3, spec=SPEC, opts=opts,
                               base=base, linearity_tol=None)
            assert np.array_equal(emp, np.zeros(p))
            assert empirical_if("eigratio", x_out, ref, eps=1e-3, spec=SPEC, opts=opts,
                                i=0, j=1, base=base, linearity_tol=None) == 0.0
    report(4, overall_ok, "; ".join(lines) + " (median tol 0.10, per-probe cap 0.35)")


def test_c5_asymptotic_variance():
    """Criterion 5: over 500 replicates at n = 2000, the sample variance of
    sqrt(n) times the eigenvalue-ratio error matches 4 xi_s lam12^2 within
    15%, with xi_s from quadrature at the matching scale."""
    p, n, reps = 5, 2000, 500
    V0 = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    sigma_v0 = np.linalg.det(V0) ** (1.0 / p)
    # evaluate on the solution-family member whose trimming keeps ~90% of
    # the mass active: the regime where first-order asymptotics hold at
    # this n (see decisions ledger for the analysis)
    branch = sigma_v0 * scipy.stats.chi2.ppf(0.90, p) / SPEC.cutoff
    sigma_s0 = sigma_v0 / branch
    consts = asymptotic_constants(RadialSpec.gaussian(p, sigma_s0=sigma_s0), SPEC)
    lam12 = 4.0 / 5.0
    target = 4.0 * consts.xi_s * lam12**2
    opts = FitOptions(tol=1e-9, max_iter=1000, diag_approx=False)
    L = np.linalg.cholesky(V0)
    vals, fails, hint = [], 0, None
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(555, rep)))
        data = DataSet(rng.standard_normal((n, p)) @ L.T)
        try:
            fit = unit_scale_fit(data, spec=SPEC, opts=opts, a_hint=hint,
                                 target_scale=branch)
            hint = fit.a
            lam = pca(fit.ls, p).eigenvalues
            vals.append(lam[1] / lam[0])
        except RobustScatterError:  # e.g. OracleFailure: the scale search not converging
            fails += 1
    mc_var = n * np.asarray(vals).var(ddof=1)
    rel = abs(mc_var / target - 1.0)
    report(5, rel <= 0.15 and fails <= 5,
           f"MC variance {mc_var:.3f} vs 4*xi*lam12^2 = {target:.3f} "
           f"(relative gap {rel:.3f}, tol 0.15; {fails} failed replicates)")


def test_c6_contamination_robustness():
    """Criterion 6: at (n,p) = (250,50), nu=10, c=4 over 20 replicates the
    tuned estimator beats the unweighted baseline under 15% contamination
    (and stays within 0.05 of it on clean data); the oracle scale never
    loses to the tuned one."""
    configs = [
        SimConfig(n=250, p=50, k=5, nu=10.0, pi=0.15, c=4.0, seed=606),
        SimConfig(n=250, p=50, k=5, nu=10.0, pi=0.0, c=4.0, seed=606),
    ]
    table = run_experiment(configs, methods=("sppca_astar", "sppca_opt", "tme"),
                           replicates=20)  # runs at the package defaults, whose alpha is SPEC's
    rows = {(r["pi"], r["method"]): r["mean_rho"] for r in table.rows}
    contaminated_ok = (rows[(0.15, "sppca_astar")] >= rows[(0.15, "tme")]
                       and rows[(0.15, "sppca_astar")] >= 0.85)
    clean_ok = abs(rows[(0.0, "sppca_astar")] - rows[(0.0, "tme")]) <= 0.05
    by_rep = {}
    for r in table.replicates:
        by_rep.setdefault((r["pi"], r["rep"]), {})[r["method"]] = r["rho"]
    oracle_ok = all(
        v["sppca_opt"] >= v["sppca_astar"] - 1e-12
        for v in by_rep.values()
        if v.get("sppca_opt") is not None and v.get("sppca_astar") is not None
    )
    report(6, contaminated_ok and clean_ok and oracle_ok,
           f"pi=0.15: tuned {rows[(0.15, 'sppca_astar')]:.3f} vs baseline "
           f"{rows[(0.15, 'tme')]:.3f} (floor 0.85); pi=0: gap "
           f"{abs(rows[(0.0, 'sppca_astar')] - rows[(0.0, 'tme')]):.4f} (tol 0.05); "
           f"oracle dominance {'holds' if oracle_ok else 'violated'}")


def test_c7_change_point_recovery():
    """Criterion 7: on exactly separable mixtures with 20% contamination the
    tuned active ratio recovers the clean fraction: median AR over 20
    replicates inside [0.73, 0.85]."""
    ars = []
    for rep in range(20):
        cfg = SimConfig(n=250, p=20, k=5, nu=10.0, pi=0.2, c=4.0, seed=1000 + rep)
        data, _ = gen_separable_mixture(cfg)
        grid = build_grid(data.p)
        path = solution_set(data, grid, spec=SPEC)
        curve = smooth_curve(path)
        ars.append(select_a_star(curve).ar_at_a_star)
    med = float(np.median(ars))
    report(7, 0.73 <= med <= 0.85,
           f"median tuned active ratio {med:.3f} within [0.73, 0.85] (clean fraction 0.8)")


def test_c8_metric_sanity():
    """Criterion 8: similarity identities to 1e-10 and weight analytics to 1e-12."""
    G = np.eye(5)[:, :2]
    ok = abs(similarity_rho(G, G) - 1.0) <= 1e-10
    ok &= abs(similarity_rho(G, np.eye(5)[:, 2:4])) <= 1e-10
    rng = np.random.default_rng(8)
    A = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    B = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    base = similarity_rho(A, B)
    for _ in range(10):
        R1 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        R2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        ok &= abs(similarity_rho(A @ R1, B @ R2) - base) <= 1e-10
    ok &= abs(weight(0.0, SPEC) - 1.0) <= 1e-12
    ok &= abs(weight(math.log(2.0), SPEC) - 0.5) <= 1e-12
    ok &= weight(math.log(1.0 / 0.05), SPEC) == 0.0
    ok &= abs(weight_product(1.0, SPEC) - math.exp(-1.0)) <= 1e-12
    ok &= weight_product(10.0, SPEC) == 0.0
    report(8, ok, "similarity identities at 1e-10; weight analytics at 1e-12")


def test_c9_determinism(tmp_path):
    """Criterion 9: for a fixed input, seed and BLAS thread count, the
    simulate command emits byte-identical artifacts; two fresh processes run
    it at one BLAS thread each."""
    args = ["simulate", "--n", "100", "--p", "5", "--k", "2", "--nu", "10",
            "--pi", "0.1", "--c", "3", "--replicates", "3", "--seed", "12345"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # the children import the package this process imported, installed or not
    root = str(Path(robust_scatter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    blobs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        proc = subprocess.run([sys.executable, "-m", "robust_scatter.cli", *args,
                               "--out-dir", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "experiment.csv").read_bytes()
                     + (out / "experiment.json").read_bytes())
        json.loads((out / "experiment.json").read_text())  # well-formed
    report(9, blobs[0] == blobs[1],
           "simulate outputs byte-identical across two fresh processes at 1 BLAS thread")
