import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from robust_scatter import (
    DataSet,
    DegenerateSpectrum,
    FitOptions,
    FitResult,
    LocationScatter,
    OracleFailure,
    RadialSpec,
    WeightSpec,
    asymptotic_constants,
    asymptotic_variance,
    empirical_if,
    fit_sppca,
    if_eigenvalue_ratio,
    if_eigenvector,
    if_location,
    similarity_rho,
    unit_scale_fit,
)
from robust_scatter import estimator, metrics
from robust_scatter.weights import UNIT, weight, weight_product

SPEC = WeightSpec()
IF_OPTS = FitOptions(tol=1e-10, max_iter=2000, diag_approx=False)


# ----------------------------------------------------------------- rho


def test_rho_identity_and_orthogonal():
    G = np.eye(4)[:, :2]
    assert similarity_rho(G, G) == pytest.approx(1.0, abs=1e-12)
    H = np.eye(4)[:, 2:]
    assert similarity_rho(G, H) == pytest.approx(0.0, abs=1e-12)


def test_rho_half_angle():
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    assert similarity_rho(np.array([[1.0], [0.0]]), np.array([[c], [s]])) == pytest.approx(
        c, abs=1e-12
    )


def test_rho_rotation_invariance(rng):
    A = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    B = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    base = similarity_rho(A, B)
    for _ in range(5):
        R1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        R2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert similarity_rho(A @ R1, B @ R2) == pytest.approx(base, abs=1e-10)


def test_rho_validates_inputs():
    G = np.eye(3)[:, :2]
    with pytest.raises(ValueError):
        similarity_rho(G, np.eye(3))
    with pytest.raises(ValueError):
        similarity_rho(2.0 * G, G)


# ------------------------------------------------------------ radial specs


def test_radial_normalization():
    for radial in (
        RadialSpec.gaussian(2),
        RadialSpec.gaussian(3, sigma_s0=0.5),
        RadialSpec.student_t(2, 3.0),
        RadialSpec.student_t(3, 6.0, sigma_s0=2.0),
    ):
        assert radial.normalization_integral() == pytest.approx(1.0, abs=1e-8)


def test_radial_validation():
    with pytest.raises(ValueError):
        RadialSpec(kind="uniform", p=2)
    with pytest.raises(ValueError):
        RadialSpec.student_t(2, nu=-1.0)
    with pytest.raises(ValueError):
        RadialSpec.gaussian(2, sigma_s0=0.0)


# --------------------------------------------------------------- constants


def test_constants_gaussian_unit_weight_anchor():
    for p in (2, 3, 5, 10):
        c = asymptotic_constants(RadialSpec.gaussian(p), WeightSpec(kind=UNIT))
        assert c.eta_s == pytest.approx(1.0, abs=1e-8)
        assert c.phi_s == pytest.approx(1.0, abs=1e-8)
        assert c.xi_s == pytest.approx(1.0, abs=1e-8)


def test_constants_quadrature_vs_monte_carlo():
    # independent oracle: importance-sampled expectations under the radial
    # law, 1e7 draws; agreement to 3 significant digits
    rng = np.random.default_rng(7)
    N = 10**7
    cases = [
        (RadialSpec.gaussian(2), lambda: rng.chisquare(2, N)),
        (RadialSpec.student_t(3, 6.0),
         lambda: 3.0 * (rng.chisquare(3, N) / 3.0) / (rng.chisquare(6.0, N) / 6.0)),
    ]
    for radial, draw in cases:
        c = asymptotic_constants(radial, SPEC)
        u = draw()
        ratio = radial.dpsi_s(u) / radial.psi_s(u)
        w = weight(u, SPEC)
        p = radial.p
        eta_mc = 1.0 / abs((2.0 / p) * np.mean(u * w * ratio))
        phi_mc = 1.0 / abs((2.0 / (p * (p + 2.0))) * np.mean(u**2 * w * ratio))
        xi_mc = phi_mc**2 / (p * (p + 2.0)) * np.mean(u**2 * w**2)
        assert abs(eta_mc - c.eta_s) / c.eta_s < 2e-3
        assert abs(phi_mc - c.phi_s) / c.phi_s < 2e-3
        assert abs(xi_mc - c.xi_s) / c.xi_s < 2e-3


def test_constants_positive_for_student_t():
    c = asymptotic_constants(RadialSpec.student_t(4, 5.0), SPEC)
    assert c.eta_s > 0 and c.phi_s > 0 and c.xi_s > 0


# ------------------------------------------------------------- closed forms


def model_p3():
    V = np.diag([3.0, 2.0, 1.0]) / 6.0 ** (1.0 / 3.0)
    return LocationScatter(np.zeros(3), V)


def test_if_location_basics():
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    assert np.allclose(if_location(np.zeros(3), model, consts, SPEC), 0.0)
    far = np.array([10.0, 0.0, 0.0])
    assert np.allclose(if_location(far, model, consts, SPEC), 0.0)
    x = np.array([0.5, 0.2, -0.1])
    from robust_scatter import mahalanobis

    d = mahalanobis(x, model)
    expect = consts.eta_s * math.exp(-d) * x
    assert np.allclose(if_location(x, model, consts, SPEC), expect, rtol=1e-12)


def test_if_ratio_sign_and_zeros():
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    assert if_eigenvalue_ratio(np.zeros(3), 0, 1, model, consts, SPEC) == 0.0
    # equal squared projections on both axes: sign set by 1/lam_j - 1/lam_i
    x = 0.4 * (np.eye(3)[:, 0] + np.eye(3)[:, 1])
    val = if_eigenvalue_ratio(x, 0, 1, model, consts, SPEC)
    assert val > 0.0  # lam_i > lam_j
    assert if_eigenvalue_ratio(x, 1, 0, model, consts, SPEC) < 0.0
    with pytest.raises(ValueError):
        if_eigenvalue_ratio(x, 1, 1, model, consts, SPEC)


def test_if_degenerate_spectrum():
    model = LocationScatter(np.zeros(2), np.eye(2))
    consts = asymptotic_constants(RadialSpec.gaussian(2), SPEC)
    with pytest.raises(DegenerateSpectrum):
        if_eigenvalue_ratio(np.ones(2), 0, 1, model, consts, SPEC)
    with pytest.raises(DegenerateSpectrum):
        if_eigenvector(np.ones(2), 0, model, consts, SPEC)


def test_if_eigenvector_structure(rng):
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    assert np.allclose(if_eigenvector(np.zeros(3), 1, model, consts, SPEC), 0.0)
    gam = np.eye(3)
    for _ in range(200):
        x = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        for j in range(3):
            v = if_eigenvector(x, j, model, consts, SPEC)
            assert abs(v @ gam[:, j]) < 1e-10 * max(1.0, np.linalg.norm(v))


def test_if_norm_bound_by_weight_product(rng):
    # |IF| <= phi_s * lam_max * max_k 1/|lam_j - lam_k| * h(d)
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    lam = np.diag(model.V)
    j = 1
    gap = min(abs(lam[j] - lam[k]) for k in range(3) if k != j)
    C = consts.phi_s * lam.max() / gap
    from robust_scatter import mahalanobis

    for _ in range(10_000):
        x = rng.standard_normal(3) * rng.uniform(0.05, 4.0)
        d = mahalanobis(x, model)
        bound = C * weight_product(d, SPEC)
        assert np.linalg.norm(if_eigenvector(x, j, model, consts, SPEC)) <= bound + 1e-12


def test_if_ratio_bound_by_weight_product(rng):
    # |IF| <= phi_s * lam_ij * lam_max * max(1/lam_i, 1/lam_j) * h(d)
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    lam = np.diag(model.V)
    i, j = 0, 1
    C = consts.phi_s * (lam[j] / lam[i]) * lam.max() * max(1.0 / lam[i], 1.0 / lam[j])
    from robust_scatter import mahalanobis

    for _ in range(2000):
        x = rng.standard_normal(3) * rng.uniform(0.05, 4.0)
        d = mahalanobis(x, model)
        bound = C * weight_product(d, SPEC)
        assert abs(if_eigenvalue_ratio(x, i, j, model, consts, SPEC)) <= bound + 1e-12


# ------------------------------------------------------ asymptotic variance


def test_variance_ratio_formula_scaling():
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    lam = np.diag(model.V)
    v = asymptotic_variance("eigratio", model, consts, i=0, j=1)
    # at a hypothetical ratio of 1 the formula collapses to 4 xi_s
    assert v / (lam[1] / lam[0]) ** 2 == pytest.approx(4.0 * consts.xi_s, rel=1e-12)


def test_variance_eigvec_null_direction():
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    S = asymptotic_variance("eigvec", model, consts, j=0)
    g0 = np.eye(3)[:, 0]
    assert abs(g0 @ S @ g0) < 1e-12
    assert np.all(np.linalg.eigvalsh(S) >= -1e-12)


def test_variance_validates_target():
    model = model_p3()
    consts = asymptotic_constants(RadialSpec.gaussian(3), SPEC)
    with pytest.raises(ValueError):
        asymptotic_variance("trace", model, consts)
    with pytest.raises(ValueError):
        asymptotic_variance("eigratio", model, consts, i=1, j=1)


# -------------------------------------------------------- empirical oracle


def gaussian_reference(p, V, n=50_000, seed=11):
    rng = np.random.default_rng(seed)
    return DataSet(rng.standard_normal((n, p)) @ np.linalg.cholesky(V).T)


def test_unit_scale_fit_hits_unit_determinant():
    V = np.diag([2.0, 0.5])
    ref = gaussian_reference(2, V)
    fit = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    assert fit.converged
    sign, logdet = np.linalg.slogdet(fit.ls.V)
    assert sign > 0
    assert abs(logdet / 2.0) < 1e-5


def test_unit_scale_search_computes_initial_estimate_once(monkeypatch):
    ref = gaussian_reference(2, np.diag([2.0, 0.5]), n=2000)
    original = estimator.initial_estimate
    calls = []

    def counted(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(metrics, "initial_estimate", counted)
    monkeypatch.setattr(estimator, "initial_estimate", counted)
    fit = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    assert len(calls) == 1
    # each secant fit is the cold start fit_sppca makes at its scale
    cold = fit_sppca(ref, fit.a, spec=SPEC, opts=IF_OPTS)
    assert np.array_equal(fit.ls.V, cold.ls.V) and np.array_equal(fit.ls.mu, cold.ls.mu)


def test_empirical_if_trimmed_point_is_exact_zero():
    V = np.diag([2.0, 0.5])
    ref = gaussian_reference(2, V)
    base = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    x = np.array([10.0, 10.0])
    out = empirical_if("location", x, ref, spec=SPEC, opts=IF_OPTS, base=base)
    assert np.array_equal(out, np.zeros(2))
    assert empirical_if("eigratio", x, ref, spec=SPEC, opts=IF_OPTS, i=0, j=1, base=base) == 0.0


def test_empirical_if_near_zero_at_center():
    V = np.diag([2.0, 0.5])
    ref = gaussian_reference(2, V)
    base = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    out = empirical_if("location", base.ls.mu.copy(), ref, eps=1e-3, spec=SPEC,
                       opts=IF_OPTS, base=base, linearity_tol=None)
    consts = asymptotic_constants(RadialSpec.gaussian(2), SPEC)
    assert np.linalg.norm(out) <= 0.05 * consts.eta_s


def test_empirical_if_linearity_in_eps():
    V = np.diag([2.0, 0.5])
    ref = gaussian_reference(2, V)
    base = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    x = np.array([0.9, 0.3])
    q1 = empirical_if("location", x, ref, eps=1e-3, spec=SPEC, opts=IF_OPTS,
                      base=base, linearity_tol=None)
    q2 = empirical_if("location", x, ref, eps=5e-4, spec=SPEC, opts=IF_OPTS,
                      base=base, linearity_tol=None)
    assert np.linalg.norm(q1 - q2) <= 0.05 * np.linalg.norm(q1)


def test_empirical_if_matches_closed_form_location():
    V = np.diag([2.0, 0.5])  # det 1
    ref = gaussian_reference(2, V)
    base = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    model = LocationScatter(np.zeros(2), V)
    consts = asymptotic_constants(RadialSpec.gaussian(2), SPEC)
    rng = np.random.default_rng(3)
    rels = []
    for _ in range(8):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        x = np.linalg.cholesky(V) @ u * math.sqrt(rng.uniform(0.3, 1.8))
        cf = if_location(x, model, consts, SPEC)
        emp = empirical_if("location", x, ref, eps=1e-3, spec=SPEC, opts=IF_OPTS,
                           base=base, linearity_tol=None)
        rels.append(np.linalg.norm(emp - cf) / np.linalg.norm(cf))
    assert np.median(rels) <= 0.10


def test_empirical_if_validates_arguments():
    V = np.diag([2.0, 0.5])
    ref = gaussian_reference(2, V, n=2000)
    with pytest.raises(ValueError):
        empirical_if("location", np.zeros(2), ref, eps=0.5)
    with pytest.raises(ValueError):
        empirical_if("mode", np.zeros(2), ref)
    with pytest.raises(ValueError):
        empirical_if("eigvec", np.zeros(2), ref)
    with pytest.raises(ValueError):
        empirical_if("eigratio", np.zeros(2), ref, i=1, j=1)


def fixed_scatter_fits(monkeypatch, V, diag_approx=False):
    """Make every fit of the unit-scale search return scatter V, whatever its
    scale."""
    def fake_fit(data, a, init=None, spec=SPEC, opts=IF_OPTS, tau=0.0):
        ls = LocationScatter(np.zeros(data.p), V, diag_approx=diag_approx)
        return FitResult(ls=ls, a=a, active_mask=np.ones(data.n, dtype=bool),
                         active_ratio=1.0, iterations=1, converged=True, residual=0.0)
    monkeypatch.setattr(metrics, "fit_sppca", fake_fit)


def test_unit_scale_search_failure_has_a_type(monkeypatch):
    # the scale of the fitted scatter ignores a, so the secant never lands
    ref = gaussian_reference(2, np.diag([2.0, 0.5]), n=500)
    fixed_scatter_fits(monkeypatch, 2.0 * np.eye(2))
    with pytest.raises(OracleFailure, match="scale search did not converge"):
        unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)


def test_collapsed_scatter_in_unit_scale_search_has_a_type(monkeypatch):
    # an indefinite scatter passes the diagonal-metric check but has no log det
    ref = gaussian_reference(2, np.diag([2.0, 0.5]), n=500)
    fixed_scatter_fits(monkeypatch, np.array([[1.0, 2.0], [2.0, 1.0]]), diag_approx=True)
    with pytest.raises(OracleFailure, match="scatter collapsed during unit-scale search"):
        unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)


def test_unconverged_perturbed_refit_has_a_type():
    ref = gaussian_reference(2, np.diag([2.0, 0.5]), n=2000)
    base = unit_scale_fit(ref, spec=SPEC, opts=IF_OPTS)
    one_step = FitOptions(tol=1e-10, max_iter=1, diag_approx=False)
    with pytest.raises(OracleFailure, match="perturbed refit did not converge") as info:
        empirical_if("location", np.array([0.9, 0.3]), ref, spec=SPEC, opts=one_step,
                     base=base)
    assert not isinstance(info.value, ValueError)


# -------------------------------- population oracle for the closed forms


def test_closed_forms_match_population_perturbation():
    """Deterministic arbitration at p = 2: differentiate the population
    functional under a point-mass perturbation by quadrature (no sampling),
    and compare all three closed forms at sub-percent tolerance."""
    p = 2
    V0 = np.diag([2.0, 0.5])
    cut = SPEC.cutoff
    x_atom = np.linalg.cholesky(V0) @ np.array([0.8, 0.6]) * math.sqrt(1.8)

    n_theta = 256
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    circle = np.vstack([np.cos(thetas), np.sin(thetas)])

    def gauss_pdf(pts):
        q = pts[:, 0] ** 2 / 2.0 + pts[:, 1] ** 2 / 0.5
        return np.exp(-q / 2.0) / (2.0 * np.pi)

    def ball_integrals(mu, V):
        M = np.linalg.cholesky(V)
        dirs = (M @ circle).T
        detM = np.linalg.det(M)

        def at_u(u):
            pts = mu + np.sqrt(u) * dirs
            base = np.exp(-u) * gauss_pdf(pts) * detM * 0.5
            s2 = (pts.T * base) @ pts
            return np.concatenate([[base.sum()], base @ pts, s2.ravel(), [base.sum() * u]])

        out = np.array([
            scipy.integrate.quad(lambda u, idx=i: at_u(u)[idx], 0.0, cut,
                                 epsabs=1e-12, epsrel=1e-10, limit=200)[0]
            for i in range(8)
        ])
        out *= 2.0 * np.pi / n_theta
        return out[0], out[1:3], out[3:7].reshape(2, 2), out[7]

    def solve(eps):
        mu, V = np.zeros(2), V0.copy()
        for _ in range(400):
            s0, s1, s2, sd = ball_integrals(mu, V)
            diff = x_atom - mu
            da = float(diff @ np.linalg.solve(V, diff))
            wa = math.exp(-da) if da < cut else 0.0
            S0 = (1 - eps) * s0 + eps * wa
            S1 = (1 - eps) * s1 + eps * wa * x_atom
            Sd = (1 - eps) * sd + eps * wa * da
            Sc = (1 - eps) * s2 + eps * wa * np.outer(x_atom, x_atom)
            mu_new = S1 / S0
            C = Sc - np.outer(S1, mu) - np.outer(mu, S1) + S0 * np.outer(mu, mu)
            V_new = 2.0 * C / Sd
            delta = max(np.linalg.norm(mu_new - mu), np.linalg.norm(V_new - V))
            mu, V = mu_new, V_new
            if delta < 1e-13:
                break
        V = V / np.linalg.det(V) ** 0.5
        lam, gam = np.linalg.eigh(V)
        order = np.argsort(lam)[::-1]
        lam, gam = lam[order], gam[:, order]
        for j in range(2):
            i = int(np.argmax(np.abs(gam[:, j])))
            if gam[i, j] < 0:
                gam[:, j] = -gam[:, j]
        return mu, lam, gam

    eps = 1e-4
    mu0, lam0, gam0 = solve(0.0)
    mu1, lam1, gam1 = solve(eps)
    assert np.linalg.norm(mu0) < 1e-10
    assert np.allclose(lam0, [2.0, 0.5], atol=1e-8)

    model = LocationScatter(np.zeros(2), V0)
    consts = asymptotic_constants(RadialSpec.gaussian(2), SPEC)

    emp_loc = (mu1 - mu0) / eps
    cf_loc = if_location(x_atom, model, consts, SPEC)
    assert np.linalg.norm(emp_loc - cf_loc) <= 5e-3 * np.linalg.norm(cf_loc)

    emp_ratio = (lam1[1] / lam1[0] - lam0[1] / lam0[0]) / eps
    cf_ratio = if_eigenvalue_ratio(x_atom, 0, 1, model, consts, SPEC)
    assert abs(emp_ratio - cf_ratio) <= 5e-3 * abs(cf_ratio)

    v1 = gam1[:, 0] if gam1[:, 0] @ gam0[:, 0] >= 0 else -gam1[:, 0]
    emp_vec = (v1 - gam0[:, 0]) / eps
    cf_vec = if_eigenvector(x_atom, 0, model, consts, SPEC)
    assert np.linalg.norm(emp_vec - cf_vec) <= 5e-3 * np.linalg.norm(cf_vec)
