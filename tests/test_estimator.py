import gc
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from robust_scatter import (
    DataSet,
    DegenerateScale,
    DegenerateStep,
    EmptyActiveSet,
    FitOptions,
    LocationScatter,
    SingularScatter,
    WeightSpec,
    estimating_equation_residual,
    fit_sppca,
    fit_tme,
    initial_estimate,
    mahalanobis,
    pca,
    solution_set,
    tau_scale,
)
from robust_scatter.estimator import (
    MAX_ABS_ENTRY,
    TAU_SCALE_C1,
    TAU_SCALE_C2,
    TAU_SCALE_GAUSSIAN_CONSISTENCY,
    _diag_distances,
    _diag_fits,
    squared_distances,
)
from robust_scatter.weights import UNIT

from conftest import gaussian_data

CROSS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
FULL = FitOptions(diag_approx=False)


# ---------------------------------------------------------------- containers


def test_dataset_validation():
    with pytest.raises(ValueError):
        DataSet(np.ones((1, 3)))
    with pytest.raises(ValueError):
        DataSet(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        DataSet(CROSS, obs_weights=np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        DataSet(CROSS, obs_weights=np.array([-0.5, 0.5, 0.5, 0.5]))
    data = DataSet(CROSS)
    assert np.allclose(data.effective_weights(), 0.25)


def test_dataset_rejects_entries_whose_square_overflows(rng):
    # x^2 must be finite: above sqrt(float max) a far row's infinite square
    # times its zero weight turned every diagonal fit into EmptyActiveSet
    X = gaussian_data(200, 3, rng=rng)
    below = np.nextafter(MAX_ABS_ENTRY, 0.0)
    for big in (1e150, below, -below):
        X[0, 0] = big
        fit = fit_sppca(DataSet(X), 3.0)
        assert fit.converged and not fit.active_mask[0]
    for big in (MAX_ABS_ENTRY, 1e155, -1e155):
        X[0, 0] = big
        with pytest.raises(ValueError, match="must be below 1.341e\\+154"):
            DataSet(X)


def test_fit_options_need_one_iteration():
    with pytest.raises(ValueError, match="max_iter"):
        FitOptions(max_iter=0)


def test_location_scatter_validation():
    with pytest.raises(ValueError):
        LocationScatter(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))
    with pytest.raises(SingularScatter):
        LocationScatter(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    # diagonal mode only requires a positive diagonal
    ls = LocationScatter(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), diag_approx=True)
    assert ls.p == 2
    with pytest.raises(SingularScatter):
        LocationScatter(np.zeros(2), np.diag([1.0, 0.0]), diag_approx=True)


# --------------------------------------------------------------- mahalanobis


def test_mahalanobis_basics():
    ls = LocationScatter(np.zeros(2), np.eye(2))
    assert mahalanobis(np.zeros(2), ls) == 0.0
    assert abs(mahalanobis(np.array([3.0, 4.0]), ls) - 25.0) < 1e-12
    with pytest.raises(ValueError):
        mahalanobis(np.zeros(3), ls)


def test_mahalanobis_diagonal_mode():
    V = np.array([[4.0, 1.0], [1.0, 1.0]])
    ls = LocationScatter(np.zeros(2), V, diag_approx=True)
    # only the diagonal enters: 2^2/4 + 1^2/1
    assert abs(mahalanobis(np.array([2.0, 1.0]), ls) - 2.0) < 1e-12
    ls_full = LocationScatter(np.zeros(2), V, diag_approx=False)
    assert mahalanobis(np.array([2.0, 1.0]), ls_full) != pytest.approx(2.0)


# ------------------------------------------------------------ distance kernel


def spd_matrix(p, rng):
    A = rng.standard_normal((p, p))
    V = A @ A.T / p + 0.5 * np.eye(p)
    return 0.5 * (V + V.T)


@pytest.mark.parametrize("p", [1, 3, 50])
def test_full_distances_match_solve_reference(p):
    rng = np.random.default_rng(p)
    V = spd_matrix(p, rng)
    diff = rng.standard_normal((200, p))
    ref = np.einsum("ij,ij->i", diff, np.linalg.solve(V, diff.T).T)
    d = squared_distances(diff, V, diag_approx=False)
    assert np.allclose(d, ref, rtol=1e-12, atol=0.0)


def test_full_distance_at_location_is_exactly_zero():
    rng = np.random.default_rng(3)
    mu = rng.standard_normal(4)
    ls = LocationScatter(mu, spd_matrix(4, rng))
    assert mahalanobis(mu, ls) == 0.0
    d = squared_distances(np.zeros((3, 4)), ls.V, diag_approx=False)
    assert np.all(d == 0.0)


def test_full_distances_nonnegative_when_ill_conditioned():
    rng = np.random.default_rng(12)
    p = 10
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    V = (Q * np.logspace(0, -12, p)) @ Q.T
    V = 0.5 * (V + V.T)
    assert 1e11 < np.linalg.cond(V) < 1e13
    # rows along the best-determined axis plus noise at the rounding level of
    # the worst-determined one: the true distances are tiny for most rows
    diff = np.vstack([
        rng.standard_normal((500, p)),
        rng.standard_normal((500, 1)) * Q[:, 0] + 1e-9 * rng.standard_normal((500, p)),
    ])
    assert np.all(squared_distances(diff, V, diag_approx=False) >= 0.0)


def test_full_distances_reject_indefinite_scatter():
    V = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularScatter):
        squared_distances(np.ones((3, 2)), V, diag_approx=False)


def test_full_distances_equal_diagonal_mode_for_diagonal_scatter():
    rng = np.random.default_rng(7)
    V = np.diag(rng.uniform(0.1, 10.0, 6))
    diff = rng.standard_normal((100, 6))
    full = squared_distances(diff, V, diag_approx=False)
    diag = squared_distances(diff, V, diag_approx=True)
    assert np.allclose(full, diag, rtol=1e-14, atol=0.0)


def test_full_distances_of_transposed_view_match_contiguous_rows():
    rng = np.random.default_rng(9)
    V = spd_matrix(4, rng)
    cols = rng.standard_normal((4, 300))  # observations as columns
    diff = cols.T  # a non-contiguous view of the rows
    assert not diff.flags.c_contiguous
    d = squared_distances(diff, V, diag_approx=False)
    ref = squared_distances(np.ascontiguousarray(diff), V, diag_approx=False)
    assert np.allclose(d, ref, rtol=1e-13, atol=0.0)
    solve = np.einsum("ij,ij->i", diff, np.linalg.solve(V, cols).T)
    assert np.allclose(d, solve, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- one step


def one_step(data, cur):
    """A single fixed-point update of ``cur``, honoring its distance mode."""
    opts = FitOptions(max_iter=1, diag_approx=cur.diag_approx)
    return fit_sppca(data, a=1.0, init=cur, opts=opts).ls


def test_cross_data_is_fixed_point():
    data = DataSet(CROSS)
    cur = LocationScatter(np.zeros(2), np.eye(2))
    nxt = one_step(data, cur)
    assert np.allclose(nxt.mu, 0.0, atol=1e-15)
    assert np.allclose(nxt.V, np.eye(2), atol=1e-12)


def test_step_empty_active_set():
    data = DataSet(CROSS + 10.0)  # all points at squared distance >> ln 20
    cur = LocationScatter(np.zeros(2), np.eye(2))
    with pytest.raises(EmptyActiveSet):
        one_step(data, cur)


def test_step_degenerate():
    data = DataSet(np.zeros((3, 2)))
    cur = LocationScatter(np.zeros(2), np.eye(2))
    with pytest.raises(DegenerateStep):
        one_step(data, cur)


def test_diag_kernel_fails_like_full_metric_loop():
    # the batched diagonal iteration raises the same errors, at the same
    # iteration, as the full-metric loop
    cases = ((DataSet(np.zeros((3, 2))), DegenerateStep, "coincide with the location"),
             (DataSet(CROSS + 10.0), EmptyActiveSet, "zero weight"))
    for data, err, text in cases:
        for diag in (False, True):
            init = LocationScatter(np.zeros(2), np.eye(2), diag_approx=diag)
            with pytest.raises(err, match=text + r".*\(iteration 1\)$") as info:
                fit_sppca(data, a=1.0, init=init, opts=FitOptions(diag_approx=diag))
            # no step completed, so there is no active count to report
            assert info.value.iteration == 1 and info.value.active is None


def test_step_uses_previous_location_in_scatter():
    rng = np.random.default_rng(5)
    data = DataSet(rng.standard_normal((50, 2)) + 3.0)
    cur = LocationScatter(np.zeros(2), 4.0 * np.eye(2))
    nxt = one_step(data, cur)
    d = np.array([mahalanobis(x, cur) for x in data.X])
    w = np.where(d < WeightSpec().cutoff, np.exp(-d), 0.0)
    diff = data.X - cur.mu  # centered at the previous location
    expect = 2.0 * (diff.T @ (diff * (w / 50)[:, None])) / float((w / 50) @ d)
    assert np.allclose(nxt.V, expect, rtol=1e-12)


# ------------------------------------------------------------------ fitting


def test_fit_cross_data_converges_immediately():
    data = DataSet(CROSS)
    init = LocationScatter(np.zeros(2), np.eye(2))
    fit = fit_sppca(data, a=1.0, init=init, opts=FULL)
    assert fit.converged
    assert fit.iterations == 1
    assert fit.active_ratio == 1.0
    assert np.allclose(fit.ls.V, np.eye(2), atol=1e-12)


def test_fit_gaussian_recovers_top_eigenvector(rng):
    V0 = np.diag([4.0, 2.0, 1.0, 1.0, 1.0])
    X = gaussian_data(2000, 5, V=V0, rng=rng)
    data = DataSet(X)
    fit = fit_sppca(data, a=5.0, opts=FULL)
    assert fit.converged
    top = pca(fit.ls, 1).eigenvectors[:, 0]
    assert abs(top @ np.array([1.0, 0, 0, 0, 0])) >= 0.97
    # sample-covariance oracle on the same draw
    cov_top = pca(LocationScatter(X.mean(0), np.cov(X.T)), 1).eigenvectors[:, 0]
    assert abs(top @ cov_top) >= 0.97


def test_fit_convergence_from_robust_init(rng):
    X = gaussian_data(1000, 3, V=np.diag([3.0, 2.0, 1.0]), rng=rng)
    fit = fit_sppca(DataSet(X), a=3.0, opts=FitOptions(tol=1e-8, max_iter=500, diag_approx=False))
    assert fit.converged
    assert fit.iterations <= 500
    assert fit.residual <= 1e-8


def test_diag_residual_is_relative_change_of_location_and_diagonal(rng):
    # under the diagonal metric a fit's residual is the relative change of
    # (mu, diag V) in its last step, relative to the previous absolute state
    data = DataSet(gaussian_data(300, 3, rng=rng) + 20.0)
    prev = fit_sppca(data, 3.0, opts=FitOptions(max_iter=3)).ls
    last = fit_sppca(data, 3.0, opts=FitOptions(max_iter=4))
    assert not last.converged and last.iterations == 4
    dv_prev, dv = np.diag(prev.V), np.diag(last.ls.V)
    r_mu = np.linalg.norm(last.ls.mu - prev.mu) / (1.0 + np.linalg.norm(prev.mu))
    r_v = np.linalg.norm(dv - dv_prev) / (1.0 + np.linalg.norm(dv_prev))
    assert last.residual == pytest.approx(max(r_mu, r_v), rel=1e-6)


@pytest.mark.parametrize("diag_approx", [False, True])
def test_scale_law_and_residual(rng, diag_approx):
    p = 4
    X = gaussian_data(800, p, V=np.diag([3.0, 2.0, 1.0, 0.5]), rng=rng)
    data = DataSet(X)
    base = initial_estimate(data)
    det_init = np.linalg.det(base.V) ** (1.0 / p)
    opts = FitOptions(diag_approx=diag_approx)
    for a in (0.5 * p, float(p), 2.0 * p):
        fit = fit_sppca(data, a, opts=opts)
        assert fit.converged
        ratio = np.linalg.det(fit.ls.V) ** (1.0 / p) / (a * det_init)
        assert 0.0 < ratio < 1.0
        assert estimating_equation_residual(data, fit) <= 10 * opts.tol


def test_permutation_equivariance(rng):
    X = gaussian_data(400, 4, V=np.diag([4.0, 3.0, 2.0, 1.0]), rng=rng)
    perm = np.array([2, 0, 3, 1])
    fit = fit_sppca(DataSet(X), a=4.0)
    fit_p = fit_sppca(DataSet(X[:, perm]), a=4.0)
    assert np.allclose(fit_p.ls.mu, fit.ls.mu[perm], rtol=1e-8, atol=1e-10)
    assert np.allclose(fit_p.ls.V, fit.ls.V[np.ix_(perm, perm)], rtol=1e-7, atol=1e-9)


def reference_full_fit(data, mu, V, spec, opts, tau):
    """The full-metric fixed point as a plain loop over rows, with distances
    from ``np.linalg.solve``: (mu, V, iterations, converged, mask)."""
    X, pi = data.X, data.effective_weights()
    n, p = X.shape

    def distances(mu, V):
        diff = X - mu
        return diff, np.einsum("ij,ij->i", diff, np.linalg.solve(V, diff.T).T)

    converged = False
    for it in range(1, opts.max_iter + 1):
        diff, d = distances(mu, V)
        w = np.ones(n) if spec.kind == UNIT else np.where(d < spec.cutoff, np.exp(-d), 0.0)
        pw = pi * w
        mu_new = (pw @ X) / pw.sum()
        V_new = p / (pw @ d) * (diff.T @ (diff * pw[:, None]))
        V_new = 0.5 * (V_new + V_new.T)
        if tau > 0.0:
            V_new = V_new / (1.0 + tau) + tau / (1.0 + tau) * np.eye(p)
        r = max(np.linalg.norm(mu_new - mu) / (1.0 + np.linalg.norm(mu)),
                np.linalg.norm(V_new - V) / (1.0 + np.linalg.norm(V)))
        mu, V = mu_new, V_new
        if r <= opts.tol:
            converged = True
            break
    mask = np.ones(n, dtype=bool) if spec.kind == UNIT else distances(mu, V)[1] < spec.cutoff
    return mu, V, it, converged, mask


@pytest.mark.parametrize("variant", ["plain", "obs_weights", "tau", "unit"])
@pytest.mark.parametrize("p", [1, 3, 50])
def test_full_fit_matches_row_layout_reference(p, variant):
    rng = np.random.default_rng(100 + p)
    n = 8 * p + 200
    X = gaussian_data(n, p, V=np.diag(np.linspace(3.0, 1.0, p)), rng=rng)
    if variant == "tau":
        # an identity anchor needs a fixed point of scale O(1) (see
        # test_regularized_rescues_p_greater_than_n)
        X *= 0.25
    X += 1.0
    obs = None
    if variant == "obs_weights":
        obs = rng.uniform(0.5, 1.5, n)
        obs /= obs.sum()
    data = DataSet(X, obs_weights=obs)
    spec = WeightSpec(kind=UNIT) if variant == "unit" else WeightSpec()
    tau = 0.3 if variant == "tau" else 0.0
    a = 0.5 * p  # small enough that the hard threshold trims
    base = initial_estimate(data)
    # a fit stopped after two steps, far from the fixed point, and a converged one
    for max_iter in (2, 500):
        opts = FitOptions(tol=1e-9, max_iter=max_iter, diag_approx=False)
        fit = fit_sppca(data, a, spec=spec, opts=opts, tau=tau)
        mu, V, iters, converged, mask = reference_full_fit(data, base.mu, a * base.V, spec,
                                                           opts, tau)
        assert fit.converged == converged
        assert fit.iterations == iters
        assert np.linalg.norm(fit.ls.mu - mu) <= 1e-12 * np.linalg.norm(mu)
        assert np.linalg.norm(fit.ls.V - V) <= 1e-12 * np.linalg.norm(V)
        assert np.array_equal(fit.active_mask, mask)
    assert converged


# ----------------------------------------------------------- solution paths


def test_solution_set_singleton_matches_single_fit(rng):
    X = gaussian_data(300, 3, rng=rng)
    data = DataSet(X)
    path = solution_set(data, [3.0])
    single = fit_sppca(data, 3.0)
    assert len(path) == 1
    assert np.array_equal(path[0].ls.V, single.ls.V)
    assert np.array_equal(path[0].ls.mu, single.ls.mu)


def test_solution_set_validates_grid(rng):
    data = DataSet(gaussian_data(100, 2, rng=rng))
    with pytest.raises(ValueError):
        solution_set(data, [])
    with pytest.raises(ValueError):
        solution_set(data, [2.0, 2.0])


def test_solution_set_shape_uniqueness(rng):
    n, p = 1500, 5
    X = gaussian_data(n, p, V=np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), rng=rng)
    path = solution_set(DataSet(X), np.linspace(0.2 * p, 3 * p, 8), opts=FULL)
    mids = [f for f in path if f.converged and 0.5 <= f.active_ratio < 1.0]
    assert len(mids) >= 2
    shapes = []
    for f in mids[:2]:
        shapes.append(f.ls.V / np.linalg.det(f.ls.V) ** (1.0 / p))
    assert np.linalg.norm(shapes[0] - shapes[1], "fro") <= 5.0 * p / math.sqrt(n)


def test_solution_set_ar_nondecreasing(rng):
    n = 600
    X = gaussian_data(n, 5, rng=rng)
    path = solution_set(DataSet(X), np.linspace(1.0, 15.0, 10))
    ar = np.array([f.active_ratio for f in path])
    assert np.all(np.diff(ar) >= -2.0 / n)


def test_solution_set_columns_match_single_fits(rng):
    # 20 scales at p = 5 run as four blocks of the batched iteration; each
    # column is the fit of its scale on its own
    p = 5
    data = DataSet(gaussian_data(400, p, V=np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), rng=rng))
    path = solution_set(data, np.linspace(0.2 * p, 3.0 * p, 20))
    assert all(f.converged for f in path)
    for f in path:
        single = fit_sppca(data, f.a)
        assert np.array_equal(f.active_mask, single.active_mask)
        d = squared_distances(data.X - f.ls.mu, f.ls.V, diag_approx=True)
        assert np.array_equal(f.active_mask, d < WeightSpec().cutoff)
        assert np.abs(f.ls.V - single.ls.V).max() <= 1e-10 * np.abs(single.ls.V).max()
        assert np.abs(f.ls.mu - single.ls.mu).max() <= 1e-10 * (1.0 + np.abs(single.ls.mu).max())


def test_diag_distances_match_direct_form(rng):
    # the expanded form against the direct one, on standardized data
    n, p = 500, 20
    X = gaussian_data(n, p, V=np.diag(np.linspace(0.5, 4.0, p)), rng=rng) + 0.3
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
    center = np.median(X, axis=0)
    Xc = X - center
    Z = np.hstack([Xc * Xc, Xc])
    M = 0.2 * rng.standard_normal((7, p))
    v = rng.uniform(0.2, 5.0, (7, p))
    d = _diag_distances(Z, M, v)
    assert d.shape == (n, 7) and np.all(d >= 0.0)
    for j in range(7):
        direct = squared_distances(Xc - M[j], np.diag(v[j]), True)
        np.testing.assert_allclose(d[:, j], direct, rtol=1e-12)
    # a row at the location: cancellation may leave a rounding residue, never
    # a negative distance
    (at_mu,) = _diag_distances(Z[:1], Xc[:1], v[:1]).ravel()
    assert 0.0 <= at_mu <= 1e-12 * float(np.sum(Xc[0] ** 2 / v[0]) + 1.0)


def test_solution_set_records_failures(rng):
    # first grid point is far too small: every observation is trimmed
    X = gaussian_data(200, 4, rng=rng)
    path = solution_set(DataSet(X), [0.001, 4.0])
    assert path[0].error is not None and not path[0].converged
    assert path[0].error.startswith("EmptyActiveSet")
    assert path[0].iterations == 1 and "(iteration 1)" in path[0].error
    assert path[1].converged
    # p > n: the first full-metric update is rank deficient, so the next
    # distance evaluation cannot factor it
    data = DataSet(0.22 * gaussian_data(30, 40, rng=rng))
    (failed,) = solution_set(data, [40.0], opts=FULL)
    assert failed.error.startswith("SingularScatter") and not failed.converged
    assert failed.iterations >= 1
    assert f"(iteration {failed.iterations})" in failed.error
    # the path entry carries the error, active count included, that the
    # single fit raises
    with pytest.raises(SingularScatter) as info:
        fit_sppca(data, a=40.0, opts=FULL)
    assert info.value.active is not None
    assert failed.error == f"SingularScatter: {info.value}"


def axis_data():
    # 30 of 40 points lie on the first axis, inside the unit-scale ball; the
    # other 10 sit far out on the second.  The first step's scatter has no
    # variance along the second axis.
    X = np.zeros((40, 2))
    X[:30, 0] = np.linspace(-1.0, 1.0, 30)
    X[30:, 1] = np.repeat([5.0, -5.0], 5)
    return DataSet(X)


@pytest.mark.parametrize("max_iter", [1, 500])
def test_failed_fit_reports_active_count(max_iter):
    # the fit fails on the first step's scatter: when it is checked
    # (max_iter 1) or at the next step (iteration 2); both metrics name the
    # 30 active points of step 1
    data = axis_data()
    it = min(max_iter, 2)
    for diag in (False, True):
        opts = FitOptions(max_iter=max_iter, diag_approx=diag)
        init = LocationScatter(np.zeros(2), np.eye(2), diag_approx=diag)
        with pytest.raises(SingularScatter, match=rf"\(iteration {it}\), 30 of 40 active$") as info:
            fit_sppca(data, a=1.0, init=init, opts=opts)
        assert (info.value.iteration, info.value.active) == (it, 30)


def test_batched_fits_report_their_own_active_counts():
    # three scales in one batch: the smallest empties the ball in step 1,
    # the unit scale fails in step 2 after step 1 kept 30 points, and the
    # largest keeps every point and converges
    scales = np.array([1e-4, 1.0, 100.0])
    empty, singular, ok = _diag_fits(axis_data(), scales, np.zeros(2),
                                     scales[:, None] * np.ones(2), WeightSpec(), FitOptions())
    assert type(empty) is EmptyActiveSet and (empty.iteration, empty.active) == (1, None)
    assert type(singular) is SingularScatter and (singular.iteration, singular.active) == (2, 30)
    assert ok.converged and ok.active_ratio == 1.0


def test_full_metric_tau_divergence_reports_shrunken_active_set():
    # the blend keeps the smallest eigenvalue up while the largest grows
    # without bound; the failure names how few points were still active
    X = gaussian_data(600, 50, V=np.diag(np.linspace(3, 1, 50)),
                      rng=np.random.default_rng(150)) + 1
    with pytest.raises(SingularScatter) as info:
        fit_sppca(DataSet(X), a=25.0, tau=0.3, opts=FULL)
    exc = info.value
    assert exc.iteration > 1 and exc.active < 50
    assert f"(iteration {exc.iteration}), {exc.active} of 600 active" in str(exc)
    # it ends at the first step with fewer than p active: step k + 1 weights
    # the trimming ball of the state after k steps, that of a fit cut off there
    base = initial_estimate(DataSet(X))
    d0 = squared_distances(X - base.mu, 25.0 * base.V, False)
    counts = [np.count_nonzero(d0 < WeightSpec().cutoff)]
    for k in range(1, exc.iteration):
        cut = fit_sppca(DataSet(X), a=25.0, tau=0.3,
                        opts=FitOptions(max_iter=k, diag_approx=False))
        counts.append(np.count_nonzero(cut.active_mask))
    assert min(counts[:-1]) >= 50 and counts[-1] == exc.active


def test_failed_fit_leaves_no_reference_cycle(rng):
    # the re-raised error must not tie the failing frames, and their n-sized
    # arrays, into a cycle that only the garbage collector frees
    data = DataSet(gaussian_data(200, 4, rng=rng))
    gc.collect()
    gc.disable()
    try:
        try:
            fit_sppca(data, a=0.001)
        except EmptyActiveSet as exc:
            assert exc.iteration == 1
        else:
            pytest.fail("the fit did not fail")
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------- robust initializer


def test_initial_estimate_symmetric_median():
    v = np.array([1.0, 2.0, 3.0])
    data = DataSet(np.vstack([v, -v]))
    with pytest.raises(DegenerateScale):
        # two-point symmetric data has zero median but nonzero scale; a
        # constant column is the degenerate case
        initial_estimate(DataSet(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])))
    base = initial_estimate(data)
    assert np.allclose(base.mu, 0.0)


def test_initial_estimate_names_degenerate_column():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.raises(DegenerateScale, match="b"):
        initial_estimate(DataSet(X, column_names=["a", "b"]))


def reference_tau_scale(x):
    """The per-column tau-scale as a scalar computation on one sample."""
    med = np.median(x)
    s0 = np.median(np.abs(x - med))
    if s0 < 1e-12:
        return 0.0
    u = np.minimum(np.abs(x - med) / s0 / TAU_SCALE_C1, 1.0)
    wloc = (1.0 - u**2) ** 2
    mu = float(wloc @ x) / float(wloc.sum())
    r = np.minimum(np.abs(x - mu) / s0, TAU_SCALE_C2)
    return float(s0 * np.sqrt(np.mean(r**2))) / TAU_SCALE_GAUSSIAN_CONSISTENCY


@pytest.mark.parametrize("shape", [(1000, 50), (251, 7), (2, 3)])
@pytest.mark.parametrize("law", ["gaussian", "t3"])
def test_initial_estimate_matches_per_column_reference(shape, law):
    rng = np.random.default_rng(shape[0] + shape[1])
    X = rng.standard_normal(shape) if law == "gaussian" else rng.standard_t(3, shape)
    X = X * rng.uniform(0.1, 10.0, shape[1]) + rng.uniform(-5.0, 5.0, shape[1])
    base = initial_estimate(DataSet(X))
    ref = np.array([reference_tau_scale(X[:, j]) for j in range(shape[1])])
    assert np.array_equal(base.mu, np.median(X, axis=0))
    np.testing.assert_allclose(np.sqrt(np.diag(base.V)), ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose([tau_scale(X[:, j]) for j in range(shape[1])], ref,
                               rtol=1e-14, atol=0)


def test_initial_estimate_names_zero_mad_columns(rng):
    # columns b and c have zero MAD without being constant: more than half
    # of their values coincide
    X = rng.standard_normal((9, 4))
    X[:5, 1] = 2.0
    X[2:, 2] = -1.0
    names = [j for j, col in zip("abcd", X.T) if reference_tau_scale(col) < 1e-12]
    assert names == ["b", "c"]
    with pytest.raises(DegenerateScale, match=r"column\(s\): b, c$"):
        initial_estimate(DataSet(X, column_names=list("abcd")))


def test_tau_scale_consistency_constant():
    # re-derive the stored constant: population value of the raw tau-scale
    # at the standard Gaussian
    s0 = scipy.stats.norm.ppf(0.75)
    val, _ = scipy.integrate.quad(
        lambda x: min((x / s0) ** 2, TAU_SCALE_C2**2) * scipy.stats.norm.pdf(x),
        -12.0,
        12.0,
        points=[-TAU_SCALE_C2 * s0, TAU_SCALE_C2 * s0],
        limit=200,
    )
    assert abs(math.sqrt(s0**2 * val) - TAU_SCALE_GAUSSIAN_CONSISTENCY) < 1e-10
    assert TAU_SCALE_C1 == 4.5 and TAU_SCALE_C2 == 3.0


def test_tau_scale_gaussian_monte_carlo(rng):
    x = rng.standard_normal(10_000)
    assert abs(tau_scale(x) - 1.0) <= 0.05
    assert tau_scale(np.full(100, 3.14)) == 0.0


def test_tau_scale_resists_outliers(rng):
    x = rng.standard_normal(1000)
    x[:50] += 100.0
    assert abs(tau_scale(x) - 1.0) <= 0.25


# -------------------------------------------------------------- plain Tyler


def test_tme_cross_data():
    ls = fit_tme(DataSet(CROSS), np.zeros(2), opts=FULL)
    assert np.allclose(ls.V, np.eye(2), atol=1e-10)
    assert np.trace(ls.V) == pytest.approx(2.0)


def test_tme_data_scale_invariance(rng):
    X = gaussian_data(500, 3, V=np.diag([3.0, 1.0, 0.5]), rng=rng)
    mu = np.median(X, axis=0)
    base = fit_tme(DataSet(X), mu, opts=FULL)
    for c in (0.1, 10.0):
        scaled = fit_tme(DataSet(c * X), c * mu, opts=FULL)
        assert np.allclose(scaled.V, base.V, rtol=1e-8)


def test_tme_gaussian_eigenvector(rng):
    from robust_scatter import similarity_rho

    V0 = np.diag([4.0, 2.0, 1.0, 1.0, 1.0])
    X = gaussian_data(2000, 5, V=V0, rng=rng)
    ls = fit_tme(DataSet(X), np.zeros(5), opts=FULL)
    rho = similarity_rho(pca(ls, 1).eigenvectors, np.eye(5)[:, :1])
    assert rho >= 0.97


def test_tme_drops_points_at_mu():
    X = np.vstack([CROSS, np.zeros(2)])
    with pytest.warns(UserWarning, match="zero distance"):
        ls = fit_tme(DataSet(X), np.zeros(2), opts=FULL)
    assert np.allclose(ls.V, np.eye(2), atol=1e-10)


# -------------------------------------------------------- regularized fits


def test_regularized_tau_zero_identical(rng):
    data = DataSet(gaussian_data(300, 3, rng=rng))
    plain = fit_sppca(data, a=3.0)
    reg = fit_sppca(data, a=3.0, tau=0.0)
    assert np.array_equal(plain.ls.V, reg.ls.V)
    assert np.array_equal(plain.ls.mu, reg.ls.mu)
    assert plain.iterations == reg.iterations


def test_regularized_negative_tau_rejected(rng):
    data = DataSet(gaussian_data(50, 3, rng=rng))
    with pytest.raises(ValueError, match="tau"):
        fit_sppca(data, a=3.0, tau=-0.1)


def test_regularized_large_tau_gives_identity(rng):
    data = DataSet(gaussian_data(300, 3, rng=rng))
    fit = fit_sppca(data, a=3.0, tau=1e6)
    assert np.linalg.norm(fit.ls.V - np.eye(3), "fro") <= 1e-4


def test_regularized_rescues_p_greater_than_n(rng):
    # identity-anchored blend: data variance must be commensurate with the
    # anchor or the trimming ball around an O(1) scatter is empty at p = 40
    X = 0.22 * gaussian_data(30, 40, rng=rng)
    data = DataSet(X)
    with pytest.raises(SingularScatter):
        fit_sppca(data, a=40.0, opts=FitOptions(diag_approx=False))
    fit = fit_sppca(data, a=40.0, tau=1.0, opts=FitOptions(diag_approx=False))
    assert fit.converged
    assert estimating_equation_residual(data, fit) > 0  # smoke: state is usable


# --------------------------------------------------------------------- pca


def test_pca_identity():
    model = pca(LocationScatter(np.zeros(3), np.eye(3)), 3)
    assert np.allclose(model.eigenvalues, 1.0)
    assert np.allclose(model.eigenvectors.T @ model.eigenvectors, np.eye(3), atol=1e-10)


def test_pca_diagonal_and_sign_rule():
    model = pca(LocationScatter(np.zeros(3), np.diag([4.0, 2.0, 1.0])), 2)
    assert np.allclose(model.eigenvalues, [4.0, 2.0])
    assert np.allclose(np.abs(model.eigenvectors), np.eye(3)[:, :2], atol=1e-12)
    # largest-magnitude entries are positive
    assert model.eigenvectors[0, 0] > 0 and model.eigenvectors[1, 1] > 0


def test_pca_reconstruction(rng):
    A = rng.standard_normal((4, 4))
    V = A @ A.T + 0.1 * np.eye(4)
    ls = LocationScatter(np.zeros(4), V)
    model = pca(ls, 4)
    recon = (model.eigenvectors * model.eigenvalues) @ model.eigenvectors.T
    assert np.allclose(recon, V, atol=1e-10)
    assert np.all(np.diff(model.eigenvalues) <= 0)


def test_pca_top_k_matches_full_decomposition(rng):
    p, k = 30, 4
    A = rng.standard_normal((p, p))
    ls = LocationScatter(np.zeros(p), A @ A.T + 0.1 * np.eye(p))
    vals, vecs = np.linalg.eigh(ls.V)
    model = pca(ls, k)
    np.testing.assert_allclose(model.eigenvalues, vals[::-1][:k], rtol=1e-12)
    for j in range(k):
        ref = vecs[:, p - 1 - j]
        ref = ref if ref[np.argmax(np.abs(ref))] > 0 else -ref
        np.testing.assert_allclose(model.eigenvectors[:, j], ref, atol=1e-10)


def test_pca_k_out_of_range():
    ls = LocationScatter(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        pca(ls, 0)
    with pytest.raises(ValueError):
        pca(ls, 3)
