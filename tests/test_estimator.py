import gc
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats

from robust_scatter import (
    DataSet,
    SimConfig,
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
    gen_mixture,
    in_ball,
    initial_estimate,
    mahalanobis,
    pca,
    solution_set,
)
from robust_scatter.estimator import (
    MAX_ABS_ENTRY,
    TAU_SCALE_C1,
    TAU_SCALE_C2,
    TAU_SCALE_GAUSSIAN_CONSISTENCY,
    _diag_distances,
    _diag_fits,
    _diag_scatter,
    _row_medians,
    squared_distances,
)
from robust_scatter.tuning import build_grid, select_a_star, smooth_curve

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


def test_dataset_rejects_non_finite_row_weights(rng):
    # NaN compares False with 0 and makes the sum NaN, so it once passed
    # both checks and the fit failed later as SingularScatter; +-inf fail
    # the sum and the sign checks
    X = gaussian_data(100, 3, rng=rng)
    for bad in (np.nan, np.inf, -np.inf):
        w = np.full(100, 0.01)
        w[7] = bad
        with pytest.raises(ValueError, match="^obs_weights must"):
            DataSet(X, obs_weights=w)


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


@pytest.mark.parametrize("make, match", [
    (lambda: DataSet(np.ones(4)), "^X must be a 2-D array$"),
    (lambda: DataSet(CROSS, obs_weights=np.full(3, 1 / 3)),
     r"^obs_weights must have shape \(4,\), got \(3,\)$"),
    (lambda: DataSet(CROSS, column_names=["a"]), "^column_names length does not match p$"),
    (lambda: LocationScatter(np.zeros((2, 1)), np.eye(2)), "^shape mismatch"),
    (lambda: LocationScatter(np.zeros(2), np.eye(3)), "^shape mismatch"),
    (lambda: LocationScatter(np.array([0.0, np.inf]), np.eye(2)), "^mu and V must be finite$"),
    (lambda: LocationScatter(np.zeros(2), np.diag([1.0, np.nan])), "^mu and V must be finite$"),
    (lambda: fit_sppca(DataSet(CROSS), 0.0), "^a must be a positive finite number$"),
    (lambda: fit_sppca(DataSet(CROSS), -1.0), "^a must be a positive finite number$"),
    (lambda: fit_sppca(DataSet(CROSS), np.nan), "^a must be a positive finite number$"),
    (lambda: fit_sppca(DataSet(CROSS), np.inf), "^a must be a positive finite number$"),
    (lambda: fit_sppca(DataSet(CROSS), -np.inf), "^a must be a positive finite number$"),
    (lambda: fit_tme(DataSet(CROSS), np.zeros(3)), r"^mu must have shape \(2,\)$"),
], ids=["dataset-1d", "dataset-obs-weights", "dataset-names", "ls-mu-2d", "ls-v-shape",
        "ls-mu-inf", "ls-v-nan", "fit-a-zero", "fit-a-negative", "fit-a-nan", "fit-a-inf",
        "fit-a-minus-inf", "tme-mu-shape"])
def test_estimator_rejects_bad_arguments(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_diagonal_state_holds_the_fits_diagonal_rule():
    # a subnormal diagonal is rejected where the state is made, with the
    # message every diagonal-metric distance and fit gives
    message = r"^diagonal of V has non-positive or subnormal entries$"
    for diagonal in ([1e-310, 1.0], [1.0, 0.0], [-1.0, 1.0]):
        with pytest.raises(SingularScatter, match=message):
            LocationScatter(np.zeros(2), np.diag(diagonal), diag_approx=True)
    smallest = np.finfo(float).tiny
    assert LocationScatter(np.zeros(2), np.diag([smallest, 1.0]), diag_approx=True).p == 2


def test_fit_options_need_one_iteration():
    with pytest.raises(ValueError, match="max_iter"):
        FitOptions(max_iter=0)
    # no residual meets a tolerance of 0 or below, or NaN; every one meets inf
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^tol must be a positive finite number$"):
            FitOptions(tol=tol)
    assert FitOptions(tol=1e-300).tol == 1e-300


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


def test_subnormal_diagonal_fails_every_distance():
    # its reciprocal overflows: the diagonal rule of the fits holds where a
    # diagonal-metric state is made and for rows of points against a raw V
    V = np.diag([1e-310, 1.0])
    message = r"^diagonal of V has non-positive or subnormal entries$"
    with pytest.raises(SingularScatter, match=message):
        LocationScatter(np.zeros(2), V, diag_approx=True)
    with pytest.raises(SingularScatter, match=message):
        squared_distances(np.array([[1.0, 0.0]]), V, True)


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


def test_bad_start_fails_at_iteration_one_under_either_metric():
    # the options name the metric and the start is read as arrays: a start
    # no step can take fails in the kernel at iteration 1, with no active
    # count, whatever metric the init was made for
    indefinite = LocationScatter(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                                 diag_approx=True)
    with pytest.raises(SingularScatter, match=r"not positive definite \(iteration 1\)$") as info:
        fit_sppca(DataSet(CROSS), a=1.0, init=indefinite, opts=FULL)
    assert info.value.iteration == 1 and info.value.active is None
    # a full-metric state whose diagonal the diagonal metric cannot invert
    tiny = LocationScatter(np.zeros(2), np.diag([1e-310, 1.0]))
    with pytest.raises(SingularScatter, match=r"subnormal entries \(iteration 1\)$") as info:
        fit_sppca(DataSet(CROSS), a=1.0, init=tiny)
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


def reference_full_fit(data, mu, V, spec, opts):
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
        w = np.where(d < spec.cutoff, np.exp(-d), 0.0)
        pw = pi * w
        mu_new = (pw @ X) / pw.sum()
        V_new = p / (pw @ d) * (diff.T @ (diff * pw[:, None]))
        V_new = 0.5 * (V_new + V_new.T)
        r = max(np.linalg.norm(mu_new - mu) / (1.0 + np.linalg.norm(mu)),
                np.linalg.norm(V_new - V) / (1.0 + np.linalg.norm(V)))
        mu, V = mu_new, V_new
        if r <= opts.tol:
            converged = True
            break
    mask = distances(mu, V)[1] < spec.cutoff
    return mu, V, it, converged, mask


@pytest.mark.parametrize("variant", ["plain", "obs_weights"])
@pytest.mark.parametrize("p", [1, 3, 50])
def test_full_fit_matches_row_layout_reference(p, variant):
    rng = np.random.default_rng(100 + p)
    n = 8 * p + 200
    X = gaussian_data(n, p, V=np.diag(np.linspace(3.0, 1.0, p)), rng=rng)
    X += 1.0
    obs = None
    if variant == "obs_weights":
        obs = rng.uniform(0.5, 1.5, n)
        obs /= obs.sum()
    data = DataSet(X, obs_weights=obs)
    spec = WeightSpec()
    a = 0.5 * p  # small enough that the hard threshold trims
    base = initial_estimate(data)
    # a fit stopped after two steps, far from the fixed point, and a converged one
    for max_iter in (2, 500):
        opts = FitOptions(tol=1e-9, max_iter=max_iter, diag_approx=False)
        fit = fit_sppca(data, a, spec=spec, opts=opts)
        mu, V, iters, converged, mask = reference_full_fit(data, base.mu, a * base.V, spec, opts)
        assert fit.converged == converged
        assert fit.iterations == iters
        assert np.linalg.norm(fit.ls.mu - mu) <= 1e-12 * np.linalg.norm(mu)
        assert np.linalg.norm(fit.ls.V - V) <= 1e-12 * np.linalg.norm(V)
        assert np.array_equal(fit.active_mask, mask)
    assert converged


# ----------------------------------------------------------- solution paths


def test_fit_full_metric_init_under_diagonal_options(rng):
    # the options name the metric: a full-metric init is read by its diagonal
    data = DataSet(gaussian_data(300, 3, rng=rng))
    base = initial_estimate(data)
    V = 4.0 * base.V + 0.1 * np.sqrt(np.outer(np.diag(base.V), np.diag(base.V)))
    full = fit_sppca(data, 4.0, init=LocationScatter(base.mu, V))
    diag = fit_sppca(data, 4.0, init=LocationScatter(base.mu, V, diag_approx=True))
    assert full.ls.diag_approx and full.iterations == diag.iterations
    assert np.array_equal(full.ls.mu, diag.ls.mu) and np.array_equal(full.ls.V, diag.ls.V)
    assert np.array_equal(full.active_mask, diag.active_mask)


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


@pytest.mark.parametrize("diag_approx", [True, False], ids=["diag", "full"])
def test_solution_set_rejects_nonpositive_scales(rng, diag_approx):
    # a bad scale is a bad argument, not a failed fit
    data = DataSet(gaussian_data(100, 2, rng=rng))
    opts = FitOptions(diag_approx=diag_approx)
    for grid, bad in (([-1.0, 2.0], "-1"), ([0.0, 2.0], "0"), ([1.0, np.nan], "nan"),
                      ([1.0, np.inf], "inf")):
        with pytest.raises(ValueError,
                           match=f"grid scales must be positive and finite, got {bad}$"):
            solution_set(data, grid, opts=opts)


@pytest.mark.parametrize("diag_approx", [True, False], ids=["diag", "full"])
def test_a_start_too_large_for_the_stopping_rule_is_rejected(diag_approx):
    # the relative change sums the squares of the scatter's entries: from
    # MAX_ABS_ENTRY / p on it overflows, and an overflowed fit would read
    # as converged with residual 0
    data = DataSet(np.random.default_rng(0).standard_normal((200, 3)))
    huge = DataSet(1e78 * data.X)
    opts = FitOptions(diag_approx=diag_approx)
    match = "entries must be below MAX_ABS_ENTRY / p = 4.469e\\+153$"
    with pytest.raises(ValueError, match="^the start's scatter has an entry of magnitude"):
        fit_sppca(data, 1e200, opts=opts)
    init = LocationScatter(np.zeros(3), 1e200 * np.eye(3))
    with pytest.raises(ValueError, match=match):
        fit_sppca(data, 1.0, init=init, opts=opts)
    with pytest.raises(ValueError, match=match):
        fit_sppca(huge, 1.0, opts=opts)
    with pytest.raises(ValueError, match="^the start's scatter at the grid's largest scale 9 "):
        solution_set(huge, build_grid(3), opts=opts)
    assert fit_sppca(data, 1e150, opts=opts).converged  # well inside the limit


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
    # all scales at p = 5 run as one batched iteration, 20 of them and the
    # tuning grid's 50; each column is the fit of its scale on its own
    p = 5
    V = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    for n, grid in [(400, np.linspace(0.2 * p, 3.0 * p, 20)), (3000, build_grid(p))]:
        data = DataSet(gaussian_data(n, p, V=V, rng=rng))
        path = solution_set(data, grid)
        assert all(f.converged for f in path)
        for f in path:
            single = fit_sppca(data, f.a)
            assert np.array_equal(f.active_mask, single.active_mask)
            d = squared_distances(data.X - f.ls.mu, f.ls.V, diag_approx=True)
            assert np.array_equal(f.active_mask, d < WeightSpec().cutoff)
            assert np.abs(f.ls.V - single.ls.V).max() <= 1e-10 * np.abs(single.ls.V).max()
            assert (np.abs(f.ls.mu - single.ls.mu).max()
                    <= 1e-10 * (1.0 + np.abs(single.ls.mu).max()))


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


def test_solution_set_propagates_unexpected_errors(rng, monkeypatch):
    # only the package's fit failures are recorded on the path: a bug
    # surfaces, it is not AR = 0
    def broken_weight(*args, **kwargs):
        raise TypeError("not a fit failure")

    monkeypatch.setattr("robust_scatter.estimator.weight", broken_weight)
    with pytest.raises(TypeError, match="not a fit failure"):
        solution_set(DataSet(gaussian_data(50, 2, rng=rng)), build_grid(2))


@pytest.mark.parametrize("diag_approx", [True, False], ids=["diag", "full"])
def test_failed_path_entry_has_no_state(rng, diag_approx):
    # a start a * tau^2 that underflows to 0 is a fit that fails at its
    # first step, recorded in place like any other; no failed entry carries
    # a state
    data = DataSet(1e-11 * gaussian_data(50, 2, rng=rng))
    opts = FitOptions(diag_approx=diag_approx)
    zero, unit = solution_set(data, [1e-310, 1.0], opts=opts)
    assert zero.error.startswith("SingularScatter") and zero.error.endswith("(iteration 1)")
    assert zero.ls is None and zero.iterations == 1 and zero.active_ratio == 0.0
    assert unit.error is None and unit.ls.diag_approx == diag_approx
    empty, _ = solution_set(DataSet(gaussian_data(200, 4, rng=rng)), [0.001, 4.0], opts=opts)
    assert empty.error.startswith("EmptyActiveSet") and empty.ls is None


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


def test_full_metric_shrinking_ball_reports_shrunken_active_set():
    # from a small scale the trimming ball shrinks step by step until fewer
    # than p points are left; the failure names how few were still active
    X = gaussian_data(600, 50, V=np.diag(np.linspace(3, 1, 50)),
                      rng=np.random.default_rng(150)) + 1
    with pytest.raises(SingularScatter) as info:
        fit_sppca(DataSet(X), a=15.0, opts=FULL)
    exc = info.value
    assert exc.iteration > 1 and exc.active < 50
    assert f"(iteration {exc.iteration}), {exc.active} of 600 active" in str(exc)
    # it ends at the first step with fewer than p active: step k + 1 weights
    # the trimming ball of the state after k steps, that of a fit cut off there
    base = initial_estimate(DataSet(X))
    d0 = squared_distances(X - base.mu, 15.0 * base.V, False)
    counts = [np.count_nonzero(d0 < WeightSpec().cutoff)]
    for k in range(1, exc.iteration):
        cut = fit_sppca(DataSet(X), a=15.0, opts=FitOptions(max_iter=k, diag_approx=False))
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


def test_in_ball_agrees_with_fitted_active_sets():
    # the batched kernels' active sets are the trimming balls of the states
    # they return: in_ball reads the same distances for every row of every
    # usable fit of both metrics' paths and of single fits, converged or cut
    # off after two steps (where a step still moves the state far)
    data, _ = gen_mixture(SimConfig(n=150, p=6, k=2, nu=10, pi=0.15, c=4, seed=3))
    grid = np.geomspace(0.3, 30.0, 10)
    cut = FitOptions(max_iter=2)
    fits = (solution_set(data, grid) + solution_set(data, grid, opts=cut)
            + solution_set(data, grid[::3], opts=FULL)
            + [fit_sppca(data, 6.0), fit_sppca(data, 6.0, opts=cut)])
    usable = [f for f in fits if f.error is None]
    assert len(usable) >= 20 and len({int(f.active_mask.sum()) for f in usable}) >= 10
    for f in usable:
        assert [in_ball(x, f.ls) for x in data.X] == list(f.active_mask)
    # at the boundary itself, and at the doubles on either side of it
    c = WeightSpec().cutoff
    for diag in (True, False):
        ls = LocationScatter(np.zeros(2), np.eye(2), diag_approx=diag)
        for t, inside in ((np.nextafter(c, 0.0), True), (c, False), (np.nextafter(c, 4.0), False)):
            points = [np.array([a, b + k * math.ulp(b)])
                      for a in (0.0, 0.5, 1.0) for b in [math.sqrt(t - a * a)] for k in range(-3, 4)]
            hits = [x for x in points if mahalanobis(x, ls) == t]
            assert hits and all(in_ball(x, ls) == inside for x in hits)


def test_diag_fit_forms_its_scatter_on_first_read(rng, monkeypatch):
    # tune reads only active ratios, so it forms no scatter; a read forms
    # one, once, with the kernel's diag V as its diagonal
    formed = []

    def counting(*args):
        formed.append(args)
        return _diag_scatter(*args)

    monkeypatch.setattr("robust_scatter.estimator._diag_scatter", counting)
    data = DataSet(gaussian_data(300, 5, V=np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), rng=rng))
    path = solution_set(data, build_grid(data.p))
    select_a_star(smooth_curve(path))
    assert formed == []
    fit = path[-1]
    ls = fit.ls
    assert len(formed) == 1 and fit.ls is ls
    assert np.array_equal(np.diag(ls.V), formed[0][-1])
    # a formed scatter can still be passed in
    assert replace(fit, a=1.0).ls is ls
    # a path dropped unread leaves no cycle for the garbage collector
    gc.collect()
    gc.disable()
    try:
        solution_set(data, [1.0, 5.0])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subnormal_diagonal_is_a_typed_failure(rng):
    # an initial diagonal a * tau^2 below the smallest normal double would
    # overflow in every distance's reciprocal; the fit fails as singular,
    # with no warning (the suite turns warnings into errors), and the other
    # scale of the path is the fit it is alone
    data = DataSet(1e-11 * rng.standard_normal((50, 2)))
    tiny, unit = solution_set(data, [1e-300, 1.0])
    assert tiny.error == ("SingularScatter: diagonal of V has non-positive or subnormal "
                          "entries (iteration 1)")
    (alone,) = solution_set(data, [1.0])
    assert unit.error is None and unit.iterations == alone.iterations
    assert np.array_equal(unit.active_mask, alone.active_mask)
    assert np.array_equal(unit.ls.V, alone.ls.V) and np.array_equal(unit.ls.mu, alone.ls.mu)
    with pytest.raises(SingularScatter) as info:
        fit_sppca(data, 1e-300)
    assert (info.value.iteration, info.value.active) == (1, None)


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


@pytest.mark.parametrize("n", [1, 2, 7, 8, 1000, 1001])
def test_row_medians_match_numpy(rng, n):
    # odd and even lengths, with and without ties
    for A in (rng.standard_normal((5, n)), rng.integers(0, 3, (5, n)).astype(float),
              np.round(rng.standard_t(2, (5, n)), 1), np.zeros((5, n))):
        assert np.array_equal(_row_medians(A), np.median(A, axis=1))


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


def tau_scale(x):
    """The tau-scale of one sample, as ``initial_estimate`` computes it."""
    return math.sqrt(initial_estimate(DataSet(x[:, None])).V[0, 0])


def test_tau_scale_gaussian_monte_carlo(rng):
    x = rng.standard_normal(10_000)
    assert abs(tau_scale(x) - 1.0) <= 0.05


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


def reference_tme(data, mu, opts):
    """The scatter baseline as a row-layout loop of its own: V, and the
    largest count of rows at zero distance from mu in any iteration."""
    pi, p = data.effective_weights(), data.p
    diff = data.X - mu
    V = np.eye(p)
    dropped = 0
    for _ in range(opts.max_iter):
        d = squared_distances(diff, V, opts.diag_approx)
        keep = d > 0.0
        dropped = max(dropped, int((~keep).sum()))
        scaled = diff[keep] * (pi[keep] / d[keep])[:, None]
        V_new = p * (scaled.T @ diff[keep])
        V_new = 0.5 * (V_new + V_new.T)
        V_new *= p / np.trace(V_new)
        delta = np.linalg.norm(V_new - V, "fro") / np.linalg.norm(V, "fro")
        V = V_new
        if delta <= opts.tol:
            break
    return V, dropped


@pytest.mark.parametrize("variant", ["plain", "obs_weights", "row_at_mu"])
@pytest.mark.parametrize("diag_approx", [False, True])
def test_tme_matches_row_layout_reference(diag_approx, variant):
    rng = np.random.default_rng(31)
    n, p = 300, 6
    X = gaussian_data(n, p, V=np.diag(np.linspace(4.0, 1.0, p)), rng=rng) + 1.0
    mu = np.median(X, axis=0)
    obs = None
    if variant == "obs_weights":
        obs = rng.uniform(0.5, 1.5, n)
        obs /= obs.sum()
    if variant == "row_at_mu":
        X[17] = mu
    data = DataSet(X, obs_weights=obs)
    opts = FitOptions(tol=1e-10, diag_approx=diag_approx)
    V, dropped = reference_tme(data, mu, opts)
    if variant == "row_at_mu":
        assert dropped == 1
        with pytest.warns(UserWarning, match=r"^excluded 1 observation\(s\) at zero distance"):
            ls = fit_tme(data, mu, opts=opts)
    else:
        assert dropped == 0
        ls = fit_tme(data, mu, opts=opts)  # the suite turns any warning into an error
    assert ls.diag_approx == diag_approx and np.array_equal(ls.mu, mu)
    assert np.linalg.norm(ls.V - V) <= 1e-12 * np.linalg.norm(V)


@pytest.mark.parametrize("diag_approx", [False, True])
def test_tme_data_all_at_mu_is_degenerate(diag_approx):
    data = DataSet(np.ones((4, 3)))
    with pytest.raises(DegenerateStep, match="^every observation coincides with mu$"):
        fit_tme(data, np.ones(3), opts=FitOptions(diag_approx=diag_approx))


@pytest.mark.parametrize("diag_approx", [False, True])
def test_tme_flags_non_convergence(rng, diag_approx):
    data = DataSet(gaussian_data(200, 3, V=np.diag([3.0, 1.0, 0.5]), rng=rng))
    opts = FitOptions(max_iter=1, diag_approx=diag_approx)
    with pytest.warns(UserWarning, match="^scatter baseline did not converge in 1 iterations$"):
        ls = fit_tme(data, np.zeros(3), opts=opts)
    V, _ = reference_tme(data, np.zeros(3), opts)
    assert np.linalg.norm(ls.V - V) <= 1e-12 * np.linalg.norm(V)


# ------------------------------------------------------------ fits at p > n


def test_full_metric_fails_at_iteration_1_when_p_exceeds_n(rng):
    # the scatter of n < p points is singular, so the first full-metric step
    # ends the fit, naming its active count; the diagonal metric needs no
    # p points and converges on the same data
    data = DataSet(0.22 * gaussian_data(30, 40, rng=rng))
    message = r"^fewer than 40 observations active \(iteration 1\), 30 of 30 active$"
    with pytest.raises(SingularScatter, match=message):
        fit_sppca(data, a=40.0, opts=FULL)
    fit = fit_sppca(data, a=40.0)
    assert fit.converged
    assert fit.active_ratio == pytest.approx(1.0)


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


@pytest.mark.parametrize("p,k", [(3, 1), (3, 3), (10, 1), (10, 5), (10, 10), (50, 1), (50, 5),
                                 (50, 50), (100, 1), (100, 5), (100, 100)])
def test_pca_matches_scipy_subset_solver(p, k):
    # LAPACK's subset solver, as scipy.linalg.eigh calls it, is the reference
    rng = np.random.default_rng(p)
    A = rng.standard_normal((p, p))
    V = A @ A.T / p + 0.1 * np.eye(p)
    model = pca(LocationScatter(np.zeros(p), 0.5 * (V + V.T)), k)
    vals, vecs = scipy.linalg.eigh(0.5 * (V + V.T), subset_by_index=[p - k, p - 1])
    vals, vecs = vals[::-1], vecs[:, ::-1]
    np.testing.assert_allclose(model.eigenvalues, vals, rtol=1e-12, atol=0)
    peak = np.argmax(np.abs(model.eigenvectors), axis=0)
    assert np.all(model.eigenvectors[peak, np.arange(k)] > 0)
    vecs = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)])
    np.testing.assert_allclose(model.eigenvectors, vecs, rtol=0, atol=1e-10)


def test_pca_k_out_of_range():
    ls = LocationScatter(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        pca(ls, 0)
    with pytest.raises(ValueError):
        pca(ls, 3)
