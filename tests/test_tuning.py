import numpy as np
import pytest

from robust_scatter import (
    ARCurve,
    DataSet,
    FitOptions,
    FitResult,
    GridNotFound,
    LocationScatter,
    RobustScatterError,
    SimConfig,
    WeightSpec,
    build_grid,
    fit_sppca,
    gen_mixture,
    select_a_star,
    smooth_curve,
    solution_set,
)
from robust_scatter.tuning import MAX_SMOOTHER_DOF, _gcv_penalty, _natural_spline

from conftest import gaussian_data


def make_curve(grid, slope):
    """ARCurve with a prescribed slope sequence (ar values are fillers)."""
    grid = np.asarray(grid, dtype=float)
    ar = np.linspace(0.3, 0.9, grid.size)
    return ARCurve(grid=grid, ar_raw=ar, ar_smooth=ar, slope=np.asarray(slope, dtype=float))


def make_path(grid, ar):
    """Converged path with prescribed scales and active ratios (the fitted
    states are fillers)."""
    ls = LocationScatter(np.zeros(1), np.eye(1))
    return [FitResult(ls=ls, a=float(a), active_mask=np.ones(1, dtype=bool),
                      active_ratio=float(r), iterations=1, converged=True, residual=0.0)
            for a, r in zip(grid, ar)]


# -------------------------------------------------------------- active ratio


def test_active_ratio_all_inside(rng):
    X = 0.2 * gaussian_data(200, 2, rng=rng)
    fit = fit_sppca(DataSet(X), a=8.0)
    assert fit.active_ratio == 1.0


def test_active_ratio_half_by_construction():
    # half the points at the center, half far outside any O(1) ball
    X = np.vstack([0.01 * np.eye(2)[[0, 1, 0, 1]], 100.0 + np.eye(2)[[0, 1, 0, 1]]])
    data = DataSet(X)
    fit = fit_sppca(data, a=2.0, opts=FitOptions(max_iter=200))
    assert fit.active_ratio == pytest.approx(0.5)


def test_active_ratio_matches_mask(rng):
    X = gaussian_data(400, 3, rng=rng)
    data = DataSet(X)
    fit = fit_sppca(data, a=3.0)
    assert fit.active_ratio == pytest.approx(float(fit.active_mask.mean()))


# ---------------------------------------------------------------- build_grid


def check_grid_ends(data, grid, ell):
    """The grid is geometric and its ends are points of build_grid's scan:
    the one before the first with AR >= ell (or the first), and the first
    at the scan's top AR."""
    scan = np.geomspace(0.05 * data.p, 50.0 * data.p, 25)
    ars = np.array([f.active_ratio for f in solution_set(data, scan)])
    assert np.all(np.diff(grid) > 0)
    assert np.ptp(np.diff(np.log(grid))) < 1e-12
    lo = np.flatnonzero(ars >= ell)[0]
    assert grid[0] == scan[max(lo - 1, 0)]
    assert lo == 0 or ars[lo - 1] < ell
    assert grid[-1] == scan[np.argmax(ars == ars.max())]


def test_build_grid_structure(rng):
    X = gaussian_data(250, 10, rng=rng)
    data = DataSet(X)
    grid = build_grid(data, ell=0.2, m=50)
    assert grid.size == 50
    check_grid_ends(data, grid, 0.2)
    assert fit_sppca(data, grid[-1]).active_ratio == 1.0


def test_build_grid_default_m(rng):
    # 50 scales whatever n
    X = gaussian_data(2000, 3, rng=rng)
    for n in (30, 250, 2000):
        assert build_grid(DataSet(X[:n])).size == 50


def test_build_grid_not_found():
    # a lone far outlier keeps AR below 1 across the entire scan range
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100, 2))
    X[0] = 1e9
    with pytest.raises(GridNotFound):
        build_grid(DataSet(X), ell=0.2, m=10)


def test_build_grid_ends_at_top_scan_ar():
    # one far outlier in 1001 rows keeps AR at 1000/1001, within 0.005 of 1:
    # the grid ends where the scan's highest AR is first reached
    rng = np.random.default_rng(0)
    X = np.vstack([rng.standard_normal((1000, 2)), np.full((1, 2), 1e9)])
    data = DataSet(X)
    grid = build_grid(data, ell=0.2, m=10)
    assert grid.size == 10
    check_grid_ends(data, grid, 0.2)
    assert fit_sppca(data, grid[-1]).active_ratio == pytest.approx(1000 / 1001)


def test_build_grid_scan_propagates_unexpected_errors(rng, monkeypatch):
    # the scan is a solution path: a bug in it surfaces too, it is not AR = 0
    def broken_weight(*args, **kwargs):
        raise TypeError("not a fit failure")

    monkeypatch.setattr("robust_scatter.estimator.weight", broken_weight)
    with pytest.raises(TypeError, match="not a fit failure"):
        build_grid(DataSet(gaussian_data(50, 2, rng=rng)), m=10)


def test_build_grid_validates_args(rng):
    data = DataSet(gaussian_data(50, 2, rng=rng))
    with pytest.raises(ValueError):
        build_grid(data, ell=1.2)
    with pytest.raises(ValueError):
        build_grid(data, m=1)


# -------------------------------------------------------------- smooth_curve


def test_smooth_constant_curve():
    x = np.linspace(1.0, 9.0, 40)
    curve = smooth_curve(make_path(x, np.full(40, 0.7)))
    assert np.max(np.abs(curve.ar_smooth - 0.7)) < 1e-8
    assert np.max(np.abs(curve.slope)) < 1e-8


def test_smooth_linear_curve():
    # linear in log a: the slope is dAR/d log a
    x = np.linspace(0.0, 2.9, 30)
    y = 0.1 + 0.1 * x
    curve = smooth_curve(make_path(np.exp(x), y))
    assert np.max(np.abs(curve.slope - 0.1)) < 1e-6
    assert np.max(np.abs(curve.ar_smooth - y)) < 1e-8


def test_smooth_noisy_sigmoid(rng):
    x = np.linspace(0.0, 10.0, 60)
    truth = 1.0 / (1.0 + np.exp(-(x - 5.0)))
    y = np.clip(truth + 0.01 * rng.standard_normal(60), 0.0, 1.0)
    curve = smooth_curve(make_path(np.exp(x), y))
    assert np.max(np.abs(curve.ar_smooth - truth)) <= 0.03


def test_smooth_requires_four_points(rng):
    with pytest.raises(RobustScatterError, match="fewer than 4 usable fits"):
        smooth_curve(make_path([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]))
    # the two tiny scales trim every observation; three usable fits remain
    path = solution_set(DataSet(gaussian_data(200, 4, rng=rng)), [0.001, 0.002, 4.0, 5.0, 6.0])
    assert [f.error is None for f in path] == [False, False, True, True, True]
    assert all(f.error.startswith("EmptyActiveSet") for f in path[:2])
    with pytest.raises(RobustScatterError, match="fewer than 4 usable fits"):
        smooth_curve(path)


def test_smooth_four_points_is_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.1, 0.4, 0.2, 0.5])
    curve = smooth_curve(make_path(np.exp(x), y))
    assert np.ptp(curve.slope) < 1e-12  # 2-dof limit: a straight line in log a
    coef = np.polyfit(x, y, 1)
    assert np.allclose(curve.ar_smooth, np.polyval(coef, x), atol=1e-12)


def test_four_fits_fall_back(rng):
    # with 4 usable fits the smoothed curve is a line with one slope, which
    # has no strict slope minimum, on any grid
    for _ in range(20):
        lo = rng.uniform(0.1, 100.0)
        x = np.geomspace(lo, lo * rng.uniform(1.5, 1000.0), 4)
        curve = smooth_curve(make_path(x, rng.uniform(0.2, 0.8, 4)))
        assert np.ptp(curve.slope) == 0.0
        assert select_a_star(curve).fallback_used


@pytest.mark.parametrize("x", [np.linspace(3.0, 200.0, 200), np.linspace(0.0, 6.9, 50)],
                         ids=["linear", "log"])
def test_gcv_penalty_is_affine_invariant(x):
    # constants and lines are the penalty's null space, so GCV treats y and
    # c + b y alike; the eigenvalues eigh returns for that space are noise
    # and must not set the range of candidate penalties
    Q, R = _natural_spline(x)
    y = np.sin(x)
    lams = [_gcv_penalty(Q, R, c + b * y, MAX_SMOOTHER_DOF)
            for c, b in [(0, 1), (0.5, 0.4), (3, -2)]]
    assert lams[0] == lams[1] == lams[2]


def reference_gcv_penalty(Q, R, y, max_dof):
    """``_gcv_penalty`` as a scalar loop over the candidate penalties."""
    m = y.size
    cap = min(max_dof, m - 2)
    if cap <= 2:
        return np.inf
    K = Q @ np.linalg.solve(R, Q.T)
    d, U = np.linalg.eigh(0.5 * (K + K.T))
    d[:2] = 0.0
    z = U.T @ y
    lams = np.geomspace(1e-8 / d[-1], 1e8 / d[2], 121)

    def edof(lam):
        return float(np.sum(1.0 / (1.0 + lam * d)))

    def gcv(lam):
        shrink = lam * d / (1.0 + lam * d)
        return m * float(np.sum((shrink * z) ** 2)) / (m - edof(lam)) ** 2

    admissible = [lam for lam in lams if edof(lam) <= cap] or [lams[-1]]
    return min(admissible, key=gcv)


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_gcv_penalty_matches_scalar_loop(spacing):
    # the knots are log a for a scale grid linear in a (the simulator's) or
    # geometric (the tuner's)
    rng = np.random.default_rng(5 if spacing == "linear" else 6)
    for _ in range(25):
        m = int(rng.integers(5, 61))
        a = (np.linspace(1.0, rng.uniform(2.0, 100.0), m) if spacing == "linear"
             else np.geomspace(1.0, rng.uniform(2.0, 1e4), m))
        x = np.log(a)
        y = np.clip(0.5 + 0.5 * np.tanh(x - x.mean()) + 0.05 * rng.standard_normal(m), 0, 1)
        Q, R = _natural_spline(x)
        assert _gcv_penalty(Q, R, y, MAX_SMOOTHER_DOF) == reference_gcv_penalty(
            Q, R, y, MAX_SMOOTHER_DOF)


def test_smooth_drops_failed_fits(rng):
    data = DataSet(gaussian_data(200, 4, rng=rng))
    path = solution_set(data, [0.001, 0.002, 4.0, 5.0, 6.0, 7.0, 8.0])
    good = [f for f in path if f.error is None]
    assert len(good) == 5
    curve = smooth_curve(path)
    assert curve.grid.tolist() == [f.a for f in good]
    assert curve.ar_raw.tolist() == [f.active_ratio for f in good]
    clean = smooth_curve(good)
    assert np.array_equal(curve.ar_smooth, clean.ar_smooth)
    assert np.array_equal(curve.slope, clean.slope)


def reference_input(kind, rng):
    """A path to smooth: the noisy sigmoid above in log a, a staircase on a
    geometric grid, or a mixture sample's solution path on its tuning grid."""
    if kind == "sigmoid":
        x = np.linspace(0.0, 10.0, 60)
        y = np.clip(1.0 / (1.0 + np.exp(-(x - 5.0))) + 0.01 * rng.standard_normal(60), 0.0, 1.0)
        return make_path(np.exp(x), y)
    if kind == "geomspace":
        x = np.geomspace(0.5, 500.0, 50)
        y = 0.85 / (1.0 + (20.0 / x) ** 3) + 0.15 / (1.0 + (150.0 / x) ** 4)
        return make_path(x, np.round(y * 200) / 200)  # AR of 200 equal weights
    data, _ = gen_mixture(SimConfig(n=250, p=10, k=2, nu=10, pi=0.15, c=4, seed=7))
    return solution_set(data, build_grid(data))


@pytest.mark.parametrize("kind", ["sigmoid", "geomspace", "mixture_path"])
def test_smooth_matches_scipy_spline(kind, rng):
    # scipy's smoothing spline in log a at the same GCV penalty is the
    # reference for the closed form: fitted values, knot slopes and the
    # selected scale
    from scipy.interpolate import make_smoothing_spline

    curve = smooth_curve(reference_input(kind, rng))
    x, y = np.log(curve.grid), curve.ar_raw
    spl = make_smoothing_spline(x, y, lam=_gcv_penalty(*_natural_spline(x), y, MAX_SMOOTHER_DOF))
    ref = ARCurve(curve.grid, y, np.clip(spl(x), 0.0, 1.0), spl.derivative()(x))
    assert np.max(np.abs(curve.ar_smooth - ref.ar_smooth)) <= 1e-9
    assert np.max(np.abs(curve.slope - ref.slope)) <= 1e-8 * np.max(np.abs(ref.slope))
    assert select_a_star(curve).a_star == select_a_star(ref).a_star


# ------------------------------------------------------------- select_a_star


def test_select_first_strict_local_minimum():
    curve = make_curve(np.arange(1.0, 6.0), [0.05, 0.03, 0.01, 0.014, 0.06])
    result = select_a_star(curve)
    assert result.a_star == 3.0
    assert not result.fallback_used
    assert result.ar_at_a_star == curve.ar_raw[2]
    assert 3.0 in result.candidates


def test_select_plateau_is_not_minimum():
    # equal neighboring slopes fail the strict comparisons
    curve = make_curve(np.arange(1.0, 7.0), [0.05, 0.03, 0.01, 0.01, 0.04, 0.06])
    result = select_a_star(curve)
    assert result.fallback_used
    assert result.a_star == 6.0


def test_select_concave_curve_falls_back():
    grid = np.arange(1.0, 8.0)
    slope = np.array([0.30, 0.25, 0.20, 0.15, 0.10, 0.05, 0.02])  # strictly decreasing
    result = select_a_star(make_curve(grid, slope))
    assert result.fallback_used
    assert result.a_star == grid[-1]
    assert result.candidates.size == 0


def test_select_min_of_candidates():
    grid = np.arange(1.0, 7.0)
    slope = [0.08, 0.02, 0.05, 0.01, 0.06, 0.07]
    # a slope minimum below AR 1/2 is no candidate: the first one, at AR
    # 0.42, reads the main cloud before it is absorbed
    result = select_a_star(make_curve(grid, slope))
    assert result.a_star == 4.0
    assert list(result.candidates) == [4.0]
    # with both at AR >= 1/2 the first one wins
    ar = np.linspace(0.5, 1.0, 6)
    result = select_a_star(ARCurve(grid, ar, ar, slope))
    assert result.a_star == 2.0
    assert list(result.candidates) == [2.0, 4.0]
    # with neither, the largest scale
    ar = np.linspace(0.1, 0.45, 6)
    result = select_a_star(ARCurve(grid, ar, ar, slope))
    assert result.fallback_used and result.a_star == 6.0
    assert result.candidates.size == 0


def test_select_deterministic():
    curve = make_curve(np.arange(1.0, 6.0), [0.05, 0.03, 0.01, 0.014, 0.06])
    r1 = select_a_star(curve)
    r2 = select_a_star(curve)
    assert r1 == r2


def test_curve_rejects_bad_grid():
    y = np.array([0.1, 0.2, 0.3, 0.5, 0.6])
    with pytest.raises(ValueError, match="strictly increasing"):
        ARCurve(np.array([1.0, 2.0, 2.0, 3.0, 4.0]), y, y, np.zeros(5))
    with pytest.raises(ValueError, match="strictly increasing"):
        ARCurve(np.array([1.0, 3.0, 2.0, 4.0, 5.0]), y, y, np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        ARCurve(np.array([1.0, 2.0, 3.0, 4.0, np.inf]), y, y, np.zeros(5))


def test_curve_validation():
    with pytest.raises(ValueError):
        ARCurve(np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.array([0.5, 0.9]),
                np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        ARCurve(np.array([2.0, 1.0]), np.array([0.5, 0.9]), np.array([0.5, 0.9]),
                np.array([0.0, 0.0]))


# ------------------------------------------------- end-to-end change point


def test_tuned_scale_beats_full_absorption_on_separable_data():
    # with an exactly separated secondary cloud, the subspace recovered at
    # the tuned scale must beat the one at the largest scale, which absorbs
    # the secondary cloud (20-replicate medians)
    from robust_scatter import SimConfig, gen_separable_mixture, pca, similarity_rho

    tuned, absorbed = [], []
    for rep in range(20):
        cfg = SimConfig(n=250, p=10, k=3, nu=10.0, pi=0.2, c=4.0, seed=4200 + rep)
        data, truth = gen_separable_mixture(cfg)
        path = solution_set(data, build_grid(data, ell=0.2, m=50))
        curve = smooth_curve(path)
        sel = select_a_star(curve)
        star = next(f for f in path if f.a == sel.a_star)
        last = next(f for f in path if f.a == curve.grid[-1])
        tuned.append(similarity_rho(pca(star.ls, cfg.k).eigenvectors, truth.Gamma_k))
        absorbed.append(similarity_rho(pca(last.ls, cfg.k).eigenvectors, truth.Gamma_k))
    assert np.median(tuned) > np.median(absorbed)


@pytest.mark.parametrize("n", [250, 1000, 2000])
def test_tuned_ar_matches_clean_fraction_at_every_n(n):
    # the CLI's tuning path on standardized mixture samples: the tuned AR
    # must sit at the clean fraction, and the tuned subspace must be close
    # to the best one on the path, at every n (a linear grid of n/5 scales
    # picked the absorbed secondary cloud in 6 of 6 seeds at n = 2000)
    from robust_scatter import pca, similarity_rho

    gaps, losses = [], []
    for seed in range(1, 7):
        cfg = SimConfig(n=n, p=50, k=5, nu=10.0, pi=0.15, c=4.0, seed=seed)
        raw, truth = gen_mixture(cfg)
        X = raw.X - raw.X.mean(axis=0)
        data = DataSet(X / X.std(axis=0, ddof=1))  # as cli.load_csv standardizes
        path = solution_set(data, build_grid(data))
        sel = select_a_star(smooth_curve(path))
        rho = {f.a: similarity_rho(pca(f.ls, cfg.k).eigenvectors, truth.Gamma_k)
               for f in path if f.error is None}
        gaps.append(abs(sel.ar_at_a_star - (1.0 - truth.labels.mean())))
        losses.append(max(rho.values()) - rho[sel.a_star])
    assert sum(g <= 0.03 for g in gaps) >= 5, gaps
    assert max(losses) <= 0.02, losses


def test_tuned_ar_tracks_contamination_level():
    # mixture with a well-separated secondary cloud at 15% mass: the tuned
    # scale should stop right around the clean fraction
    from robust_scatter import SimConfig, gen_mixture

    ars = []
    for rep in range(20):
        cfg = SimConfig(n=250, p=50, k=5, nu=10.0, pi=0.15, c=4.0, seed=2000 + rep)
        data, _ = gen_mixture(cfg)
        grid = np.linspace(0.2 * cfg.p, 3.0 * cfg.p, 50)
        path = solution_set(data, grid)
        curve = smooth_curve(path)
        sel = select_a_star(curve)
        ars.append(sel.ar_at_a_star)
    med = float(np.median(ars))
    assert 1 - 0.15 - 0.07 <= med <= 1 - 0.15 + 0.05
