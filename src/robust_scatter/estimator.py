"""Fixed-point solvers for the reweighted scatter estimator.

The central object is the pair (mu, V) solving the weighted moment equations

    mu = sum_i pi_i w_i x_i / sum_i pi_i w_i
    V  = p * sum_i pi_i w_i (x_i - mu)(x_i - mu)^T / sum_i pi_i w_i d_i

with w_i = weight(d_i) evaluated at the squared Mahalanobis distance
d_i = d(x_i, mu, V), and pi_i the observation weights (uniform 1/n unless the
data carries explicit weights).  The solver iterates this map from an initial
(mu_tilde, a * V_tilde); the initialization scale ``a`` selects which member
of the solution family the iteration converges to.

A ridge blend toward the identity for p > n (``tau`` in ``fit_sppca``), a
plain Tyler-type baseline (``fit_tme``), the robust initializer (column
medians and tau-scales), and the eigendecomposition used for PCA output live
here as well.

For stability at large p, squared distances can be computed against the
diagonal of V instead of the full matrix (``diag_approx``, on by default).
Under that metric (mu, diag V) is a closed iteration: the fits of a whole
solution path iterate it together as a few matrix products per step, and
each fit forms its full p x p scatter once, from the state its last step
started from.  Full-matrix distances are d_i = ||L^{-1}(x_i - mu)||^2 with
V = L L^T: one Cholesky factor and one p x p triangular inverse per call,
then one matrix product whitens all observations, and a sum of squares can
never be negative.  The full-metric iteration holds the observations as
the columns of a p x n copy of X^T, with two p x n work arrays (centred,
whitened) beside it, all allocated once per fit, so each step's
element-wise work runs along n and allocates no n x p temporary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateScale,
    DegenerateStep,
    EmptyActiveSet,
    SingularScatter,
)
from .weights import UNIT, WeightSpec, weight

# Population value of the raw tau-scale at the standard Gaussian, computed by
# Gauss quadrature of s0^2 * E[min((X/s0)^2, c2^2)] with s0 the normal MAD
# (see tests/test_estimator.py, which re-derives it to 1e-10).  Dividing by
# this makes the tau-scale consistent for the Gaussian standard deviation.
TAU_SCALE_GAUSSIAN_CONSISTENCY = 0.9616212311383993

TAU_SCALE_C1 = 4.5
TAU_SCALE_C2 = 3.0

# The errors that mean one fit has failed, as opposed to bad input or a bug:
# a path records them, with AR = 0.
FIT_FAILURES = (EmptyActiveSet, DegenerateStep, SingularScatter)

# Entries must square to a finite number: the distances and the scatter
# update form x^2, and an infinite square times a zero weight is NaN.
MAX_ABS_ENTRY = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class DataSet:
    """An n x p observation matrix with optional per-row weights."""

    X: np.ndarray
    obs_weights: np.ndarray | None = None
    column_names: list[str] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        n, p = X.shape
        if n < 2 or p < 1:
            raise ValueError(f"need n >= 2 and p >= 1, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        largest = np.abs(X).max()
        if largest >= MAX_ABS_ENTRY:
            raise ValueError(f"X has an entry of magnitude {largest:g}; entries must be "
                             f"below {MAX_ABS_ENTRY:.4g} so that their squares are finite")
        object.__setattr__(self, "X", X)
        if self.obs_weights is not None:
            w = np.asarray(self.obs_weights, dtype=float)
            if w.shape != (n,):
                raise ValueError(f"obs_weights must have shape ({n},), got {w.shape}")
            if np.any(w < 0):
                raise ValueError("obs_weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("obs_weights must sum to 1 within 1e-12")
            object.__setattr__(self, "obs_weights", w)
        if self.column_names is not None and len(self.column_names) != p:
            raise ValueError("column_names length does not match p")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def effective_weights(self) -> np.ndarray:
        if self.obs_weights is not None:
            return self.obs_weights
        return np.full(self.n, 1.0 / self.n)


@dataclass(frozen=True)
class LocationScatter:
    """A location vector plus symmetric positive-definite scatter matrix."""

    mu: np.ndarray
    V: np.ndarray
    diag_approx: bool = False

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if mu.ndim != 1 or V.shape != (mu.size, mu.size):
            raise ValueError(f"shape mismatch: mu {mu.shape}, V {V.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(V))):
            raise ValueError("mu and V must be finite")
        scale = max(np.abs(V).max(), 1.0)
        if np.abs(V - V.T).max() > 1e-10 * scale:
            raise ValueError("V must be symmetric within 1e-10 relative")
        if self.diag_approx:
            if np.any(np.diag(V) <= 0):
                raise SingularScatter("diagonal of V must be strictly positive")
        else:
            _cholesky(V)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "V", V)

    @property
    def p(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class FitResult:
    """Converged (or flagged) state of one fixed-point run.

    ``residual`` is the relative change of the last step: of (mu, diag V)
    under the diagonal metric, of (mu, V) under the full one.
    """

    ls: LocationScatter
    a: float
    active_mask: np.ndarray
    active_ratio: float
    iterations: int
    converged: bool
    residual: float
    error: str | None = None


@dataclass(frozen=True)
class PCAModel:
    """Top-k eigenpairs of a scatter matrix, descending and sign-normalized."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    k: int


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 500
    diag_approx: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _cholesky(V: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of V (upper triangle zeroed).

    The one positive-definiteness rule of the package: raises SingularScatter
    when LAPACK cannot factor V.
    """
    L, info = scipy.linalg.lapack.dpotrf(V, lower=1, clean=1)
    if info != 0:
        raise SingularScatter("scatter matrix is not positive definite")
    return L


def squared_distances(diff: np.ndarray, V: np.ndarray, diag_approx: bool) -> np.ndarray:
    """Row-wise (x - mu)^T V^{-1} (x - mu) for pre-centered rows ``diff``.

    With ``diag_approx`` only the diagonal of V enters.  Otherwise the rows
    go through the full-metric kernel (``_full_distances``) as the columns
    of ``diff.T``, a view, so any layout is accepted; the distances are
    nonnegative by construction (and exactly 0 for a zero row).  Raises
    SingularScatter when V is not positive definite.
    """
    if diag_approx:
        dv = np.diag(V)
        if np.any(dv <= 0):
            raise SingularScatter("diagonal of V has non-positive entries")
        return np.square(diff) @ (1.0 / dv)
    D = np.asarray(diff).T
    return _full_distances(D, V, np.empty(D.shape))


def _full_distances(D: np.ndarray, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Squared full-metric distances of the columns of the p x n array D.

    The one full-metric kernel: V = L L^T is factored, the p x p factor is
    inverted, and one product whitens every column, Z = L^{-1} D, into the
    caller's p x n work array Z.  Each distance is the sum of the squares of
    a column of Z, so it can never be negative.  Raises SingularScatter when
    V is not positive definite.
    """
    Linv, info = scipy.linalg.lapack.dtrtri(_cholesky(V), lower=1, overwrite_c=1)
    if info != 0:
        raise SingularScatter("Cholesky factor of the scatter matrix is singular")
    np.matmul(Linv, D, out=Z)
    np.square(Z, out=Z)
    # summing the p rows with a matrix-vector product keeps the inner loops
    # n long
    return np.ones(Z.shape[0]) @ Z


def mahalanobis(x, ls: LocationScatter) -> float:
    """Squared Mahalanobis distance of one point from ``ls``.

    Uses only the diagonal of V when ``ls.diag_approx`` is set.  Solves a
    linear system instead of forming an explicit inverse.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != ls.mu.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, mu {ls.mu.shape}")
    diff = (x - ls.mu)[None, :]
    return float(squared_distances(diff, ls.V, ls.diag_approx)[0])


def in_ball(x, ls: LocationScatter, spec: WeightSpec = WeightSpec()) -> bool:
    """True iff ``x`` lies strictly inside the trimming ball of ``ls``.

    Equivalent to ``weight(d(x, mu, V), spec) > 0`` for the hard-threshold
    kind; always true for the unit kind.
    """
    if spec.kind == UNIT:
        return True
    return mahalanobis(x, ls) < spec.cutoff


def _step(XT, pi, mu, V, spec, diag_approx, tau, D, Z):
    """One application of the fixed-point map to the observations, the
    columns of the p x n array XT; returns (mu_new, V_new, active), with
    ``active`` the number of observations of positive weight.

    D and Z are p x n work arrays: D receives the columns of XT centred at
    mu, and Z the whitened columns (under the full metric), then the
    weighted ones.  Their contents on entry are ignored.
    """
    np.subtract(XT, mu[:, None], out=D)
    d = squared_distances(D.T, V, True) if diag_approx else _full_distances(D, V, Z)
    pw = weight(d, spec)
    active = int(np.count_nonzero(pw > 0.0))
    pw *= pi
    sw = pw.sum()
    if sw <= 0.0:
        raise EmptyActiveSet("all observations have zero weight")
    swd = float(pw @ d)
    if swd <= 0.0:
        raise DegenerateStep("all active observations coincide with the location")
    np.multiply(D, pw, out=Z)
    return (XT @ pw) / sw, _scatter(Z @ D.T, swd, tau), active


def _scatter(C, swd, tau):
    """The scatter update p / swd * C from the weighted cross-product
    C = sum_i pw_i (x_i - mu)(x_i - mu)^T about the previous location,
    symmetrized, with its ``tau`` blend."""
    p = C.shape[0]
    V = (p / swd) * C
    V = 0.5 * (V + V.T)
    if tau > 0.0:
        V = V / (1.0 + tau) + (tau / (1.0 + tau)) * np.eye(p)
    return V


def _relative_change(mu_new, mu, V_new, V) -> float:
    r_mu = np.linalg.norm(mu_new - mu) / (1.0 + np.linalg.norm(mu))
    r_v = np.linalg.norm(V_new - V, "fro") / (1.0 + np.linalg.norm(V, "fro"))
    return max(r_mu, r_v)


def _finish(data, ls, a, iterations, converged, residual, mask) -> FitResult:
    pi = data.effective_weights()
    return FitResult(
        ls=ls,
        a=a,
        active_mask=mask,
        active_ratio=min(1.0, max(0.0, float(pi @ mask))),
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def fit_sppca(
    data: DataSet,
    a: float,
    init: LocationScatter | None = None,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions = FitOptions(),
    tau: float = 0.0,
) -> FitResult:
    """Run the fixed-point iteration from (mu_tilde, a * V_tilde).

    Parameters
    ----------
    data : DataSet
    a : initialization scale, in squared-distance units (order O(p)).
    init : optional explicit initial state; by default the robust initial
        estimate scaled by ``a``.
    spec, opts : weight family and solver controls.
    tau : ridge blend weight; each scatter update is shrunk toward the
        identity, V <- V_fp / (1 + tau) + tau / (1 + tau) * I.  With the
        default tau = 0 the map is the plain one.  The blend keeps V positive
        definite when p > n, where the plain update is rank deficient and
        the full-matrix distance computation fails.

    Under the diagonal metric the fit runs through the same batched kernel
    as a solution path (a path of one scale).  Returns a FitResult;
    non-convergence is flagged (``converged=False``), not raised, so a whole
    solution path can be assembled.  EmptyActiveSet, DegenerateStep and
    SingularScatter are raised with the offending iteration index, and the
    number of observations active at the last completed step, in the
    message and in their ``iteration`` and ``active`` attributes.  Under the
    full metric with n >= p, a step that leaves fewer than p observations
    active raises SingularScatter with that step's count.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if init is None:
        base = initial_estimate(data)
        init = LocationScatter(base.mu, a * base.V, diag_approx=opts.diag_approx)
    elif init.diag_approx != opts.diag_approx:
        init = LocationScatter(init.mu, init.V, diag_approx=opts.diag_approx)
    if opts.diag_approx:
        (fit,) = _diag_fits(data, [a], init.mu, np.diag(init.V)[None, :], spec, opts, tau)
    else:
        fit = _full_fit(data, a, init, spec, opts, tau)
    if isinstance(fit, FitResult):
        return fit
    try:
        raise fit
    finally:
        del fit  # the error's traceback holds this frame, which must not hold the error


def _fit_error(n: int, cls, message: str, it: int, active: int | None):
    """The error of a fit of n observations that failed at iteration ``it``
    (0: before the first step) with ``active`` of them active at its last
    completed step (None: it completed none), naming both in its message
    and attributes."""
    where = f"(iteration {it})" if active is None else f"(iteration {it}), {active} of {n} active"
    err = cls(f"{message} {where}")
    err.iteration = it
    err.active = active
    return err


def _full_fit(data, a, init, spec, opts, tau):
    """Full-metric fixed-point iteration from ``init``: a FitResult, or for
    a failed fit its ``_fit_error``, with the active count taken at the last
    completed step (None before the first), or at the step that leaves
    fewer than p active.

    The iteration runs on the data as columns: a contiguous copy of X^T and
    two p x n work arrays (the centred and the whitened observations) are
    allocated once per fit and reused by every step and by the final active
    set, so a step allocates only a few n-vectors and its element-wise
    loops run over n, not p.
    """
    XT = np.ascontiguousarray(data.X.T)
    pi = data.effective_weights()
    D = np.empty((data.p, data.n))
    Z = np.empty_like(D)
    mu, V = init.mu.copy(), init.V.copy()
    residual = np.inf
    it = 0
    active = None  # of the last completed step
    try:
        for it in range(1, opts.max_iter + 1):
            mu_new, V_new, count = _step(XT, pi, mu, V, spec, False, tau, D, Z)
            # the scatter of fewer than p points is singular; a tau blend only
            # hides that while the fit diverges (for n < p, hiding it is its job)
            if count < data.p <= data.n:
                return _fit_error(data.n, SingularScatter,
                                  f"fewer than {data.p} observations active", it, count)
            active = count
            residual = _relative_change(mu_new, mu, V_new, V)
            mu, V = mu_new, V_new
            if residual <= opts.tol:
                break
        ls = LocationScatter(mu, V)
        # the active set is the trimming ball of the final state (in_ball)
        if spec.kind == UNIT:
            mask = np.ones(data.n, dtype=bool)
        else:
            np.subtract(XT, mu[:, None], out=D)
            mask = _full_distances(D, V, Z) < spec.cutoff
        return _finish(data, ls, a, it, bool(residual <= opts.tol), residual, mask)
    except FIT_FAILURES as exc:
        return _fit_error(data.n, type(exc), str(exc), it, active)


def _diag_distances(Z, M, v):
    """n x b squared diagonal-metric distances of the rows from b locations.

    ``Z = [Xc * Xc, Xc]`` holds the centred rows and their squares, the
    locations and scatter diagonals are the rows of M and v.  The expanded
    form sum_j (x_j^2 - 2 x_j m_j + m_j^2) / v_j is one matrix product; its
    rounding can fall just below 0 where the direct form gives 0, so it is
    clamped there.
    """
    inv = 1.0 / v
    d = Z @ np.hstack([inv, -2.0 * M * inv]).T
    d += np.sum(M * M * inv, axis=1)
    return np.maximum(d, 0.0, out=d)


def _diag_fits(data, scales, mu0, v0, spec, opts, tau=0.0) -> list:
    """Diagonal-metric fits from (mu0, diag v0[j]), one per scale, iterated
    together.

    Under the diagonal metric (mu, diag V) is a closed iteration, so the
    live fits are the rows of M and v, and one pass steps all of them:

        d   = every row's distance from every location (``_diag_distances``)
        W   = pi * weight(d)
        mu' = W^T X / sum W
        v'  = p / sum(W * d) * (W^T (X * X) - 2 M * W^T X + M^2 * sum W)

    or its ``tau`` blend, with the rows centred at ``mu0`` to keep the
    expanded form's cancellation small.  A fit leaves the block when
    (mu, diag V) moves by at most ``opts.tol`` relative, when it fails, or
    at ``opts.max_iter``.  Only then is its full p x p scatter formed, as
    the update ``_step`` makes from the state that pass started from (in
    the same expanded form, with that pass's weights), so a fit of k
    iterations is exactly k applications of the map; its active set comes
    from the same distance kernel.  Each entry of the result is a FitResult
    or, for a failed fit, its ``_fit_error``, with the active count taken at
    the last completed step (None before the first).
    """
    n, p = data.X.shape
    pi = data.effective_weights()
    Z = np.empty((n, 2 * p))
    Xc = Z[:, p:]
    np.subtract(data.X, mu0, out=Xc)
    np.square(Xc, out=Z[:, :p])
    M = np.zeros_like(v0)  # locations, relative to mu0
    v = np.array(v0, dtype=float)
    live = np.arange(len(v))  # the fits of the rows of M and v
    Mp, vp = M, v  # from step 2 on: the states the previous step started from
    ends: list = [None] * len(v)

    def active(Ms, vs, j):
        # observations of positive weight in the step started from row j of
        # (Ms, vs), recomputed for a failed fit only
        return int(np.count_nonzero(weight(_diag_distances(Z, Ms[j:j + 1], vs[j:j + 1]), spec)))

    for it in range(1, opts.max_iter + 1):
        bad = np.any(v <= 0.0, axis=1)
        if bad.any():
            for j in np.flatnonzero(bad):
                ends[live[j]] = _fit_error(n, SingularScatter,
                                           "diagonal of V has non-positive entries", it,
                                           active(Mp, vp, j) if it > 1 else None)
            M, v, live, Mp, vp = M[~bad], v[~bad], live[~bad], Mp[~bad], vp[~bad]
            if not live.size:
                break
        d = _diag_distances(Z, M, v)
        W = weight(d, spec)
        W *= pi[:, None]
        sw = W.sum(axis=0)
        swd = np.einsum("ij,ij->j", W, d)
        del d  # n x block: free it before the full scatters below
        bad = (sw <= 0.0) | (swd <= 0.0)
        if bad.any():
            for j in np.flatnonzero(bad):
                cls, message = (
                    (EmptyActiveSet, "all observations have zero weight") if sw[j] <= 0.0
                    else (DegenerateStep, "all active observations coincide with the location"))
                ends[live[j]] = _fit_error(n, cls, message, it,
                                           active(Mp, vp, j) if it > 1 else None)
            M, v, live, W, sw, swd = M[~bad], v[~bad], live[~bad], W[:, ~bad], sw[~bad], swd[~bad]
            if not live.size:
                break
        S = W.T @ Z
        S2, S1 = S[:, :p], S[:, p:]
        mu_new = S1 / sw[:, None]
        v_new = (p / swd)[:, None] * (S2 - 2.0 * M * S1 + M * M * sw[:, None])
        if tau > 0.0:
            v_new = v_new / (1.0 + tau) + tau / (1.0 + tau)
        r_mu = np.linalg.norm(mu_new - M, axis=1) / (1.0 + np.linalg.norm(M + mu0, axis=1))
        r_v = np.linalg.norm(v_new - v, axis=1) / (1.0 + np.linalg.norm(v, axis=1))
        residual = np.maximum(r_mu, r_v)
        done = (residual <= opts.tol) | (it == opts.max_iter)
        W = W[:, done]  # only the fits that end now need their weights again
        for k, j in enumerate(np.flatnonzero(done)):
            m, s1 = M[j], S1[j]
            C = Xc.T @ (Xc * W[:, k:k + 1]) - np.outer(m, s1) - np.outer(s1, m)
            V = _scatter(C + sw[j] * np.outer(m, m), swd[j], tau)
            try:
                ls = LocationScatter(mu_new[j] + mu0, V, diag_approx=True)
            except SingularScatter as exc:
                ends[live[j]] = _fit_error(n, type(exc), str(exc), it, active(M, v, j))
                continue
            mask = weight(_diag_distances(Z, mu_new[j:j + 1], np.diag(V)[None, :]), spec) > 0
            ends[live[j]] = _finish(data, ls, scales[live[j]], it,
                                    bool(residual[j] <= opts.tol), float(residual[j]), mask[:, 0])
        Mp, vp = M[~done], v[~done]
        M, v, live = mu_new[~done], v_new[~done], live[~done]
        if not live.size:
            break
    return ends


def solution_set(
    data: DataSet,
    grid,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions = FitOptions(),
) -> list[FitResult]:
    """One fit per grid scale, each cold-started at (mu_tilde, a * V_tilde).

    Under the diagonal metric the scales run through one batched iteration
    in blocks of at most p, so its n x block temporaries are never larger
    than the data; each fit is the one ``fit_sppca`` returns at its scale,
    up to rounding.  Under the full metric the fits run one after another.
    Failed fits (empty active set, degenerate step, singular scatter) are
    recorded in place with ``converged=False``, the error message and the
    iteration at which the fit failed, instead of aborting the path.
    Results are in grid order.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    base = initial_estimate(data)  # raises before any fit on degenerate data

    def init(a):
        return LocationScatter(base.mu, a * base.V, diag_approx=opts.diag_approx)

    if opts.diag_approx:
        dv = np.diag(base.V)
        fits = []
        for lo in range(0, grid.size, data.p):
            block = grid[lo:lo + data.p]
            fits += _diag_fits(data, block, base.mu, block[:, None] * dv, spec, opts)
    else:
        fits = [_full_fit(data, a, init(a), spec, opts, 0.0) for a in grid]
    return [fit if isinstance(fit, FitResult) else _failed_fit(data, a, init(a), fit)
            for a, fit in zip(grid, fits)]


def _failed_fit(data, a, init, err) -> FitResult:
    """The path entry of a fit that failed with ``err``: its initial state,
    AR 0 and the error."""
    return FitResult(
        ls=init,
        a=a,
        active_mask=np.zeros(data.n, dtype=bool),
        active_ratio=0.0,
        iterations=err.iteration,
        converged=False,
        residual=np.inf,
        error=f"{type(err).__name__}: {err}",
    )


def tau_scale(x: np.ndarray) -> float:
    """Robust scale of a univariate sample, consistent for the Gaussian sd.

    Truncated-standard-deviation construction: MAD as the auxiliary scale, a
    bisquare-weighted location (tuning constant 4.5), then the square root of
    the truncated second moment (tuning constant 3.0), divided by the
    Gaussian consistency factor.  A sample whose MAD is below 1e-12 has
    scale 0.
    """
    return float(_tau_scales(np.asarray(x, dtype=float).reshape(1, -1))[1][0])


def _tau_scales(XT):
    """Medians and tau-scales (``tau_scale``) of the rows of the p x n array
    XT, computed together in one p x n work array."""
    med = np.median(XT, axis=1)
    A = XT - med[:, None]
    np.abs(A, out=A)
    s0 = np.median(A, axis=1)
    flat = s0 < 1e-12
    s0[flat] = 1.0  # their scale is 0; any positive value avoids 0 / 0
    # both weights clip before squaring, so far points cannot overflow
    A /= s0[:, None]
    A /= TAU_SCALE_C1
    np.square(np.minimum(A, 1.0, out=A), out=A)
    np.square(np.subtract(1.0, A, out=A), out=A)  # the bisquare location weights
    mu = np.einsum("ij,ij->i", A, XT) / A.sum(axis=1)
    np.abs(np.subtract(XT, mu[:, None], out=A), out=A)
    A /= s0[:, None]
    np.square(np.minimum(A, TAU_SCALE_C2, out=A), out=A)
    scales = s0 * np.sqrt(A.mean(axis=1)) / TAU_SCALE_GAUSSIAN_CONSISTENCY
    scales[flat] = 0.0
    return med, scales


def initial_estimate(data: DataSet) -> LocationScatter:
    """Column medians plus a diagonal of squared per-column tau-scales."""
    med, scales = _tau_scales(np.ascontiguousarray(data.X.T))
    bad = np.nonzero(scales < 1e-12)[0]
    if bad.size:
        names = (
            [data.column_names[j] for j in bad]
            if data.column_names is not None
            else [str(j) for j in bad]
        )
        raise DegenerateScale(f"zero robust scale in column(s): {', '.join(names)}")
    return LocationScatter(med, np.diag(scales**2), diag_approx=True)


def fit_tme(
    data: DataSet,
    mu: np.ndarray,
    opts: FitOptions = FitOptions(),
) -> LocationScatter:
    """Distribution-free scatter baseline for a fixed, externally supplied mu.

    Iterates V <- p * sum_i pi_i (x_i - mu)(x_i - mu)^T / d_i with the trace
    renormalized to p each step (the equation only identifies shape).
    Observations at exactly mu are excluded from that iteration's sums, with
    a warning carrying the count.  Non-convergence is flagged by a warning.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (data.p,):
        raise ValueError(f"mu must have shape ({data.p},)")
    X = data.X
    pi = data.effective_weights()
    p = data.p
    diff = X - mu
    V = np.eye(p)
    dropped = 0
    converged = False
    for _ in range(opts.max_iter):
        d = squared_distances(diff, V, opts.diag_approx)
        keep = d > 0.0
        n_dropped = int((~keep).sum())
        if n_dropped:
            dropped = max(dropped, n_dropped)
        if not np.any(keep):
            raise DegenerateStep("every observation coincides with mu")
        scaled = diff[keep] * (pi[keep] / d[keep])[:, None]
        V_new = p * (scaled.T @ diff[keep])
        V_new = 0.5 * (V_new + V_new.T)
        V_new *= p / np.trace(V_new)
        delta = np.linalg.norm(V_new - V, "fro") / np.linalg.norm(V, "fro")
        V = V_new
        if delta <= opts.tol:
            converged = True
            break
    if dropped:
        warnings.warn(f"excluded {dropped} observation(s) at zero distance from mu")
    if not converged:
        warnings.warn(f"scatter baseline did not converge in {opts.max_iter} iterations")
    return LocationScatter(mu, V, diag_approx=opts.diag_approx)


def pca(ls: LocationScatter, k: int) -> PCAModel:
    """Top-k eigenpairs of the scatter, descending, sign-normalized.

    Only the top k eigenpairs are computed.  Sign convention: each
    eigenvector's largest-magnitude entry is positive.
    """
    p = ls.p
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, {p}], got {k}")
    # LocationScatter has checked that V is finite
    vals, vecs = scipy.linalg.eigh(ls.V, subset_by_index=[p - k, p - 1], check_finite=False)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    for j in range(k):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return PCAModel(eigenvalues=vals, eigenvectors=vecs, k=k)


def estimating_equation_residual(
    data: DataSet, fit: FitResult, spec: WeightSpec = WeightSpec()
) -> float:
    """Relative residual of the moment equations at a fitted state.

    Applies the fixed-point map once at (mu_hat, V_hat) and measures the
    relative change; at an exact solution both components are zero.
    """
    ls = fit.ls
    D = np.empty((data.p, data.n))
    mu_new, V_new, _ = _step(data.X.T, data.effective_weights(), ls.mu, ls.V, spec,
                             ls.diag_approx, 0.0, D, np.empty_like(D))
    return _relative_change(mu_new, ls.mu, V_new, ls.V)
