"""Fixed-point solvers for the reweighted scatter estimator.

The central object is the pair (mu, V) solving the weighted moment equations

    mu = sum_i pi_i w_i x_i / sum_i pi_i w_i
    V  = p * sum_i pi_i w_i (x_i - mu)(x_i - mu)^T / sum_i pi_i w_i d_i

with w_i = weight(d_i) evaluated at the squared Mahalanobis distance
d_i = d(x_i, mu, V), and pi_i the observation weights (uniform 1/n unless the
data carries explicit weights).  The solver iterates this map from an initial
(mu_tilde, a * V_tilde); the initialization scale ``a`` selects which member
of the solution family the iteration converges to.

A Tyler-type baseline (``fit_tme``: the same map at a fixed mu with weight
1/d, Tyler's M-estimator under the full metric), the robust initializer
(column medians and tau-scales), and the eigendecomposition used for PCA
output live here as well.

For stability at large p, squared distances can be computed against the
diagonal of V instead of the full matrix (``diag_approx``, on by default).
Under that metric (mu, diag V) is a closed iteration: the fits of a whole
solution path iterate it together as a few matrix products per step, and
a fit's full p x p scatter, the update its last step makes, is formed only
when its ``ls`` is first read (``tune`` reads only active ratios, so it
forms none).  Full-matrix distances are d_i = ||L^{-1}(x_i - mu)||^2 with
V = L L^T: one Cholesky factor and one p x p triangular inverse per call,
then one matrix product whitens all observations, and a sum of squares can
never be negative.  The factor and its inverse are LAPACK's ``dpotrf`` and
``dtrtri``, from ``scipy.linalg``, imported inside the kernel on its first
call: numpy has no triangular inverse, and importing this module loads
numpy only, so a diagonal-metric run never loads scipy.  The full-metric
iteration holds the observations as the columns of a p x n copy of X^T,
with two p x n work arrays (centred, whitened) beside it, all allocated
once per fit, so each step's element-wise work runs along n and allocates
no n x p temporary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DegenerateScale,
    DegenerateStep,
    EmptyActiveSet,
    SingularScatter,
)
from .weights import WeightSpec, weight

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


# Every diagonal-metric distance takes the reciprocal of diag V, which can
# overflow below the smallest normal double.
_MIN_DIAGONAL = np.finfo(float).tiny
_BAD_DIAGONAL = "diagonal of V has non-positive or subnormal entries"


def _bad_diagonals(v):
    """The rows of v (v itself if 1-D) with an entry not a positive normal double."""
    return ~(v >= _MIN_DIAGONAL).all(axis=-1)


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
            if not (w >= 0).all():  # NaN fails it too
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
    """A location vector plus symmetric scatter matrix, positive definite, or
    under ``diag_approx`` with a diagonal that passes the fits' rule."""

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
            if _bad_diagonals(np.diag(V)):
                raise SingularScatter(_BAD_DIAGONAL)
        else:
            _cholesky(V)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "V", V)

    @property
    def p(self) -> int:
        return self.mu.size


class _FormedOnRead:
    """A dataclass field that may be given as a ``functools.partial``: the
    first read calls it and keeps its result in the partial's place."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot[1:])  # no class-level default
        value = obj.__dict__[self.slot]
        if isinstance(value, partial):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class FitResult:
    """Converged (or flagged) state of one fixed-point run.

    ``residual`` is the relative change of the last step: of (mu, diag V)
    under the diagonal metric, of (mu, V) under the full one.  A
    diagonal-metric fit's ``ls`` is formed on its first read, then kept;
    its diagonal is the final diag V that ``active_mask`` was computed from.
    A failed solution-path entry (``error`` set) has no state: ``ls`` None.
    """

    ls: LocationScatter | None = _FormedOnRead()
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


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 500
    diag_approx: bool = True

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be a positive finite number")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _cholesky(V: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of V (upper triangle zeroed).

    The one positive-definiteness rule of the package: raises SingularScatter
    when LAPACK cannot factor V.
    """
    from scipy.linalg.lapack import dpotrf

    L, info = dpotrf(V, lower=1, clean=1)
    if info != 0:
        raise SingularScatter("scatter matrix is not positive definite")
    return L


def squared_distances(diff: np.ndarray, V: np.ndarray, diag_approx: bool) -> np.ndarray:
    """Row-wise (x - mu)^T V^{-1} (x - mu) for pre-centered rows ``diff``.

    With ``diag_approx`` only the diagonal of V enters, held to the rule of
    the diagonal-metric fits.  Otherwise the rows go through the full-metric
    kernel (``_full_distances``) as the columns of ``diff.T``, a view, so any
    layout is accepted; the distances are nonnegative by construction (and
    exactly 0 for a zero row).  Raises SingularScatter when V breaks either
    metric's rule.
    """
    if diag_approx:
        dv = np.diag(V)
        if _bad_diagonals(dv):
            raise SingularScatter(_BAD_DIAGONAL)
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
    from scipy.linalg.lapack import dtrtri

    Linv, info = dtrtri(_cholesky(V), lower=1, overwrite_c=1)
    if info != 0:
        raise SingularScatter("Cholesky factor of the scatter matrix is singular")
    np.matmul(Linv, D, out=Z)
    np.square(Z, out=Z)
    # summing the p rows with a matrix-vector product keeps the inner loops
    # n long
    return np.ones(Z.shape[0]) @ Z


def mahalanobis(x, ls: LocationScatter) -> float:
    """Squared Mahalanobis distance of one point from ``ls``.

    Uses only the diagonal of V when ``ls.diag_approx`` is set; otherwise
    goes through the full-metric kernel (``_full_distances``).  Raises
    ValueError for a point of the wrong dimension or with a non-finite entry.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != ls.mu.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, mu {ls.mu.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    diff = (x - ls.mu)[None, :]
    return float(squared_distances(diff, ls.V, ls.diag_approx)[0])


def in_ball(x, ls: LocationScatter, spec: WeightSpec = WeightSpec()) -> bool:
    """True iff ``x`` has positive weight at ``ls``: the trimming ball is
    where ``weight(d(x, mu, V), spec) > 0``.
    """
    return weight(mahalanobis(x, ls), spec) > 0.0


def _step(XT, pi, mu, V, weigh, diag_approx, D, Z):
    """One step of the fixed-point map, with weights w_i = weigh(d_i), on the
    columns of the p x n array XT; returns (mu_new, V_new, active), with
    ``active`` the number of observations of positive weight.

    D and Z are p x n work arrays: D receives the columns of XT centred at
    mu, and Z the whitened columns (under the full metric), then the
    weighted ones.  Their contents on entry are ignored.
    """
    np.subtract(XT, mu[:, None], out=D)
    d = squared_distances(D.T, V, True) if diag_approx else _full_distances(D, V, Z)
    pw = weigh(d)
    active = int(np.count_nonzero(pw > 0.0))
    pw *= pi
    sw = pw.sum()
    if sw <= 0.0:
        raise EmptyActiveSet("all observations have zero weight")
    swd = float(pw @ d)
    if swd <= 0.0:
        raise DegenerateStep("all active observations coincide with the location")
    np.multiply(D, pw, out=Z)
    return (XT @ pw) / sw, _scatter(Z @ D.T, swd), active


def _scatter(C, swd):
    """The scatter update p / swd * C from the weighted cross-product
    C = sum_i pw_i (x_i - mu)(x_i - mu)^T about the previous location,
    symmetrized."""
    V = (C.shape[0] / swd) * C
    return 0.5 * (V + V.T)


def _relative_change(mu_new, mu, V_new, V) -> float:
    r_mu = np.linalg.norm(mu_new - mu) / (1.0 + np.linalg.norm(mu))
    r_v = np.linalg.norm(V_new - V, "fro") / (1.0 + np.linalg.norm(V, "fro"))
    return max(r_mu, r_v)


def _finish(data, ls, a, iterations, converged, residual, mask, error=None) -> FitResult:
    pi = data.effective_weights()
    return FitResult(
        ls=ls,
        a=a,
        active_mask=mask,
        active_ratio=min(1.0, max(0.0, float(pi @ mask))),
        iterations=iterations,
        converged=converged,
        residual=residual,
        error=error,
    )


def fit_sppca(
    data: DataSet,
    a: float,
    init: LocationScatter | None = None,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions = FitOptions(),
) -> FitResult:
    """Run the fixed-point iteration from (mu_tilde, a * V_tilde).

    Parameters
    ----------
    data : DataSet
    a : initialization scale, positive and finite (squared-distance units).
    init : optional explicit initial state, read as its arrays (mu, V)
        under the metric ``opts`` names, whatever its own ``diag_approx``;
        by default the robust initial estimate scaled by ``a``.
    spec, opts : weight family and solver controls.

    Under the diagonal metric the fit runs through the same batched kernel
    as a solution path (a path of one scale).  Returns a FitResult;
    non-convergence is flagged (``converged=False``), not raised, so a whole
    solution path can be assembled.  EmptyActiveSet, DegenerateStep and
    SingularScatter are raised with the offending iteration index, and the
    number of observations active at the last completed step, in the
    message and in their ``iteration`` and ``active`` attributes; a start
    no step can take fails at iteration 1 with ``active`` None.  Under the
    full metric a step that leaves fewer than p observations active raises
    SingularScatter with that step's count, so with n < p the fit fails at
    iteration 1.  A start whose scatter has an entry of magnitude
    MAX_ABS_ENTRY / p or more raises ValueError, as its stopping rule would
    overflow.
    """
    if not 0.0 < a < np.inf:
        raise ValueError("a must be a positive finite number")
    if init is None:
        base = initial_estimate(data)
        mu0, V0 = base.mu, a * base.V
    else:
        mu0, V0 = init.mu, init.V
    _check_start(np.abs(V0).max(), data.p)
    if opts.diag_approx:
        (fit,) = _diag_fits(data, [a], mu0, np.diag(V0)[None, :], spec, opts)
    else:
        fit = _full_fit(data, a, mu0, V0, spec, opts)
    if isinstance(fit, FitResult):
        return fit
    try:
        raise fit
    finally:
        del fit  # the error's traceback holds this frame, which must not hold the error


def _check_start(largest: float, p: int, where: str = "") -> None:
    """Reject a start whose scatter has an entry of magnitude ``largest``
    at or above MAX_ABS_ENTRY / p: the stopping rule's norm sums the squares
    of the p^2 entries, and past that limit it overflows, so that the
    relative change of an overflowed state could read as converged."""
    limit = MAX_ABS_ENTRY / p
    if not largest < limit:
        raise ValueError(f"the start's scatter{where} has an entry of magnitude {largest:g}; "
                         f"entries must be below MAX_ABS_ENTRY / p = {limit:.4g}")


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


def _full_fit(data, a, mu, V, spec, opts):
    """Full-metric fixed-point iteration from (mu, V): a FitResult, or for a
    failed fit its ``_fit_error``, with the active count taken at the last
    completed step (None before the first, so also for a V that is not
    positive definite), or at the step that leaves fewer than p active.

    The iteration runs on the data as columns: a contiguous copy of X^T and
    two p x n work arrays (the centred and the whitened observations) are
    allocated once per fit and reused by every step and by the final active
    set, so a step allocates only a few n-vectors and its element-wise
    loops run over n, not p.
    """
    XT = np.ascontiguousarray(data.X.T)
    pi = data.effective_weights()
    D, Z = np.empty((2, data.p, data.n))
    weigh = partial(weight, spec=spec)
    residual = np.inf
    it = 0
    active = None  # of the last completed step
    try:
        for it in range(1, opts.max_iter + 1):
            mu_new, V_new, count = _step(XT, pi, mu, V, weigh, False, D, Z)
            # the scatter of fewer than p points is singular
            if count < data.p:
                return _fit_error(data.n, SingularScatter,
                                  f"fewer than {data.p} observations active", it, count)
            active = count
            residual = _relative_change(mu_new, mu, V_new, V)
            mu, V = mu_new, V_new
            if residual <= opts.tol:
                break
        ls = LocationScatter(mu, V)
        # the active set is the trimming ball of the final state (in_ball)
        np.subtract(XT, mu[:, None], out=D)
        mask = weigh(_full_distances(D, V, Z)) > 0
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


def _diag_scatter(Xc, w, m, swd, mu, v):
    """The state at which a diagonal-metric fit ended: location mu, and the
    full scatter update ``_step`` makes from location m with weights w
    (swd = sum w d), the weighted product of the rows Xc centred at m, with
    v, the kernel's diag V, as diagonal."""
    Y = Xc - m
    V = _scatter((Y * w[:, None]).T @ Y, swd)
    np.fill_diagonal(V, v)
    return LocationScatter(mu, V, diag_approx=True)


def _diag_fits(data, scales, mu0, v0, spec, opts) -> list:
    """Diagonal-metric fits from (mu0, diag v0[j]), one per scale, iterated
    together.

    Under the diagonal metric (mu, diag V) is a closed iteration, so the
    live fits are the rows of M and v, and one pass steps all of them:

        d   = every row's distance from every location (``_diag_distances``)
        W   = pi * weight(d)
        mu' = W^T X / sum W
        v'  = p / sum(W * d) * (W^T (X * X) - 2 M * W^T X + M^2 * sum W)

    with the rows centred at ``mu0`` to keep the expanded form's
    cancellation small.  A fit leaves the batch when
    (mu, diag V) moves by at most ``opts.tol`` relative, when it fails, or
    at ``opts.max_iter``.  A diagonal entry that is not a positive normal
    double fails the fit (SingularScatter), as every distance takes its
    reciprocal; each is checked where it is made, a start before the first
    pass, a new diagonal at the end of its pass (failing a fit that runs on
    at the next iteration).  The active sets of the fits that end in a pass
    come from one distance call on their final (mu, diag V).  Each such fit
    keeps what its full p x p scatter needs, the update ``_step`` makes from
    the state that pass started from (about that state's location, with
    that pass's weights), so a fit of k iterations is exactly k applications
    of the map; the scatter is formed by ``_diag_scatter`` on the first read
    of the fit's ``ls``, with the final diag V as its diagonal.  Each entry
    of the result is a FitResult or, for a failed fit, its ``_fit_error``,
    with the active count taken at the last completed step (None before
    the first).
    """
    n, p = data.X.shape
    pi = data.effective_weights()
    Z = np.empty((n, 2 * p))
    Xc = Z[:, p:]
    np.subtract(data.X, mu0, out=Xc)
    np.square(Xc, out=Z[:, :p])
    ends: list = [None] * len(v0)
    bad = _bad_diagonals(v0)
    for j in np.flatnonzero(bad):
        ends[j] = _fit_error(n, SingularScatter, _BAD_DIAGONAL, 1, None)
    live = np.flatnonzero(~bad)  # the fits of the rows of M and v
    v = v0[live]
    M = np.zeros_like(v)  # locations, relative to mu0
    Mp, vp = M, v  # from step 2 on: the states the previous step started from

    def active(Ms, vs, j):
        # observations of positive weight in the step started from row j of
        # (Ms, vs), recomputed for a failed fit only
        return int(np.count_nonzero(weight(_diag_distances(Z, Ms[j:j + 1], vs[j:j + 1]), spec)))

    for it in range(1, opts.max_iter + 1):
        if not live.size:
            break
        d = _diag_distances(Z, M, v)
        W = weight(d, spec)
        W *= pi[:, None]
        sw = W.sum(axis=0)
        swd = np.einsum("ij,ij->j", W, d)
        del d  # n x batch: free it before the active sets' distances below
        bad = (sw <= 0.0) | (swd <= 0.0)
        if bad.any():
            for j in np.flatnonzero(bad):
                cls, message = (
                    (EmptyActiveSet, "all observations have zero weight") if sw[j] <= 0.0
                    else (DegenerateStep, "all active observations coincide with the location"))
                ends[live[j]] = _fit_error(n, cls, message, it,
                                           active(Mp, vp, j) if it > 1 else None)
            M, v, live, W, sw, swd = M[~bad], v[~bad], live[~bad], W[:, ~bad], sw[~bad], swd[~bad]
        S = W.T @ Z
        S2, S1 = S[:, :p], S[:, p:]
        mu_new = S1 / sw[:, None]
        v_new = (p / swd)[:, None] * (S2 - 2.0 * M * S1 + M * M * sw[:, None])
        r_mu = np.linalg.norm(mu_new - M, axis=1) / (1.0 + np.linalg.norm(M + mu0, axis=1))
        r_v = np.linalg.norm(v_new - v, axis=1) / (1.0 + np.linalg.norm(v, axis=1))
        residual = np.maximum(r_mu, r_v)
        done = (residual <= opts.tol) | (it == opts.max_iter)
        bad = _bad_diagonals(v_new)
        for j in np.flatnonzero(bad):
            ends[live[j]] = _fit_error(n, SingularScatter, _BAD_DIAGONAL,
                                       it if done[j] else it + 1, active(M, v, j))
        ended = np.flatnonzero(done & ~bad)
        if ended.size:
            # the active sets: the trimming balls of the final states (in_ball)
            masks = weight(_diag_distances(Z, mu_new[ended], v_new[ended]), spec) > 0
            for k, j in enumerate(ended):
                ls = partial(_diag_scatter, Xc, W[:, j].copy(), M[j], swd[j], mu_new[j] + mu0,
                             v_new[j])
                ends[live[j]] = _finish(data, ls, scales[live[j]], it,
                                        bool(residual[j] <= opts.tol), float(residual[j]),
                                        masks[:, k])
        keep = ~(done | bad)
        Mp, vp = M[keep], v[keep]
        M, v, live = mu_new[keep], v_new[keep], live[keep]
    return ends


def solution_set(
    data: DataSet,
    grid,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions = FitOptions(),
) -> list[FitResult]:
    """One fit per grid scale, each cold-started at (mu_tilde, a * V_tilde).

    Under the diagonal metric all scales run through one batched
    iteration; each fit is the one ``fit_sppca`` returns at its scale, up
    to rounding, and forms its full scatter only when its ``ls`` is read.
    Under the full metric the fits run one after another.
    Failed fits (empty active set, degenerate step, singular scatter, a
    start no step can take) are recorded in place with ``converged=False``,
    ``ls`` None, the error message and the iteration at which the fit
    failed, instead of aborting the path.  The scales must be positive,
    finite and strictly increasing, and the start at the largest must pass
    ``fit_sppca``'s magnitude limit; results are in grid order.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    bad = np.flatnonzero(~((grid > 0) & (grid < np.inf)))
    if bad.size:
        raise ValueError(f"grid scales must be positive and finite, got {grid[bad[0]]:g}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    base = initial_estimate(data)  # raises before any fit on degenerate data
    _check_start(grid[-1] * np.abs(base.V).max(), data.p,
                 f" at the grid's largest scale {grid[-1]:g}")
    if opts.diag_approx:
        fits = _diag_fits(data, grid, base.mu, grid[:, None] * np.diag(base.V), spec, opts)
    else:
        fits = [_full_fit(data, a, base.mu, a * base.V, spec, opts) for a in grid]
    return [fit if isinstance(fit, FitResult) else _failed_fit(data, a, fit)
            for a, fit in zip(grid, fits)]


def _failed_fit(data, a, err) -> FitResult:
    """The path entry of a fit that failed with ``err``: no state, AR 0 and
    the error."""
    return _finish(data, None, a, err.iteration, False, np.inf,
                   np.zeros(data.n, dtype=bool), f"{type(err).__name__}: {err}")


def _row_medians(A):
    """Medians of the rows of the finite 2-D array A, equal to
    ``np.median(A, axis=1)``, from one partition of a copy of A."""
    n = A.shape[1]
    part = np.partition(A, n // 2, axis=1)
    upper = part[:, n // 2].copy()  # not a view that keeps the copy of A alive
    if n % 2:
        return upper
    # the lower middle element is the largest of the lower half
    return (part[:, :n // 2].max(axis=1) + upper) / 2.0


def _tau_scales(XT):
    """Medians and tau-scales of the rows of the finite p x n array XT,
    computed together in one p x n work array.

    The tau-scale is a truncated standard deviation, consistent for the
    Gaussian sd: MAD as the auxiliary scale, a bisquare-weighted location
    (tuning constant 4.5), then the square root of the truncated second
    moment (tuning constant 3.0), divided by the Gaussian consistency
    factor.  A row whose MAD is below 1e-12 has scale 0.
    """
    med = _row_medians(XT)
    A = XT - med[:, None]
    np.abs(A, out=A)
    s0 = _row_medians(A)
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


def _tyler(d):
    """Tyler's weight 1/d, and 0 at d = 0."""
    return np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)


def fit_tme(
    data: DataSet,
    mu: np.ndarray,
    opts: FitOptions = FitOptions(),
) -> LocationScatter:
    """Tyler-type scatter baseline for a fixed, externally supplied mu.

    The solver's map (``_step``) at mu with weight 1/d, V <- p * sum_i pi_i
    (x_i - mu)(x_i - mu)^T / d_i, the trace renormalized to p each step (the
    equation only identifies shape): Tyler's M-estimator of shape under the
    full metric; ``opts`` names the metric.  Observations at mu get weight 0,
    with a warning carrying the count; non-convergence gives a warning.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (data.p,):
        raise ValueError(f"mu must have shape ({data.p},)")
    XT = np.ascontiguousarray(data.X.T)
    pi = data.effective_weights()
    D, Z = np.empty((2, *XT.shape))
    V = np.eye(data.p)
    dropped = 0
    for _ in range(opts.max_iter):
        try:
            _, V_new, active = _step(XT, pi, mu, V, _tyler, opts.diag_approx, D, Z)
        except EmptyActiveSet:
            raise DegenerateStep("every observation coincides with mu") from None
        dropped = max(dropped, data.n - active)
        V_new *= data.p / np.trace(V_new)
        delta = np.linalg.norm(V_new - V, "fro") / np.linalg.norm(V, "fro")
        V = V_new
        if delta <= opts.tol:
            break
    if dropped:
        warnings.warn(f"excluded {dropped} observation(s) at zero distance from mu")
    if not delta <= opts.tol:
        warnings.warn(f"scatter baseline did not converge in {opts.max_iter} iterations")
    return LocationScatter(mu, V, diag_approx=opts.diag_approx)


def pca(ls: LocationScatter, k: int) -> PCAModel:
    """Top-k eigenpairs of the scatter, as ``top_eigenpairs`` gives them."""
    p = ls.p
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, {p}], got {k}")
    vals, vecs = top_eigenpairs(ls.V, k)
    return PCAModel(eigenvalues=vals, eigenvectors=vecs)


def top_eigenpairs(V: np.ndarray, k: int):
    """The top k eigenvalues, descending, and their eigenvectors of a
    symmetric p x p matrix, or of each matrix of a b x p x p stack.  Each
    eigenvector is negated where needed so that its first largest-magnitude
    entry is positive.

    They are the top k of numpy's full decomposition.  LAPACK's subset
    solver is faster at large p, but reaching it means importing
    ``scipy.linalg``, which costs a fresh process about 0.3 s: far more
    than the one PCA that ``fit`` makes, or the 2 ms per simulator
    replicate that the subset solver would save at p = 50.
    """
    vals, vecs = np.linalg.eigh(V)
    vals, vecs = vals[..., ::-1][..., :k], vecs[..., ::-1][..., :k]
    peak = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    return vals, np.where(np.take_along_axis(vecs, peak, axis=-2) < 0, -vecs, vecs)


def estimating_equation_residual(
    data: DataSet, fit: FitResult, spec: WeightSpec = WeightSpec()
) -> float:
    """Relative residual of the moment equations at a fitted state.

    Applies the fixed-point map once at (mu_hat, V_hat) and measures the
    relative change; at an exact solution both components are zero.
    """
    ls = fit.ls
    D, Z = np.empty((2, data.p, data.n))
    mu_new, V_new, _ = _step(data.X.T, data.effective_weights(), ls.mu, ls.V,
                             partial(weight, spec=spec), ls.diag_approx, D, Z)
    return _relative_change(mu_new, ls.mu, V_new, ls.V)
