"""Active-ratio curve construction and data-adaptive scale selection.

The active ratio AR(a) is the weighted fraction of observations left inside
the trimming ball of the fit initialized at scale ``a``.  Traced over the
scale grid it is an increasing curve whose slope in log a dips where the
main data cloud has been absorbed but a secondary (contaminating) cloud has
not yet entered; the selector returns the first strict local minimum of
that slope at which the smoothed AR is at least 1/2, read from a cubic
smoothing-spline fit of the curve in log a.  The spline is evaluated in
closed form from its knot operators Q and R, which also give the penalty
eigensystem on which generalized cross-validation chooses its penalty;
constants and lines, the penalty's null space, pass unshrunk.

Tuning is three calls, the same for the CLI, the simulator and library use:

    path = solution_set(data, build_grid(data.p))  # one fit per scale
    curve = smooth_curve(path)                     # ARCurve of the usable fits
    sel = select_a_star(curve)                     # TuningResult
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import RobustScatterError
from .estimator import FitResult
# unused here, but perfbench/spans.py CALL_SITES patches both names on this module
from .estimator import fit_sppca, initial_estimate  # noqa: F401


@dataclass(frozen=True)
class ARCurve:
    """Raw and smoothed active-ratio values and the slope dAR/d log a over an
    ascending scale grid."""

    grid: np.ndarray
    ar_raw: np.ndarray
    ar_smooth: np.ndarray
    slope: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        m = g.size
        for name in ("ar_raw", "ar_smooth", "slope"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have length {m}")
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be finite and strictly increasing")
        for name in ("ar_raw", "ar_smooth"):
            arr = getattr(self, name)
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} must lie in [0, 1]")
        object.__setattr__(self, "grid", g)


@dataclass(frozen=True)
class TuningResult:
    a_star: float
    candidates: np.ndarray
    fallback_used: bool
    ar_at_a_star: float


def build_grid(p: int, m: int = 50) -> np.ndarray:
    """The package's one scale grid: ``m`` linearly spaced scales over
    [0.2 p, 3 p], for ``tune`` and the simulator alike.

    Its span is a factor of 15, so the smoother's 8 degrees of freedom
    still resolve the slope dip at the clean change point; a grid spanning
    two decades and more smooths that dip away.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    return np.linspace(0.2 * p, 3.0 * p, m)


MAX_SMOOTHER_DOF = 8


def _natural_spline(x):
    """Q and R of the natural cubic spline with knot values f at knots ``x``:
    its interior knot second derivatives gamma solve R gamma = Q^T f, and
    its curvature penalty (the integral of f''^2) is f^T Q R^{-1} Q^T f."""
    h = np.diff(x)
    j = np.arange(x.size - 2)
    Q = np.zeros((x.size, x.size - 2))
    Q[j, j] = 1.0 / h[:-1]
    Q[j + 1, j] = -1.0 / h[:-1] - 1.0 / h[1:]
    Q[j + 2, j] = 1.0 / h[1:]
    R = np.diag((h[:-1] + h[1:]) / 3.0) + np.diag(h[1:-1] / 6.0, 1) + np.diag(h[1:-1] / 6.0, -1)
    return Q, R


def _gcv_penalty(Q, R, y, max_dof):
    """Penalty minimizing generalized cross-validation, with the smoother
    trace bounded by ``max_dof``.

    The fitted values at penalty lam are (I + lam K)^{-1} y with
    K = Q R^{-1} Q^T, the same convention as scipy's smoothing spline, so
    residuals and the smoother trace follow by diagonal shrinkage of K's
    eigenvalues.  The candidate penalties span K's nonzero eigenvalues, so
    the choice is the same for y and for c + b y; the first candidate of
    least GCV among those within the bound is returned.
    """
    m = y.size
    cap = min(max_dof, m - 2)
    if cap <= 2:  # only the null space, constants and lines, meets the bound
        return np.inf
    K = Q @ np.linalg.solve(R, Q.T)
    d, U = np.linalg.eigh(0.5 * (K + K.T))
    d[:2] = 0.0  # the null space: eigh returns rounding noise for it
    z = U.T @ y
    lams = np.geomspace(1e-8 / d[-1], 1e8 / d[2], 121)
    ld = lams[:, None] * d  # one row per candidate
    edof = np.sum(1.0 / (1.0 + ld), axis=1)
    ok = np.flatnonzero(edof <= cap)  # holds at lams[-1]: there edof < 3 <= cap
    rss = np.sum((ld[ok] / (1.0 + ld[ok]) * z) ** 2, axis=1)
    return lams[ok[np.argmin(m * rss / (m - edof[ok]) ** 2)]]  # the first minimum


def smooth_curve(path: Sequence[FitResult]) -> ARCurve:
    """The active-ratio curve of a solution path, smoothed in log a.

    Failed fits are dropped; the rest, in ascending order of scale as
    ``solution_set`` returns them, give the grid a and the raw curve y.  The
    natural cubic smoothing spline with knots x = log a is evaluated in
    closed form (Reinsch): at penalty lam its interior knot second
    derivatives are gamma = (R + lam Q^T Q)^{-1} Q^T y and its knot values
    y - lam Q gamma.  lam minimizes generalized cross-validation with at
    most min(8, m - 2) effective degrees of freedom, since active-ratio
    curves are staircases with strongly dependent increments for which
    unconstrained cross-validation degenerates to interpolation.  Constants
    and lines in log a (Q^T y = 0) pass unchanged; with 4 usable fits the
    bound admits only them (lam = inf), the least-squares line.  The curve
    holds the grid a, the fitted values (clipped into [0, 1]) and the
    spline's first derivative dAR/d log a at the knots.  Raises
    RobustScatterError when fewer than 4 fits are usable, quoting the error
    of the largest failed fit.
    """
    fits = [f for f in path if f.error is None]
    if len(fits) < 4:
        failed = [f for f in path if f.error is not None]
        cause = (f"; the largest failed fit, at a = {failed[-1].a:g}, ended in {failed[-1].error}"
                 if failed else "")
        raise RobustScatterError(f"fewer than 4 usable fits on the tuning grid{cause}")
    a = np.array([f.a for f in fits], dtype=float)
    y = np.array([f.active_ratio for f in fits], dtype=float)
    x = np.log(a)
    Q, R = _natural_spline(x)
    lam = _gcv_penalty(Q, R, y, MAX_SMOOTHER_DOF)
    u = np.linalg.solve(R / lam + Q.T @ Q, Q.T @ y)  # lam * gamma, finite at lam = inf
    fitted = y - Q @ u
    g = np.concatenate(([0.0], u / lam, [0.0]))
    h = np.diff(x)
    dy = np.diff(fitted) / h
    slope = np.append(dy - h * (2.0 * g[:-1] + g[1:]) / 6.0, dy[-1] + h[-1] * g[-2] / 6.0)
    if lam == np.inf:  # one slope for the line, free of its values' rounding
        slope[:] = (fitted[-1] - fitted[0]) / (x[-1] - x[0])
    return ARCurve(a, y, np.clip(fitted, 0.0, 1.0), slope)


# the paper's setting: the clean cloud is the majority of the data, so the
# change point the selector reads lies at AR >= 1/2
_MIN_AR_STAR = 0.5


def select_a_star(curve: ARCurve) -> TuningResult:
    """First strict local minimum of the smoothed curve's slope at which the
    smoothed AR is at least 1/2.

    The candidates are the interior grid points whose slope is strictly
    below both neighbors and whose ``ar_smooth`` is at least 1/2; the
    smallest is returned.  Plateaus do not qualify, and neither do the
    early dips of the slope among the smallest scales, where the main cloud
    is not yet absorbed.  When no candidate exists (e.g. a concave curve on
    clean data) the largest grid scale is returned with ``fallback_used``
    set.
    """
    seq = curve.slope
    idx = [j for j in range(1, len(seq) - 1)
           if seq[j] < seq[j - 1] and seq[j] < seq[j + 1] and curve.ar_smooth[j] >= _MIN_AR_STAR]
    pick = idx[0] if idx else len(seq) - 1
    return TuningResult(
        a_star=float(curve.grid[pick]),
        candidates=curve.grid[idx],
        fallback_used=not idx,
        ar_at_a_star=float(curve.ar_raw[pick]),
    )
