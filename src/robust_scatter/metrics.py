"""Subspace similarity, influence diagnostics, and asymptotic constants.

The closed-form influence functions of the weighted estimator's location,
eigenvector, and eigenvalue-ratio functionals are evaluated at a reference
model whose scatter carries unit scale (determinant one).  Their scalar
constants are one-dimensional radial integrals, computed here by adaptive
quadrature after reducing the p-dimensional integrals over ``g(y'y)`` to the
radius.  A finite-perturbation oracle (``empirical_if``) differentiates the
actual solver under a point-mass contamination and is the independent check
the closed forms are tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from .errors import DegenerateSpectrum, OracleFailure
from .estimator import (
    DataSet,
    FitOptions,
    FitResult,
    LocationScatter,
    fit_sppca,
    initial_estimate,
    mahalanobis,
    pca,
)
from .weights import UNIT, WeightSpec, weight

GAUSSIAN = "gaussian"
STUDENT_T = "student-t"

_QUAD_KW = dict(epsabs=0.0, epsrel=1e-10, limit=400)


def similarity_rho(Gamma_hat: np.ndarray, Gamma: np.ndarray) -> float:
    """Mean singular value of ``Gamma_hat' Gamma``: 1 for equal spans, 0 for
    orthogonal ones.  Both arguments must be column-orthonormal p x k."""
    A = np.asarray(Gamma_hat, dtype=float)
    B = np.asarray(Gamma, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    k = A.shape[1]
    for name, M in (("Gamma_hat", A), ("Gamma", B)):
        if np.abs(M.T @ M - np.eye(k)).max() > 1e-8:
            raise ValueError(f"{name} is not column-orthonormal within 1e-8")
    s = scipy.linalg.svdvals(A.T @ B)
    return float(np.clip(s, 0.0, 1.0).mean())


@dataclass(frozen=True)
class RadialSpec:
    """Radial density generator of an elliptical reference model.

    ``psi`` is the generator with respect to the unscaled scatter; the
    functions actually integrated are the rescaled
    ``psi_s(u) = sigma_s0^{-p/2} psi(u / sigma_s0)`` and its derivative,
    where ``sigma_s0`` is the scale (determinant^(1/p)) of the unscaled
    scatter.
    """

    kind: str
    p: int
    nu: float | None = None
    sigma_s0: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, STUDENT_T):
            raise ValueError(f"unknown radial kind {self.kind!r}")
        if self.kind == STUDENT_T and (self.nu is None or self.nu <= 0):
            raise ValueError("student-t radial needs nu > 0")
        if self.sigma_s0 <= 0:
            raise ValueError("sigma_s0 must be positive")

    @classmethod
    def gaussian(cls, p: int, sigma_s0: float = 1.0) -> "RadialSpec":
        return cls(kind=GAUSSIAN, p=p, sigma_s0=sigma_s0)

    @classmethod
    def student_t(cls, p: int, nu: float, sigma_s0: float = 1.0) -> "RadialSpec":
        return cls(kind=STUDENT_T, p=p, nu=nu, sigma_s0=sigma_s0)

    def psi(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == GAUSSIAN:
            return (2.0 * np.pi) ** (-self.p / 2.0) * np.exp(-u / 2.0)
        c = _student_t_const(self.p, self.nu)
        return c * (1.0 + u / self.nu) ** (-(self.nu + self.p) / 2.0)

    def dpsi(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == GAUSSIAN:
            return -0.5 * self.psi(u)
        return -(self.nu + self.p) / (2.0 * self.nu) * self.psi(u) / (1.0 + u / self.nu)

    def psi_s(self, u):
        return self.sigma_s0 ** (-self.p / 2.0) * self.psi(np.asarray(u) / self.sigma_s0)

    def dpsi_s(self, u):
        return self.sigma_s0 ** (-self.p / 2.0 - 1.0) * self.dpsi(np.asarray(u) / self.sigma_s0)

    def normalization_integral(self) -> float:
        """Total mass of the rescaled generator over R^p; should be 1."""
        return radial_integral(self.psi_s, self.p)


def _student_t_const(p, nu):
    return math.exp(
        math.lgamma((nu + p) / 2.0) - math.lgamma(nu / 2.0) - (p / 2.0) * math.log(nu * math.pi)
    )


def sphere_area(p: int) -> float:
    """Surface area of the unit sphere in R^p."""
    return 2.0 * math.pi ** (p / 2.0) / math.gamma(p / 2.0)


def radial_integral(g, p: int, split: float | None = None, upper: float | None = None) -> float:
    """Integral of g(y'y) over R^p, reduced to one radial dimension.

    Substituting u = r**2 gives S_{p-1}/2 * integral of u^{p/2-1} g(u) du.
    ``split`` adds an interior breakpoint (for kinked integrands) and
    ``upper`` truncates the domain (for integrands that vanish beyond it).
    """
    half = p / 2.0

    def f(u):
        return u ** (half - 1.0) * g(u)

    pieces = []
    if upper is not None:
        if split is not None and 0.0 < split < upper:
            pieces = [(0.0, split), (split, upper)]
        else:
            pieces = [(0.0, upper)]
    else:
        mid = split if split is not None and split > 0 else max(4.0 * p, 10.0)
        pieces = [(0.0, mid), (mid, np.inf)]
    total = 0.0
    for lo, hi in pieces:
        val, _ = scipy.integrate.quad(f, lo, hi, **_QUAD_KW)
        total += val
    result = sphere_area(p) / 2.0 * total
    if not np.isfinite(result):
        raise ValueError("radial integral did not converge")
    return result


@dataclass(frozen=True)
class AsymptoticConstants:
    eta_s: float
    phi_s: float
    xi_s: float

    def __post_init__(self):
        for name in ("eta_s", "phi_s", "xi_s"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} is not finite")
        if self.eta_s <= 0 or self.phi_s <= 0:
            raise ValueError("eta_s and phi_s must be positive")


def asymptotic_constants(radial: RadialSpec, spec: WeightSpec = WeightSpec()) -> AsymptoticConstants:
    """Scalar constants of the influence functions and limit variances.

    Each is a radial integral of the rescaled generator against the weight.
    As printed, the defining integrals for the location and eigen constants
    are negative for decreasing generators (the derivative is negative); the
    constants are taken as reciprocals of their absolute values, anchored so
    the Gaussian generator with the unit weight yields eta_s = 1 (the
    unweighted mean's influence is exactly x - mu).  The empirical-oracle
    tests pin this sign convention.
    """
    p = radial.p
    cut = None if spec.kind == UNIT else spec.cutoff
    # with a hard threshold the weighted integrands vanish beyond the cutoff
    upper = cut

    def wfun(u):
        return weight(u, spec)

    i_eta = (2.0 / p) * radial_integral(
        lambda u: u * wfun(u) * radial.dpsi_s(u), p, split=cut, upper=upper
    )
    i_phi = (2.0 / (p * (p + 2.0))) * radial_integral(
        lambda u: u**2 * wfun(u) * radial.dpsi_s(u), p, split=cut, upper=upper
    )
    i_xi = radial_integral(
        lambda u: u**2 * wfun(u) ** 2 * radial.psi_s(u), p, split=cut, upper=upper
    )
    if i_eta == 0.0 or i_phi == 0.0:
        raise ValueError("degenerate defining integral")
    eta_s = 1.0 / abs(i_eta)
    phi_s = 1.0 / abs(i_phi)
    xi_s = phi_s**2 / (p * (p + 2.0)) * i_xi
    return AsymptoticConstants(eta_s=eta_s, phi_s=phi_s, xi_s=xi_s)


def _eigenpairs(model: LocationScatter):
    """Full descending eigen-decomposition with the distinctness check."""
    m = pca(model, model.p)
    gaps = -np.diff(m.eigenvalues)
    if np.any(gaps < 1e-10):
        raise DegenerateSpectrum("eigenvalues closer than 1e-10")
    return m.eigenvalues, m.eigenvectors


def if_location(x, model: LocationScatter, consts: AsymptoticConstants,
                spec: WeightSpec = WeightSpec()) -> np.ndarray:
    """Influence of a point mass at x on the location functional."""
    x = np.asarray(x, dtype=float)
    d = mahalanobis(x, model)
    return consts.eta_s * weight(d, spec) * (x - model.mu)


def if_eigenvalue_ratio(x, i: int, j: int, model: LocationScatter,
                        consts: AsymptoticConstants,
                        spec: WeightSpec = WeightSpec()) -> float:
    """Influence of a point mass at x on the eigenvalue ratio lam_j / lam_i.

    Indices are 0-based positions in the descending spectrum.
    """
    if i == j:
        raise ValueError("need i != j")
    lam, gam = _eigenpairs(model)
    x = np.asarray(x, dtype=float)
    c = x - model.mu
    d = mahalanobis(x, model)
    ratio = lam[j] / lam[i]
    bracket = (gam[:, j] @ c) ** 2 / lam[j] - (gam[:, i] @ c) ** 2 / lam[i]
    return float(consts.phi_s * weight(d, spec) * ratio * bracket)


def if_eigenvector(x, j: int, model: LocationScatter,
                   consts: AsymptoticConstants,
                   spec: WeightSpec = WeightSpec()) -> np.ndarray:
    """Influence of a point mass at x on the j-th eigenvector (0-based).

    Uses the pseudoinverse of (lam_j I - V), which annihilates the j-th
    eigendirection, so the result is orthogonal to that eigenvector.
    """
    lam, gam = _eigenpairs(model)
    x = np.asarray(x, dtype=float)
    c = x - model.mu
    d = mahalanobis(x, model)
    coeffs = np.zeros(model.p)
    for m in range(model.p):
        if m != j:
            coeffs[m] = (gam[:, m] @ c) / (lam[j] - lam[m])
    pinv_c = gam @ coeffs
    return consts.phi_s * weight(d, spec) * (gam[:, j] @ c) * pinv_c


def asymptotic_variance(target: str, model: LocationScatter,
                        consts: AsymptoticConstants,
                        i: int | None = None, j: int | None = None):
    """Limit covariance of sqrt(n)-scaled eigen-quantities.

    ``target`` is ``"eigvec"`` (covariance matrix of the j-th eigenvector)
    or ``"eigratio"`` (scalar variance of lam_j / lam_i).  The model scatter
    is expected at unit scale; quantities are evaluated as given.
    """
    lam, gam = _eigenpairs(model)
    if target == "eigratio":
        if i is None or j is None or i == j:
            raise ValueError("eigratio needs distinct indices i and j")
        return float(4.0 * consts.xi_s * (lam[j] / lam[i]) ** 2)
    if target == "eigvec":
        if j is None:
            raise ValueError("eigvec needs index j")
        inv2 = np.zeros(model.p)
        for m in range(model.p):
            if m != j:
                inv2[m] = 1.0 / (lam[j] - lam[m]) ** 2
        return consts.xi_s * lam[j] * (gam * (lam * inv2)) @ gam.T
    raise ValueError(f"unknown target {target!r}")


def unit_scale_fit(
    reference: DataSet,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions | None = None,
    a_hint: float | None = None,
    target_scale: float = 1.0,
) -> FitResult:
    """Fit whose scatter lands at a prescribed scale, |V|^(1/p) = target.

    The initialization scale controls the determinant of the converged
    scatter nearly multiplicatively, so a secant iteration on log a against
    log |V(a)|^(1/p) finds the requested member of the solution family in a
    handful of cold-started fits, all from one robust initial estimate.  The
    default target is unit scale.  Raises OracleFailure when the search does
    not converge in 30 secant steps or a fitted scatter collapses.
    """
    if opts is None:
        opts = FitOptions(tol=1e-10, max_iter=2000, diag_approx=False)
    p = reference.p
    base = initial_estimate(reference)
    log_det_init = float(np.sum(np.log(np.diag(base.V)))) / p
    log_target = math.log(target_scale)

    def g(log_a):
        a = math.exp(log_a)
        init = LocationScatter(base.mu, a * base.V, diag_approx=opts.diag_approx)
        fit = fit_sppca(reference, a, init=init, spec=spec, opts=opts)
        sign, logdet = np.linalg.slogdet(fit.ls.V)
        if sign <= 0:
            raise OracleFailure("scatter collapsed during unit-scale search")
        return fit, logdet / p - log_target

    x0 = math.log(a_hint) if a_hint is not None else log_target - log_det_init
    fit0, g0 = g(x0)
    if abs(g0) <= 1e-6:
        return fit0
    x1 = x0 - g0  # unit slope of log-det in log-scale
    fit1, g1 = g(x1)
    for _ in range(30):
        if abs(g1) <= 1e-6:
            return fit1
        denom = g1 - g0
        step = g1 * (x1 - x0) / denom if denom != 0 else -g1
        x0, g0 = x1, g1
        x1 = x1 - step
        fit1, g1 = g(x1)
    raise OracleFailure(f"scale search did not converge (|log det|/p = {abs(g1):.2e})")


def _normalized_eigen(fit: FitResult):
    p = fit.ls.p
    _, logdet = np.linalg.slogdet(fit.ls.V)
    Vs = fit.ls.V * math.exp(-logdet / p)
    model = LocationScatter(fit.ls.mu, Vs, diag_approx=fit.ls.diag_approx)
    m = pca(model, p)
    return m.eigenvalues, m.eigenvectors


def empirical_if(
    functional: str,
    x,
    reference: DataSet,
    eps: float = 1e-3,
    spec: WeightSpec = WeightSpec(),
    opts: FitOptions | None = None,
    i: int | None = None,
    j: int | None = None,
    base: FitResult | None = None,
    linearity_tol: float | None = 0.05,
):
    """Finite-perturbation influence oracle.

    Refits the estimator on the reference sample with its weights deflated
    by (1 - eps) and a point mass eps placed at ``x``, then differences the
    functional against the unperturbed fit:

        [T((1 - eps) F_hat + eps delta_x) - T(F_hat)] / eps

    The base fit sits on the unit-scale member of the solution family and
    the perturbed fit is warm-started from it, so both track the same
    branch; the fitted scatter is renormalized to determinant one before any
    eigen-quantity is read off.  ``functional`` is ``"location"``,
    ``"eigvec"`` (index j), or ``"eigratio"`` (indices i, j).  When
    ``linearity_tol`` is set, the quotient is recomputed at eps/2 and a
    warning is issued if the two disagree by more than that relative amount.

    A point with zero weight at the base solution leaves the weighted moment
    equations untouched (its mass is trimmed and the remaining (1 - eps)
    deflation cancels between numerators and denominators), so the perturbed
    solution on this branch equals the base solution identically and the
    quotient is returned as exact zero rather than re-deriving it through
    the solver's last-ulp noise.  Raises OracleFailure when a perturbed refit
    does not converge.
    """
    if not 0.0 < eps <= 0.01:
        raise ValueError("eps must be in (0, 0.01]")
    if functional not in ("location", "eigvec", "eigratio"):
        raise ValueError(f"unknown functional {functional!r}")
    if functional == "eigvec" and j is None:
        raise ValueError("eigvec needs index j")
    if functional == "eigratio" and (i is None or j is None or i == j):
        raise ValueError("eigratio needs distinct indices i and j")
    x = np.asarray(x, dtype=float)
    if opts is None:
        opts = FitOptions(tol=1e-10, max_iter=2000, diag_approx=False)
    if base is None:
        base = unit_scale_fit(reference, spec=spec, opts=opts)

    if weight(mahalanobis(x, base.ls), spec) == 0.0:
        return 0.0 if functional == "eigratio" else np.zeros(reference.p)

    pi = reference.effective_weights()

    def value(fit: FitResult):
        """The functional at ``fit``: mu, lambda_j / lambda_i or gamma_j."""
        if functional == "location":
            return fit.ls.mu
        lam, gam = _normalized_eigen(fit)
        return lam[j] / lam[i] if functional == "eigratio" else gam[:, j]

    base_val = value(base)

    def quotient(e: float):
        perturbed = DataSet(
            np.vstack([reference.X, x[None, :]]),
            obs_weights=np.concatenate([(1.0 - e) * pi, [e]]),
        )
        fit = fit_sppca(perturbed, a=base.a, init=base.ls, spec=spec, opts=opts)
        if not fit.converged:
            raise OracleFailure("perturbed refit did not converge")
        val = value(fit)
        if functional == "eigvec" and val @ base_val < 0:
            val = -val  # an eigenvector has no sign: take the base's
        return (val - base_val) / e

    result = quotient(eps)
    if linearity_tol is not None:
        half = quotient(eps / 2.0)
        scale = max(np.linalg.norm(result), np.linalg.norm(half))
        if scale > 0 and np.linalg.norm(result - half) > linearity_tol * scale:
            warnings.warn(
                f"influence quotient not linear at eps={eps:g}: "
                f"relative change {np.linalg.norm(result - half) / scale:.3f}"
            )
    return result
