"""Exception types shared across the package."""


class RobustScatterError(Exception):
    """Base class for all errors raised by this package."""

    # fixed-point iteration at which a fit failed; 0 means before the first
    # step.  ``estimator._fit_error`` sets it, for a single fit and for a
    # solution-path entry alike.
    iteration: int = 0
    # observations active (inside the trimming ball) at the last step the
    # failed fit completed, or at the full-metric step that left fewer than
    # p active; None when it failed in its first step otherwise
    active: int | None = None


class SingularScatter(RobustScatterError):
    """Scatter matrix is numerically singular (Cholesky failed)."""


class EmptyActiveSet(RobustScatterError):
    """Every observation received zero weight at the current iterate."""


class DegenerateStep(RobustScatterError):
    """All active observations sit exactly at the location estimate."""


class DegenerateScale(RobustScatterError):
    """A column has (numerically) zero robust scale."""


class DegenerateSpectrum(RobustScatterError):
    """Eigenvalues are too close for the requested eigen-quantity."""


class OracleFailure(RobustScatterError):
    """A unit-scale search or a perturbed influence-oracle refit failed to
    reach its target: the search did not converge or its scatter collapsed,
    or the refit did not converge."""


class EmptyData(RobustScatterError):
    """Input table contains no data rows."""
