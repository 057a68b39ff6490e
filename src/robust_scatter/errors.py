"""Exception types shared across the package."""


class RobustScatterError(Exception):
    """Base class for all errors raised by this package."""

    # fixed-point iteration at which a fit failed; 0 means before the first
    # step.  ``fit_sppca`` sets it on the errors it re-raises.
    iteration: int = 0


class SingularScatter(RobustScatterError):
    """Scatter matrix is numerically singular (Cholesky failed)."""


class EmptyActiveSet(RobustScatterError):
    """Every observation received zero weight at the current iterate."""


class DegenerateStep(RobustScatterError):
    """All active observations sit exactly at the location estimate."""


class DegenerateScale(RobustScatterError):
    """A column has (numerically) zero robust scale."""


class GridNotFound(RobustScatterError):
    """The active-ratio scan could not bracket the requested grid endpoints."""


class DegenerateSpectrum(RobustScatterError):
    """Eigenvalues are too close for the requested eigen-quantity."""


class EmptyData(RobustScatterError):
    """Input table contains no data rows."""
