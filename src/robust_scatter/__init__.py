"""Robust scatter estimation and PCA with hard-threshold reweighting.

A Tyler-type fixed-point scatter estimator whose observations are
exponentially downweighted and trimmed once their squared Mahalanobis
distance reaches ln(1/alpha), plus the machinery around it: active-ratio
based scale selection, influence-function diagnostics with a
finite-perturbation oracle, a contaminated-mixture simulation harness, and
a CLI.
"""

from .errors import (
    DegenerateScale,
    DegenerateSpectrum,
    DegenerateStep,
    EmptyActiveSet,
    EmptyData,
    GridNotFound,
    OracleFailure,
    RobustScatterError,
    SingularScatter,
)
from .estimator import (
    DataSet,
    FitOptions,
    FitResult,
    LocationScatter,
    PCAModel,
    estimating_equation_residual,
    fit_sppca,
    fit_tme,
    in_ball,
    initial_estimate,
    mahalanobis,
    pca,
    solution_set,
    tau_scale,
)
from .metrics import (
    AsymptoticConstants,
    RadialSpec,
    asymptotic_constants,
    asymptotic_variance,
    empirical_if,
    if_eigenvalue_ratio,
    if_eigenvector,
    if_location,
    similarity_rho,
    unit_scale_fit,
)
from .simgen import (
    ExperimentTable,
    GroundTruth,
    SimConfig,
    gen_eigenvalues,
    gen_mixture,
    gen_separable_mixture,
    random_orthogonal,
    run_experiment,
    sample_mvt,
)
from .tuning import (
    ARCurve,
    TuningResult,
    build_grid,
    select_a_star,
    smooth_curve,
)
from .weights import WeightSpec, weight, weight_product

__version__ = "0.1.0"
