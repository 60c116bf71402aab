"""Kernel ridge regression in a reproducing kernel Hilbert space: closed-form
fits, the minimal-norm interpolant, operator-spectral and stability bounds,
and deterministic convergence experiments (growing sample / vanishing noise)
with a CLI front end."""

import types

from .kernels import (
    GramMatrix,
    KernelSpec,
    PointSet,
    eval_kernel,
    gram,
    kernel_diag,
    kernel_matrix,
)
from .linalg import (
    DiagnosticsError,
    InconsistentSystemError,
    pinv_solve,
    regularized_solve,
)
from .rkhs import (
    RepresenterFunction,
    combine,
    evaluate,
    h_distance,
    inner_product,
    rkhs_norm,
)
from .solver import (
    ClosenessCertificate,
    DataSet,
    FitResult,
    closeness_certificate,
    krr_fit,
    min_norm_interpolant,
    regularized_risk,
)
from .operators import (
    EvaluationOperator,
    apply_p,
    apply_p_star,
    decomposition_residual,
    filter_gain_bound,
    filter_gains,
    filter_max,
    ker_p_sample,
    noise_operator_bound,
    operator_norm_bound_p,
    shrinkage_profile,
    shrinkage_term,
)
from .stability import (
    Schedule,
    StabilityParams,
    beta_stability,
    eps_for_target,
    sigma_admissible_ls,
    stability_probability,
    stability_probability_combined,
    variance_radius,
)
from .experiments import (
    DataDistribution,
    ExperimentReport,
    NoiseProcess,
    RateEstimate,
    ReportRow,
    estimate_rate,
    run_thm1,
    run_thm2,
    sample_dataset,
)
from .rng import SplitMix64, mix64

__version__ = "0.1.0"

# every public name imported above, not the submodules
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
