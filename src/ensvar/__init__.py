"""Ensemble-variational data assimilation at desk scale.

Exact Kalman filter/smoother recursions, perturbed-observation ensemble
filters/smoothers with matrix-free covariance products, Levenberg-
Marquardt solvers for the weak-constraint 4DVAR objective (exact,
tangent-ensemble, and finite-difference-ensemble variants), and a Monte
Carlo harness that measures their convergence rates.  All randomness is
keyed and replayable, so algorithm variants can be coupled draw for draw.
"""

from .ensemble import (
    EnsembleRunResult,
    coupled_member_diffs,
    enkf_run,
    enks_run,
    reference_enks_run,
)
from .errors import (
    DimensionMismatchError,
    EnsvarError,
    MissingJacobianError,
    NonlinearOperatorError,
    NotSPDError,
    ValidationError,
)
from .fourdvar import (
    LMConfig,
    LMRunResult,
    enks_4dvar_run,
    fd_directional,
    lm_enks_tangent_run,
    lm_exact_run,
    lm_exact_step,
    lm_run,
    lm_tangent_ls_oracle,
    objective,
)
from .kalman import (
    KalmanFilterResult,
    KalmanSmootherResult,
    kf_run,
    ks_least_squares_oracle,
    ks_run,
)
from .numerics import (
    cholesky_spd,
    empirical_lp_norm,
    fit_loglog_slope,
    sample_covariance,
    sample_mean,
    spd_solve,
)
from .problem import (
    AssimilationProblem,
    GaussianEstimate,
    Operator,
    Trajectory,
    validate_problem,
)
from .streams import DrawKey, NoiseKind, PerturbationStream, Phase, derive_seed
from .study import StudyResult, StudyRow, StudySpec, emit, run_study
from .toys import make_toy_problem

__version__ = "0.1.0"

__all__ = [
    "AssimilationProblem",
    "DimensionMismatchError",
    "DrawKey",
    "EnsembleRunResult",
    "EnsvarError",
    "GaussianEstimate",
    "KalmanFilterResult",
    "KalmanSmootherResult",
    "LMConfig",
    "LMRunResult",
    "MissingJacobianError",
    "NoiseKind",
    "NonlinearOperatorError",
    "NotSPDError",
    "Operator",
    "PerturbationStream",
    "Phase",
    "StudyResult",
    "StudyRow",
    "StudySpec",
    "Trajectory",
    "ValidationError",
    "cholesky_spd",
    "coupled_member_diffs",
    "derive_seed",
    "emit",
    "empirical_lp_norm",
    "enkf_run",
    "enks_4dvar_run",
    "enks_run",
    "fd_directional",
    "fit_loglog_slope",
    "kf_run",
    "ks_least_squares_oracle",
    "ks_run",
    "lm_enks_tangent_run",
    "lm_exact_run",
    "lm_exact_step",
    "lm_run",
    "lm_tangent_ls_oracle",
    "make_toy_problem",
    "objective",
    "reference_enks_run",
    "run_study",
    "sample_covariance",
    "sample_mean",
    "spd_solve",
    "validate_problem",
]
