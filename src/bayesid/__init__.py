"""Bayesian interpolative matrix decomposition with bounded weights.

Approximates A by C @ W where C is K columns taken from A itself and W
is a weight matrix whose entries stay inside [a, b]. The column subset
and the weights are sampled jointly by a Gibbs sampler; a classical
randomized decomposition is included as a baseline.
"""

from .diagnostics import (
    RunReport,
    autocorrelation,
    build_run_report,
    iterations_to_plateau,
    mse,
    mse_observed,
    posterior_mean_mse,
)
from .distributions import GammaParams, GtnParams, gtn_log_pdf, sample_gtn, sample_gtn_array
from .errors import (
    BayesidError,
    ConfigurationError,
    DegenerateChainError,
    InputError,
    InvalidParameterError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
)
from .io import PreprocessConfig, load_matrix, preprocess, save_matrix, save_result
from .linalg import cpqr, numerical_rank, solve_least_squares
from .model import Hyperparameters, IdState, ObservedMatrix, init_state
from .postprocess import CanonicalId, extract_canonical
from .rid import RidResult, max_magnitude_excess, randomized_id
from .sampler import GibbsTrace, run_gibbs

__version__ = "0.1.0"

__all__ = [
    "BayesidError",
    "CanonicalId",
    "ConfigurationError",
    "DegenerateChainError",
    "GammaParams",
    "GibbsTrace",
    "GtnParams",
    "Hyperparameters",
    "IdState",
    "InputError",
    "InvalidParameterError",
    "NumericalError",
    "ObservedMatrix",
    "ParseError",
    "PreprocessConfig",
    "RankDeficiencyError",
    "RidResult",
    "RunReport",
    "autocorrelation",
    "build_run_report",
    "cpqr",
    "extract_canonical",
    "gtn_log_pdf",
    "init_state",
    "iterations_to_plateau",
    "load_matrix",
    "max_magnitude_excess",
    "mse",
    "mse_observed",
    "numerical_rank",
    "posterior_mean_mse",
    "preprocess",
    "randomized_id",
    "run_gibbs",
    "sample_gtn",
    "sample_gtn_array",
    "save_matrix",
    "save_result",
    "solve_least_squares",
]
