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
from .io import PreprocessConfig, load_matrix, preprocess, save_matrix
from .model import Hyperparameters, IdState, ObservedMatrix
from .postprocess import CanonicalId, extract_canonical
from .rid import RidResult, max_magnitude_excess, randomized_id
from .sampler import GibbsTrace, run_gibbs

__version__ = "0.1.0"

__all__ = [
    "BayesidError",
    "CanonicalId",
    "ConfigurationError",
    "DegenerateChainError",
    "GibbsTrace",
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
    "extract_canonical",
    "iterations_to_plateau",
    "load_matrix",
    "max_magnitude_excess",
    "mse",
    "mse_observed",
    "posterior_mean_mse",
    "preprocess",
    "randomized_id",
    "run_gibbs",
    "save_matrix",
]
