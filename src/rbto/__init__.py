"""Reliability-based topology optimization with stochastic gradients.

Sampling-based failure-probability estimators (Monte Carlo, subset sampling,
surrogate-screened hybrid), an exponential density model for failing designs
supplying the failure-penalty gradient, and a projected stochastic-gradient
loop, applied to a two-bar truss benchmark and 2D compliance-constrained
topology optimization.
"""
from .failure_density import FailureDensityModel, initial_model, penalty_gradient
from .pce import MultiIndexSet, PceModel, fit_least_squares, multi_indices
from .reliability import (
    HybridConfig,
    LimitState,
    McConfig,
    ReliabilityEstimate,
    SubsetConfig,
    SubsetStallError,
    estimate,
    hybrid_estimate,
    mc_estimate,
    subset_estimate,
)
from .sampling import Lognormal, Normal, RandomInput, SampleStream
from .sgd import (
    OptimizationProblem,
    OptimizerConfig,
    OptimizerError,
    RunHistory,
    project,
    run,
    stochastic_gradient,
)

__all__ = [
    "FailureDensityModel",
    "HybridConfig",
    "Lognormal",
    "LimitState",
    "McConfig",
    "MultiIndexSet",
    "Normal",
    "OptimizationProblem",
    "OptimizerConfig",
    "OptimizerError",
    "PceModel",
    "RandomInput",
    "ReliabilityEstimate",
    "RunHistory",
    "SampleStream",
    "SubsetConfig",
    "SubsetStallError",
    "estimate",
    "fit_least_squares",
    "hybrid_estimate",
    "initial_model",
    "mc_estimate",
    "multi_indices",
    "penalty_gradient",
    "project",
    "run",
    "stochastic_gradient",
    "subset_estimate",
]

__version__ = "0.1.0"
