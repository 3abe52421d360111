"""Exponential model for the density of failing designs and its updates.

The density of design vectors conditioned on failure is approximated by
exp(-alpha - beta . theta). Enforcing unit mass of that approximation gives a
scalar residual q; (alpha, beta) follow stochastic gradient descent on q^2/2
using designs observed to fail, and beta feeds the failure-probability
penalty gradient of the optimizer.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

MAX_EXPONENT = 700.0  # exp() overflows past ~709; clamping would corrupt beta


class FailureModelOverflowError(FloatingPointError):
    pass


@dataclass(frozen=True)
class FailureDensityModel:
    alpha: float
    beta: np.ndarray
    eta_f: float  # > 0, checked by sgd.OptimizerConfig


def _exp_terms(model: FailureDensityModel, failed_designs: np.ndarray) -> np.ndarray:
    exponents = -model.alpha - failed_designs @ model.beta
    if np.any(exponents > MAX_EXPONENT):
        raise FailureModelOverflowError(
            f"density exponent exceeded {MAX_EXPONENT:.0f}; "
            "model parameters have diverged"
        )
    return np.exp(exponents)


def residual_and_score(model: FailureDensityModel, failed_designs) -> tuple[float, np.ndarray]:
    """Normalization residual q and the score vector L over the failed set.

    q = sum_j exp(-alpha - beta . theta_j) - 1 and L stacks the negated sums
    of the exponential terms and their theta-weighted versions, so that L*q
    is the gradient of q^2/2 in (alpha, beta).
    """
    failed = np.atleast_2d(np.asarray(failed_designs, dtype=float))
    e = _exp_terms(model, failed)
    q = float(np.sum(e) - 1.0)
    score = -np.concatenate([[np.sum(e)], failed.T @ e])
    return q, score


def update(model: FailureDensityModel, failed_designs) -> FailureDensityModel:
    """One gradient-descent step of (alpha, beta) on q^2/2 over a nonempty failed set."""
    q, score = residual_and_score(model, failed_designs)
    step = model.eta_f * score * q
    alpha = model.alpha - step[0]
    beta = model.beta - step[1:]
    if not (np.isfinite(alpha) and np.all(np.isfinite(beta))):
        raise FailureModelOverflowError("non-finite density-model update")
    return replace(model, alpha=alpha, beta=beta)


def penalty_gradient(model: FailureDensityModel, log_ratio: float, kappa_f: float) -> np.ndarray:
    """Design-space gradient of the failure-probability penalty.

    log_ratio is ln(p_hat / p_a), the log of the estimated over the allowable
    failure probability. Under the exponential density model the log failure
    probability has design gradient -beta, so the penalty
    kappa_f/2 * [(log_ratio)+]^2 contributes -kappa_f * (log_ratio)+ * beta:
    zero whenever the constraint is satisfied (log_ratio <= 0).
    """
    return -kappa_f * max(log_ratio, 0.0) * model.beta
