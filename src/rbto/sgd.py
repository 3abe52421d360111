"""Penalized stochastic-gradient loop with periodic failure-probability refresh.

Each iteration takes a fresh mini-batch of the uncertain input, checks the
exact limit state on the whole batch in one call (updating the
failure-density model whenever a draw fails; a robust run, kappa_f 0, skips
this check), then takes a projected step along the batch-mean objective
gradient, from one objective_batch call, plus the failure penalty. Every
iteration also records the exact expected objective at its design, a
noise-free trace of whether the run settled. The mini-batches of span =
min(m, max(1, DRAW_BLOCK // n)) iterations come from one draw, made at the
span's first iteration k from the stream ("batch", k), and each iteration
takes the next n rows: one generator per refresh interval when m * n <=
DRAW_BLOCK, and no draw larger than max(n, DRAW_BLOCK) rows.

The failure probability is re-estimated by a sampling estimator every m
iterations. The penalty is driven by the log ratio s of estimate to allowable
probability, averaged across refreshes as s <- s/2 + ln(p_hat/p_a)/2 (seeded
by the first refresh, p_hat floored at half a failure in the estimator's
sample but at most p_a) and held frozen in between; the penalty gradient takes
s itself, and the history still records each raw estimate. A
single frozen estimate over-corrects for all m iterations until the next
refresh and makes the design cycle around the constraint boundary; the
average damps that cycle and keeps the -beta direction and the hinge at p_a.
The penalty is inactive until the first refresh, which gives the
failure-density parameters a short burn-in on early failures before they
start steering the design. The Monte Carlo batch of the first refresh starts
drawing on a worker thread (reliability.start_draw) when the run starts, and
the batch of each later one right after the refresh before it, so each is
ready when its refresh comes; no draw starts past the last refresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import failure_density as fd
from .reliability import (
    EstimatorConfig,
    LimitState,
    SubsetStallError,
    check_counts,
    estimate,
    start_draw,
)
from .sampling import DRAW_BLOCK, RandomInput, SampleStream


class OptimizerError(RuntimeError):
    """Numerical failure during a run; carries the iteration and partial history."""

    def __init__(self, msg: str, iteration: int, history: RunHistory):
        super().__init__(msg)
        self.iteration = iteration
        self.history = history


@dataclass
class OptimizationProblem:
    """Callbacks and geometry of one design problem.

    objective_batch(theta, xis) returns the mean of the sampled objective over
    the rows of the (n, dim) realization matrix xis and the mean of its design
    gradient. objective_expected evaluates the exact expectation of the sampled
    objective at a design; it is recorded as a noise-free convergence trace and
    never enters the descent direction.
    theta0, lower and upper are equal-length float arrays, theta0 inside the
    box [lower, upper] (each problem checks its theta0 where it is configured).
    """

    theta0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    random_input: RandomInput
    objective_batch: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]
    limit_state: LimitState
    objective_expected: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class OptimizerConfig:
    eta: float
    n: int
    m: int
    kappa_f: float
    p_a: float
    iterations: int
    estimator: EstimatorConfig
    seed: int
    alpha0: float = 0.01
    beta0: float = 0.01
    eta_f: float = 0.2

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be > 0")
        check_counts(self, "n", "m", "iterations")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kappa_f < 0.0:
            raise ValueError("kappa_f must be >= 0")
        if not self.eta_f > 0.0:
            raise ValueError("eta_f must be > 0")
        if not 0.0 < self.p_a < 1.0:
            raise ValueError("p_a must lie in (0, 1)")


@dataclass
class RunHistory:
    """Per-iteration traces and the count of exact limit-state evaluations.

    objective holds the mini-batch estimate and objective_expected the exact
    expectation at the same design; a failed run's partial history holds NaN in
    both, and in alpha and beta_norm, from the failing iteration on.
    """

    objective: np.ndarray
    objective_expected: np.ndarray
    alpha: np.ndarray
    beta_norm: np.ndarray
    failure_update: np.ndarray
    p_f_iterations: np.ndarray
    p_f_values: np.ndarray
    n_exact_g_evals: int


def stochastic_gradient(
    problem: OptimizationProblem,
    theta: np.ndarray,
    batch: np.ndarray,
    failure_penalty: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Mini-batch descent direction and the mean sampled objective.

    The objective term is the batch mean, the usual mini-batch convention, so
    the step size means the same thing for every n; the failure penalty
    enters once.
    """
    value, grad = problem.objective_batch(theta, batch)
    return grad + failure_penalty, value


def run(problem: OptimizationProblem, cfg: OptimizerConfig) -> tuple[np.ndarray, RunHistory]:
    """Run the optimization loop; deterministic given cfg.seed."""
    root = SampleStream(cfg.seed)
    theta = problem.theta0.copy()
    model = fd.FailureDensityModel(cfg.alpha0, np.full(theta.size, cfg.beta0), cfg.eta_f)

    iters = cfg.iterations
    objective, expected, alpha, beta_norms = (np.empty(iters) for _ in range(4))
    failure_update = np.zeros(iters, dtype=bool)
    p_iters: list[int] = []
    p_vals: list[float] = []
    log_ratio: float | None = None  # smoothed ln(p_hat / p_a) across refreshes
    # estimates are floored at half a failure in the estimator's sample, capped
    # at p_a so that an estimator too small to resolve p_a adds no penalty on it
    p_floor = min(0.5 / cfg.estimator.n_samples, cfg.p_a)
    evals0 = problem.limit_state.n_evals

    def finalize() -> RunHistory:
        return RunHistory(objective, expected, alpha, beta_norms, failure_update,
                          np.array(p_iters, dtype=int), np.array(p_vals),
                          problem.limit_state.n_evals - evals0)

    # the next refresh's Monte Carlo draw, started ahead of it
    ahead = (start_draw(problem.random_input, cfg.estimator, root.child("pf", cfg.m))
             if cfg.kappa_f > 0.0 and cfg.m <= iters else None)
    stale = True  # the penalty and ||beta|| change only with a refresh or a failure update
    span = min(cfg.m, max(1, DRAW_BLOCK // cfg.n))  # iterations per mini-batch draw
    for k in range(1, iters + 1):
        try:
            if cfg.kappa_f > 0.0 and k % cfg.m == 0:
                est = estimate(
                    problem.limit_state, theta, problem.random_input,
                    cfg.estimator, root.child("pf", k), ahead,
                )
                ahead = None
                if k + cfg.m <= iters:  # fill the next refresh's batch during the iterations before it
                    ahead = start_draw(problem.random_input, cfg.estimator, root.child("pf", k + cfg.m))
                p_iters.append(k)
                p_vals.append(est.p_hat)
                ratio = float(np.log(max(est.p_hat, p_floor) / cfg.p_a))
                log_ratio = ratio if log_ratio is None else 0.5 * (log_ratio + ratio)
                stale = True

            j = (k - 1) % span
            if j == 0:
                rows = problem.random_input.sample(min(span, iters - k + 1) * cfg.n,
                                                   root.child("batch", k))
            batch = rows[j * cfg.n :][: cfg.n]
            # a robust run (kappa_f 0) has no penalty for the failure-density model to steer
            if cfg.kappa_f > 0.0 and (problem.limit_state.batch(theta, batch) <= 0.0).any():
                model = fd.update(model, [theta])
                failure_update[k - 1] = True
                stale = True

            if stale:
                if log_ratio is not None:  # set by a refresh, so kappa_f > 0
                    penalty = fd.penalty_gradient(model, log_ratio, cfg.kappa_f)
                else:
                    penalty = np.zeros(theta.size)
                beta_norm = float(np.linalg.norm(model.beta))
                stale = False

            h, obj = stochastic_gradient(problem, theta, batch, penalty)
            objective[k - 1] = obj
            expected[k - 1] = problem.objective_expected(theta)
            alpha[k - 1] = model.alpha
            beta_norms[k - 1] = beta_norm

            if not np.isfinite(h).all():
                bad = int(np.nonzero(~np.isfinite(h))[0][0])
                raise FloatingPointError(f"non-finite gradient component {bad}")
            # np.clip's bits, NaN and a signed zero at a bound included, without its argument checks
            theta = np.minimum(np.maximum(theta - cfg.eta * h, problem.lower), problem.upper)
            if not np.isfinite(theta).all():
                bad = int(np.nonzero(~np.isfinite(theta))[0][0])
                raise FloatingPointError(f"non-finite design component {bad}")
        # FloatingPointError covers the density-model overflow, a failed
        # surrogate fit and a singular FE system, besides the checks above
        except (FloatingPointError, SubsetStallError) as err:
            for arr in (objective, expected, alpha, beta_norms):
                arr[k - 1 :] = np.nan
            raise OptimizerError(str(err), k, finalize()) from err

    return theta, finalize()
