"""Two-bar truss benchmark: volume objective with a compliance limit state.

Both bars share the cross-section fraction lam in [0, 1] and inclination
delta from the vertical; the horizontal load component is the standard-normal
uncertain input. The limit state compares compliance against a maximum whose
scaled coefficient is c0 = 2*C_max*E*A_max/(P^2 H) = 100 for the default
configuration. Failure probability admits a closed form (g is even and
decreasing in |xi|), used here only as a test and reporting oracle, never
inside the optimization pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .reliability import LimitState
from .sampling import Normal, RandomInput
from .sgd import OptimizationProblem

DELTA_MARGIN = 1e-3  # keep delta clear of the 0 and pi/2 trigonometric poles
LOWER = (0.0, DELTA_MARGIN)  # design box of (lam, delta)
UPPER = (1.0, np.pi / 2 - DELTA_MARGIN)


@dataclass(frozen=True)
class TrussProblem:
    c0: float = 100.0
    p_load: float = 1.0
    theta0: tuple[float, float] = (0.1, np.pi / 4)

    def __post_init__(self):
        for key in ("c0", "p_load"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be > 0")
        lam_ok = len(self.theta0) == 2 and LOWER[0] <= self.theta0[0] <= UPPER[0]
        if not (lam_ok and LOWER[1] <= self.theta0[1] <= UPPER[1]):
            raise ValueError(
                f"theta0 must be (lam, delta) in [{LOWER[0]}, {UPPER[0]}] x "
                f"[{LOWER[1]}, {UPPER[1]:.6f}], got {list(self.theta0)}"
            )


def objective(lam: float, delta: float) -> tuple[float, np.ndarray]:
    """Material volume measure lam/cos(delta) and its exact gradient."""
    c = np.cos(delta)
    value = lam / c
    grad = np.array([1.0 / c, lam * np.sin(delta) / c**2])
    return float(value), grad


def limit_state(problem: TrussProblem, lam: float, delta: float, xi) -> np.ndarray:
    """Compliance margin; failure iff <= 0. Vectorized over xi.

    lam = 0 means a vanished cross-section: always failing (returns -inf).
    """
    xi = np.asarray(xi, dtype=float)
    if lam <= 0.0:
        return np.full(xi.shape, -np.inf)
    c, s = np.cos(delta), np.sin(delta)
    return problem.c0 - (1.0 / (lam * c)) * (1.0 / c**2 + xi**2 / (problem.p_load**2 * s**2))


def failure_probability(problem: TrussProblem, lam: float, delta: float) -> float:
    """Closed-form P(g <= 0) for the standard-normal load component.

    g <= 0 iff xi^2 >= P^2 sin^2(delta) (c0 lam cos(delta) - 1/cos^2(delta)),
    so P_F = 2 Phi(-xi*) with xi* the positive root, or 1 when no root exists.
    """
    if lam <= 0.0:
        return 1.0
    c, s = np.cos(delta), np.sin(delta)
    rhs = problem.p_load**2 * s**2 * (problem.c0 * lam * c - 1.0 / c**2)
    if rhs <= 0.0:
        return 1.0
    return float(2.0 * ndtr(-np.sqrt(rhs)))


def make_problem(problem: TrussProblem | None = None) -> OptimizationProblem:
    """Wire the truss into the optimizer interface (1-D standard-normal input).

    The objective does not depend on the load, so every batch mean is the
    deterministic objective itself.
    """
    prob = problem or TrussProblem()
    return OptimizationProblem(
        theta0=np.asarray(prob.theta0, dtype=float),
        lower=np.array(LOWER),
        upper=np.array(UPPER),
        random_input=RandomInput((Normal(),)),
        objective_batch=lambda theta, xis: objective(theta[0], theta[1]),
        limit_state=LimitState(lambda theta, xis: limit_state(prob, theta[0], theta[1], xis[:, 0])),
        objective_expected=lambda theta: objective(theta[0], theta[1])[0],
    )
