"""Exact quality oracles for a finished `rbto run`, computed outside the program.

Truss: the closed-form failure probability `rbto.truss.failure_probability`
and the volume objective lam/cos(delta).

FE problems: for a fixed design the compliance factors as C = P^2/E0 * C1
with P = P0 (1 + c xi0), xi0 standard normal, and E0 lognormal. Failure
C >= c_max is E0 <= P^2 C1 / c_max, so

    P_F = E_xi0[ Phi((ln(P0^2 (1 + c xi0)^2 C1 / c_max) - mu_ln) / sigma_ln) ],

a 1-D Gauss-Hermite integral over xi0 that needs only C1 (`unit_compliance`
in summary.json).
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import norm

from rbto import truss
from rbto.sampling import Lognormal

GAUSS_HERMITE_NODES = 80


def fe_failure_probability(c1: float, config, nodes: int = GAUSS_HERMITE_NODES) -> float:
    """Exact P_F of an FE design with unit compliance c1 under a BeamConfig."""
    x, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)  # hermegauss weights integrate exp(-x^2/2)
    e0 = Lognormal(config.e0_mean, config.e0_std)
    load = config.p0_load * (1.0 + config.load_coeff * x)
    z = (np.log(load**2 * c1 / config.c_max) - e0.mu_ln) / e0.sigma_ln
    return float(w @ norm.cdf(z))


def fe_expected_objective(c1: float, volume_fraction: float, n_elements: int, config, h: float) -> float:
    """E[P^2/E0] * C1 + tau * element volume * sum(rho) for an FE design."""
    e0 = Lognormal(config.e0_mean, config.e0_std)
    mean_scale = config.p0_load**2 * (1.0 + config.load_coeff**2) * math.exp(e0.sigma_ln**2) / e0.mean
    return mean_scale * c1 + config.tau * h**2 * n_elements * volume_fraction


def final_design_quality(summary: dict, context) -> tuple[float, float]:
    """(exact P_F, exact expected objective) of the design in summary.json.

    `context` is the second value of `rbto.cli.build_problem`: a TrussProblem
    for the truss, a BeamProblem for the FE problems.
    """
    design = summary["design"]
    if isinstance(context, truss.TrussProblem):
        lam, delta = design["theta"]
        return truss.failure_probability(context, lam, delta), lam / math.cos(delta)
    c1 = design["unit_compliance"]
    p_f = fe_failure_probability(c1, context.config)
    objective = fe_expected_objective(
        c1, design["volume_fraction"], design["n_elements"], context.config, context.mesh.h
    )
    return p_f, objective


def reliability_index(p_f: float) -> float:
    """beta = -Phi^{-1}(P_F); P_F = 1e-3 gives 3.09."""
    return float(norm.isf(p_f))
