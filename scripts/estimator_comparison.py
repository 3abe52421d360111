#!/usr/bin/env python3
"""Compare the three failure-probability estimators at a fixed truss design
against the closed-form value, including evaluation budgets. The estimator
settings are the shipped truss configs' (Monte Carlo: truss_hybrid.json with
the method switched to "mc").

Usage: python scripts/estimator_comparison.py [--lam 0.3425] [--delta-deg 43.25]
"""
import os

# one BLAS thread, set before numpy loads, as bench/run.py sets it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
from pathlib import Path

import numpy as np

from rbto import cli, truss
from rbto.reliability import estimate
from rbto.sampling import SampleStream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--lam", type=float, default=0.3425)
    parser.add_argument("--delta-deg", type=float, default=43.25)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    prob = truss.TrussProblem()
    delta = np.deg2rad(args.delta_deg)
    exact = truss.failure_probability(prob, args.lam, delta)
    problem, theta = truss.make_problem(prob), np.array([args.lam, delta])

    configs = [
        ("monte-carlo", cli.load_config(CONFIGS / "truss_hybrid.json", estimator={"method": "mc"})),
        ("subset", cli.load_config(CONFIGS / "truss_subset.json")),
        ("hybrid", cli.load_config(CONFIGS / "truss_hybrid.json")),
    ]
    print(f"design (lam, delta) = ({args.lam}, {args.delta_deg} deg), "
          f"closed-form P_F = {exact:.4e}")
    print(f"{'method':<12} {'p_hat':>12} {'rel err':>9} {'exact evals':>12} "
          f"{'surrogate evals':>16}")
    for name, cfg in configs:
        est = estimate(problem.limit_state, theta, problem.random_input, cfg.estimator,
                       SampleStream(args.seed, (name,)))
        rel = abs(est.p_hat - exact) / exact
        print(f"{name:<12} {est.p_hat:12.4e} {rel:8.1%} {est.n_exact_evals:12d} "
              f"{est.n_surrogate_evals:16d}")


if __name__ == "__main__":
    main()
