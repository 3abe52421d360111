#!/usr/bin/env python3
"""Optimize the rectangular beam or the L-bracket, reliability-constrained and
robust, and write density images plus a small report.

Each run reports its post-hoc P_F next to the trailing-500 change of the
exact expected objective (the relative difference between the means of the
last two 500-iteration windows), the stabilization measure of acceptance
criteria 8 and 9. Sweep seeds with --seed to see how robust a result is.

Usage:
    python scripts/beam_study.py rect|lshape [--iterations N] [--out DIR] [--seed N]
"""
import argparse
import time
from pathlib import Path

import numpy as np

from rbto import cli, fem
from rbto.reliability import mc_estimate
from rbto.sampling import SampleStream
from rbto.sgd import run

PROBLEMS = {"rect": "beam", "lshape": "lbeam"}


def build(variant, mode, seed, iterations):
    """(RunConfig, OptimizationProblem, BeamProblem) with the CLI's defaults for the variant."""
    cfg = cli.parse_config({"problem": PROBLEMS[variant], "seed": seed,
                            "iterations": iterations, "mode": mode})
    prob, bp = cli.build_problem(cfg)
    return cfg, prob, bp


def trailing_mean_change(objective, window=500):
    """Relative change between the means of the last two windows (NaN if short)."""
    if objective.size < 2 * window:
        return float("nan")
    recent = objective[-window:].mean()
    previous = objective[-2 * window : -window].mean()
    return abs(recent - previous) / abs(previous)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("variant", choices=sorted(PROBLEMS))
    parser.add_argument("--iterations", type=int, default=5000)
    parser.add_argument("--out", default="beam_out")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for mode in ("rbto", "robust"):
        cfg, prob, bp = build(args.variant, mode, args.seed, args.iterations)
        t0 = time.perf_counter()
        theta, hist = run(prob, cfg.optimizer)
        wall = time.perf_counter() - t0
        post = mc_estimate(prob.limit_state, theta, prob.random_input, cfg.posthoc.n_samples,
                           SampleStream(args.seed, ("posthoc", mode)))
        rho = fem.filter_forward(bp.weights, theta)
        grid = bp.density_grid(rho)
        with open(out / f"{args.variant}_{mode}.pgm", "w") as fh:
            fem.write_density_pgm(fh, grid)
        with open(out / f"{args.variant}_{mode}.csv", "w") as fh:
            fem.write_density_csv(fh, grid)
        stab = trailing_mean_change(hist.objective_expected)
        print(f"{args.variant} {mode:>6} seed {args.seed}: "
              f"volume fraction {np.mean(rho):.3f}, "
              f"post-hoc P_F {post.p_hat:.3e}, "
              f"trailing-500 E[J] change {stab:.2%}, "
              f"{hist.n_exact_g_evals} exact g evals, "
              f"{bp.n_solves} FE solves, {wall:.0f}s")


if __name__ == "__main__":
    main()
