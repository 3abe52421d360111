#!/usr/bin/env python3
"""Run the shipped rectangular-beam or L-bracket config through `rbto run`,
reliability-constrained and robust, and report each run from its outputs.

The robust run is the config with kappa_f 0: no failure penalty and no
failure-probability refresh. Each mode writes one `rbto run` directory,
OUT/<variant>_<mode>, holding history.csv, design.csv, design.pgm and
summary.json. Each run reports its post-hoc P_F next to the trailing-500
change of the exact expected objective (history.csv's objective_expected:
the relative difference between the means of the last two 500-iteration
windows), the stabilization measure of acceptance criteria 8 and 9. Sweep
seeds with --seed to see how robust a result is; --seed and --iterations
default to the config's values.

Usage:
    python scripts/beam_study.py rect|lshape [--iterations N] [--out DIR] [--seed N]
"""
import os

# one BLAS thread, set before numpy loads, as bench/run.py sets it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from rbto import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PROBLEMS = {"rect": "beam_rect.json", "lshape": "beam_lshape.json"}


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
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--out", default="beam_out")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()
    overrides = {key: getattr(args, key) for key in ("seed", "iterations")
                 if getattr(args, key) is not None}

    for mode, penalty in (("rbto", {}), ("robust", {"kappa_f": 0.0})):
        out = Path(args.out) / f"{args.variant}_{mode}"
        cfg = cli.load_config(CONFIGS / PROBLEMS[args.variant], **penalty, **overrides)
        code = cli.cmd_run(cfg, out)
        if code:
            return code
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "history.csv", newline="") as fh:
            objective = np.array([float(row["objective_expected"]) for row in csv.DictReader(fh)])
        design = summary["design"]
        print(f"{args.variant} {mode:>6} seed {summary['seed']}: "
              f"volume fraction {design['volume_fraction']:.3f}, "
              f"post-hoc P_F {summary['final_p_f']:.3e}, "
              f"trailing-500 E[J] change {trailing_mean_change(objective):.2%}, "
              f"{summary['n_exact_g_evals']} exact g evals, "
              f"{design['n_solves']} FE solves, {summary['wall_time_s']:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
