#!/usr/bin/env python3
"""Sweep the truss benchmark over estimator, penalty, refresh interval, and
allowable failure probability; print one table row per configuration.

Each row is one `rbto run` of configs/truss_hybrid.json with the row's keys
replaced (the subset row runs configs/truss_subset.json), in a temporary
directory; the row shows the design from its summary.json and the exact P_F.

Usage: python scripts/truss_study.py [--quick]
"""
import os

# one BLAS thread, set before numpy loads, as bench/run.py sets it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from rbto import cli, truss

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ROWS = [
    ("subset      k=2500 m=100 pa=1e-3", "truss_subset.json", {}),
    ("hybrid      k=2500 m=100 pa=1e-3", "truss_hybrid.json", {}),
    ("monte-carlo k=2500 m=100 pa=1e-3", "truss_hybrid.json", {"estimator": {"method": "mc"}}),
    ("hybrid      k=500  m=100 pa=1e-3", "truss_hybrid.json", {"kappa_f": 500.0}),
    ("hybrid      k=5000 m=100 pa=1e-3", "truss_hybrid.json", {"kappa_f": 5000.0}),
    ("hybrid      k=2500 m=50  pa=1e-3", "truss_hybrid.json", {"m": 50}),
    ("hybrid      k=2500 m=500 pa=1e-3", "truss_hybrid.json", {"m": 500}),
    ("hybrid      k=2500 m=100 pa=1e-4", "truss_hybrid.json", {"p_a": 1e-4}),
    ("hybrid      k=2500 m=100 pa=1e-5", "truss_hybrid.json", {"p_a": 1e-5}),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="2000 iterations instead of 10000")
    args = parser.parse_args()
    iters = 2000 if args.quick else 10**4

    print(f"{'configuration':<36} {'lam*':>7} {'delta*':>8} {'J*':>7} "
          f"{'P_F':>10} {'g evals':>9} {'wall':>6}")
    for label, config, overrides in ROWS:
        cfg = cli.load_config(CONFIGS / config, iterations=iters, **overrides)
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            if cli.cmd_run(cfg, Path(out)):
                raise SystemExit(f"{label}: numerical failure")
            summary = json.loads((Path(out) / "summary.json").read_text())
        (lam, delta), j = summary["design"]["theta"], summary["design"]["objective"]
        p_f = truss.failure_probability(cfg.problem_spec, lam, delta)
        print(f"{label:<36} {lam:7.4f} {np.rad2deg(delta):7.2f}° {j:7.4f} {p_f:10.3e} "
              f"{summary['n_exact_g_evals']:9d} {summary['wall_time_s']:5.0f}s")


if __name__ == "__main__":
    main()
