"""Command-line runner: JSON configurations, history/design/summary outputs.

Subcommands, each taking only the config keys it reads (_COMMAND_KEYS):
    run <config.json> [--out DIR] [--seed N] [--iterations N]
        optimize and write history.csv, design files, summary.json
    estimate <config.json> [--seed N]
        one failure-probability estimate at a fixed design `theta`

A robust run is one with kappa_f 0, which evaluates no limit state before the post-run check.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path

# One BLAS thread unless the user sets another count: a second thread slows the banded
# factorization on small hosts. Set before numpy loads, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import fem, truss
from .reliability import (
    EstimatorConfig,
    HybridConfig,
    McConfig,
    SubsetConfig,
    SubsetStallError,
    estimate as run_estimator,
    start_draw,
)
from .sampling import SampleStream
from .sgd import OptimizerConfig, OptimizerError, RunHistory, run as run_optimizer


class ConfigError(ValueError):
    pass


_ESTIMATORS = {"mc": McConfig, "subset": SubsetConfig, "hybrid": HybridConfig}
_PROBLEMS = {  # per problem: its spec class, the other beam's mesh size, its base values
    "truss": (truss.TrussProblem, (), {}),
    "beam": (fem.BeamConfig, ("n_grid",), {"variant": "rect"}),
    "lbeam": (fem.BeamConfig, ("nx", "ny"), fem.LBEAM),
}
_COMMAND_KEYS = {  # the top-level keys each subcommand reads
    "run": {"problem", "estimator", "problem_params", "posthoc_samples",
            *(f.name for f in fields(OptimizerConfig))},
    "estimate": {"problem", "seed", "estimator", "problem_params", "theta"},
}

_BEAM_DEFAULTS = dict(
    iterations=5_000, m=25, kappa_f=1e5, p_a=1e-3,
    alpha0=1e-5, beta0=1e-5, eta_f=1e-5, posthoc_samples=10**4,
    estimator=dict(method="hybrid", gamma=25.0, n_samples=5 * 10**4),
)
_DEFAULTS = {  # per-problem settings; one left out here takes its dataclass default
    "truss": dict(
        iterations=10_000, eta=1e-5, n=1, m=100, kappa_f=2500.0, p_a=1e-3,
        estimator=dict(method="hybrid"),
    ),
    "beam": dict(_BEAM_DEFAULTS, eta=0.02, n=8),
    "lbeam": dict(_BEAM_DEFAULTS, eta=0.035, n=4),
}


@dataclass
class RunConfig:
    """A validated configuration: the objects built from it, and `echo`, every
    value its subcommand uses, read back from those objects, which re-parses to
    an equal RunConfig."""

    problem: str
    estimator: EstimatorConfig
    seed: int
    problem_spec: truss.TrussProblem | fem.BeamConfig
    echo: dict
    optimizer: OptimizerConfig | None = None  # run subcommand: the loop's settings
    posthoc: McConfig | None = None  # run subcommand: the post-run check
    theta: list | dict | None = None  # estimate subcommand: fixed design

    # the benchmark harness reads these two off load_config
    @property
    def p_a(self) -> float:
        return self.optimizer.p_a

    @property
    def m(self) -> int:
        return self.optimizer.m


def _reject_unknown(mapping: dict, allowed, where: str, name: str = "") -> None:
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        where = f"{where} ({name})" if name else where
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@functools.cache
def _kinds(cls, skip: tuple = ()) -> dict:
    """The settable fields of dataclass cls outside skip, in field order, by the
    type they take: int, float, or tuple (of floats). Annotations are strings here."""
    kinds = {"int": int, "float": float}
    return {f.name: kinds.get(f.type, tuple) for f in fields(cls)
            if f.name not in skip and (f.type in kinds or f.type.startswith("tuple"))}


def _number(value, kind: type, key: str, prefix: str = ""):
    """value as an int or a float; a ConfigError naming prefix + key otherwise."""
    if type(value) not in (int, float):  # a JSON true/false is not a number
        raise ConfigError(f"{prefix}{key} must be a number, got {value!r}")
    if kind is float:
        if not abs(value) <= sys.float_info.max:  # NaN, Infinity (json.load accepts both), huge ints
            raise ConfigError(f"{prefix}{key} must be finite, got {value!r}")
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{prefix}{key} must be an integer, got {value!r}")
    return int(value)


def _build(cls, values: dict, where: str, name: str = "", skip: tuple = (), base=None):
    """cls built from base and values, each value converted to its field's type,
    and the echo of its settable fields. where names the config section in
    messages ("" at the top level) and name the table entry it was chosen by."""
    kinds = _kinds(cls, skip)
    _reject_unknown(values, kinds, where, name)
    prefix = f"{where}." if where else ""
    kw = dict(base or {})
    for key, value in values.items():
        if (kind := kinds[key]) is not tuple:
            kw[key] = _number(value, kind, key, prefix)
        else:  # the one such field is the truss theta0
            _require(isinstance(value, list), f"{prefix}{key} must be a list [lam, delta]")
            kw[key] = tuple(_number(v, float, key, prefix) for v in value)
    try:
        obj = cls(**kw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}" if where else str(err)) from None
    return obj, {key: getattr(obj, key) for key in kinds}


def parse_config(raw: dict, command: str = "run") -> RunConfig:
    """The configuration of subcommand command ("run" or "estimate"), checked;
    a key that command does not read is rejected."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    keys = _COMMAND_KEYS[command]
    _reject_unknown(raw, keys, "config")
    _require("problem" in raw, "missing required field 'problem'")
    problem = raw["problem"]
    _require(isinstance(problem, str) and problem in _DEFAULTS,
             f"problem must be one of {sorted(_DEFAULTS)}, got {problem!r}")
    _require("seed" in raw, "missing required field 'seed'")
    merged = {**_DEFAULTS[problem], **raw}

    default = _DEFAULTS[problem]["estimator"]
    est = raw.get("estimator", {})
    _require(isinstance(est, dict), "estimator must be an object")
    method = est.get("method", default["method"])
    _require(isinstance(method, str) and method in _ESTIMATORS,
             f"estimator.method must be one of {sorted(_ESTIMATORS)}, got {method!r}")
    if method == default["method"]:
        est = {**default, **est}
    est_cfg, est_echo = _build(_ESTIMATORS[method],
                               {k: v for k, v in est.items() if k != "method"}, "estimator", method)
    optimizer = posthoc = None
    if command == "run":
        optimizer, echo = _build(OptimizerConfig, {k: merged[k] for k in _kinds(OptimizerConfig)
                                                   if k in merged}, "", base={"estimator": est_cfg})
        seed = optimizer.seed
        n_posthoc = _number(merged.get("posthoc_samples", McConfig.n_samples), int,
                            "posthoc_samples")
        try:
            posthoc = McConfig(n_posthoc)
        except ValueError as err:  # McConfig's n_samples is posthoc_samples in a config
            raise ConfigError(str(err).replace("n_samples", "posthoc_samples")) from None
        echo["posthoc_samples"] = posthoc.n_samples
    else:  # the same check of the seed as OptimizerConfig's
        seed = _number(raw["seed"], int, "seed")
        _require(seed >= 0, "seed must be >= 0")
        echo = {"seed": seed}
    params = raw.get("problem_params", {})
    _require(isinstance(params, dict), "problem_params must be an object")
    cls, skip, base = _PROBLEMS[problem]
    spec, params_echo = _build(cls, params, "problem_params", problem, skip, base)
    theta = raw.get("theta")  # checked against the problem by _resolve_theta
    echo = {"problem": problem, **echo, "estimator": {"method": method, **est_echo},
            "problem_params": params_echo, "theta": theta}
    echo = {key: value for key, value in echo.items() if key in keys and value is not None}
    return RunConfig(problem, est_cfg, seed, spec, echo, optimizer, posthoc, theta)


def load_config(path, command: str = "run", **overrides) -> RunConfig:
    """The config of command at path, its keys in overrides (--seed, --iterations) replaced."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at {path}:{err.lineno}:{err.colno}: {err.msg}")
    if isinstance(raw, dict):
        raw.update(overrides)
    return parse_config(raw, command)


def build_problem(cfg: RunConfig):
    """Returns (OptimizationProblem, context) for the configured example."""
    if cfg.problem == "truss":
        return truss.make_problem(cfg.problem_spec), cfg.problem_spec
    beam = fem.BeamProblem(cfg.problem_spec)
    return beam.make_problem(), beam


def _atomic_write(path: Path, writer) -> None:
    """Write via temp file + rename so interrupted runs never leave partial files."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_history_csv(path: Path, hist: RunHistory) -> None:
    """One row per iteration, p_f filled at the refreshes only; CRLF line ends, as csv writes."""
    p_cells = [""] * len(hist.objective)
    for k, p in zip(hist.p_f_iterations.tolist(), hist.p_f_values.tolist()):
        p_cells[k - 1] = f"{p:.10e}"
    columns = zip(hist.objective.tolist(), hist.objective_expected.tolist(), p_cells,
                  hist.alpha.tolist(), hist.beta_norm.tolist(), hist.failure_update.tolist())

    def writer(fh):
        fh.write("iteration,objective,objective_expected,p_f,alpha,beta_norm,failure_update\r\n")
        fh.writelines(f"{k},{obj:.10e},{expected:.10e},{p},{alpha:.10e},{beta:.10e},{update:d}\r\n"
                      for k, (obj, expected, p, alpha, beta, update) in enumerate(columns, 1))

    _atomic_write(path, writer)


def _summary_design(cfg: RunConfig, context, theta: np.ndarray, out_dir: Path) -> dict:
    if cfg.problem == "truss":
        lam, delta = float(theta[0]), float(theta[1])
        value, _ = truss.objective(lam, delta)
        _atomic_write(out_dir / "design.csv",
                      lambda fh: fh.write(f"lambda,delta\n{lam:.12e},{delta:.12e}\n"))
        return {
            "theta": [lam, delta],
            "delta_degrees": float(np.rad2deg(delta)),
            "objective": value,
        }
    rho = fem.filter_forward(context.weights, theta)
    # design.csv holds theta, the grid `rbto estimate` reads back; design.pgm pictures rho
    theta_grid, rho_grid = context.density_grid(theta), context.density_grid(rho)
    _atomic_write(out_dir / "design.csv", lambda fh: fem.write_density_csv(fh, theta_grid))
    _atomic_write(out_dir / "design.pgm", lambda fh: fem.write_density_pgm(fh, rho_grid))
    c1, _ = context.unit_solution(theta)
    return {
        "volume_fraction": float(np.mean(rho)),
        "unit_compliance": float(c1),
        "n_elements": int(context.mesh.n_elems),
        "n_solves": context.n_solves,
        "files": ["design.csv", "design.pgm"],
    }


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out_dir}: {err.strerror}") from None
    problem, context = build_problem(cfg)
    start = time.perf_counter()
    try:
        theta, hist = run_optimizer(problem, cfg.optimizer)
    except OptimizerError as err:
        write_history_csv(out_dir / "history.csv", err.history)
        print(f"numerical failure at iteration {err.iteration}: {err}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    # post-run check with a fresh high-accuracy Monte Carlo call, its batch drawn
    # while history.csv is written (kept if the check fails)
    stream = SampleStream(cfg.seed, ("posthoc",))
    draw = start_draw(problem.random_input, cfg.posthoc, stream)
    write_history_csv(out_dir / "history.csv", hist)
    posthoc = run_estimator(problem.limit_state, theta, problem.random_input, cfg.posthoc, stream, draw)

    summary = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "design": _summary_design(cfg, context, theta, out_dir),
        "final_p_f": posthoc.p_hat,
        "posthoc_samples": cfg.posthoc.n_samples,
        "n_exact_g_evals": hist.n_exact_g_evals,
        "n_objective_evals": cfg.optimizer.iterations * cfg.optimizer.n,
        "wall_time_s": wall,
        "config": cfg.echo,
    }
    _atomic_write(out_dir / "summary.json",
                  lambda fh: fh.write(json.dumps(summary, indent=2) + "\n"))
    print(f"run complete: final P_F = {posthoc.p_hat:.4e} "
          f"({hist.n_exact_g_evals} exact g evaluations)")
    return 0


def _resolve_theta(cfg: RunConfig, problem, context) -> np.ndarray:
    """The estimate subcommand's design: `theta` checked against the problem, or theta0."""
    spec = cfg.theta
    if spec is None:
        return problem.theta0
    if isinstance(spec, list):
        theta = np.array([_number(v, float, f"theta[{i}]") for i, v in enumerate(spec)])
    else:
        _require(isinstance(spec, dict) and set(spec) == {"csv"},
                 "theta must be a list or {'csv': path}")
        path = spec["csv"]
        _require(isinstance(path, str) and os.path.isfile(path), f"theta.csv: no file {path!r}")
        try:
            lines = Path(path).read_text().splitlines()
            if lines[:1] == ["lambda,delta"]:  # the header of a truss run's design.csv
                lines = lines[1:]
            grid = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ConfigError(f"theta.csv: {err}") from None
        if cfg.problem == "truss":
            theta = grid.ravel()
        else:
            nx, ny = context.mesh.grid_shape
            _require(grid.shape == (ny, nx), f"theta.csv must hold a {ny} x {nx} grid")
            ex, ey = context.mesh.elem_grid[:, 0], context.mesh.elem_grid[:, 1]
            theta = grid[ny - 1 - ey, ex]
    _require(theta.shape == problem.theta0.shape, f"theta must have {problem.theta0.size} entries")
    outside = np.flatnonzero(~((problem.lower <= theta) & (theta <= problem.upper)))  # NaN too
    if outside.size:
        i = outside[0]
        raise ConfigError(f"theta[{i}] = {theta[i]:g} lies outside the design box "
                          f"[{problem.lower[i]:g}, {problem.upper[i]:g}]")
    return theta


def cmd_estimate(cfg: RunConfig) -> int:
    problem, context = build_problem(cfg)
    theta = _resolve_theta(cfg, problem, context)
    try:
        result = run_estimator(
            problem.limit_state, theta, problem.random_input, cfg.estimator,
            SampleStream(cfg.seed, ("estimate",)),
        )
    except SubsetStallError as err:
        print(f"estimator stalled: {err}", file=sys.stderr)
        print(f"partial p_hat = {err.estimate.p_hat:.6e}", file=sys.stderr)
        return 3
    print(f"method           : {result.method}")
    print(f"p_hat            : {result.p_hat:.6e}")
    print(f"exact evals      : {result.n_exact_evals}")
    print(f"surrogate evals  : {result.n_surrogate_evals}")
    if result.method == "subset":
        ladder = " > ".join(f"{b:.6g}" for b in result.thresholds)
        print(f"levels           : {result.levels}")
        print(f"threshold ladder : {ladder}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbto", description="Reliability-based topology optimization runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run, estimate = sub.add_parser("run"), sub.add_parser("estimate")
    for cmd in (run, estimate):
        cmd.add_argument("config", help="path to JSON configuration")
        cmd.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", default=".", help="output directory (default: '.')")
    run.add_argument("--iterations", type=int, help="override iteration count")
    args = parser.parse_args(argv)

    overrides = {key: getattr(args, key) for key in ("seed", "iterations")
                 if getattr(args, key, None) is not None}
    try:
        cfg = load_config(args.config, args.command, **overrides)
        if args.command == "run":
            return cmd_run(cfg, Path(args.out))
        return cmd_estimate(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FloatingPointError as err:  # a singular FE system or a failed fit
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
