"""Command-line runner: JSON run configurations, history/design/summary outputs.

Subcommands:
    run <config.json>       optimize and write history.csv, design files, summary.json
    estimate <config.json>  one failure-probability estimate at a fixed design

A robust run is one with kappa_f 0, which never refreshes the failure probability.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fem, truss
from .reliability import (
    HybridConfig,
    McConfig,
    SubsetConfig,
    SubsetStallError,
    estimate as run_estimator,
)
from .sampling import SampleStream
from .sgd import OptimizerConfig, OptimizerError, RunHistory, run as run_optimizer


class ConfigError(ValueError):
    pass


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


_ESTIMATORS = {"mc": McConfig, "subset": SubsetConfig, "hybrid": HybridConfig}
_ESTIMATOR_KEYS = {method: {"method"} | _field_names(cls) for method, cls in _ESTIMATORS.items()}

_BEAM_KEYS = _field_names(fem.BeamConfig) - {"variant"}
_PROBLEM_KEYS = {  # each beam variant takes only its own mesh size
    "truss": _field_names(truss.TrussProblem),
    "beam": _BEAM_KEYS - {"n_grid"},
    "lbeam": _BEAM_KEYS - {"nx", "ny"},
}

_OPTIMIZER_KEYS = _field_names(OptimizerConfig) - {"estimator"}
_TOP_KEYS = _field_names(OptimizerConfig) | {
    "problem", "problem_params", "posthoc_samples", "theta",
}
# keys whose dataclass field is an int (a string under postponed annotations)
_INT_KEYS = {"posthoc_samples"} | {
    f.name
    for cls in (OptimizerConfig, *_ESTIMATORS.values(), truss.TrussProblem, fem.BeamConfig)
    for f in fields(cls) if f.type in (int, "int")
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
    """A validated run configuration: the objects built from it, and `echo`, every
    value the run uses, read back from those objects, which re-parses to an equal
    RunConfig."""

    problem: str
    optimizer: OptimizerConfig
    posthoc: McConfig
    problem_spec: truss.TrussProblem | fem.BeamConfig
    echo: dict
    theta: list | dict | None = None  # estimate subcommand: fixed design

    # the benchmark harness reads these two off load_config
    @property
    def p_a(self) -> float:
        return self.optimizer.p_a

    @property
    def m(self) -> int:
        return self.optimizer.m


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _values(obj, keys: set) -> dict:
    """The fields of the dataclass obj named in keys, in field order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name in keys}


def _number(value, key: str, where: str = ""):
    """value as the int or float its key's field declares; a ConfigError naming the key otherwise."""
    if type(value) not in (int, float):  # a JSON true/false is not a number
        raise ConfigError(f"{where}{key} must be a number, got {value!r}")
    if key not in _INT_KEYS:
        if not abs(value) <= sys.float_info.max:  # NaN, Infinity (json.load accepts both), huge ints
            raise ConfigError(f"{where}{key} must be finite, got {value!r}")
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}{key} must be an integer, got {value!r}")
    return int(value)


def _problem_spec(problem: str, params: dict) -> truss.TrussProblem | fem.BeamConfig:
    """The problem's validated parameters; keys left out keep the problem's defaults."""
    kw = {}
    for key, value in params.items():
        if problem == "truss" and key == "theta0":
            _require(isinstance(value, list), "problem_params.theta0 must be a list [lam, delta]")
            kw[key] = tuple(_number(v, key, "problem_params.") for v in value)
        else:
            kw[key] = _number(value, key, "problem_params.")
    try:
        if problem == "truss":
            return truss.TrussProblem(**kw)
        if problem == "beam":
            return fem.BeamConfig(variant="rect", **kw)
        return fem.lbeam_config(**kw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"problem_params: {err}") from None


def _check_theta(spec) -> list | dict | None:
    """The estimate subcommand's design: a list of numbers, {"uniform": v} or {"csv": path}."""
    if spec is None:
        return None
    if isinstance(spec, list):
        return [_number(v, f"theta[{i}]") for i, v in enumerate(spec)]
    _require(isinstance(spec, dict) and len(spec) == 1 and set(spec) <= {"uniform", "csv"},
             "theta must be a list, {'uniform': v}, or {'csv': path}")
    if "uniform" in spec:
        return {"uniform": _number(spec["uniform"], "uniform", "theta.")}
    path = spec["csv"]
    _require(isinstance(path, str) and os.path.isfile(path), f"theta.csv: no file {path!r}")
    return spec


def parse_config(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    _require("problem" in raw, "missing required field 'problem'")
    problem = raw["problem"]
    _require(isinstance(problem, str) and problem in _DEFAULTS,
             f"problem must be one of {sorted(_DEFAULTS)}, got {problem!r}")
    _require("seed" in raw, "missing required field 'seed'")

    est = dict(_DEFAULTS[problem]["estimator"])
    if "estimator" in raw:
        _require(isinstance(raw["estimator"], dict), "estimator must be an object")
        user_est = dict(raw["estimator"])
        method = user_est.get("method", est["method"])
        _require(isinstance(method, str) and method in _ESTIMATOR_KEYS,
                 f"estimator.method must be one of {sorted(_ESTIMATOR_KEYS)}, got {method!r}")
        if method != est["method"]:
            est = {"method": method}
        _reject_unknown(user_est, _ESTIMATOR_KEYS[method], f"estimator ({method})")
        est.update(user_est)
    params = raw.get("problem_params", {})
    _require(isinstance(params, dict), "problem_params must be an object")
    _reject_unknown(params, _PROBLEM_KEYS[problem], f"problem_params ({problem})")
    merged = {**_DEFAULTS[problem], **raw}

    method = est.pop("method")
    est_kw = {key: _number(v, key, "estimator.") for key, v in est.items()}
    try:
        est_cfg = _ESTIMATORS[method](**est_kw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"estimator: {err}") from None
    opt_kw = {key: _number(merged[key], key) for key in _OPTIMIZER_KEYS if key in merged}
    posthoc_kw = ({"n_samples": _number(merged["posthoc_samples"], "posthoc_samples")}
                  if "posthoc_samples" in merged else {})
    try:
        optimizer = OptimizerConfig(estimator=est_cfg, **opt_kw)
        posthoc = McConfig(**posthoc_kw)
    except ValueError as err:
        raise ConfigError(str(err).replace("n_samples", "posthoc_samples")) from None
    spec = _problem_spec(problem, params)
    theta = _check_theta(merged.get("theta"))
    echo = {"problem": problem, **_values(optimizer, _OPTIMIZER_KEYS),
            "posthoc_samples": posthoc.n_samples,
            "estimator": {"method": method, **_values(est_cfg, _ESTIMATOR_KEYS[method])},
            "problem_params": _values(spec, _PROBLEM_KEYS[problem])}
    if theta is not None:
        echo["theta"] = theta

    return RunConfig(
        problem=problem,
        optimizer=optimizer,
        posthoc=posthoc,
        problem_spec=spec,
        echo=echo,
        theta=theta,
    )


def load_config(path, **overrides) -> RunConfig:
    """The config at path, with the keys in overrides (the --seed/--iterations flags) replaced."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at {path}:{err.lineno}:{err.colno}: {err.msg}")
    if isinstance(raw, dict):
        raw.update(overrides)
    return parse_config(raw)


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
    grid = context.density_grid(rho)
    _atomic_write(out_dir / "design.csv", lambda fh: fem.write_density_csv(fh, grid))
    _atomic_write(out_dir / "design.pgm", lambda fh: fem.write_density_pgm(fh, grid))
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
        if err.history is not None:
            write_history_csv(out_dir / "history.csv", err.history)
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    write_history_csv(out_dir / "history.csv", hist)  # kept if the post-hoc check fails

    # post-run check with a fresh high-accuracy Monte Carlo call
    posthoc = run_estimator(
        problem.limit_state, theta, problem.random_input,
        cfg.posthoc, SampleStream(cfg.optimizer.seed, ("posthoc",)),
    )

    summary = {
        "problem": cfg.problem,
        "seed": cfg.optimizer.seed,
        "design": _summary_design(cfg, context, theta, out_dir),
        "final_p_f": posthoc.p_hat,
        "posthoc_samples": cfg.posthoc.n_samples,
        "n_exact_g_evals": hist.n_exact_g_evals,
        "n_objective_evals": hist.n_objective_evals,
        "wall_time_s": wall,
        "config": cfg.echo,
    }
    _atomic_write(out_dir / "summary.json",
                  lambda fh: fh.write(json.dumps(summary, indent=2) + "\n"))
    print(f"run complete: final P_F = {posthoc.p_hat:.4e} "
          f"({hist.n_exact_g_evals} exact g evaluations)")
    return 0


def _resolve_theta(cfg: RunConfig, problem, context) -> np.ndarray:
    spec = cfg.theta
    if spec is None:
        return problem.theta0
    if isinstance(spec, list):
        theta = np.asarray(spec)
    elif "uniform" in spec:
        theta = np.full(problem.dim, spec["uniform"])
    else:
        try:
            lines = Path(spec["csv"]).read_text().splitlines()
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
    _require(theta.shape == (problem.dim,), f"theta must have {problem.dim} entries")
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
            problem.limit_state, theta, problem.random_input, cfg.optimizer.estimator,
            SampleStream(cfg.optimizer.seed, ("estimate",)),
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
        prog="rbto",
        description="Reliability-based topology optimization runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "estimate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to JSON run configuration")
        cmd.add_argument("--out", default=".", help="output directory (default: '.')")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--iterations", type=int, help="override iteration count")
    args = parser.parse_args(argv)

    overrides = {key: getattr(args, key) for key in ("seed", "iterations")
                 if getattr(args, key) is not None}
    try:
        cfg = load_config(args.config, **overrides)
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
