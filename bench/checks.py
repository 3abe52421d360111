"""Checks of the benchmark's own code: the FE oracle, the tracer, the output check.

Run with `python3 -m pytest bench/checks.py` from the repository root. The
file name does not match `test_*.py`, so the default test collection never
runs these workloads.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rbto  # noqa: E402
from rbto import cli, fem  # noqa: E402
from rbto.reliability import mc_estimate  # noqa: E402
from rbto.sampling import SampleStream  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SMALL_BEAM = {
    "problem": "beam", "seed": 3, "iterations": 30, "posthoc_samples": 2000,
    "problem_params": {"nx": 30, "ny": 10},
}
SMALL_TRUSS = {"problem": "truss", "seed": 3, "iterations": 300,
               "estimator": {"method": "hybrid", "n_samples": 20000, "gamma": 2.5}}


def _uniform_design_at(beam: fem.BeamProblem, p_f: float) -> np.ndarray:
    """Uniform design whose exact P_F is p_f, by bisection on the density."""
    lo, hi = 0.3, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        c1, _ = beam.unit_solution(np.full(beam.mesh.n_elems, mid))
        if oracle.fe_failure_probability(c1, beam.config) > p_f:
            lo = mid
        else:
            hi = mid
    return np.full(beam.mesh.n_elems, hi)


def test_fe_oracle_matches_monte_carlo():
    beam = fem.BeamProblem(fem.BeamConfig(nx=30, ny=10))
    theta = _uniform_design_at(beam, 1e-3)
    c1, _ = beam.unit_solution(theta)
    exact = oracle.fe_failure_probability(c1, beam.config)
    assert exact == pytest.approx(oracle.fe_failure_probability(c1, beam.config, nodes=160), rel=1e-6)
    n = 4 * 10**6
    mc = mc_estimate(beam.limit_state, theta, beam.random_input, n, SampleStream(11)).p_hat
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(mc - exact) < 4.0 * sigma, (mc, exact, sigma)


def _run(config: dict, out: Path, tmp_path: Path) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return rbto.cli.main(["run", str(path), "--out", str(out)])


@pytest.mark.parametrize("config", [SMALL_TRUSS, SMALL_BEAM], ids=["truss", "beam"])
def test_traced_run_matches_untraced(config, tmp_path):
    assert _run(config, tmp_path / "plain", tmp_path) == 0
    probe_list = tracing.probes(rbto)
    originals = [vars(p.owner)[p.attr] for p in probe_list]
    with tracing.install(probe_list) as tracer:
        start = perf_counter()
        assert _run(config, tmp_path / "traced", tmp_path) == 0
        wall = perf_counter() - start

    for name in ("history.csv", "design.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    for p, original in zip(probe_list, originals):
        assert vars(p.owner)[p.attr] is original, f"{p.owner.__name__}.{p.attr} not restored"
    top = tracer.top_level_seconds()
    assert 0.99 * wall - 1e-3 <= top <= wall
    spans = tracer.by_name()
    assert spans["cli.main"]["calls"] == 1
    assert spans["sgd.step"]["calls"] == config["iterations"]


def test_every_module_is_probed():
    spans = {p.span.split(".")[0] for p in tracing.probes(rbto) if p.span}
    assert spans >= {"sampling", "pce", "reliability", "failure_density", "sgd", "truss", "fem", "cli"}


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.layer_metrics(tracing.Tracer())) == declared - {"trace.overhead"}

    bench = harness.Bench(ROOT, "truss-hybrid", 0, tmp_path)
    bench.time_setup()
    rep = harness.Rep(0, True, "", 1.0, {"wall_time_s": 1.0})
    bench.reps.append(rep)
    bench.quality[0] = {"exact_g_evals": 1, "beta_ratio": 1.0, "objective": 1.0}
    metrics = harness.end_to_end_metrics(bench, {"timed": [rep]}, 1.0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}


def test_times_are_scaled_by_the_speed_around_them(tmp_path):
    reading = speed.reading()
    assert set(reading) == set(speed.REFERENCE_S)
    assert all(0.0 < v < 10.0 for v in reading.values())

    bench = harness.Bench(ROOT, "truss-hybrid", 0, tmp_path)
    bench.speeds = [{"python": 0.5, "array": 0.5}, {"python": 1.0, "array": 2.0}]
    bench.setup_bursts = [(4e-5, 0), (2e-5, 1)]
    rep = harness.Rep(0, True, "", 3.0, {"wall_time_s": 2.0}, block=0)
    raw = harness.wall_times(bench, {"timed": [rep]}, normalized=False)
    scaled = harness.wall_times(bench, {"timed": [rep]}, normalized=True)
    assert raw["setup_s"] == [4e-5, 2e-5] and scaled["setup_s"] == pytest.approx([2e-5, 2e-5])
    assert raw["run_s"] == [3.0] and scaled["run_s"] == pytest.approx([3.0])  # sqrt(0.5 * 2.0) = 1
    assert scaled["iter_ms"] == pytest.approx([1e3 * 2.0 / bench.workload.iterations])


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner", None)
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer", None)
    outer()
    spans = tracer.by_name()
    assert spans["inner"]["calls"] == 3
    assert spans["outer"]["self_ms"] == pytest.approx(spans["outer"]["ms"] - spans["inner"]["ms"])
    assert spans["inner"]["self_ms"] == pytest.approx(spans["inner"]["ms"])
    assert tracer.top_level_seconds() * 1e3 == pytest.approx(spans["outer"]["ms"])


def test_missing_probe_is_skipped_and_reported():
    probe_list = [tracing.Probe(fem, "no_such_function", "fem.none"),
                  tracing.Probe(fem, "filter_forward", "fem.filter")]
    original = fem.filter_forward
    with tracing.install(probe_list) as tracer:
        assert fem.filter_forward is not original
    assert tracer.missing == ["rbto.fem.no_such_function"]
    assert fem.filter_forward is original and not hasattr(fem, "no_such_function")


def test_computed_counters_follow_argument_shapes():
    probe_list = tracing.probes(rbto)
    with tracing.install(probe_list) as tracer:
        ab = np.zeros((4, 10))
        ab[-1] = 1.0
        fem.cholesky_banded(ab, lower=False)
        rbto.pce.basis_matrix(np.zeros((7, 2)), rbto.pce.multi_indices(2, 2))
    assert tracer.counters["fem.factor_flop"] == 10 * 3**2
    assert tracer.counters["pce.basis_bytes"] == 7 * 6 * 8


def test_output_check_flags_broken_runs(tmp_path):
    bench = harness.Bench(ROOT, "truss-hybrid", 0, tmp_path)
    bench.context = cli.build_problem(cli.load_config(bench.config_path))[1]
    out = tmp_path / "run"
    config = json.loads(bench.config_path.read_text())
    config["iterations"] = bench.workload.iterations
    assert _run(config, out, tmp_path) == 0
    assert bench.check(config["seed"], 0, out, 1.0).ok
    assert not bench.check(config["seed"], 3, out, 1.0).ok

    history = (out / "history.csv").read_text().splitlines()
    (out / "history.csv").write_text("\n".join(history[:-1]) + "\n")
    assert "rows" in bench.check(config["seed"], 0, out, 1.0).reason
    (out / "history.csv").write_text("\n".join(history[:-1] + [history[-1].replace(",", ",nan,", 1)]) + "\n")
    assert not bench.check(config["seed"], 0, out, 1.0).ok
    (out / "history.csv").write_text("\n".join(history) + "\n")
    (out / "design.csv").write_text("lambda,delta\n0.5,0.7\n")
    assert "differ" in bench.check(config["seed"], 0, out, 1.0).reason
    (out / "summary.json").unlink()
    assert "missing" in bench.check(config["seed"], 0, out, 1.0).reason


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "truss-hybrid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
