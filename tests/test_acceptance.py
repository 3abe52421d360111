"""Acceptance suite: one test per criterion, shared fixtures for long runs.

Every optimization runs a shipped config (`configs/*.json`) through `rbto run`
in-process, with only the keys a criterion varies overridden, and the
criteria read the run's own outputs: J*, the design and the post-hoc P_F
from summary.json, the stabilization from history.csv's objective_expected.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The full suite takes about 4 minutes on a 2-vCPU host with one
BLAS thread (241 s measured); the beam and L-bracket optimizations dominate.
"""
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from rbto import cli, fem, truss
from rbto.pce import basis_matrix, fit_least_squares, multi_indices
from rbto.reliability import (
    LimitState,
    SubsetConfig,
    mc_estimate,
    hybrid_estimate,
    subset_estimate,
)
from rbto.sampling import Normal, RandomInput, SampleStream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
U1 = RandomInput((Normal(),))
TRUSS = truss.TrussProblem()
REF_DESIGN = (0.3425, np.deg2rad(43.25))
REF_J = {1e-3: 0.4702, 1e-4: 0.6428, 1e-5: 0.8184}


def report(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


def rbto_run(tmp_path_factory, config: str, **overrides) -> Path:
    """The output directory of `rbto run` on a shipped config with the given keys replaced."""
    out = tmp_path_factory.mktemp(Path(config).stem)
    assert cli.cmd_run(cli.load_config(CONFIGS / config, **overrides), out) == 0
    return out


def summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def beam_runs(tmp_path_factory, config: str) -> dict:
    """The reliability-constrained run of a beam config and its robust twin (kappa_f 0)."""
    return {"rbto": rbto_run(tmp_path_factory, config),
            "robust": rbto_run(tmp_path_factory, config, kappa_f=0.0)}


@pytest.fixture(scope="module")
def truss_runs(tmp_path_factory):
    """summary.json of each truss optimization criteria 1-3 need, keyed by (kappa, m, p_a)."""
    keys = [(kappa, 100, 1e-3) for kappa in (500.0, 2500.0, 5000.0)]
    keys += [(2500.0, 500, 1e-3), (2500.0, 100, 1e-4), (2500.0, 100, 1e-5)]
    return {
        (kappa, m, p_a): summary(rbto_run(tmp_path_factory, "truss_hybrid.json",
                                          kappa_f=kappa, m=m, p_a=p_a))
        for kappa, m, p_a in keys
    }


@pytest.fixture(scope="module")
def rect_beam_runs(tmp_path_factory):
    # The half-beam run is not settled at every seed. Its refreshed P_F stays
    # near 1.3 p_a, so the penalty hardly ever switches off, and the learned
    # beta, 1.9-2.8 times larger on void than on solid elements, pushes in
    # grey material that leaves the compliance, and so P_F, unchanged while
    # the expected objective climbs. At the config's seed the trailing windows
    # agree within 0.02%; at seeds 4, 5 and 9 of 1 to 10 they differ by 3.1-5.8%.
    return beam_runs(tmp_path_factory, "beam_rect.json")


@pytest.fixture(scope="module")
def lshape_beam_runs(tmp_path_factory):
    # The penalty follows the smoothed log ratio of the refreshed estimates,
    # so the L-bracket run settles near the constraint boundary instead of
    # cycling around it: at each seed from 1 to 10 its trailing windows agree
    # within 1.5%, and at seeds 1 to 5 its post-hoc P_F lies inside the band.
    return beam_runs(tmp_path_factory, "beam_lshape.json")


def test_criterion_1_truss_benchmark_reproduction(truss_runs):
    r = truss_runs[(2500.0, 100, 1e-3)]
    j, p_f = r["design"]["objective"], r["final_p_f"]  # post-hoc MC of 10^6 samples
    assert 0.44 <= j <= 0.50
    assert 5e-4 <= p_f <= 2e-3
    report(1, f"J* = {j:.4f} in [0.44, 0.50]; "
              f"post-hoc MC P_F = {p_f:.3e} in [5e-4, 2e-3]")


def test_criterion_2_penalty_and_interval_sensitivity(truss_runs):
    runs = [truss_runs[(k, 100, 1e-3)]["design"] for k in (500.0, 2500.0, 5000.0)]
    js = [r["objective"] for r in runs]
    pfs = [truss.failure_probability(TRUSS, *r["theta"]) for r in runs]
    assert js[0] <= js[1] <= js[2], f"J* not monotone in kappa_f: {js}"
    assert pfs[0] >= pfs[1] >= pfs[2], f"P_F not monotone in kappa_f: {pfs}"
    assert all(p >= 1e-3 * 0.5 for p in pfs)

    dev_m100 = abs(truss_runs[(2500.0, 100, 1e-3)]["design"]["objective"] - REF_J[1e-3])
    dev_m500 = abs(truss_runs[(2500.0, 500, 1e-3)]["design"]["objective"] - REF_J[1e-3])
    assert dev_m500 > dev_m100
    report(2, f"J* monotone over kappa {js[0]:.4f} <= {js[1]:.4f} <= {js[2]:.4f}; "
              f"P_F non-increasing {pfs[0]:.2e} >= {pfs[1]:.2e} >= {pfs[2]:.2e}; "
              f"m=500 deviation {dev_m500:.4f} > m=100 deviation {dev_m100:.4f}")


def test_criterion_3_tight_allowable_probabilities(truss_runs):
    msgs = []
    for p_a in (1e-4, 1e-5):
        r = truss_runs[(2500.0, 100, p_a)]["design"]
        j, p_f = r["objective"], truss.failure_probability(TRUSS, *r["theta"])
        assert abs(j - REF_J[p_a]) <= 0.03, f"p_a={p_a}: J*={j:.4f} vs reference {REF_J[p_a]}"
        assert p_a / 2 <= p_f <= 2 * p_a, f"p_a={p_a}: oracle P_F={p_f:.3e}"
        msgs.append(f"p_a={p_a:g}: J*={j:.4f} (ref {REF_J[p_a]}), P_F/p_a={p_f / p_a:.2f}")
    report(3, "; ".join(msgs))


def test_criterion_4_subset_calibration():
    cfg = SubsetConfig(n_samples=1000)
    estimates, count_errors = [], []
    for rep in range(50):
        g = LimitState(lambda t, xis: 3.0 - xis[:, 0])
        est = subset_estimate(g, None, U1, cfg, SampleStream(4000 + rep))
        estimates.append(est.p_hat)
        claimed = 1000 + est.levels * 1000
        count_errors.append(abs(est.n_exact_evals - claimed) / claimed)
    mean_p = float(np.mean(estimates))
    assert 0.9e-3 <= mean_p <= 1.9e-3
    assert max(count_errors) <= 0.10
    report(4, f"mean p_hat over 50 runs = {mean_p:.4e} in [0.9e-3, 1.9e-3] "
              f"(exact {stats.norm.cdf(-3):.4e}); "
              f"worst eval-count deviation {max(count_errors):.1%} <= 10%")


def test_criterion_5_hybrid_estimator_fidelity():
    g_h = LimitState(lambda t, xis: truss.limit_state(TRUSS, *REF_DESIGN, xis[:, 0]))
    hyb = hybrid_estimate(  # the shipped truss config's estimator settings
        g_h, None, U1, cli.load_config(CONFIGS / "truss_hybrid.json").optimizer.estimator,
        SampleStream(51),
    )
    g_m = LimitState(lambda t, xis: truss.limit_state(TRUSS, *REF_DESIGN, xis[:, 0]))
    ref = mc_estimate(g_m, None, U1, 10**6, SampleStream(52))
    rel = abs(hyb.p_hat - ref.p_hat) / ref.p_hat
    assert rel <= 0.20
    assert hyb.n_exact_evals < 0.01 * 10**6
    report(5, f"hybrid {hyb.p_hat:.3e} vs MC {ref.p_hat:.3e} "
              f"({rel:.1%} relative, <= 20%); "
              f"{hyb.n_exact_evals} exact evals < 1% of 1e6")


def test_criterion_6_gradient_correctness():
    # FEM objective gradient through material law, filter, and mass term
    bp = fem.BeamProblem(fem.BeamConfig(nx=6, ny=2))
    rng = SampleStream(61).child("fd").rng()
    xi = np.array([0.3, 1.05])
    step = 1e-6
    worst_fem = 0.0
    for _ in range(10):
        theta = rng.uniform(0.2, 0.95, bp.mesh.n_elems)
        _, grad = bp.objective_batch(theta, xi[None])
        for i in rng.choice(bp.mesh.n_elems, size=3, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += step
            tm[i] -= step
            fd = (bp.objective_batch(tp, xi[None])[0] - bp.objective_batch(tm, xi[None])[0]) / (2 * step)
            worst_fem = max(worst_fem, abs(grad[i] - fd) / abs(fd))
    assert worst_fem < 1e-4

    worst_truss = 0.0
    h = 1e-7
    for lam, delta in [(0.3, 0.7), (0.5, 0.9), (0.15, 0.5)]:
        _, grad = truss.objective(lam, delta)
        fd0 = (truss.objective(lam + h, delta)[0] - truss.objective(lam - h, delta)[0]) / (2 * h)
        fd1 = (truss.objective(lam, delta + h)[0] - truss.objective(lam, delta - h)[0]) / (2 * h)
        worst_truss = max(worst_truss, abs(grad[0] - fd0) / abs(fd0),
                          abs(grad[1] - fd1) / abs(fd1))
    assert worst_truss < 1e-8
    report(6, f"FEM objective FD max relative error {worst_fem:.2e} < 1e-4; "
              f"truss gradient FD max relative error {worst_truss:.2e} < 1e-8")


def test_criterion_7_pce_exact_recovery():
    idx = multi_indices(2, 4)
    worst = 0.0
    for rep in range(5):
        rng = SampleStream(70 + rep).child("pce").rng()
        coef_true = rng.standard_normal(len(idx))
        u = rng.standard_normal((2 * len(idx), 2))
        values = basis_matrix(u, idx) @ coef_true
        model = fit_least_squares(u, values, idx)
        worst = max(worst, np.abs(model.coefficients - coef_true).max())
    assert worst < 1e-10
    report(7, f"degree-4 polynomials recovered with n_fit = 2x basis size, "
              f"max coefficient error {worst:.2e} < 1e-10")


def trailing_mean_change(out: Path, window: int = 500) -> float:
    # evaluated on the exact expected-objective trace: the mini-batch trace
    # carries ~28% per-point sampling noise for the L-bracket (n=4, 50% load
    # fluctuation), which alone exceeds the stabilization tolerance
    with open(out / "history.csv", newline="") as fh:
        objective = np.array([float(row["objective_expected"]) for row in csv.DictReader(fh)])
    recent = objective[-window:].mean()
    previous = objective[-2 * window : -window].mean()
    return abs(recent - previous) / abs(previous)


def beam_criterion(runs: dict) -> str:
    """Asserts criteria 8 and 9 on the runs' outputs; the PASS line's figures."""
    p_f, robust_p_f = (summary(runs[mode])["final_p_f"] for mode in ("rbto", "robust"))
    stab = trailing_mean_change(runs["rbto"])
    assert 5e-4 <= p_f <= 5e-3, f"RBTO post-hoc P_F {p_f:.3e}"
    assert robust_p_f >= 5e-3, f"robust post-hoc P_F {robust_p_f:.3e}"
    assert stab < 0.02
    return (f"RBTO P_F = {p_f:.3e} in [5e-4, 5e-3]; robust P_F = {robust_p_f:.3e} >= 5e-3; "
            f"trailing-500 objective change {stab:.2%} < 2%")


def test_criterion_8_rect_beam_rbto(rect_beam_runs):
    report(8, "beam " + beam_criterion(rect_beam_runs))


def test_criterion_9_lshape_beam_rbto(lshape_beam_runs):
    report(9, "L-bracket " + beam_criterion(lshape_beam_runs))


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "problem": "truss",
        "seed": 10,
        "iterations": 300,
        "m": 50,
        "estimator": {"method": "subset", "n_samples": 500},
        "posthoc_samples": 20000,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "design.csv").read_bytes() == (out2 / "design.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    # wall time is the single nondeterministic record
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2
    report(10, "repeat run: history.csv and design.csv bit-identical, "
               "summary.json identical apart from wall time")
