import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbto import sgd
from rbto.reliability import HybridConfig, LimitState, McConfig
from rbto.sampling import Normal, RandomInput, SampleStream
from rbto.sgd import (
    OptimizationProblem,
    OptimizerConfig,
    OptimizerError,
    run,
    stochastic_gradient,
)
from rbto import truss
from rbto.fem import BeamConfig, BeamProblem, SolverError
from rbto.sampling import DRAW_BLOCK

U1 = RandomInput((Normal(),))


def quadratic_problem(target=(0.3, -0.2), noise=0.0, dim=2):
    """f(theta; xi) = |theta - target|^2 / 2 + noise * xi * theta_0, batch-averaged;
    its expectation over the standard-normal xi is the first term."""
    target = np.asarray(target, dtype=float)

    def objective(theta, xis):
        xi_bar = float(np.mean(xis[:, 0]))
        grad = theta - target + noise * xi_bar * np.eye(dim)[0]
        val = 0.5 * float((theta - target) @ (theta - target)) + noise * xi_bar * theta[0]
        return val, grad

    return OptimizationProblem(
        theta0=np.zeros(dim),
        lower=-np.ones(dim),
        upper=np.ones(dim),
        random_input=U1,
        objective_batch=objective,
        limit_state=LimitState(lambda t, x: np.ones(len(x))),
        objective_expected=lambda theta: 0.5 * float((theta - target) @ (theta - target)),
    )


def small_config(**over):
    base = dict(
        eta=0.05, n=1, m=10, kappa_f=0.0, p_a=1e-3, iterations=400,
        estimator=McConfig(100), seed=1,
    )
    base.update(over)
    return OptimizerConfig(**base)


class TestProject:
    """Each step of sgd.run is clipped onto the design box [-1, 1]^2."""

    def test_clips_below(self):
        theta, _ = run(quadratic_problem(target=(-5.0, -5.0)), small_config(iterations=50))
        assert np.array_equal(theta, [-1.0, -1.0])

    def test_interior_unchanged(self):
        target = np.array([0.3, -0.2])
        cfg = small_config(iterations=50)
        theta, _ = run(quadratic_problem(target=target), cfg)
        expected = np.zeros(2)
        for _ in range(cfg.iterations):  # the unprojected descent
            expected = expected - cfg.eta * (expected - target)
        assert np.array_equal(theta, expected)

    def test_clips_above(self):
        theta, _ = run(quadratic_problem(target=(5.0, 5.0)), small_config(iterations=50))
        assert np.array_equal(theta, [1.0, 1.0])

    @given(x=st.floats(1.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, x):
        # a design on the bound, pulled outward, stays exactly on it
        prob = quadratic_problem(target=(x, -x))
        prob.theta0 = np.array([1.0, -1.0])
        theta, _ = run(prob, small_config(iterations=3))
        assert np.array_equal(theta, prob.theta0)


class TestStochasticGradient:
    def test_single_sample_no_penalty_is_objective_gradient(self):
        prob = quadratic_problem()
        theta = np.array([0.1, 0.1])
        xi = np.array([[0.5]])
        h, _ = stochastic_gradient(prob, theta, xi, np.zeros(2))
        _, grad = prob.objective_batch(theta, xi)
        assert np.allclose(h, grad)

    def test_matches_finite_differences_of_sampled_objective(self):
        # fixed batch, frozen penalty term: h is the gradient of the batch-mean
        # penalized objective
        prob = quadratic_problem(noise=0.3)
        theta = np.array([0.2, -0.1])
        batch = np.array([[0.4], [-1.2], [0.7]])
        frozen = np.array([0.011, -0.007])

        def sampled_objective(th):
            tot = sum(prob.objective_batch(th, xi[None])[0] for xi in batch)
            return tot / len(batch) + frozen @ th

        h, _ = stochastic_gradient(prob, theta, batch, frozen)
        step = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (sampled_objective(theta + e) - sampled_objective(theta - e)) / (2 * step)
            assert h[i] == pytest.approx(fd, rel=1e-5)


class TestRun:
    def test_plain_descent_reaches_quadratic_minimum(self):
        prob = quadratic_problem(target=(0.3, -0.2))
        theta, _ = run(prob, small_config(iterations=2000))
        assert np.abs(theta - np.array([0.3, -0.2])).max() < 1e-4

    def test_zero_kappa_f_never_estimates(self):
        prob = quadratic_problem()
        calls = {"n": 0}
        orig = prob.limit_state.batch

        def counting(theta, xis):
            calls["n"] += len(np.atleast_2d(xis))
            return orig(theta, xis)

        prob.limit_state.batch = counting
        _, hist = run(prob, small_config(kappa_f=0.0, iterations=50, n=2))
        assert hist.p_f_iterations.size == 0
        assert calls["n"] == 0  # a robust run evaluates no limit state

    def test_iterates_stay_in_box(self):
        prob = quadratic_problem(target=(5.0, 5.0))  # pull toward outside the box
        theta, _ = run(prob, small_config(iterations=300))
        assert np.all(theta >= prob.lower - 1e-15)
        assert np.all(theta <= prob.upper + 1e-15)

    def test_fixed_seed_bit_identical_history(self):
        prob1 = truss.make_problem()
        prob2 = truss.make_problem()
        cfg = small_config(kappa_f=2500.0, iterations=120, m=20, eta=1e-5,
                           estimator=McConfig(2000), seed=77)
        t1, h1 = run(prob1, cfg)
        t2, h2 = run(prob2, cfg)
        assert np.array_equal(t1, t2)
        assert np.array_equal(h1.objective, h2.objective)
        assert np.array_equal(h1.p_f_values, h2.p_f_values)
        assert np.array_equal(h1.alpha, h2.alpha)

    def test_refresh_cadence_records_multiples_of_m(self):
        prob = truss.make_problem()
        cfg = small_config(kappa_f=2500.0, iterations=100, m=25, eta=1e-5,
                           estimator=McConfig(1000), seed=3)
        _, hist = run(prob, cfg)
        assert hist.p_f_iterations.tolist() == [25, 50, 75, 100]

    def test_penalty_inactive_when_estimate_within_allowable(self):
        # limit state never fails => every refresh gives p_hat = 0 => pure descent
        prob = quadratic_problem(target=(0.3, -0.2))
        cfg = small_config(kappa_f=100.0, iterations=500, m=10)
        theta, hist = run(prob, cfg)
        assert np.all(hist.p_f_values == 0.0)
        assert np.abs(theta - np.array([0.3, -0.2])).max() < 1e-3

    def test_batch_streams_differ_across_iterations(self):
        seen = []

        def objective(theta, xis):
            seen.extend(xis[:, 0].tolist())
            return 0.0, np.zeros(2)

        prob = quadratic_problem()
        prob.objective_batch = objective
        run(prob, small_config(iterations=60, n=1))
        assert len(set(seen)) == len(seen)  # no realization reused

    def test_mean_minibatch_gradient_matches_large_sample_average(self):
        # deterministic objective: every batch average equals the exact
        # expected gradient, checked through the public assembly path
        prob = truss.make_problem()
        theta = np.array([0.3, 0.7])
        grads = []
        for k in range(100):
            batch = prob.random_input.sample(4, SampleStream(900).child("avg", k))
            h, _ = stochastic_gradient(prob, theta, batch, np.zeros(2))
            grads.append(h)
        _, exact = truss.objective(theta[0], theta[1])
        assert np.allclose(np.mean(grads, axis=0), exact, rtol=1e-12)

    def test_failure_updates_move_model(self):
        prob = truss.make_problem()  # initial design fails ~11% of draws
        cfg = small_config(kappa_f=2500.0, iterations=200, m=50, eta=1e-5,
                           estimator=McConfig(1000), seed=5)
        _, hist = run(prob, cfg)
        assert hist.failure_update.sum() > 0
        changed = np.nonzero(hist.failure_update)[0]
        first = changed[0]
        assert hist.alpha[first] != 0.01  # moved off the initial value

    def test_nonfinite_gradient_halts_with_iteration(self):
        def objective(theta, xis):
            if xis[0, 0] > 1.5:
                return np.nan, np.array([np.nan, np.nan])
            return 0.0, np.zeros(2)

        prob = quadratic_problem()
        prob.objective_batch = objective
        with pytest.raises(OptimizerError) as exc:
            run(prob, small_config(iterations=500, seed=11))
        assert exc.value.iteration >= 1
        assert exc.value.history is not None

    def test_estimator_stall_surfaces_as_optimizer_error(self):
        from rbto.reliability import SubsetConfig

        # limit state bounded away from zero: subset thresholds stall
        prob = quadratic_problem()
        prob.limit_state = LimitState(lambda t, x: np.ones(len(x)))
        cfg = small_config(
            kappa_f=10.0, m=5, iterations=20,
            estimator=SubsetConfig(n_samples=100),
        )
        with pytest.raises(OptimizerError, match="stalled") as exc:
            run(prob, cfg)
        assert exc.value.iteration == 5
        assert exc.value.history is not None

    def test_solver_error_surfaces_as_optimizer_error(self):
        def singular(theta, xis):
            raise SolverError("stiffness matrix not positive definite")

        prob = quadratic_problem()
        prob.objective_batch = singular
        with pytest.raises(OptimizerError, match="positive definite") as exc:
            run(prob, small_config(iterations=20))
        assert exc.value.iteration == 1
        assert exc.value.history is not None
        assert np.all(np.isnan(exc.value.history.objective))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(eta=0.0)
        with pytest.raises(ValueError):
            small_config(p_a=1.0)
        with pytest.raises(ValueError):
            small_config(iterations=0)


class TestSmoothedPenaltySignal:
    """The penalty follows the halving average of ln(p_hat / p_a) over refreshes."""

    P_A = 1e-3
    N_SAMPLES = 1000  # estimates are floored at 0.5 / N_SAMPLES = p_a / 2

    @staticmethod
    def scripted_estimates(monkeypatch, p_hats):
        from rbto import sgd
        from rbto.reliability import ReliabilityEstimate

        script = iter(p_hats)

        def fake_estimate(g, theta, random_input, cfg, stream, draw=None):
            return ReliabilityEstimate(p_hat=next(script), method="mc")

        monkeypatch.setattr(sgd, "estimate", fake_estimate)

    def recorded_run(self, **over):
        # zero objective gradient and a limit state that never fails: the
        # density model keeps beta = beta0, so every step is the penalty alone
        prob = quadratic_problem()
        seen = []

        def objective(theta, xis):
            seen.append(theta.copy())
            return 0.0, np.zeros(2)

        prob.objective_batch = objective
        cfg = small_config(**dict(dict(
            kappa_f=50.0, m=1, eta=0.01, beta0=0.02, p_a=self.P_A,
            estimator=McConfig(self.N_SAMPLES)), **over))
        theta, hist = run(prob, cfg)
        return np.array(seen + [theta]), hist, cfg

    def test_step_follows_halving_average_of_log_ratio(self, monkeypatch):
        # 2e-4 lies below half a failure in 1000 samples, as a subset estimate
        # can: it is floored like a zero estimate
        p_hats = [4e-3, 1e-3, 0.0, 8e-3, 2e-4, 3e-3]
        self.scripted_estimates(monkeypatch, p_hats)
        thetas, hist, cfg = self.recorded_run(iterations=len(p_hats))

        s = None
        for k, p in enumerate(p_hats):
            ratio = np.log(max(p, 0.5 / self.N_SAMPLES) / self.P_A)
            s = ratio if s is None else s / 2 + ratio / 2
            expected = cfg.eta * cfg.kappa_f * max(s, 0.0) * np.full(2, cfg.beta0)
            assert np.allclose(thetas[k + 1] - thetas[k], expected, rtol=1e-12, atol=0.0)
        # the third refresh (p_hat = 0) brings s back to exactly 0: no step
        assert np.array_equal(thetas[3], thetas[2])
        # the raw estimates are recorded, not the smoothed signal
        assert hist.p_f_values.tolist() == p_hats

    # 100 samples cannot resolve p_a = 1e-3: the floor is capped at p_a
    @pytest.mark.parametrize("n_samples", [1000, 100])
    def test_zero_estimates_give_no_penalty(self, monkeypatch, n_samples):
        self.scripted_estimates(monkeypatch, [0.0] * 20)
        thetas, hist, _ = self.recorded_run(iterations=20, estimator=McConfig(n_samples))
        assert np.all(thetas == 0.0)
        assert np.all(hist.p_f_values == 0.0)

    def test_zero_kappa_f_run_is_plain_descent(self, monkeypatch):
        def no_estimate(*args):
            raise AssertionError("estimator called with kappa_f = 0")

        monkeypatch.setattr("rbto.sgd.estimate", no_estimate)
        target = np.array([0.3, -0.2])
        cfg = small_config(kappa_f=0.0, iterations=200, m=5)
        theta, hist = run(quadratic_problem(target=target), cfg)

        expected = np.zeros(2)
        for _ in range(cfg.iterations):
            expected = np.clip(expected - cfg.eta * (expected - target), -1.0, 1.0)
        assert np.array_equal(theta, expected)
        assert hist.p_f_iterations.size == 0


def test_draw_ahead_changes_no_result(monkeypatch, threads_left):
    # the truss-hybrid settings over three refreshes: the batches started ahead
    # give the run that draws each refresh batch when the refresh comes
    cfg = OptimizerConfig(
        eta=1e-5, n=1, m=100, kappa_f=2500.0, p_a=1e-3, iterations=300, seed=1,
        estimator=HybridConfig(gamma=2.5, n_samples=10**6),
    )
    shipped = run(truss.make_problem(), cfg)

    shipped_estimate, dropped = sgd.estimate, []

    def drop_draw(g, theta, random_input, est_cfg, stream, draw=None):
        if draw is not None:
            dropped.append(draw)
        return shipped_estimate(g, theta, random_input, est_cfg, stream)

    monkeypatch.setattr(sgd, "estimate", drop_draw)
    undrawn = run(truss.make_problem(), cfg)
    assert len(dropped) == 3  # the refreshes at 100, 200 and 300
    assert threads_left() == 0  # the dropped draws' workers exit after their fills
    assert np.array_equal(shipped[0], undrawn[0])
    for f in dataclasses.fields(sgd.RunHistory):
        a, b = getattr(shipped[1], f.name), getattr(undrawn[1], f.name)
        assert np.array_equal(a, b), f.name


def recorded_batches(prob):
    """Wrap prob.objective_batch to keep a copy of every batch it is handed."""
    seen, inner = [], prob.objective_batch

    def spy(theta, xis):
        seen.append(xis.copy())
        return inner(theta, xis)

    prob.objective_batch = spy
    return seen


def span_batches(random_input, cfg, span):
    """The batches of a run whose spans of `span` iterations draw at once:
    the draw at each span's first iteration `start`, cut into n-row batches."""
    root = SampleStream(cfg.seed)
    batches = []
    for start in range(1, cfg.iterations + 1, span):
        count = min(span, cfg.iterations - start + 1)  # the last span may be short
        batches.extend(np.split(random_input.sample(count * cfg.n, root.child("batch", start)), count))
    return batches


@pytest.mark.parametrize("make, over, span", [
    # refreshes at 20 and 40 inside a run whose last span is 10 iterations
    (truss.make_problem, dict(n=3, m=20, iterations=50, kappa_f=2500.0, eta=1e-5,
                              estimator=McConfig(1000)), 20),
    # n > DRAW_BLOCK // 2: every draw is one iteration's batch
    (truss.make_problem, dict(n=DRAW_BLOCK // 2 + 1, m=5, iterations=3, eta=1e-5), 1),
    (lambda: BeamProblem(BeamConfig(nx=12, ny=4)).make_problem(),
     dict(n=4, m=3, iterations=8, kappa_f=1.0, eta=0.01, estimator=McConfig(200)), 3),
], ids=["truss", "truss-span-1", "beam"])
def test_minibatch_is_its_slice_of_the_span_draw(make, over, span):
    prob = make()
    seen = recorded_batches(prob)
    cfg = small_config(**over)
    run(prob, cfg)
    expected = span_batches(prob.random_input, cfg, span)
    assert len(seen) == len(expected) == cfg.iterations
    for k, (got, want) in enumerate(zip(seen, expected), start=1):
        assert np.array_equal(got, want), k


@pytest.mark.parametrize("n, iterations, sizes", [
    (1000, 70, [65_000, 5_000]),  # span DRAW_BLOCK // 1000 = 65
    (DRAW_BLOCK + 1, 2, [DRAW_BLOCK + 1] * 2),  # span 1: one batch per draw
], ids=["span-65", "span-1"])
def test_minibatch_draw_is_capped(monkeypatch, n, iterations, sizes):
    # m = 10**9 would be one span of the whole run without the cap
    drawn, sample = [], RandomInput.sample

    def spy(self, count, stream):
        drawn.append(count)
        return sample(self, count, stream)

    monkeypatch.setattr(RandomInput, "sample", spy)
    run(quadratic_problem(), small_config(n=n, m=10**9, iterations=iterations))
    assert drawn == sizes
    assert max(drawn) <= max(n, DRAW_BLOCK)


def test_robust_truss_run_makes_one_generator_per_span(monkeypatch):
    made, rng = [], SampleStream.rng

    def spy(stream):
        made.append(stream.path)
        return rng(stream)

    monkeypatch.setattr(SampleStream, "rng", spy)
    run(truss.make_problem(), small_config(kappa_f=0.0, m=100, iterations=1000, eta=1e-5))
    assert made == [("batch", k) for k in range(1, 1000, 100)]
