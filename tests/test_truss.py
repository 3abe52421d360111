import numpy as np
import pytest

from rbto.reliability import LimitState, mc_estimate
from rbto.sampling import Normal, RandomInput, SampleStream
from rbto.truss import (
    TrussProblem,
    failure_probability,
    limit_state,
    make_problem,
    objective,
)

PROB = TrussProblem()
REF = (0.3425, np.deg2rad(43.25))  # benchmark reference design


def test_objective_at_reference_design():
    value, _ = objective(*REF)
    assert value == pytest.approx(0.4702, abs=1e-4)


def test_objective_at_zero_inclination():
    value, grad = objective(0.5, 0.0)
    assert value == 0.5
    assert np.allclose(grad, [1.0, 0.0])


def test_objective_gradient_matches_finite_differences():
    lam, delta = 0.3, np.deg2rad(40.0)
    _, grad = objective(lam, delta)
    h = 1e-7
    fd_lam = (objective(lam + h, delta)[0] - objective(lam - h, delta)[0]) / (2 * h)
    fd_del = (objective(lam, delta + h)[0] - objective(lam, delta - h)[0]) / (2 * h)
    assert grad[0] == pytest.approx(fd_lam, rel=1e-8)
    assert grad[1] == pytest.approx(fd_del, rel=1e-8)


def test_limit_state_at_nominal_midpoint():
    assert limit_state(PROB, 0.5, np.pi / 4, 0.0) == pytest.approx(94.3431, abs=1e-4)


def test_limit_state_even_in_load():
    for xi in (0.0, 0.5, 1.7, 3.2):
        a = limit_state(PROB, 0.4, 0.7, xi)
        b = limit_state(PROB, 0.4, 0.7, -xi)
        assert a == b


def test_limit_state_vanished_section_always_fails():
    assert limit_state(PROB, 0.0, 0.7, 0.3) == -np.inf
    vec = limit_state(PROB, 0.0, 0.7, np.array([0.1, 0.2]))
    assert np.all(np.isinf(vec)) and np.all(vec < 0)


def test_reference_design_failure_probability_monte_carlo():
    g = LimitState(lambda t, xis: limit_state(PROB, *REF, xis[:, 0]))
    input_1d = RandomInput((Normal(),))
    est = mc_estimate(g, None, input_1d, 10**7, SampleStream(21))
    assert est.p_hat == pytest.approx(1e-3, rel=0.1)


def test_analytic_oracle_against_monte_carlo():
    input_1d = RandomInput((Normal(),))
    for lam, delta, seed in [(0.30, 0.70, 1), (0.40, 0.80, 2), (0.25, 0.75, 3)]:
        exact = failure_probability(PROB, lam, delta)
        g = LimitState(lambda t, xis: limit_state(PROB, lam, delta, xis[:, 0]))
        n = 10**6
        est = mc_estimate(g, None, input_1d, n, SampleStream(seed))
        se = np.sqrt(exact * (1 - exact) / n)
        assert abs(est.p_hat - exact) < 4 * se


def test_failure_probability_monotone_in_section():
    delta = np.deg2rad(43.0)
    values = [failure_probability(PROB, lam, delta) for lam in (0.2, 0.3, 0.4, 0.6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_failure_probability_saturates_at_one():
    # no root: the weak design fails for every load realization
    assert failure_probability(PROB, 0.01, np.deg2rad(45.0)) == 1.0
    assert failure_probability(PROB, 0.0, np.deg2rad(45.0)) == 1.0


def test_make_problem_wiring():
    prob = make_problem()
    assert prob.theta0.size == 2
    assert np.allclose(prob.theta0, [0.1, np.pi / 4])
    value, grad = prob.objective_batch(np.array([0.5, 0.0]), np.array([[0.3]]))
    assert value == 0.5
    g = prob.limit_state.batch(np.array([0.5, np.pi / 4]), np.array([[0.0]]))
    assert g[0] == pytest.approx(94.3431, abs=1e-4)
    assert prob.limit_state.n_evals == 1
    batch = prob.limit_state.batch(np.array([0.5, np.pi / 4]), np.zeros((3, 1)))
    assert np.allclose(batch, 94.3431, atol=1e-4)
    assert prob.limit_state.n_evals == 4
