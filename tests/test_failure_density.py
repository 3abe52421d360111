import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbto import truss
from rbto.failure_density import (
    FailureDensityModel,
    FailureModelOverflowError,
    penalty_gradient,
    residual_and_score,
    update,
)
from rbto.reliability import LimitState, McConfig
from rbto.sgd import OptimizerConfig, run


def model(alpha, beta, eta_f=0.2):
    return FailureDensityModel(alpha, np.asarray(beta, dtype=float), eta_f)


def test_residual_zero_when_exponent_is_zero():
    m = model(0.0, [0.0, 0.0])  # alpha = -ln(1)
    theta = np.array([0.4, 0.7])
    q, score = residual_and_score(m, [theta])
    assert q == 0.0
    assert np.allclose(score, [-1.0, -0.4, -0.7])


def test_residual_log_two():
    m = model(np.log(2.0), [0.0])
    q, _ = residual_and_score(m, [np.array([1.0])])
    assert q == pytest.approx(-0.5)


def test_score_times_residual_matches_finite_differences():
    rng = np.random.default_rng(5)
    failed = rng.uniform(0.0, 1.0, size=(3, 4))
    m = model(0.3, rng.standard_normal(4) * 0.5)

    def half_q_squared(alpha, beta):
        exps = np.exp(-alpha - failed @ beta)
        return 0.5 * (np.sum(exps) - 1.0) ** 2

    q, score = residual_and_score(m, failed)
    grad = score * q
    h = 1e-6
    fd = np.empty(5)
    fd[0] = (half_q_squared(m.alpha + h, m.beta) - half_q_squared(m.alpha - h, m.beta)) / (2 * h)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i + 1] = (half_q_squared(m.alpha, m.beta + e) - half_q_squared(m.alpha, m.beta - e)) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_update_noop_at_zero_residual():
    m = model(0.0, [0.0, 0.0])
    m2 = update(m, [np.array([0.4, 0.7])])
    assert m2.alpha == m.alpha
    assert np.array_equal(m2.beta, m.beta)


def test_update_descends_on_residual():
    # starting parameters and step size of the benchmark configuration
    m = model(0.01, [0.01, 0.01], eta_f=0.2)
    theta = np.array([0.1, np.pi / 4])

    def half_q_squared(mm):
        q, _ = residual_and_score(mm, [theta])
        return 0.5 * q**2

    before = half_q_squared(m)
    after = half_q_squared(update(m, [theta]))
    assert after < before


def test_update_converges_to_unit_mass_manifold():
    m = model(0.01, [0.01, 0.01], eta_f=0.2)
    theta = np.array([0.1, np.pi / 4])
    for _ in range(10**4):
        m = update(m, [theta])
    assert abs(m.alpha + m.beta @ theta) < 1e-8


def test_update_overflow_raises():
    m = model(-800.0, [0.0], eta_f=0.2)
    with pytest.raises(FailureModelOverflowError):
        update(m, [np.array([1.0])])


def test_penalty_zero_at_boundary_and_below():
    m = model(0.0, [1.0, 2.0])
    assert np.array_equal(penalty_gradient(m, 0.0, 10.0), [0.0, 0.0])
    assert np.array_equal(penalty_gradient(m, np.log(0.5), 10.0), [0.0, 0.0])
    assert np.array_equal(penalty_gradient(m, -np.inf, 10.0), [0.0, 0.0])


def test_penalty_one_log_unit_above_allowable():
    # log ratio exactly 1; the gradient of the log failure probability under
    # the exponential density model is -beta, so the penalty is -kappa*beta
    m = model(0.0, [1.0, 2.0])
    grad = penalty_gradient(m, 1.0, 1.0)
    assert np.allclose(grad, [-1.0, -2.0], rtol=1e-12)


@given(scale=st.floats(0.1, 10.0), kappa=st.floats(0.0, 100.0))
@settings(max_examples=50, deadline=None)
def test_penalty_positively_homogeneous(scale, kappa):
    beta = np.array([0.5, -1.5])
    m1 = model(0.0, beta)
    m2 = model(0.0, scale * beta)
    g1 = penalty_gradient(m1, np.log(10.0), kappa)
    g2 = penalty_gradient(m2, np.log(10.0), kappa)
    assert np.allclose(g2, scale * g1, rtol=1e-9, atol=1e-12)
    g3 = penalty_gradient(m1, np.log(10.0), 7.0 * kappa)
    assert np.allclose(g3, 7.0 * g1, rtol=1e-9, atol=1e-12)
    g4 = penalty_gradient(m1, 2.0 * np.log(10.0), kappa)
    assert np.allclose(g4, 2.0 * g1, rtol=1e-9, atol=1e-12)


def test_model_fixed_over_window_without_failures():
    # the optimizer calls update() only on an iteration whose draw fails: over
    # a run whose limit state never fails, alpha and beta keep their start values
    prob = truss.make_problem()
    prob.limit_state = LimitState(lambda theta, xis: np.ones(len(xis)))
    cfg = OptimizerConfig(eta=1e-5, n=1, m=50, kappa_f=2500.0, p_a=1e-3, iterations=200,
                          estimator=McConfig(1000), seed=5, alpha0=0.03, beta0=0.02)
    _, hist = run(prob, cfg)
    assert not hist.failure_update.any()
    assert np.all(hist.alpha == 0.03)
    assert np.allclose(hist.beta_norm, np.sqrt(2) * 0.02, rtol=1e-15)
