import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy import stats

from rbto import reliability, sgd
from rbto.fem import BeamConfig, BeamProblem
from rbto.reliability import (
    EVAL_CHUNK,
    HybridConfig,
    LimitState,
    McConfig,
    SubsetConfig,
    SubsetStallError,
    estimate,
    hybrid_estimate,
    mc_estimate,
    start_draw,
    subset_estimate,
)
from rbto.pce import PceFitError
from rbto.sampling import DRAW_AHEAD, DRAW_BLOCK, Lognormal, Normal, RandomInput, SampleStream
from rbto.sgd import OptimizerConfig, OptimizerError, run
from rbto.truss import TrussProblem, failure_probability, limit_state, make_problem

U1 = RandomInput((Normal(),))
PHI_MINUS_3 = float(stats.norm.cdf(-3.0))  # 1.3499e-3
PAST_FIRST_FILL = (DRAW_AHEAD + 2) * DRAW_BLOCK  # a batch size two draw blocks past the first fill


def in_draw_order(ranges):
    """The ranges one blocks_u draw yielded, ordered by their offset in its batch array."""
    return sorted(ranges, key=lambda r: r.__array_interface__["data"][0])


def whole_batch(input, n, stream):
    """The Monte Carlo batch of an estimate of n points on stream, read at once."""
    return np.concatenate(in_draw_order(input.blocks_u(n, stream.child("mc"))))


def shifted_limit_state(b):
    return LimitState(lambda theta, xis: b - xis[:, 0])


def constant_limit_state(c):
    return LimitState(lambda theta, xis: np.full(len(xis), c))


def truss_limit_state(prob, lam, delta):
    return LimitState(lambda theta, xis: limit_state(prob, lam, delta, xis[:, 0]))


class TestMonteCarlo:
    def test_always_failing(self):
        est = mc_estimate(constant_limit_state(-1.0), None, U1, 100, SampleStream(1))
        assert est.p_hat == 1.0
        assert est.n_exact_evals == 100

    def test_never_failing(self):
        est = mc_estimate(constant_limit_state(1.0), None, U1, 100, SampleStream(1))
        assert est.p_hat == 0.0

    def test_three_sigma_tail(self):
        n = 10**6
        est = mc_estimate(shifted_limit_state(3.0), None, U1, n, SampleStream(5))
        se = np.sqrt(PHI_MINUS_3 * (1 - PHI_MINUS_3) / n)
        assert abs(est.p_hat - PHI_MINUS_3) < 3 * se

    def test_counts_evaluations(self):
        g = shifted_limit_state(0.0)
        mc_estimate(g, None, U1, 500, SampleStream(2))
        assert g.n_evals == 500

    def test_draw_blocks_match_one_draw(self):
        # over several draw blocks past the first fill (and a lognormal column
        # mapped per block) the estimate is the one of evaluating the whole batch at once
        ri = RandomInput((Normal(), Lognormal(1.0, 0.2)))
        n = PAST_FIRST_FILL + 7
        calls = []

        def g_fn(theta, xis):
            calls.append(len(xis))
            return 1.1 - xis[:, 1] + 0.05 * xis[:, 0]

        est = mc_estimate(LimitState(g_fn), None, ri, n, SampleStream(8))
        assert sorted(calls) == [7] + [DRAW_BLOCK] * (DRAW_AHEAD + 2)  # one call per block read
        assert est.p_hat == np.mean(g_fn(None, ri.from_u(whole_batch(ri, n, SampleStream(8)))) <= 0.0)
        assert est.n_exact_evals == n


class TestSubset:
    def test_degenerates_to_mc_when_first_threshold_nonpositive(self):
        # P(g <= 0) ~ 0.31 >> p0, so b_0 < 0 and the first-level samples decide
        g = shifted_limit_state(0.5)
        est = subset_estimate(g, None, U1, SubsetConfig(1000), SampleStream(3))
        assert est.levels == 0
        g2 = shifted_limit_state(0.5)
        ref = mc_estimate(g2, None, U1, 1000, SampleStream(3))
        assert est.p_hat == ref.p_hat

    def test_always_failing_short_circuits(self):
        est = subset_estimate(
            constant_limit_state(-1.0), None, U1, SubsetConfig(500), SampleStream(4)
        )
        assert est.p_hat == 1.0
        assert est.levels == 0

    def test_mean_over_repeats_brackets_exact_tail(self):
        cfg = SubsetConfig(1000)
        estimates = []
        for rep in range(50):
            g = shifted_limit_state(3.0)
            est = subset_estimate(g, None, U1, cfg, SampleStream(1000 + rep))
            estimates.append(est.p_hat)
        assert 0.9e-3 <= np.mean(estimates) <= 1.9e-3

    def test_evaluation_count_bookkeeping(self):
        # exact count: N init + per level (chain_len - 1) steps per seed chain
        cfg = SubsetConfig(1000)
        g = shifted_limit_state(3.0)
        est = subset_estimate(g, None, U1, cfg, SampleStream(17))
        assert est.n_exact_evals == 1000 + est.levels * 100 * 9
        assert est.n_exact_evals == g.n_evals

    def test_threshold_ladder_strictly_decreasing(self):
        g = shifted_limit_state(3.0)
        est = subset_estimate(g, None, U1, SubsetConfig(1000), SampleStream(8))
        assert all(a > b for a, b in zip(est.thresholds, est.thresholds[1:]))
        assert est.thresholds[-1] <= 0.0

    def test_truss_reference_design_within_factor_two(self):
        prob = TrussProblem()
        lam, delta = 0.3425, np.deg2rad(43.25)
        g = truss_limit_state(prob, lam, delta)
        est = subset_estimate(g, None, U1, SubsetConfig(2000), SampleStream(11))
        exact = failure_probability(prob, lam, delta)  # ~1.0e-3
        assert exact / 2 <= est.p_hat <= exact * 2

    def test_chain_samples_follow_conditional_law(self):
        # one-dimensional linear limit state g = 3 - xi: level j holds xi >= 3 - b_j.
        # If the chains sample the level-1 law, the second threshold is its
        # p0-quantile, so Phi-bar(3 - b1) / Phi-bar(3 - b0) averages p0 in log.
        cfg = SubsetConfig(500)
        log_ratios = []
        for rep in range(20):
            est = subset_estimate(shifted_limit_state(3.0), None, U1, cfg, SampleStream(300 + rep))
            if len(est.thresholds) < 2:
                continue
            b0, b1 = est.thresholds[:2]
            log_ratios.append(stats.norm.logsf(3.0 - b1) - stats.norm.logsf(3.0 - b0))
        se = np.std(log_ratios, ddof=1) / np.sqrt(len(log_ratios))
        assert abs(np.mean(log_ratios) - np.log(cfg.p0)) < 3 * se

    def test_stall_raises_with_partial_estimate(self):
        g = constant_limit_state(1.0)
        with pytest.raises(SubsetStallError) as exc:
            subset_estimate(g, None, U1, SubsetConfig(100), SampleStream(6))
        partial = exc.value.estimate
        assert partial.p_hat == 0.0
        assert partial.levels == SubsetConfig.max_levels
        assert len(partial.thresholds) == partial.levels + 1
        assert partial.n_exact_evals == g.n_evals

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SubsetConfig(n_samples=5)  # ceil(N p0) < 2


class TestHybrid:
    def test_infinite_band_reduces_to_mc(self):
        cfg = HybridConfig(gamma=np.inf, n_samples=2000)
        g = shifted_limit_state(1.0)
        est = hybrid_estimate(g, None, U1, cfg, SampleStream(12))
        g2 = shifted_limit_state(1.0)
        ref = mc_estimate(g2, None, U1, 2000, SampleStream(12))
        assert est.p_hat == ref.p_hat
        assert est.n_exact_evals == cfg.n_fit + 2000

    def test_batch_within_the_fit_size_is_mc(self):
        # no surrogate is fitted for a batch no larger than n_fit
        g = shifted_limit_state(0.5)
        est = hybrid_estimate(g, None, U1, HybridConfig(n_samples=50), SampleStream(22))
        ref = mc_estimate(shifted_limit_state(0.5), None, U1, 50, SampleStream(22))
        assert est == ref
        assert g.n_evals == 50

    def test_multi_block_screen_is_mc_with_one_band_call(self):
        # an infinite band sends every screened row to the exact model: over
        # several draw and screening blocks the estimate is the plain MC one on
        # the same stream, and the band rows arrive in one call, in the order
        # the ranges were read
        n = DRAW_AHEAD * DRAW_BLOCK + EVAL_CHUNK + 5
        cfg = HybridConfig(gamma=np.inf, n_samples=n)
        calls = []

        def record(theta, xis):
            calls.append(xis.copy())
            return 0.5 - xis[:, 0]

        est = hybrid_estimate(LimitState(record), None, U1, cfg, SampleStream(21))
        ref = mc_estimate(shifted_limit_state(0.5), None, U1, n, SampleStream(21))
        assert est.p_hat == ref.p_hat
        assert est.n_exact_evals == cfg.n_fit + n
        assert [len(xis) for xis in calls] == [cfg.n_fit, n]
        assert np.array_equal(np.sort(calls[1], axis=0), np.sort(whole_batch(U1, n, SampleStream(21)), axis=0))

    def test_polynomial_limit_state_with_zero_band(self):
        # quadratic g is inside the order-4 basis span: surrogate is exact, the
        # zero-width band needs no exact re-evaluation beyond the fit
        def gq(x):
            return 1.0 + 0.5 * x - 0.4 * (x**2 - 1.0)

        g = LimitState(lambda t, xis: gq(xis[:, 0]))
        cfg = HybridConfig(gamma=0.0, n_samples=10**5)
        est = hybrid_estimate(g, None, U1, cfg, SampleStream(13))
        assert est.n_exact_evals == cfg.n_fit
        g2 = shifted_limit_state(0.0)
        g2.batch_fn = lambda t, xis: gq(xis[:, 0])
        xis = U1.sample(10**5, SampleStream(13).child("mc"))
        exact_frac = np.mean(gq(xis[:, 0]) <= 0.0)
        assert est.p_hat == pytest.approx(exact_frac, abs=1e-12)

    def test_band_indicator_matches_exact_when_surrogate_error_bounded(self):
        # surrogate exact on polynomials: hybrid indicator equals the exact
        # indicator for every sample, any gamma
        def gq(x):
            return 2.0 - 0.3 * x - 0.5 * x**2

        g = LimitState(lambda t, xis: gq(xis[:, 0]))
        cfg = HybridConfig(gamma=1.0, n_samples=5 * 10**4)
        est = hybrid_estimate(g, None, U1, cfg, SampleStream(14))
        xis = U1.sample(5 * 10**4, SampleStream(14).child("mc"))
        assert est.p_hat == pytest.approx(np.mean(gq(xis[:, 0]) <= 0.0), abs=1e-12)

    def test_truss_reference_design_close_to_mc(self):
        prob = TrussProblem()
        lam, delta = 0.3425, np.deg2rad(43.25)
        cfg = HybridConfig(gamma=2.5, n_samples=10**6)
        g = truss_limit_state(prob, lam, delta)
        est = hybrid_estimate(g, None, U1, cfg, SampleStream(15))
        g2 = truss_limit_state(prob, lam, delta)
        ref = mc_estimate(g2, None, U1, 10**6, SampleStream(16))
        assert abs(est.p_hat - ref.p_hat) <= 0.2 * ref.p_hat
        assert est.n_exact_evals < 0.01 * cfg.n_samples

    def test_screening_block_size_changes_no_result(self, monkeypatch):
        # EVAL_CHUNK only sizes the screening blocks: the band rows still reach
        # the exact model row by row, so the estimate is the same for any size
        prob = TrussProblem()
        lam, delta = 0.3, np.deg2rad(43.25)
        cfg = HybridConfig(gamma=2.5, n_samples=PAST_FIRST_FILL + 12345)  # the first fill and three blocks

        def screen():
            return hybrid_estimate(truss_limit_state(prob, lam, delta), None, U1, cfg, SampleStream(23))

        shipped = screen()
        monkeypatch.setattr(reliability, "EVAL_CHUNK", 1000)
        assert screen() == shipped
        assert shipped.n_exact_evals > cfg.n_fit  # the band is not empty

    @pytest.mark.parametrize("estimator", ["mc", "hybrid"])
    def test_read_order_changes_no_result(self, monkeypatch, estimator):
        # the ranges of a batch arrive in the order their fills finish; the
        # failure and band counts are sums over rows, so reading them in
        # reverse gives the estimate of reading them in draw order
        prob = TrussProblem()
        lam, delta = 0.3, np.deg2rad(43.25)
        n = PAST_FIRST_FILL + 12345  # the first fill and three blocks
        shipped_blocks_u, read = RandomInput.blocks_u, []

        def estimate_read(order):
            def blocks_u(self, n, stream):
                ranges = order(shipped_blocks_u(self, n, stream))
                read.append([r.__array_interface__["data"][0] for r in ranges])
                return iter(ranges)

            monkeypatch.setattr(RandomInput, "blocks_u", blocks_u)
            g = truss_limit_state(prob, lam, delta)
            if estimator == "mc":
                return mc_estimate(g, None, U1, n, SampleStream(24))
            return hybrid_estimate(g, None, U1, HybridConfig(gamma=2.5, n_samples=n), SampleStream(24))

        in_order = estimate_read(in_draw_order)
        reversed_order = estimate_read(lambda ranges: in_draw_order(ranges)[::-1])
        assert reversed_order == in_order
        assert len(read[0]) == 4 and read[1] == read[0][::-1]
        assert in_order.p_hat > 0.0



def beam_failure_probability(c1: float, config: BeamConfig, nodes: int = 80) -> float:
    """Exact P_F of a beam design with unit compliance c1.

    Failure C = P^2 C1 / E0 >= c_max is E0 <= P^2 C1 / c_max, so P_F is a 1-D
    Gauss-Hermite integral of the lognormal cdf over the standard-normal load
    fluctuation xi0, with P = p0_load (1 + load_coeff xi0).
    """
    x, w = hermegauss(nodes)  # weights of exp(-x^2/2)
    e0 = Lognormal(config.e0_mean, config.e0_std)
    load = config.p0_load * (1.0 + config.load_coeff * x)
    z = (np.log(load**2 * c1 / config.c_max) - e0.mu_ln) / e0.sigma_ln
    return float(w @ stats.norm.cdf(z)) / np.sqrt(2.0 * np.pi)


@pytest.fixture(scope="module")
def beam_design():
    """A 30 x 10 half-beam, its uniform design of exact P_F 1e-3 (by bisection), and that P_F."""
    beam = BeamProblem(BeamConfig(nx=30, ny=10))

    def exact(density):
        return beam_failure_probability(beam.unit_solution(np.full(beam.mesh.n_elems, density))[0],
                                        beam.config)

    lo, hi = 0.3, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact(mid) > 1e-3 else (lo, mid)
    return beam, np.full(beam.mesh.n_elems, hi), exact(hi)


class TestBeamDesign:
    """The estimators on the FE problems' two inputs (normal load, lognormal
    modulus), at the beam configs' gamma, against the exact P_F."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_hybrid_is_mc_on_its_batch(self, beam_design, seed):
        beam, theta, exact = beam_design
        n = 10**6
        est = hybrid_estimate(beam.limit_state, theta, beam.random_input,
                              HybridConfig(gamma=25.0, n_samples=n), SampleStream(seed))
        xis = beam.random_input.from_u(whole_batch(beam.random_input, n, SampleStream(seed)))
        assert est.p_hat == np.mean(beam.limit_state_batch(theta, xis) <= 0.0)
        assert abs(est.p_hat - exact) < 4.0 * np.sqrt(exact * (1.0 - exact) / n)

    def test_subset_mean_near_exact(self, beam_design):
        beam, theta, exact = beam_design
        estimates = [subset_estimate(beam.limit_state, theta, beam.random_input,
                                     SubsetConfig(2000), SampleStream(seed)).p_hat
                     for seed in range(20)]
        assert abs(np.mean(estimates) - exact) < 0.2 * exact


class TestDispatchAndInvariants:
    @pytest.mark.parametrize(
        "cfg",
        [
            McConfig(n_samples=2000),
            SubsetConfig(n_samples=500),
            HybridConfig(gamma=1.0, n_samples=2000),
        ],
    )
    def test_probability_in_unit_interval(self, cfg):
        g = shifted_limit_state(2.0)
        est = estimate(g, None, U1, cfg, SampleStream(18))
        assert 0.0 <= est.p_hat <= 1.0

    def test_dispatch_rejects_unknown(self):
        with pytest.raises(TypeError):
            estimate(shifted_limit_state(1.0), None, U1, object(), SampleStream(1))

    def test_same_stream_same_estimate(self):
        cfg = SubsetConfig(n_samples=500)
        a = subset_estimate(shifted_limit_state(3.0), None, U1, cfg, SampleStream(19))
        b = subset_estimate(shifted_limit_state(3.0), None, U1, cfg, SampleStream(19))
        assert a.p_hat == b.p_hat
        assert a.thresholds == b.thresholds


class TestDrawAhead:
    """A refresh's Monte Carlo batch started early with start_draw, as the optimizer does."""

    CONFIGS = [
        McConfig(n_samples=PAST_FIRST_FILL + 5),
        HybridConfig(gamma=1.0, n_samples=PAST_FIRST_FILL + 5),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_started_draw_gives_the_same_estimate(self, cfg, threads_left):
        stream = SampleStream(20).child("pf", 100)
        draw = start_draw(U1, cfg, stream)
        ahead = estimate(shifted_limit_state(2.0), None, U1, cfg, stream, draw)
        assert ahead == estimate(shifted_limit_state(2.0), None, U1, cfg, stream)
        assert threads_left() == 0

    @pytest.mark.parametrize("ahead", [False, True])
    def test_failed_fit_leaves_no_thread(self, ahead, threads_left):
        cfg = HybridConfig(gamma=1.0, n_samples=PAST_FIRST_FILL + 5)
        stream = SampleStream(22)
        draw = start_draw(U1, cfg, stream) if ahead else None
        with pytest.raises(PceFitError):
            estimate(constant_limit_state(np.nan), None, U1, cfg, stream, draw)
        assert threads_left() == 0

    def test_subset_starts_no_draw(self):
        assert start_draw(U1, SubsetConfig(), SampleStream(1)) is None

    @pytest.mark.parametrize("cfg", [
        McConfig(n_samples=1000),
        HybridConfig(gamma=1.0, n_samples=1000),
        SubsetConfig(n_samples=500),
    ])
    @pytest.mark.parametrize("k, n", [(200, 1000), (100, 999)])  # wrong stream, wrong size
    def test_mismatched_draw_raises_value_error(self, cfg, k, n, threads_left):
        draw = start_draw(U1, McConfig(n), SampleStream(21).child("pf", k))
        with pytest.raises(ValueError, match="draw"):
            estimate(shifted_limit_state(2.0), None, U1, cfg, SampleStream(21).child("pf", 100), draw)
        assert threads_left() == 0


class TestDrawAheadThreads:
    """sgd.run starts each refresh's draw ahead and leaves no draw worker behind."""

    @staticmethod
    def config():
        # refreshes at 100, 200 and 300; draws started ahead at the start, 100 and 200
        return OptimizerConfig(
            eta=1e-5, n=1, m=100, kappa_f=2500.0, p_a=1e-3, iterations=300, seed=1,
            estimator=HybridConfig(n_samples=PAST_FIRST_FILL + 5),
        )

    def test_draws_start_ahead_of_each_refresh(self, monkeypatch):
        problem, calls, started = make_problem(), [0], []
        objective, shipped_start_draw = problem.objective_batch, sgd.start_draw

        def counted(theta, xis):
            calls[0] += 1
            return objective(theta, xis)

        def recorded(random_input, cfg, stream):
            started.append((stream.path, calls[0]))
            return shipped_start_draw(random_input, cfg, stream)

        problem.objective_batch = counted
        monkeypatch.setattr(sgd, "start_draw", recorded)
        run(problem, self.config())
        # before the first iteration's objective, then right after the
        # refreshes at 100 and 200; none after the last refresh
        assert started == [(("pf", 100), 0), (("pf", 200), 99), (("pf", 300), 199)]

    def test_normal_run(self, threads_left):
        run(make_problem(), self.config())
        assert threads_left() == 0

    def test_optimizer_error_between_refreshes(self, threads_left):
        problem = make_problem()
        objective, calls = problem.objective_batch, [0]

        def failing(theta, xis):  # non-finite gradient at iteration 150
            calls[0] += 1
            value, grad = objective(theta, xis)
            return value, np.full_like(grad, np.nan) if calls[0] == 150 else grad

        problem.objective_batch = failing
        with pytest.raises(OptimizerError, match="non-finite gradient") as err:
            run(problem, self.config())
        assert err.value.iteration == 150
        assert threads_left() == 0

    def test_fit_error_inside_a_refresh(self, threads_left):
        problem = make_problem()
        exact, fits = problem.limit_state.batch_fn, [0]

        def g(theta, xis):
            if len(xis) == 100:  # the surrogate fit of a refresh
                fits[0] += 1
                if fits[0] == 2:  # the refresh at 200, whose draw was started ahead
                    return np.full(len(xis), np.nan)
            return exact(theta, xis)

        problem.limit_state = LimitState(g)
        with pytest.raises(OptimizerError, match="not finite") as err:
            run(problem, self.config())
        assert isinstance(err.value.__cause__, PceFitError)
        assert err.value.iteration == 200
        assert threads_left() == 0
