"""Failure-probability estimators over a vectorized limit state.

Failure is g(theta; xi) <= 0 throughout. Every estimator evaluates the exact
model only through LimitState.batch, one call per block of realizations
(never per sample), so the evaluation count is the number of rows passed.
Three estimators are provided:
plain Monte Carlo, which evaluates one call per sampling.DRAW_BLOCK rows of
its draw, multi-level subset sampling with a component-wise Metropolis kernel
in u-space, and a hybrid scheme that screens Monte Carlo samples through a
polynomial chaos surrogate and re-evaluates only those in the band
|ghat| <= gamma with the exact model. Both Monte Carlo estimators draw their
batch with RandomInput.blocks_u on the estimate's stream.child("mc"); the
batch's layout (DRAW_AHEAD and DRAW_BLOCK) is defined in sampling.
start_draw starts that batch before the estimate is called (the optimizer
starts each refresh's batch right after the refresh before it) and
estimate(..., draw) reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pce
from .sampling import DRAW_BLOCK, RandomInput, SampleStream


MAX_COUNT = 10**9  # upper bound of every count setting (sample sizes, iterations, mesh sizes)
EVAL_CHUNK = 1 << 16  # rows per block when screening a batch with the fitted surrogate


def check_counts(cfg, *keys: str) -> None:
    """Reject the named count fields of cfg outside [1, MAX_COUNT], before any array is sized by them."""
    for key in keys:
        value = getattr(cfg, key)
        if value < 1:
            raise ValueError(f"{key} must be >= 1")
        if value > MAX_COUNT:
            raise ValueError(f"{key} must be <= {MAX_COUNT}")


class LimitState:
    """Wraps a vectorized exact limit-state evaluator and counts its evaluations.

    batch_fn(theta, xis) returns g at each row of the (n, dim) float
    realization matrix xis; the counter increments once per row. Every caller
    passes a drawn matrix (RandomInput.from_u of an (n, dim) draw), so batch
    hands it on unconverted.
    """

    def __init__(self, batch_fn):
        self.batch_fn = batch_fn
        self.n_evals = 0

    def batch(self, theta, xis: np.ndarray) -> np.ndarray:
        self.n_evals += xis.shape[0]
        return np.asarray(self.batch_fn(theta, xis), dtype=float)


@dataclass(frozen=True)
class ReliabilityEstimate:
    p_hat: float
    method: str  # "mc" | "subset" | "hybrid"
    levels: int = 0
    n_exact_evals: int = 0
    n_surrogate_evals: int = 0
    thresholds: tuple = ()


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 10**6

    def __post_init__(self):
        check_counts(self, "n_samples")


@dataclass(frozen=True)
class SubsetConfig:
    n_samples: int = 500
    # method constants, not settings (Au & Beck 2001): level probability, proposal std, stall limit
    p0 = 0.1
    proposal_std = 1.0
    max_levels = 20

    def __post_init__(self):
        check_counts(self, "n_samples")  # first: n_samples * p0 needs a float-sized int
        if math.ceil(self.n_samples * self.p0) < 2:
            raise ValueError("need ceil(N*p0) >= 2 chain seeds")


@dataclass(frozen=True)
class HybridConfig:
    gamma: float = 2.5
    n_samples: int = 10**6
    # method constants, not settings: the fit size and the order of the PCE basis (15 terms in 2-D)
    n_fit = 100
    pce_order = 4

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        check_counts(self, "n_samples")


class SubsetStallError(RuntimeError):
    """Raised when the level thresholds stall above zero.

    Carries the partial estimate; a stall usually means g is bounded away
    from zero (the failure event is empty or misposed).
    """

    def __init__(self, msg: str, estimate: ReliabilityEstimate):
        super().__init__(msg)
        self.estimate = estimate


def _start_batch(input: RandomInput, n_samples: int, stream: SampleStream):
    """Start the Monte Carlo batch of an estimate on stream; (its stream, size, blocks)."""
    mc = stream.child("mc")
    return mc, n_samples, input.blocks_u(n_samples, mc)


def _batch_blocks(input: RandomInput, n_samples: int, stream: SampleStream, draw):
    """The blocks of an estimate's Monte Carlo batch: `draw` if one was started ahead, else a new draw."""
    drawn, n_drawn, blocks = draw or _start_batch(input, n_samples, stream)
    mc = stream.child("mc")
    if (drawn, n_drawn) != (mc, n_samples):
        raise ValueError(f"a draw of {n_drawn} points on stream {drawn.path} was handed to an "
                         f"estimate of {n_samples} points on stream {mc.path}")
    return blocks


def mc_estimate(
    g: LimitState,
    theta,
    input: RandomInput,
    n_samples: int,
    stream: SampleStream,
    draw=None,
) -> ReliabilityEstimate:
    """Plain Monte Carlo: fraction of i.i.d. samples with g <= 0, evaluated per DRAW_BLOCK rows."""
    n_fail = 0
    for drawn in _batch_blocks(input, n_samples, stream, draw):
        for start in range(0, len(drawn), DRAW_BLOCK):  # bounds the limit state's temporaries
            u = drawn[start:start + DRAW_BLOCK]
            n_fail += int(np.count_nonzero(g.batch(theta, input.from_u(u)) <= 0.0))
    return ReliabilityEstimate(
        p_hat=n_fail / n_samples,
        method="mc",
        n_exact_evals=n_samples,
    )


def _metropolis_step(u, gs, b_j, g, theta, input, proposal_std, rng):
    """One lockstep move of all chains: component-wise accept, then g-gate.

    Every assembled candidate is evaluated with the exact model, matching the
    per-step cost accounting of the sampler (one evaluation per chain step).
    """
    n, d = u.shape
    z = rng.standard_normal((n, d))
    unif = rng.random((n, d))
    cand = u + proposal_std * z
    # accept each component with prob min(1, phi(cand)/phi(u))
    log_ratio = 0.5 * (u**2 - cand**2)
    comp_accept = np.log(unif) < log_ratio
    trial = np.where(comp_accept, cand, u)
    g_trial = g.batch(theta, input.from_u(trial))
    keep = g_trial <= b_j
    u_next = np.where(keep[:, None], trial, u)
    gs_next = np.where(keep, g_trial, gs)
    return u_next, gs_next


def subset_estimate(
    g: LimitState,
    theta,
    input: RandomInput,
    cfg: SubsetConfig,
    stream: SampleStream,
) -> ReliabilityEstimate:
    """Multi-level splitting estimate of P(g <= 0).

    Level thresholds are the ceil(N*p0)-th smallest g among the level
    population, so each conditional level has probability ~p0; those samples
    seed Markov chains of length floor(1/p0) (seed included) targeting the
    conditional law, and the final estimate is (n_fail/N) * p0^k. p0 (0.1),
    proposal_std (1.0) and max_levels (20) are SubsetConfig class constants.
    """
    n0 = cfg.n_samples
    n_seed = math.ceil(n0 * cfg.p0)
    chain_len = math.floor(1.0 / cfg.p0)
    nd0 = g.n_evals

    u = input.sample_u(n0, stream.child("mc"))
    gs = g.batch(theta, input.from_u(u))
    thresholds = []
    for levels in range(cfg.max_levels + 1):
        order = np.argsort(gs, kind="stable")
        u, gs = u[order], gs[order]
        b_j = float(gs[n_seed - 1])
        thresholds.append(b_j)
        est = ReliabilityEstimate(
            p_hat=(int(np.sum(gs <= 0.0)) / len(gs)) * cfg.p0**levels,
            method="subset",
            levels=levels,
            n_exact_evals=g.n_evals - nd0,
            thresholds=tuple(thresholds),
        )
        if not b_j > 0.0:
            return est
        if levels == cfg.max_levels:
            raise SubsetStallError(
                f"threshold stalled at b={b_j:.6g} after {levels} levels "
                f"(limit state may be bounded away from 0)",
                est,
            )
        # chains in lockstep: state (n_seed, d); population = all visited states
        rng = stream.child("mm", levels).rng()
        cur_u, cur_g = u[:n_seed], gs[:n_seed]
        pop_u, pop_g = [cur_u], [cur_g]
        for _ in range(chain_len - 1):
            cur_u, cur_g = _metropolis_step(
                cur_u, cur_g, b_j, g, theta, input, cfg.proposal_std, rng
            )
            pop_u.append(cur_u)
            pop_g.append(cur_g)
        u = np.concatenate(pop_u)
        gs = np.concatenate(pop_g)


def hybrid_estimate(
    g: LimitState,
    theta,
    input: RandomInput,
    cfg: HybridConfig,
    stream: SampleStream,
    draw=None,
) -> ReliabilityEstimate:
    """Surrogate-screened Monte Carlo estimate of P(g <= 0).

    A polynomial chaos surrogate ghat of total degree pce_order (4), fitted by
    least squares in the monomial basis (pce.basis_matrix; the same polynomial
    as a Hermite-basis fit) from n_fit (100) exact evaluations (both
    HybridConfig class constants), classifies the large Monte Carlo batch
    except inside the band |ghat| <= gamma, where the exact model decides.
    The batch is screened in blocks of EVAL_CHUNK rows as its ranges are
    filled, so no batch-sized ghat or mask is built; the band rows of all
    blocks go to the exact model in one call, in draw order, so the block
    size changes no result.
    A batch of at most n_fit samples is plain Monte Carlo (method "mc"): the
    fit alone would cost at least as many exact evaluations as the batch.
    """
    if cfg.n_samples <= cfg.n_fit:
        return mc_estimate(g, theta, input, cfg.n_samples, stream, draw)
    nd0 = g.n_evals
    n_fail = 0
    band_rows = []
    # the batch is drawn (or was started ahead) while the surrogate is fitted
    blocks = _batch_blocks(input, cfg.n_samples, stream, draw)
    indices = pce.multi_indices(input.dim, cfg.pce_order)
    u_fit = input.sample_u(cfg.n_fit, stream.child("fit"))
    g_fit = g.batch(theta, input.from_u(u_fit))
    model = pce.fit_least_squares(u_fit, g_fit, indices)
    for drawn in blocks:
        for start in range(0, len(drawn), EVAL_CHUNK):
            block = drawn[start:start + EVAL_CHUNK]
            ghat = model.evaluate_u(block)
            n_fail += int(np.count_nonzero(ghat < -cfg.gamma))
            band_rows.append(block.take(np.flatnonzero(np.abs(ghat, out=ghat) <= cfg.gamma), axis=0))
    u_band = np.concatenate(band_rows)
    if len(u_band):
        n_fail += int(np.count_nonzero(g.batch(theta, input.from_u(u_band)) <= 0.0))

    return ReliabilityEstimate(
        p_hat=n_fail / cfg.n_samples,
        method="hybrid",
        n_exact_evals=g.n_evals - nd0,
        n_surrogate_evals=cfg.n_samples,
    )


EstimatorConfig = McConfig | SubsetConfig | HybridConfig


def start_draw(input: RandomInput, cfg: EstimatorConfig, stream: SampleStream):
    """Start the Monte Carlo batch of estimate(..., cfg, stream) now, for that call's `draw`.

    Returns None for the subset estimator, whose later samples depend on its
    own evaluations; otherwise the (stream, size, blocks) of a running
    RandomInput.blocks_u draw, which its worker fills whether or not it is read.
    """
    if isinstance(cfg, SubsetConfig):
        return None
    return _start_batch(input, cfg.n_samples, stream)


def estimate(
    g: LimitState,
    theta,
    input: RandomInput,
    cfg: EstimatorConfig,
    stream: SampleStream,
    draw=None,
) -> ReliabilityEstimate:
    """Dispatch on the estimator configuration type.

    draw, if given, is start_draw(input, cfg, stream) called ahead of time; a
    draw of another stream or size raises ValueError.
    """
    if isinstance(cfg, McConfig):
        return mc_estimate(g, theta, input, cfg.n_samples, stream, draw)
    if isinstance(cfg, SubsetConfig):
        if draw is not None:
            raise ValueError("the subset estimator takes no Monte Carlo draw")
        return subset_estimate(g, theta, input, cfg, stream)
    if isinstance(cfg, HybridConfig):
        return hybrid_estimate(g, theta, input, cfg, stream, draw)
    raise TypeError(f"unknown estimator config {type(cfg).__name__}")
