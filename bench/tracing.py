"""Span tracer that wraps rbto's layer boundaries from outside the package.

`install(probes(rbto))` replaces each probed name with a timing wrapper and restores
the original object on exit. A name is patched where its caller looks it up:
names bound with `from ... import` are patched in the importing module
(`rbto.sgd.estimate`, `rbto.cli.run_estimator`, `rbto.fem.cholesky_banded`),
functions called as module attributes on their module
(`rbto.failure_density.update`), methods on their class.

Spans live in memory as parallel lists: name, start, end and parent index.
The parent is the span open on the call stack, which is sound because rbto is
single-threaded. A span's self time is its duration minus the durations of
its direct children. Counters are incremented at the same boundaries; the
ones derived from argument shapes (banded-factor flops, PCE basis bytes) are
computed, not measured.
"""
from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.context = None  # problem context returned by the traced cli.build_problem
        self.missing: list[str] = []  # probed names the program does not define
        self._stack: list[int] = []

    def wrap(self, fn: Callable, span: str | None, count: Callable | None) -> Callable:
        """Wrapper recording a span named `span` (None: counters only) around fn."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.names)
                tracer.names.append(span)
                tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
                tracer.ends.append(math.nan)
                tracer._stack.append(idx)
                tracer.starts.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.ends[idx] = perf_counter()
                    tracer._stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) ms and self ms."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out[name]
            row["calls"] += 1
            row["ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - child[i])
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


@dataclass(frozen=True)
class Probe:
    owner: object  # module or class holding the name
    attr: str
    span: str | None
    count: Callable | None = None


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _count_factor(tracer, args, result):
    w1, n = args[0].shape  # upper banded storage: (bandwidth + 1, n)
    tracer.counters["fem.factor_flop"] += n * (w1 - 1) ** 2


def _count_basis(tracer, args, result):
    tracer.counters["pce.basis_bytes"] += _rows(args[0]) * len(args[1]) * 8


def _count_eval_points(tracer, args, result):
    tracer.counters["pce.eval_points"] += _rows(args[1])


def _count_batch(tracer, args, result):
    tracer.counters["reliability.exact_evals"] += _rows(args[2])


def _count_draw(tracer, args, result):
    tracer.counters["sampling.draw_points"] += int(args[1])


def _count_refresh(tracer, args, result):
    cfg = args[3]
    c = tracer.counters
    c["reliability.surrogate_evals"] += result.n_surrogate_evals
    if result.method == "hybrid":
        c["reliability.band_evals"] += result.n_exact_evals - cfg.n_fit
        c["reliability.screened"] += result.n_surrogate_evals


def _keep_context(tracer, args, result):
    tracer.context = result[1]


def probes(rbto) -> list[Probe]:
    """Every traced boundary of the eight rbto modules."""
    cli, fem, pce, sampling = rbto.cli, rbto.fem, rbto.pce, rbto.sampling
    return [
        Probe(cli, "main", "cli.main"),
        Probe(cli, "build_problem", "cli.setup", _keep_context),
        Probe(cli, "run_optimizer", "sgd.loop"),
        Probe(cli, "run_estimator", "cli.posthoc"),
        Probe(cli, "_atomic_write", "cli.write"),
        Probe(fem, "write_density_csv", "cli.write"),
        Probe(fem, "write_density_pgm", "cli.write"),
        Probe(rbto.sgd, "estimate", "reliability.refresh", _count_refresh),
        Probe(rbto.sgd, "stochastic_gradient", "sgd.step"),
        Probe(rbto.failure_density, "update", "failure_density.update"),
        Probe(rbto.failure_density, "penalty_gradient", "failure_density.penalty"),
        Probe(rbto.reliability.LimitState, "batch", "reliability.batch", _count_batch),
        Probe(pce, "fit_least_squares", "pce.fit"),
        Probe(pce.PceModel, "evaluate_u", "pce.eval", _count_eval_points),
        Probe(pce, "basis_matrix", None, _count_basis),
        Probe(sampling.SampleStream, "rng", "sampling.rng"),
        Probe(sampling.RandomInput, "sample", "sampling.draw", _count_draw),
        Probe(sampling.RandomInput, "sample_u", "sampling.draw", _count_draw),
        Probe(fem, "cholesky_banded", "fem.factor", _count_factor),
        Probe(fem, "cho_solve_banded", "fem.backsolve"),
        Probe(fem, "solve_compliance", "fem.solve"),
        Probe(fem, "compliance_sensitivity", "fem.sensitivity"),
        Probe(fem, "filter_forward", "fem.filter"),
        Probe(fem, "filter_backward", "fem.filter"),
        Probe(fem.BeamProblem, "unit_solution", "fem.unit_solution"),
        Probe(rbto.truss, "limit_state", "truss.limit_state"),
    ]


@contextlib.contextmanager
def install(probe_list: list[Probe]):
    """Patch every probe for the duration of the block; always restore.

    A probed name the program no longer defines is skipped and listed in
    `tracer.missing`, so a refactor that removes a wrapper leaves the rest of
    the trace usable and its metrics read 0.
    """
    tracer = Tracer()
    saved = []
    try:
        for p in probe_list:
            original = vars(p.owner).get(p.attr)
            if original is None:
                tracer.missing.append(f"{p.owner.__name__}.{p.attr}")
                continue
            saved.append((p.owner, p.attr, original))
            setattr(p.owner, p.attr, tracer.wrap(original, p.span, p.count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


COMPUTED = ("fem.factor_gflop", "pce.basis_bytes")  # derived from argument shapes

# Which end-to-end metric each layer metric should move, and where:
#   fem.factor_*, fem.unit_solution_calls, fem.solves, fem.cache_hit_ratio
#       iter_ms, run_s on lbeam-hybrid; flat on truss-hybrid
#   fem.backsolve_ms, fem.assembly_ms, fem.sensitivity_ms, fem.filter_*
#       iter_ms on lbeam-hybrid (small shares)
#   pce.*           run_s, peak_rss_mb on truss-hybrid (~90%); ~2-3% of the
#                   L-bracket
#   reliability.*   exact_g_evals, run_s everywhere; band_frac on both
#   cli.*           run_s, setup_s everywhere; setup mainly on lbeam-hybrid
#   sampling.*, sgd.*, truss.*
#                   run_s, iter_ms on truss-hybrid (per-iteration overhead)
#   failure_density.*
#                   beta_ratio, objective (negligible time)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, all but trace.overhead.

    `*_calls` are span counts and `*_ms` inclusive span times, except
    fem.assembly_ms and sgd.loop_self_ms, which are self times.
    """
    spans = tracer.by_name()
    c = tracer.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ms(name, key="ms"):
        return spans.get(name, {}).get(key, 0.0)

    unit_calls = calls("fem.unit_solution")
    solves = getattr(tracer.context, "n_solves", 0)
    screened = c["reliability.screened"]
    return {
        "fem.factor_calls": calls("fem.factor"),
        "fem.factor_ms": ms("fem.factor"),
        "fem.factor_gflop": c["fem.factor_flop"] / 1e9,
        "fem.backsolve_ms": ms("fem.backsolve"),
        "fem.assembly_ms": ms("fem.solve", "self_ms"),
        "fem.unit_solution_calls": unit_calls,
        "fem.solves": solves,
        "fem.cache_hit_ratio": 1.0 - solves / unit_calls if unit_calls else 0.0,
        "fem.sensitivity_ms": ms("fem.sensitivity"),
        "fem.filter_calls": calls("fem.filter"),
        "fem.filter_ms": ms("fem.filter"),
        "pce.fit_calls": calls("pce.fit"),
        "pce.fit_ms": ms("pce.fit"),
        "pce.eval_points": c["pce.eval_points"],
        "pce.eval_ms": ms("pce.eval"),
        "pce.basis_bytes": c["pce.basis_bytes"],
        "reliability.refresh_calls": calls("reliability.refresh"),
        "reliability.refresh_ms": ms("reliability.refresh"),
        "reliability.exact_evals": c["reliability.exact_evals"],
        "reliability.batch_calls": calls("reliability.batch"),
        "reliability.batch_ms": ms("reliability.batch"),
        "reliability.surrogate_evals": c["reliability.surrogate_evals"],
        "reliability.band_frac": c["reliability.band_evals"] / screened if screened else 0.0,
        "cli.posthoc_ms": ms("cli.posthoc"),
        "cli.write_ms": ms("cli.write"),
        "cli.setup_ms": ms("cli.setup"),
        "sampling.rng_calls": calls("sampling.rng"),
        "sampling.rng_ms": ms("sampling.rng"),
        "sampling.draw_points": c["sampling.draw_points"],
        "sampling.draw_ms": ms("sampling.draw"),
        "sgd.step_calls": calls("sgd.step"),
        "sgd.step_ms": ms("sgd.step"),
        "sgd.loop_self_ms": ms("sgd.loop", "self_ms"),
        "failure_density.update_calls": calls("failure_density.update"),
        "failure_density.update_ms": ms("failure_density.update"),
        "failure_density.penalty_ms": ms("failure_density.penalty"),
        "truss.limit_state_calls": calls("truss.limit_state"),
        "truss.limit_state_ms": ms("truss.limit_state"),
    }
