"""Workloads, the measured run loop and the output checks of the rbto benchmark.

Every repetition is one in-process `rbto.cli.main(["run", <config>, ...])` on
a shipped config with the benchmark's iteration count and a seed derived from
the benchmark seed. The outputs of each repetition are checked; a repetition
fails when the command returns non-zero or raises, an output file is missing,
a value is non-finite, history.csv lacks one row per iteration, the post-run
Monte Carlo `final_p_f` disagrees with the exact oracle, or history.csv or
design.csv differ byte-wise from the first run of the same seed.

Each set-up burst is preceded by a host-speed reading (`speed.py`), and the
gated times are the wall times scaled by the speed measured around them:
set-up by the interpreter kernel, repetitions by the array kernel. The raw
wall times are reported beside them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import rbto
from rbto import cli

from oracle import final_design_quality, reliability_index
import speed
import tracing

SETUP_BURST_S = 0.1  # set-up timing before each repetition, so it sees the same machine state
SETUP_BURST_MAX = 50
LOOP_CAP_S = 120.0  # hard stop well inside the 180 s limit of one benchmark run
POSTHOC_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    config: str
    iterations: int
    seeds: int  # distinct optimizer seeds per run; quality metrics are their median


# Why each workload exists is recorded in BENCHMARK.json. The L-bracket stops
# at 100 iterations, on its first approach to the P_F boundary: later, its
# known limit cycle makes the final design vary 0.04-1.9 p_a across seeds.
WORKLOADS = {
    "truss-hybrid": Workload("configs/truss_hybrid.json", 1000, 3),
    "lbeam-hybrid": Workload("configs/beam_lshape.json", 100, 5),
}


@dataclass
class Rep:
    seed: int
    ok: bool
    reason: str
    run_s: float
    summary: dict | None = None
    block: int = 0  # index of the host-speed reading taken before this repetition


class Bench:
    """One benchmark run: a workload, its derived seeds and every repetition."""

    def __init__(self, root: Path, name: str, seed: int, work_dir: Path):
        self.workload = WORKLOADS[name]
        self.config_path = root / self.workload.config
        self.p_a = cli.load_config(self.config_path).p_a
        self.seeds = [self.workload.seeds * seed + j for j in range(self.workload.seeds)]
        self.work_dir = work_dir
        self.reference: dict[int, tuple[bytes, bytes]] = {}
        self.quality: dict[int, dict] = {}
        self.reps: list[Rep] = []
        self.context = None
        self.speeds: list[dict[str, float]] = []  # speed.reading() before each set-up burst, and at the end
        self.setup_bursts: list[tuple[float, int]] = []  # (median set-up wall time, index into speeds)

    # -- set-up -----------------------------------------------------------
    def time_setup(self) -> None:
        """Read the host speed, then time cli.build_problem(cli.load_config(path)) for one burst."""
        self.speeds.append(speed.reading())
        times = []
        deadline = perf_counter() + SETUP_BURST_S
        for _ in range(SETUP_BURST_MAX):
            start = perf_counter()
            _, self.context = cli.build_problem(cli.load_config(self.config_path))
            times.append(perf_counter() - start)
            if perf_counter() > deadline:
                break
        self.setup_bursts.append((statistics.median(times), len(self.speeds) - 1))

    def speed_of(self, rep: Rep) -> float:
        """Array-kernel speed around a repetition: geometric mean of the readings before and after it."""
        after = min(rep.block + 1, len(self.speeds) - 1)
        return math.sqrt(self.speeds[rep.block]["array"] * self.speeds[after]["array"])

    # -- one repetition ---------------------------------------------------
    def run_once(self, seed: int) -> Rep:
        out = self.work_dir / f"seed{seed}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", str(self.config_path), "--out", str(out), "--seed", str(seed),
                "--iterations", str(self.workload.iterations)]
        start = perf_counter()
        code, error = _call_cli(argv)
        elapsed = perf_counter() - start
        rep = Rep(seed, False, error, elapsed) if error else self.check(seed, code, out, elapsed)
        rep.block = len(self.speeds) - 1
        self.reps.append(rep)
        return rep

    def check(self, seed: int, code: int, out: Path, elapsed: float) -> Rep:
        def fail(reason):
            return Rep(seed, False, reason, elapsed)

        if code != 0:
            return fail(f"exit code {code}")
        files = [out / f for f in ("history.csv", "design.csv", "summary.json")]
        missing = [f.name for f in files if not f.is_file()]
        if missing:
            return fail(f"missing {', '.join(missing)}")
        history, design = files[0].read_bytes(), files[1].read_bytes()
        summary = json.loads(files[2].read_text())
        rows = list(csv.reader(io.StringIO(history.decode())))
        if len(rows) - 1 != self.workload.iterations:
            return fail(f"history.csv has {len(rows) - 1} rows, expected {self.workload.iterations}")
        grid = list(csv.reader(io.StringIO(design.decode())))
        if grid and grid[0] == ["lambda", "delta"]:  # truss design header
            grid = grid[1:]
        try:
            finite = all(math.isfinite(float(c)) for row in rows[1:] + grid for c in row if c)
        except ValueError as err:
            return fail(f"unparseable value: {err}")
        if not finite:
            return fail("non-finite value in history.csv or design.csv")
        if not all(math.isfinite(v) for v in _numbers(summary)):
            return fail("non-finite value in summary.json")
        if seed in self.reference:
            if self.reference[seed] != (history, design):
                return fail("history.csv or design.csv differ from the first run of this seed")
        else:
            self.reference[seed] = (history, design)
        p_f, objective = final_design_quality(summary, self.context)
        n = summary["posthoc_samples"]
        expected = n * p_f
        if abs(summary["final_p_f"] * n - expected) > POSTHOC_SIGMAS * math.sqrt(expected) + 3.0:
            return fail(f"post-run MC P_F {summary['final_p_f']:.4e} disagrees with exact {p_f:.4e}")
        self.quality[seed] = {
            "pf_ratio": p_f / self.p_a,
            "beta_ratio": reliability_index(p_f) / reliability_index(self.p_a),
            "objective": objective,
            "exact_g_evals": summary["n_exact_g_evals"],
        }
        return Rep(seed, True, "", elapsed, summary)

    def warm_up(self) -> None:
        """One untimed run up to the first P_F refresh, outside the measurement.

        It pays the lazy imports, allocator growth and page cache of every
        code path once.
        """
        m = cli.load_config(self.config_path).m
        code, error = _call_cli(["run", str(self.config_path), "--out", str(self.work_dir / "warm-up"),
                                 "--seed", str(self.seeds[0]), "--iterations", str(m)])
        if error or code != 0:
            self.reps.append(Rep(self.seeds[0], False, f"warm-up: {error or f'exit code {code}'}", 0.0))

    # -- measured runs ----------------------------------------------------
    def measure(self, seconds: float, traced: bool) -> dict:
        """Set-up bursts and repetitions for about `seconds` after a warm-up.

        Untraced: repetitions cycle through the derived seeds, so every run of
        a seed after its first is checked byte-wise against the first. Traced:
        untraced and traced repetitions of the first seed alternate.
        """
        self.time_setup()
        self.warm_up()
        timed: list[Rep] = []
        traced_reps: list[tuple[Rep, dict, tracing.Tracer]] = []
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            # untraced: every seed has run and the first has run again, so its bytes were compared
            done = traced_reps if traced else len(timed) > len(self.seeds)
            # stop before a repetition that would overrun `seconds`
            if elapsed > LOOP_CAP_S or (elapsed + elapsed / max(len(timed), 1) > seconds and done):
                break
            self.time_setup()
            if traced:
                timed.append(self.run_once(self.seeds[0]))
                with tracing.install(tracing.probes(rbto)) as tracer:
                    rep = self.run_once(self.seeds[0])
                traced_reps.append((rep, tracing.layer_metrics(tracer), tracer))
            else:
                timed.append(self.run_once(self.seeds[len(timed) % len(self.seeds)]))
        self.speeds.append(speed.reading())  # the reading after the last repetition
        return {"timed": timed, "traced": traced_reps}


def _call_cli(argv: list[str]) -> tuple[int | None, str]:
    """(exit code, "") of rbto.cli.main(argv) with stdout captured; (None, reason) if it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return rbto.cli.main(argv), ""
    except Exception as err:  # the command must not raise; record the failure and go on
        return None, f"raised {type(err).__name__}: {err}"


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def wall_times(bench: Bench, result: dict, normalized: bool) -> dict[str, list[float]]:
    """Set-up burst medians and repetition times, each times the host speed around it if `normalized`."""
    ok = [r for r in result["timed"] if r.ok]
    iters = bench.workload.iterations
    factor = {id(r): bench.speed_of(r) if normalized else 1.0 for r in ok}
    return {
        "setup_s": [t * (bench.speeds[i]["python"] if normalized else 1.0) for t, i in bench.setup_bursts],
        "run_s": [r.run_s * factor[id(r)] for r in ok],
        "iter_ms": [1e3 * r.summary["wall_time_s"] / iters * factor[id(r)] for r in ok],
    }


def end_to_end_metrics(bench: Bench, result: dict, peak_rss_mb: float) -> dict[str, dict]:
    quality = list(bench.quality.values())
    samples = {
        **wall_times(bench, result, normalized=True),
        "peak_rss_mb": [peak_rss_mb],
        "exact_g_evals": [q["exact_g_evals"] for q in quality],
        "beta_ratio": [q["beta_ratio"] for q in quality],
        "objective": [q["objective"] for q in quality],
        "ok_frac": [sum(r.ok for r in bench.reps) / len(bench.reps)],
    }
    return {name: summarize(values) for name, values in samples.items() if values}


def layer_metrics(result: dict) -> dict[str, dict]:
    traced = result["traced"]
    per_run = [m for rep, m, _ in traced if rep.ok]
    out = {name: summarize([m[name] for m in per_run]) for name in (per_run[0] if per_run else ())}
    untraced = [r.run_s for r in result["timed"] if r.ok]
    traced_s = [rep.run_s for rep, _, _ in traced if rep.ok]
    if untraced and traced_s:
        out["trace.overhead"] = summarize([statistics.median(traced_s) / statistics.median(untraced)])
    return out


def self_time_table(result: dict) -> list[tuple[str, float]]:
    """Span self ms of the last traced run, largest first."""
    if not result["traced"]:
        return []
    spans = result["traced"][-1][2].by_name()
    return sorted(((name, row["self_ms"]) for name, row in spans.items()), key=lambda t: -t[1])
