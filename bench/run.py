"""rbto benchmark: `rbto run` on two shipped configs, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload lbeam-hybrid --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50     # every workload

`--trace 0` reports the end-to-end metrics, measured with tracing off. Their
times (setup_s, run_s, iter_ms) are wall times scaled to the full speed of a
reference host by `speed.py`, because the shared host drifts by up to 2x; the
raw wall times are printed beside them and kept in the results file.
`--trace 1` reports the per-layer metrics of a separate traced run, in which
`tracing.py` wraps the public functions of each rbto module from outside.
Human-readable tables and the environment record go to stdout first; the
last line is one JSON object with keys correct, attempted, failed, metrics.
Everything a run writes stays in `bench/_work/`, including a results file
with quartiles, sample counts, per-seed quality and (traced) the spans.

BLAS threads are pinned to BLAS_THREADS before numpy is imported, because one
thread gave the steadiest banded-Cholesky timings. The checks in
`bench/checks.py` run with `python3 -m pytest bench/checks.py`; the file name
keeps them out of the default test collection.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # workloads, metric names, units
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


def _git_commit(root: Path) -> str | None:
    """HEAD commit, or None when the tree is not a git clone."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    sources = sorted((root / "src" / "rbto").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())

    def blas(mod):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_rbto_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "rbto" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no rbto source tree under {ROOT}: need src/rbto and configs/", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import rbto

    if Path(rbto.__file__).resolve().parent != ROOT / "src" / "rbto":
        print(f"imported rbto from {rbto.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    import tracing

    work_dir = WORK / args.workload
    bench = harness.Bench(ROOT, args.workload, args.seed, work_dir)
    result = bench.measure(args.seconds, traced=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        stats = harness.layer_metrics(result)
    else:
        stats = harness.end_to_end_metrics(bench, result, peak_rss_mb)
    section = SPEC["per_layer" if args.trace else "end_to_end"]
    declared = [(m["name"], m["unit"], m["better"]) for m in section]
    failed = [r for r in bench.reps if not r.ok]
    env = environment(ROOT)
    raw = {name: harness.summarize(values)
           for name, values in harness.wall_times(bench, result, normalized=False).items() if values}

    print(f"workload {args.workload}  seed {args.seed}  seeds {bench.seeds}  "
          f"iterations {bench.workload.iterations}  trace {args.trace}")
    for name, unit, better in declared:
        if name in stats:
            s = stats[name]
            note = " (computed)" if name in tracing.COMPUTED else ""
            print(f"  {name:<30} {s['median']:>14.6g} {unit:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}  ({better} is better){note}")
    if args.trace:
        missing = sorted({name for _, _, tracer in result["traced"] for name in tracer.missing})
        if missing:
            print("  not probed (no longer defined): " + ", ".join(missing))
        print("  largest span self times (ms):")
        for name, self_ms in harness.self_time_table(result)[:8]:
            print(f"    {name:<28} {self_ms:10.1f}")
    else:
        print("  raw wall times (median): " + "  ".join(f"{name} {s['median']:.6g}"
                                                        for name, s in raw.items()))
        speeds = [r[k] for r in bench.speeds for k in r]
        print(f"  host speed: {min(speeds):.3f}-{max(speeds):.3f} of the reference, "
              f"{len(bench.speeds)} readings")
        print("  per-seed quality: " + json.dumps(bench.quality))
    for rep in failed:
        print(f"  FAILED seed {rep.seed}: {rep.reason}")
    print("environment " + json.dumps(env))

    record = {
        "workload": args.workload, "seed": args.seed, "seeds": bench.seeds,
        "iterations": bench.workload.iterations, "trace": args.trace, "environment": env,
        "metrics": stats, "quality": bench.quality,
        "host_speed": bench.speeds, "raw_wall": raw,
        "runs": [{"seed": r.seed, "ok": r.ok, "reason": r.reason, "run_s": r.run_s,
                  "speed": bench.speed_of(r)} for r in bench.reps],
        "setup_bursts": bench.setup_bursts,
        "computed_counters": tracing.COMPUTED,
    }
    if result["traced"]:
        record["spans"] = result["traced"][-1][2].spans()
    work_dir.mkdir(parents=True, exist_ok=True)
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit, _ in declared if name in stats}
    correct = not failed and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": len(bench.reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
