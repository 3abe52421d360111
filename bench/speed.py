"""Host speed: two fixed kernels timed between the benchmark's repetitions.

The CPUs this benchmark runs on are shared, and their speed drifts in phases
of seconds to minutes, by up to 2x for pure Python and less for array work.
The wall times of a run therefore say as much about the phase as about the
program. `reading()` times two small kernels that do not touch rbto and
returns, for each, REFERENCE_S / measured time: about 1 when the host runs at
full speed, below 1 in a slow phase.

- `python`, a dict loop, tracks interpreter-bound work: the set-up, which
  builds objects (truss) or a mesh (L-bracket).
- `array`, exp and sort of a 200k vector, tracks the runs, which spend their
  time in numpy: PCE screening and banded Cholesky. A third kernel streaming
  an 8 MB vector, tried for the memory-bound PCE screening, made the scaled
  L-bracket times spread more, and its buffer moved the reported peak RSS.

A wall time multiplied by the matching speed measured around it is the time
the same work takes on the unhindered host, so two runs in different phases
report nearly the same figure. The raw times are kept in the results file.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Lower-decile kernel times on a 2-vCPU KVM Xeon host (Python 3.11, numpy 2.4,
# OpenBLAS 0.3, 1 thread) in the fastest phase seen, i.e. that host at full
# speed; in slow phases the lower decile over 40 s was up to 2.3x higher. They
# only fix the scale: the benchmark's scaled times are seconds on that host.
REFERENCE_S = {"python": 2.3e-3, "array": 4.0e-3}
REPEATS = 5

_VECTOR = np.random.default_rng(0).standard_normal(200_000)


def _python() -> None:
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def _array() -> None:
    for _ in range(2):
        np.sort(np.exp(_VECTOR) * _VECTOR)


KERNELS = {"python": _python, "array": _array}

for _kernel in KERNELS.values():  # the first calls pay page faults and allocator growth
    _kernel()


def reading() -> dict[str, float]:
    """Speed of each kernel: REFERENCE_S over its median wall time of REPEATS calls."""
    out = {}
    for name, kernel in KERNELS.items():
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        out[name] = REFERENCE_S[name] / statistics.median(times)
    return out
