"""Random inputs, reproducible sample streams, and the u-space to physical-space transform.

All estimators and surrogates in this package operate internally in
standard-normal space ("u-space"); physical realizations are produced by
mapping u-space draws through the marginal transforms defined here.
Lognormal marginals are specified by their physical-space mean and standard
deviation and are moment-matched:

    sigma_ln^2 = ln(1 + (std/mean)^2),   mu_ln = ln(mean) - sigma_ln^2 / 2.

RandomInput.blocks_u draws a large u-space batch into one array on a worker
thread, which queues every fill at the start and exits after the last, and
hands out each range as it is filled; nothing has to be closed.
"""
from __future__ import annotations

import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DRAW_AHEAD = 2  # blocks a draw fills in its first call, before the caller can read any


@dataclass(frozen=True)
class Normal:
    """Standard-normal marginal: the physical value is the u-space draw itself."""


@dataclass(frozen=True)
class Lognormal:
    """Lognormal marginal parameterized by physical-space mean and std."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.mean > 0.0:
            raise ValueError(f"Lognormal mean must be > 0, got {self.mean}")
        if not self.std > 0.0:
            raise ValueError(f"Lognormal std must be > 0, got {self.std}")

    @property
    def sigma_ln(self) -> float:
        return float(np.sqrt(np.log(1.0 + (self.std / self.mean) ** 2)))

    @property
    def mu_ln(self) -> float:
        return float(np.log(self.mean) - 0.5 * np.log(1.0 + (self.std / self.mean) ** 2))


RandomVariable = Normal | Lognormal


@functools.lru_cache(maxsize=128)  # labels are a handful of names fixed in the code
def _digest(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")


def _encode_label(label) -> list[int]:
    # Stable across processes; never use built-in hash() here.
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream path labels must be non-negative, got {label}")
        return [1, int(label)]
    if isinstance(label, str):
        return [2, _digest(label)]
    raise TypeError(f"stream path labels must be int or str, got {type(label).__name__}")


@dataclass(frozen=True)
class SampleStream:
    """Named substream of a root seed.

    Two streams with equal (seed, path) produce identical sequences; distinct
    paths give statistically independent sequences. Immutable, so a stream can
    be shared freely; every use site derives its own generator via rng().
    """

    seed: int
    path: tuple = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        for label in self.path:
            _encode_label(label)

    def child(self, *labels) -> "SampleStream":
        return SampleStream(self.seed, self.path + tuple(labels))

    def rng(self) -> np.random.Generator:
        words = [self.seed]
        for label in self.path:
            words.extend(_encode_label(label))
        return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class RandomInput:
    """Ordered vector of independent random variables (the uncertain input).

    Component order is fixed and shared by sampling, the u-space transforms,
    and surrogate basis construction.
    """

    components: tuple[RandomVariable, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("RandomInput needs at least one component")

    @property
    def dim(self) -> int:
        return len(self.components)

    def sample(self, n: int, stream: SampleStream) -> np.ndarray:
        """Draw n i.i.d. physical-space realizations, shape (n, dim)."""
        if n < 1:
            raise ValueError("sample count must be >= 1")
        u = stream.rng().standard_normal((n, self.dim))
        return self.from_u(u)

    def sample_u(self, n: int, stream: SampleStream) -> np.ndarray:
        """Draw n i.i.d. u-space points, shape (n, dim)."""
        if n < 1:
            raise ValueError("sample count must be >= 1")
        return stream.rng().standard_normal((n, self.dim))

    def blocks_u(self, n: int, stream: SampleStream, rows: int):
        """Start drawing sample_u(n, stream); return an iterator over its points in ranges.

        stream.rng() is called here, on the caller's thread, and every fill of
        one (n, dim) array is queued at once on one worker thread: the first
        DRAW_AHEAD blocks of `rows` rows in one call, since a busy caller can
        hold the worker off the GIL for milliseconds, then one block per call,
        so the caller reads the first ranges while the last are drawn. Each
        range is yielded once filled, stays valid and equals that part of the
        single draw bit for bit. The worker exits after its last fill, read or not.
        """
        if n < 1:
            raise ValueError("sample count must be >= 1")
        rng = stream.rng()
        u = np.empty((n, self.dim))
        edges = [0, *range(min(DRAW_AHEAD * rows, n), n, rows), n]
        pool = ThreadPoolExecutor(max_workers=1)
        fills = [pool.submit(rng.standard_normal, out=u[a:b]) for a, b in zip(edges, edges[1:])]
        pool.shutdown(wait=False)
        return (fill.result() for fill in fills)

    def from_u(self, u: np.ndarray) -> np.ndarray:
        """Map u-space points to physical space (vector or n x dim matrix)."""
        x = np.array(u, dtype=float)  # a copy; standard-normal columns stay as drawn
        for i, rv in enumerate(self.components):
            if isinstance(rv, Lognormal):
                x[..., i] = np.exp(rv.mu_ln + rv.sigma_ln * x[..., i])
        return x
