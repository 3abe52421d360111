"""Random inputs, reproducible sample streams, and the u-space to physical-space transform.

All estimators and surrogates in this package operate internally in
standard-normal space ("u-space"); physical realizations are produced by
mapping u-space draws through the marginal transforms defined here.
Lognormal marginals are specified by their physical-space mean and standard
deviation and are moment-matched:

    sigma_ln^2 = ln(1 + (std/mean)^2),   mu_ln = ln(mean) - sigma_ln^2 / 2.

RandomInput.blocks_u draws a Monte Carlo batch into one array on two threads:
a worker queues every fill at the start and exits after the last (nothing is
closed); whenever the range the caller reads next is not filled, it draws the
last fill still queued itself. The first fill (DRAW_AHEAD blocks) comes from
the stream's own generator and each later block of DRAW_BLOCK rows from one
of its own, so these two constants fix the bits whichever thread drew a block.
"""
from __future__ import annotations

import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DRAW_BLOCK = 1 << 16  # rows per fill of a draw past its first (512 kB at dim 1)
DRAW_AHEAD = 8  # blocks a draw fills in its first call, from the stream's own generator


@dataclass(frozen=True)
class Normal:
    """Standard-normal marginal: the physical value is the u-space draw itself."""


@dataclass(frozen=True)
class Lognormal:
    """Lognormal marginal parameterized by physical-space mean and std."""

    mean: float
    std: float

    @property
    def sigma_ln(self) -> float:
        return float(np.sqrt(np.log(1.0 + (self.std / self.mean) ** 2)))

    @property
    def mu_ln(self) -> float:
        return float(np.log(self.mean) - 0.5 * np.log(1.0 + (self.std / self.mean) ** 2))


RandomVariable = Normal | Lognormal


def _words(value: int) -> list[int]:
    """The 32-bit words, least significant first, that SeedSequence splits a non-negative int into."""
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


@functools.lru_cache(maxsize=128)  # labels are a handful of names fixed in the code
def _digest_words(label: str) -> list[int]:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return [2, *_words(int.from_bytes(digest, "little"))]


def _label_words(label) -> list[int]:
    # Stable across processes; never use built-in hash() here.
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream path labels must be non-negative, got {label}")
        return [1, *_words(int(label))]
    if isinstance(label, str):
        return _digest_words(label)
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
            _label_words(label)

    def child(self, *labels) -> "SampleStream":
        return SampleStream(self.seed, self.path + tuple(labels))

    def rng(self) -> np.random.Generator:
        # SeedSequence([seed, 1, int label, 2, str digest, ...]) from its own 32-bit
        # words: an array of them skips its per-int conversion
        words = _words(self.seed)
        for label in self.path:
            words += _label_words(label)
        return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


@dataclass(frozen=True)
class RandomInput:
    """Ordered vector of independent random variables (the uncertain input).

    Component order is fixed and shared by sampling, the u-space transforms,
    and surrogate basis construction.
    """

    components: tuple[RandomVariable, ...]

    @property
    def dim(self) -> int:
        return len(self.components)

    def sample(self, n: int, stream: SampleStream) -> np.ndarray:
        """Draw n i.i.d. physical-space realizations, shape (n, dim)."""
        u = stream.rng().standard_normal((n, self.dim))
        return self.from_u(u)

    def sample_u(self, n: int, stream: SampleStream) -> np.ndarray:
        """Draw n i.i.d. u-space points, shape (n, dim)."""
        return stream.rng().standard_normal((n, self.dim))

    def blocks_u(self, n: int, stream: SampleStream):
        """Start drawing n u-space points; return an iterator over them in ranges.

        The first fill, min(n, DRAW_AHEAD * DRAW_BLOCK) rows, is sample_u of
        that size; fill b >= 1 is the next DRAW_BLOCK rows (fewer at the end),
        drawn by stream.child(b).rng(). So a draw of at most DRAW_AHEAD *
        DRAW_BLOCK points equals sample_u(n, stream) bit for bit, and the two
        constants define the points past it. Every generator is made here, on
        the caller's thread, and every fill of one (n, dim) array is queued at
        once on one worker thread, the first in one call because a busy caller
        can hold the worker off the GIL for milliseconds. While the range it
        reads next is not filled, the caller cancels the last fill still queued
        and draws it itself. Each range is yielded once filled and stays valid.
        The worker exits after its last fill, read or not.
        """
        edges = [0, *range(min(DRAW_AHEAD * DRAW_BLOCK, n), n, DRAW_BLOCK), n]
        rngs = [stream.rng(), *(stream.child(b).rng() for b in range(1, len(edges) - 1))]
        u = np.empty((n, self.dim))
        ranges = [u[a:b] for a, b in zip(edges, edges[1:])]
        pool = ThreadPoolExecutor(max_workers=1)
        fills = [pool.submit(rng.standard_normal, out=out) for rng, out in zip(rngs, ranges)]
        pool.shutdown(wait=False)
        return _read(ranges, rngs, fills)

    def from_u(self, u: np.ndarray) -> np.ndarray:
        """Map u-space points to physical space (vector or n x dim matrix)."""
        x = np.array(u, dtype=float)  # a copy; standard-normal columns stay as drawn
        for i, rv in enumerate(self.components):
            if isinstance(rv, Lognormal):
                x[..., i] = np.exp(rv.mu_ln + rv.sigma_ln * x[..., i])
        return x


def _read(ranges, rngs, fills):
    """Yield each range once its fill is done, drawing the last queued fills here while it is not."""
    last = len(fills)  # fills from here on are drawn here, running or done
    for i, fill in enumerate(fills):
        while last > i and not fill.done():
            last -= 1
            if fills[last].cancel():
                rngs[last].standard_normal(out=ranges[last])
        if not fill.cancelled():
            fill.result()
        yield ranges[i]
