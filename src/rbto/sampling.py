"""Random inputs, reproducible sample streams, and the u-space to physical-space transform.

All estimators and surrogates in this package operate internally in
standard-normal space ("u-space"); physical realizations are produced by
mapping u-space draws through the marginal transforms defined here.
Lognormal marginals are specified by their physical-space mean and standard
deviation and are moment-matched:

    sigma_ln^2 = ln(1 + (std/mean)^2),   mu_ln = ln(mean) - sigma_ln^2 / 2.
"""
from __future__ import annotations

import collections
import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DRAW_AHEAD = 2  # blocks a draw worker fills ahead of its caller; a draw holds DRAW_AHEAD + 1 blocks


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
        """Start drawing sample_u(n, stream); return a generator of its points in blocks.

        The blocks come in order, at most `rows` rows each, and equal the single
        draw bit for bit (PCG64 fills sequentially). stream.rng() is called here,
        on the caller's thread, and one worker thread starts filling at once, up
        to DRAW_AHEAD blocks ahead of the caller, so a draw can be started well
        before it is read. The first DRAW_AHEAD blocks are filled by one call:
        the worker needs the GIL once for them, and a caller that keeps taking
        and releasing the GIL can hold it off for many milliseconds. The blocks
        are views of a ring of DRAW_AHEAD + 1 slots, so a block is valid only
        until the next one is requested. Closing the generator, however it ends
        and even before its first block, shuts the worker down.
        """
        if n < 1:
            raise ValueError("sample count must be >= 1")

        def blocks():
            rng = stream.rng()
            n_blocks = -(-n // rows)
            slots = min(DRAW_AHEAD + 1, n_blocks)
            ring = np.empty((slots * min(rows, n), self.dim))  # block k lives in slot k % slots

            def fill(first: int, count: int) -> None:  # blocks first .. first + count - 1, in adjacent slots
                start = (first % slots) * rows
                rng.standard_normal(out=ring[start:start + min(count * rows, n - first * rows)])

            pool = ThreadPoolExecutor(max_workers=1)
            try:
                ahead = min(DRAW_AHEAD, n_blocks)
                pending = collections.deque([pool.submit(fill, 0, ahead)] * ahead)
                yield None  # started: the worker is filling
                for k in range(n_blocks):
                    pending.popleft().result()
                    if k + DRAW_AHEAD < n_blocks:
                        pending.append(pool.submit(fill, k + DRAW_AHEAD, 1))
                    start = (k % slots) * rows
                    yield ring[start:start + min(rows, n - k * rows)]
            finally:
                pool.shutdown(cancel_futures=True)

        draw = blocks()
        next(draw)
        return draw

    def from_u(self, u: np.ndarray) -> np.ndarray:
        """Map u-space points to physical space (vector or n x dim matrix)."""
        x = np.array(u, dtype=float)  # a copy; standard-normal columns stay as drawn
        for i, rv in enumerate(self.components):
            if isinstance(rv, Lognormal):
                x[..., i] = np.exp(rv.mu_ln + rv.sigma_ln * x[..., i])
        return x
