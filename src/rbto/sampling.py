"""Random inputs, reproducible sample streams, and the u-space to physical-space transform.

All estimators and surrogates in this package operate internally in
standard-normal space ("u-space"); physical realizations are produced by
mapping u-space draws through the marginal transforms defined here.
Lognormal marginals are specified by their physical-space mean and standard
deviation and are moment-matched:

    sigma_ln^2 = ln(1 + (std/mean)^2),   mu_ln = ln(mean) - sigma_ln^2 / 2.

A SampleStream's SeedSequence words are made once, with the stream (child()
appends the new labels' words to its parent's), so rng(), called for every
mini-batch of a run, encodes nothing.

RandomInput.blocks_u draws a Monte Carlo batch into one array on two threads:
a worker queues every fill at the start and exits after the last (nothing is
closed). Ranges reach the caller as their fills finish; while none is ready,
the caller draws the last fill still queued itself. The first fill
(DRAW_AHEAD blocks) comes from the stream's own generator and each later
block of DRAW_BLOCK rows from one of its own, so these two constants fix the
bits whichever thread drew a block; only the order in which ranges are read
varies.
"""
from __future__ import annotations

import functools
import hashlib
import operator
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

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


def _words(value: int) -> bytes:
    """The 32-bit words, least significant first, that SeedSequence splits a
    non-negative int into, as little-endian bytes."""
    return value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little")


_INT_TAG, _STR_TAG = _words(1), _words(2)  # the word ahead of an int label, of a str label's digest


@functools.lru_cache(maxsize=128)  # labels are a handful of names fixed in the code
def _digest_words(label: str) -> bytes:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return _STR_TAG + _words(int.from_bytes(digest, "little"))


def _label_words(label) -> bytes:
    # Stable across processes; never use built-in hash() here.
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream path labels must be non-negative, got {label}")
        return _INT_TAG + _words(int(label))
    if isinstance(label, str):
        return _digest_words(label)
    raise TypeError(f"stream path labels must be int or str, got {type(label).__name__}")


@dataclass(frozen=True)
class SampleStream:
    """Named substream of a root seed.

    Two streams with equal (seed, path) produce identical sequences; distinct
    paths give statistically independent sequences. Immutable, so a stream can
    be shared freely; every use site derives its own generator via rng().

    words is the SeedSequence entropy of (seed, path) as little-endian 32-bit
    words: those of seed, then per label 1 and an int's words or 2 and those
    of a str's 8-byte blake2b digest. They are made and checked once per
    stream: in full by the constructor, by child() as the parent's words plus
    the new labels'.
    """

    seed: int
    path: tuple = ()
    words: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        words = _words(operator.index(self.seed)) + b"".join(map(_label_words, self.path))
        object.__setattr__(self, "words", words)

    def child(self, *labels) -> "SampleStream":
        words = self.words + b"".join(map(_label_words, labels))  # raises on a bad label here
        stream = object.__new__(SampleStream)  # the path before labels is checked already
        vars(stream).update(seed=self.seed, path=self.path + labels, words=words)
        return stream

    def rng(self) -> np.random.Generator:
        # an array of the words skips SeedSequence's per-int conversion
        seq = np.random.SeedSequence(np.frombuffer(self.words, dtype="<u4"))
        return np.random.Generator(np.random.PCG64(seq))


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
        can hold the worker off the GIL for milliseconds. Each range is yielded
        once, as soon as it is filled, in the order fills finish (not in draw
        order), and stays valid. While no range is ready, the caller cancels
        the last fill still queued and draws it itself. The worker exits after
        its last fill, read or not.
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
    """Yield each range as soon as its fill is done, in the order fills finish.

    While no range is ready, the last fill still queued is drawn here; with
    none left to take, wait for the first worker fill to finish.
    """
    pending = dict(enumerate(fills))  # fills not yet yielded
    last = len(fills)  # fills[last:] were drawn here
    while pending:
        ready = [i for i, fill in pending.items() if fill.done()]
        if ready:
            for i in ready:
                pending.pop(i).result()  # re-raises what the fill raised
                yield ranges[i]
        elif last > 0 and fills[last - 1].cancel():  # fails once the worker started it
            last -= 1
            del pending[last]
            rngs[last].standard_normal(out=ranges[last])
            yield ranges[last]
        else:
            wait(pending.values(), return_when=FIRST_COMPLETED)
