"""Polynomial chaos surrogate in standard-normal space.

Basis functions are tensor products of normalized probabilists' Hermite
polynomials He_n(x)/sqrt(n!), orthonormal under the standard-normal weight,
over a total-degree multi-index set. Coefficients are fitted by least squares
on i.i.d. input samples, with the basis values from the three-term recurrence
_hermite_rows (basis_matrix). A fitted model is converted once to a dense
tensor of monomial coefficients, axis d holding the powers of input d, and
evaluation (PceModel.evaluate_u) is nested Horner's rule over its axes, which
builds no Hermite values.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite_e


class PceFitError(FloatingPointError):
    pass


@dataclass(frozen=True)
class MultiIndexSet:
    """Total-degree multi-index set in graded-lexicographic order."""

    dim: int
    order: int
    indices: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.indices)


def multi_indices(dim: int, order: int) -> MultiIndexSet:
    """All d-tuples with component sum <= order, graded-lexicographically."""
    idx = [t for t in itertools.product(range(order + 1), repeat=dim) if sum(t) <= order]
    idx.sort(key=lambda t: (sum(t), t))
    return MultiIndexSet(dim, order, tuple(idx))


def _hermite_rows(x: np.ndarray, out: np.ndarray, roots: list[float]) -> None:
    """Fill row k of out with psi_k(x) = He_k(x)/sqrt(k!), k = 0..len(out)-1.

    x holds the points of one input dimension; each row of out is contiguous.
    roots[k] = sqrt(k), for the recurrence psi_{k+1} = (x psi_k - sqrt(k) psi_{k-1})
    / sqrt(k+1).
    """
    out[0] = 1.0
    if len(out) > 1:
        out[1] = x
    for k in range(1, len(out) - 1):
        np.multiply(out[1], out[k], out=out[k + 1])
        out[k + 1] -= roots[k] * out[k - 1]
        out[k + 1] /= roots[k + 1]


def basis_matrix(u: np.ndarray, indices: MultiIndexSet) -> np.ndarray:
    """Evaluate all basis functions at u-space points, shape (n, n_terms)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    rows = np.empty((indices.order + 1, u.shape[0]))
    roots = [math.sqrt(k) for k in range(indices.order + 1)]
    idx = np.array(indices.indices)  # (n_terms, d)
    psi = np.ones((u.shape[0], len(indices)))
    for d in range(indices.dim):
        _hermite_rows(u[:, d], rows, roots)
        psi *= rows[idx[:, d]].T
    return psi


@functools.lru_cache(maxsize=16)  # one per surrogate order in use
def _power_coefficients(order: int) -> np.ndarray:
    """Row k holds the coefficients of psi_k = He_k/sqrt(k!) in powers 0..order of x."""
    power = np.zeros((order + 1, order + 1))
    for k in range(order + 1):
        power[k, : k + 1] = hermite_e.herme2poly(np.eye(k + 1)[k]) / math.sqrt(math.factorial(k))
    power.setflags(write=False)
    return power


def _horner(m: np.ndarray, cols: np.ndarray, bufs: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial with coefficients m[j_e, j_e+1, ...] of u_e**j_e * ...,
    e = len(cols) - m.ndim, at the points cols[:, i] into bufs[e]; len(m) >= 2."""
    e = len(cols) - m.ndim
    acc, x = bufs[e], cols[e]

    def value(j):
        return m[j] if m.ndim == 1 else _horner(m[j], cols, bufs)

    np.multiply(x, value(-1), out=acc)
    for j in range(len(m) - 2, 0, -1):
        acc += value(j)
        acc *= x
    acc += value(0)
    return acc


@dataclass
class PceModel:
    """Fitted surrogate in u-space: index set and coefficients."""

    indices: MultiIndexSet
    coefficients: np.ndarray
    condition: float = np.nan
    _monomial: np.ndarray = field(init=False, repr=False, compare=False)  # [j_0, ...] of u_0**j_0 * ...

    def __post_init__(self):
        # coefficients of the products of Hermite orders, then of powers: one
        # contraction with the power coefficients per dimension, each taking the
        # leading Hermite axis and appending its power axis; every axis runs to
        # at least power 1, so an order-0 model is evaluated by the same rule
        power = _power_coefficients(max(self.indices.order, 1))
        monomial = np.zeros((len(power),) * self.indices.dim)
        monomial[tuple(np.array(self.indices.indices).T)] = self.coefficients
        for _ in range(self.indices.dim):
            monomial = np.tensordot(monomial, power, axes=(0, 0))
        self._monomial = monomial

    def evaluate_u(self, u: np.ndarray) -> np.ndarray:
        """Evaluate at the rows of an (n, dim) matrix of u-space points; shape (n,).

        Nested Horner's rule on the dense monomial tensor, in place: one
        multiply and one add per tensor entry, on whole columns, one buffer
        row per input dimension. Entries outside the total-degree set are
        exact zeros and add nothing. The hybrid screen passes blocks of
        reliability.EVAL_CHUNK rows, so every intermediate stays in cache.
        """
        cols = np.ascontiguousarray(np.atleast_2d(u).T)
        return _horner(self._monomial, cols, np.empty_like(cols))


def fit_least_squares(
    u_samples: np.ndarray,
    values: np.ndarray,
    indices: MultiIndexSet,
) -> PceModel:
    """Least-squares coefficient fit at the given u-space sample points."""
    values = np.asarray(values, dtype=float)
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        raise PceFitError(f"{n_bad} of {values.size} fit values are not finite")
    n_terms = len(indices)
    psi = basis_matrix(u_samples, indices)
    coef, _, rank, svals = np.linalg.lstsq(psi, values, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if rank < n_terms:
        raise PceFitError(
            f"rank-deficient regression matrix (rank {rank} < {n_terms} terms, "
            f"condition estimate {cond:.3e})"
        )
    return PceModel(indices, coef, condition=cond)
