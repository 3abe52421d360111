"""Polynomial chaos surrogate in standard-normal space.

Basis functions are tensor products of normalized probabilists' Hermite
polynomials He_n(x)/sqrt(n!), orthonormal under the standard-normal weight,
over a total-degree multi-index set. Coefficients are fitted by least squares
on i.i.d. input samples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sampling import RandomInput


EVAL_CHUNK = 1 << 14  # rows per chunk when evaluating a fitted surrogate


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
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    idx = [t for t in itertools.product(range(order + 1), repeat=dim) if sum(t) <= order]
    idx.sort(key=lambda t: (sum(t), t))
    assert len(idx) == math.comb(order + dim, dim)
    return MultiIndexSet(dim, order, tuple(idx))


def hermite(n: int, x):
    """Normalized probabilists' Hermite polynomial He_n(x)/sqrt(n!)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(x, dtype=float)
    return _hermite_table(x, n)[..., n]


def _hermite_table(x: np.ndarray, max_order: int) -> np.ndarray:
    """Values of the normalized basis for all orders 0..max_order, stacked last."""
    out = np.empty(x.shape + (max_order + 1,))
    out[..., 0] = 1.0
    if max_order >= 1:
        out[..., 1] = x
    for n in range(1, max_order):
        # psi_{n+1} = (x psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1)
        out[..., n + 1] = (x * out[..., n] - np.sqrt(n) * out[..., n - 1]) / np.sqrt(n + 1)
    return out


def _points(u, indices: MultiIndexSet) -> np.ndarray:
    """u as an (n, dim) float array of u-space points."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != indices.dim:
        raise ValueError(f"points have dim {u.shape[1]}, index set has dim {indices.dim}")
    return u


def basis_matrix(u: np.ndarray, indices: MultiIndexSet) -> np.ndarray:
    """Evaluate all basis functions at u-space points, shape (n, n_terms)."""
    u = _points(u, indices)
    tables = _hermite_table(u, indices.order)  # (n, d, order+1)
    idx = np.array(indices.indices)  # (n_terms, d)
    psi = np.ones((u.shape[0], len(indices)))
    for d in range(indices.dim):
        psi *= tables[:, d, idx[:, d]]
    return psi


@dataclass
class PceModel:
    """Fitted surrogate: index set, coefficients, and the input map."""

    indices: MultiIndexSet
    coefficients: np.ndarray
    input: RandomInput
    condition: float = np.nan

    def __post_init__(self):
        if len(self.coefficients) != len(self.indices):
            raise ValueError("coefficient count must match index-set cardinality")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    def evaluate_u(self, u: np.ndarray) -> np.ndarray:
        """Evaluate at u-space points; shape (n,) for a matrix, scalar for a vector.

        Sums the expansion term by term over chunks of EVAL_CHUNK rows, so the
        (n, n_terms) basis matrix is never built.
        """
        points = _points(u, self.indices)
        vals = np.empty(points.shape[0])
        for start in range(0, points.shape[0], EVAL_CHUNK):
            tables = _hermite_table(points[start:start + EVAL_CHUNK], self.indices.order)
            acc = np.zeros(tables.shape[0])
            for coef, index in zip(self.coefficients, self.indices.indices):
                term = coef * tables[:, 0, index[0]]
                for d in range(1, self.indices.dim):
                    term *= tables[:, d, index[d]]
                acc += term
            vals[start:start + EVAL_CHUNK] = acc
        return float(vals[0]) if np.ndim(u) == 1 else vals

    def evaluate(self, xi_physical: np.ndarray):
        """Evaluate at physical-space points via the u-space transform."""
        return self.evaluate_u(self.input.to_u(np.asarray(xi_physical, dtype=float)))


def fit_least_squares(
    u_samples: np.ndarray,
    values: np.ndarray,
    indices: MultiIndexSet,
    input: RandomInput,
) -> PceModel:
    """Least-squares coefficient fit at the given u-space sample points."""
    u_samples = np.atleast_2d(np.asarray(u_samples, dtype=float))
    values = np.asarray(values, dtype=float)
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        raise PceFitError(f"{n_bad} of {values.size} fit values are not finite")
    n_terms = len(indices)
    if u_samples.shape[0] < n_terms:
        raise PceFitError(
            f"need at least {n_terms} fit samples for {n_terms} basis terms, "
            f"got {u_samples.shape[0]}"
        )
    psi = basis_matrix(u_samples, indices)
    coef, _, rank, svals = np.linalg.lstsq(psi, values, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if rank < n_terms:
        raise PceFitError(
            f"rank-deficient regression matrix (rank {rank} < {n_terms} terms, "
            f"condition estimate {cond:.3e})"
        )
    return PceModel(indices, coef, input, condition=cond)
