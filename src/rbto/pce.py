"""Polynomial chaos surrogate in standard-normal space.

Basis functions are tensor products of normalized probabilists' Hermite
polynomials He_n(x)/sqrt(n!), orthonormal under the standard-normal weight,
over a total-degree multi-index set. Coefficients are fitted by least squares
on i.i.d. input samples. One three-term recurrence, _hermite_rows, produces
the basis values for both the fit (basis_matrix) and the evaluation
(PceModel.evaluate_u).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


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


def _hermite_rows(x: np.ndarray, out: np.ndarray, roots: list[float]) -> None:
    """Fill row k of out with psi_k(x) = He_k(x)/sqrt(k!), k = 0..len(out)-1.

    x holds the points of one input dimension; each row of out is contiguous.
    roots[k] = sqrt(k). The recurrence psi_{k+1} = (x psi_k - sqrt(k) psi_{k-1})
    / sqrt(k+1) is evaluated in this operation order wherever the basis is built,
    so a fit and its evaluation see identical basis values.
    """
    out[0] = 1.0
    if len(out) > 1:
        out[1] = x
    for k in range(1, len(out) - 1):
        np.multiply(out[1], out[k], out=out[k + 1])
        out[k + 1] -= roots[k] * out[k - 1]
        out[k + 1] /= roots[k + 1]


def _points(u, indices: MultiIndexSet) -> np.ndarray:
    """u as an (n, dim) float array of u-space points."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != indices.dim:
        raise ValueError(f"points have dim {u.shape[1]}, index set has dim {indices.dim}")
    return u


def basis_matrix(u: np.ndarray, indices: MultiIndexSet) -> np.ndarray:
    """Evaluate all basis functions at u-space points, shape (n, n_terms)."""
    u = _points(u, indices)
    rows = np.empty((indices.order + 1, u.shape[0]))
    roots = [math.sqrt(k) for k in range(indices.order + 1)]
    idx = np.array(indices.indices)  # (n_terms, d)
    psi = np.ones((u.shape[0], len(indices)))
    for d in range(indices.dim):
        _hermite_rows(u[:, d], rows, roots)
        psi *= rows[idx[:, d]].T
    return psi


@dataclass
class PceModel:
    """Fitted surrogate in u-space: index set and coefficients."""

    indices: MultiIndexSet
    coefficients: np.ndarray
    condition: float = np.nan

    def __post_init__(self):
        if len(self.coefficients) != len(self.indices):
            raise ValueError("coefficient count must match index-set cardinality")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    def evaluate_u(self, u: np.ndarray) -> np.ndarray:
        """Evaluate at the rows of an (n, dim) matrix of u-space points; shape (n,).

        The (n, n_terms) basis matrix is never built: each term
        coef * prod_d psi_{k_d}(u_d) is formed in one preallocated buffer and
        added to the sum in index-set order. The hybrid screen passes blocks of
        reliability.EVAL_CHUNK rows, so every intermediate stays in cache.
        """
        points = _points(u, self.indices)
        n, dim = points.shape
        roots = [math.sqrt(k) for k in range(self.indices.order + 1)]
        tables = np.empty((dim, self.indices.order + 1, n))  # psi_k of dimension d in tables[d, k]
        for d in range(dim):
            _hermite_rows(points[:, d], tables[d], roots)
        prod = np.empty(n)
        vals = np.zeros(n)
        for coef, index in zip(self.coefficients, self.indices.indices):
            term = np.multiply(tables[0, index[0]], coef, out=prod)
            for d in range(1, dim):
                term *= tables[d, index[d]]
            vals += term
        return vals


def fit_least_squares(
    u_samples: np.ndarray,
    values: np.ndarray,
    indices: MultiIndexSet,
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
    return PceModel(indices, coef, condition=cond)
