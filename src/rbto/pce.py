"""Polynomial chaos surrogate in standard-normal space, in the monomial basis.

The basis functions are the products prod_d u_d**j_d over a total-degree
multi-index set (basis_matrix); PceModel.coefficients and PceModel.condition
refer to them. They span the same space as the normalized Hermite chaos
He_j(u)/sqrt(j!), so the least-squares fit is the same polynomial in either
basis. A fitted model keeps its coefficients as a dense tensor, axis d holding
the powers of input d, evaluated by nested Horner's rule (PceModel.evaluate_u).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class PceFitError(FloatingPointError):
    pass


def multi_indices(dim: int, order: int) -> np.ndarray:
    """All d-tuples with component sum <= order, graded-lexicographically: (n_terms, dim) ints."""
    idx = [t for t in itertools.product(range(order + 1), repeat=dim) if sum(t) <= order]
    idx.sort(key=lambda t: (sum(t), t))
    return np.array(idx)


def basis_matrix(u: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Evaluate the monomials prod_d u_d**j_d at u-space points, shape (n, n_terms)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    psi = np.ones((u.shape[0], len(indices)))
    for d in range(indices.shape[1]):
        psi *= np.vander(u[:, d], indices.max() + 1, increasing=True)[:, indices[:, d]]
    return psi


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
    """Fitted surrogate in u-space: index set, monomial coefficients (one per
    multi-index, of prod_d u_d**j_d) and the condition number of the monomial
    regression matrix the fit solved (nan when not fitted)."""

    indices: np.ndarray  # (n_terms, dim), as multi_indices returns it
    coefficients: np.ndarray
    condition: float = np.nan
    _monomial: np.ndarray = field(init=False, repr=False, compare=False)  # [j_0, ...] of u_0**j_0 * ...

    def __post_init__(self):
        # every axis runs to at least power 1, so an order-0 model is evaluated by the same rule
        self._monomial = np.zeros((max(self.indices.max(), 1) + 1,) * self.indices.shape[1])
        self._monomial[tuple(self.indices.T)] = self.coefficients

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
    indices: np.ndarray,
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
