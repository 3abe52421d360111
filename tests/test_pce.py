import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from rbto.pce import (
    PceFitError,
    PceModel,
    basis_matrix,
    fit_least_squares,
    multi_indices,
)
from rbto.reliability import EVAL_CHUNK
from rbto.sampling import SampleStream
from rbto.truss import TrussProblem, limit_state


def hermite_chaos_fit(u_fit, values, order):
    """The least-squares fit of values over the normalized Hermite chaos
    prod_d He_{j_d}(u_d)/sqrt(j_d!) of total degree <= order, as a callable."""
    idx = multi_indices(u_fit.shape[1], order)
    norm = np.sqrt([math.factorial(k) for k in range(order + 1)])

    def basis(u):
        psi = np.ones((len(u), len(idx)))
        for d in range(u.shape[1]):
            psi *= (hermite_e.hermevander(u[:, d], order) / norm)[:, idx[:, d]]
        return psi

    coef = np.linalg.lstsq(basis(u_fit), values, rcond=None)[0]
    return lambda u: basis(u) @ coef


def test_multi_index_cardinalities():
    assert len(multi_indices(2, 4)) == 15
    assert multi_indices(1, 3).tolist() == [[0], [1], [2], [3]]
    assert multi_indices(2, 0).tolist() == [[0, 0]]


def test_multi_index_graded_order():
    idx = multi_indices(3, 4)
    assert idx[0].tolist() == [0, 0, 0]
    totals = idx.sum(axis=1).tolist()
    assert totals == sorted(totals)
    assert idx.shape == (math.comb(7, 3), 3)


@pytest.mark.parametrize("dim, seed", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
                                       ("truss", 17)])
def test_fit_is_hermite_chaos_least_squares_fit(dim, seed):
    # the monomial basis spans the Hermite chaos space of the same total degree,
    # so both least-squares fits are one polynomial; held-out points check it
    rng = SampleStream(seed).child("chaos", str(dim)).rng()
    if dim == "truss":
        prob, lam, delta = TrussProblem(), 0.3425, np.deg2rad(43.25)
        u_fit, u_out = rng.standard_normal((100, 1)), rng.standard_normal((10**4, 1))
        g_fit = limit_state(prob, lam, delta, u_fit[:, 0])
    else:
        u_fit, u_out = rng.standard_normal((100, dim)), rng.standard_normal((10**4, dim))
        g_fit = np.exp(0.5 * u_fit[:, 0]) * np.cos(u_fit.sum(axis=1)) + 0.1 * rng.standard_normal(100)
    reference = hermite_chaos_fit(u_fit, g_fit, 4)(u_out)
    values = fit_least_squares(u_fit, g_fit, multi_indices(u_fit.shape[1], 4)).evaluate_u(u_out)
    assert np.abs(values - reference).max() <= 1e-10 * np.abs(reference).max()


def test_exact_recovery_of_low_degree_model():
    idx4 = multi_indices(2, 4)
    idx2 = multi_indices(2, 2)
    rng = SampleStream(3).child("fit").rng()
    coef2 = rng.standard_normal(len(idx2))
    u = rng.standard_normal((2 * len(idx4), 2))
    values = basis_matrix(u, idx2) @ coef2
    model = fit_least_squares(u, values, idx4)
    # low-degree coefficients recovered, the rest vanish
    lookup = {tuple(t): c for t, c in zip(idx4.tolist(), model.coefficients)}
    for t, c in zip(idx2.tolist(), coef2):
        assert lookup[tuple(t)] == pytest.approx(c, abs=1e-10)
    high = [c for t, c in lookup.items() if sum(t) > 2]
    assert np.abs(high).max() < 1e-10


def test_constant_values_give_constant_model():
    idx = multi_indices(2, 3)
    u = SampleStream(5).child("const").rng().standard_normal((40, 2))
    model = fit_least_squares(u, np.full(40, 2.5), idx)
    assert model.coefficients[0] == pytest.approx(2.5, abs=1e-12)
    assert np.abs(model.coefficients[1:]).max() < 1e-12


def test_truss_limit_state_surrogate_holdout():
    prob = TrussProblem()
    lam, delta = 0.3425, np.deg2rad(43.25)
    rng = SampleStream(17).child("truss-pce").rng()
    u_fit = rng.standard_normal((100, 1))
    g_fit = limit_state(prob, lam, delta, u_fit[:, 0])
    model = fit_least_squares(u_fit, g_fit, multi_indices(1, 4))
    u_out = rng.standard_normal((10**4, 1))
    g_out = limit_state(prob, lam, delta, u_out[:, 0])
    rms = np.sqrt(np.mean((model.evaluate_u(u_out) - g_out) ** 2))
    assert rms < 0.01 * (g_out.max() - g_out.min())


def test_square_interpolation_reproduces_values():
    idx = multi_indices(1, 4)
    rng = SampleStream(23).child("interp").rng()
    u = rng.standard_normal((len(idx), 1))
    y = rng.standard_normal(len(idx))
    model = fit_least_squares(u, y, idx)
    assert np.allclose(model.evaluate_u(u), y, atol=1e-8)


def test_rank_deficient_fit_raises_with_condition():
    idx = multi_indices(1, 3)
    u = np.zeros((8, 1))  # all samples identical: rank-1 design matrix
    with pytest.raises(PceFitError, match="condition"):
        fit_least_squares(u, np.ones(8), idx)


def test_underdetermined_fit_rejected():
    idx = multi_indices(2, 4)
    u = SampleStream(1).child("few").rng().standard_normal((len(idx) - 1, 2))
    with pytest.raises(PceFitError):
        fit_least_squares(u, np.zeros(len(idx) - 1), idx)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_chunked_evaluation_matches_basis_matrix(dim):
    idx = multi_indices(dim, 4)
    stream = SampleStream(71).child("chunks", dim)
    coef = stream.child("c").rng().standard_normal(len(idx))
    u = stream.child("u").rng().standard_normal((2 * EVAL_CHUNK + 17, dim))
    model = PceModel(idx, coef)
    reference = basis_matrix(u, idx) @ coef
    values = model.evaluate_u(u)
    assert values.shape == (u.shape[0],)
    assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()
    # the blocks the hybrid screen evaluates give the same values
    blocks = [model.evaluate_u(u[i:i + EVAL_CHUNK]) for i in range(0, len(u), EVAL_CHUNK)]
    assert np.array_equal(np.concatenate(blocks), values)
    point = model.evaluate_u(u[EVAL_CHUNK + 3 : EVAL_CHUNK + 4])
    assert point.shape == (1,)
    assert point[0] == pytest.approx(reference[EVAL_CHUNK + 3], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", range(9))
def test_horner_evaluation_matches_basis_matrix(dim, order):
    # nested Horner's rule on the dense tensor agrees with the monomial basis
    # products to rounding, over draws that reach |u| ~ 4.5
    idx = multi_indices(dim, order)
    stream = SampleStream(72).child("horner", dim, order)
    coef = stream.child("c").rng().standard_normal(len(idx))
    u = stream.child("u").rng().standard_normal((EVAL_CHUNK + 1001, dim))
    reference = basis_matrix(u, idx) @ coef
    values = PceModel(idx, coef).evaluate_u(u)
    assert values.shape == (len(u),)
    assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("dim, zero", [(2, lambda t: t[0] > 0), (3, lambda t: t[0] + t[1] > 0)],
                         ids=["2d_no_u0", "3d_only_u2"])
def test_horner_evaluation_with_zero_planes(dim, zero):
    # coefficients that vanish on every term with a power of u0 (2-D), or on
    # every term but the pure u2 ones (3-D): whole planes of the monomial tensor are zero
    idx = multi_indices(dim, 4)
    stream = SampleStream(73).child("planes", dim)
    coef = stream.child("c").rng().standard_normal(len(idx))
    coef[[i for i, t in enumerate(idx.tolist()) if zero(t)]] = 0.0
    u = stream.child("u").rng().standard_normal((5000, dim))
    reference = basis_matrix(u, idx) @ coef
    values = PceModel(idx, coef).evaluate_u(u)
    assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()


def test_order_zero_model_is_its_constant():
    u = SampleStream(74).rng().standard_normal((100, 3))
    values = PceModel(multi_indices(3, 0), np.array([-1.7])).evaluate_u(u)
    assert values.tolist() == [-1.7] * 100
