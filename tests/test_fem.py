import ctypes
import dataclasses
import itertools
import os
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.spatial

from rbto import fem
from rbto.fem import (
    LBEAM,
    PENAL,
    BandedOperator,
    BeamConfig,
    BeamProblem,
    SolverError,
    build_filter,
    build_lshape_mesh,
    build_rect_mesh,
    compliance_sensitivity,
    element_stiffness,
    filter_backward,
    filter_forward,
    solve_compliance,
    write_density_csv,
    write_density_pgm,
)
from rbto.sampling import SampleStream


def classic_q4_plane_stress(e_mod=1.0, nu=0.3):
    """Closed-form unit-square Q4 plane-stress matrix (independent oracle)."""
    k = np.array([
        0.5 - nu / 6, 0.125 + nu / 8, -0.25 - nu / 12, -0.125 + 3 * nu / 8,
        -0.25 + nu / 12, -0.125 - nu / 8, nu / 6, 0.125 - 3 * nu / 8,
    ])
    idx = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [2, 7, 0, 5, 6, 3, 4, 1],
        [3, 6, 5, 0, 7, 2, 1, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 4, 3, 2, 1, 0, 7, 6],
        [6, 3, 4, 1, 2, 7, 0, 5],
        [7, 2, 1, 4, 3, 6, 5, 0],
    ]
    return e_mod / (1 - nu**2) * k[np.array(idx)]


def compliance(bp, theta, xi):
    """Sampled compliance by the exact rescaling C = P^2 / E0 * C1 of the cached unit solve."""
    c1, _ = bp.unit_solution(theta)
    return float(bp.load_multiplier(xi[0]) ** 2 / xi[1] * c1)


def scaled_load_operator(op, load_mult):
    """A BandedOperator of the same mesh and element matrix under load_mult times the load."""
    mesh = dataclasses.replace(op.mesh, load_vector=load_mult * op.mesh.load_vector)
    return BandedOperator(mesh, op.ke)


def dense_free_stiffness(op, scale):
    """K(scale) assembled densely with op.ke, its rows and columns in op.free_dofs order."""
    k = np.zeros((op.mesh.n_dofs, op.mesh.n_dofs))
    for edof, s in zip(op.mesh.edofs, scale):
        k[np.ix_(edof, edof)] += s * op.ke
    return k[np.ix_(op.free_dofs, op.free_dofs)]


def row_major_lower_band(k, bw):
    """The (bw+1, n) lower band of k in C order: ab[i - j, j] = k[i, j] for i >= j."""
    n = len(k)
    ab = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        ab[d, : n - d] = np.diagonal(k, -d)
    return ab


def compliance_direct(bp, theta, xi):
    """Sampled compliance by its own assembly and solve at modulus E0 and load multiplier P."""
    rho = filter_forward(bp.weights, theta)
    _, c = scaled_load_operator(bp.op, float(bp.load_multiplier(xi[0]))).solve(xi[1] * rho**PENAL)
    return c


def openblas_threads() -> dict:
    """The thread count of every OpenBLAS this process loaded (numpy's and
    scipy's), read through its C API, by library path; {} if none is found."""
    if not os.path.exists("/proc/self/maps"):
        return {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)  # the copy already loaded
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                counts[path] = get()
                break
    return counts


def test_blas_runs_one_thread():
    # conftest.py pins BLAS to one thread before numpy loads
    counts = openblas_threads()
    if not counts:
        pytest.skip("no loaded OpenBLAS found (no /proc/self/maps, or another BLAS)")
    assert set(counts.values()) == {1}, counts


class TestMeshes:
    def test_rect_counts(self):
        m = build_rect_mesh(120, 40)
        assert len(m.nodes) == 4961
        assert m.n_elems == 4800
        assert m.n_dofs == 2 * 121 * 41

    def test_tiny_rect_counts(self):
        m = build_rect_mesh(2, 1)
        assert len(m.nodes) == 6
        assert m.n_elems == 2

    def test_lshape_counts(self):
        assert build_lshape_mesh(72).n_elems == 2880
        assert build_lshape_mesh(6).n_elems == 20

    def test_lshape_node_and_support_counts(self):
        m = build_lshape_mesh(72)
        assert len(m.nodes) == 73 * 73 - 48 * 48
        assert m.fixed_dofs.tolist() == sorted(
            2 * i + k for i in np.flatnonzero(m.nodes[:, 1] == 72.0) for k in (0, 1)
        )
        assert m.fixed_dofs.size == 2 * 25  # the top edge of the 24-element leg

    def test_tiny_rect_matches_hand_written_grid(self):
        m = build_rect_mesh(2, 1)
        assert m.nodes.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]]
        assert m.nodes.dtype == float
        assert m.elems.tolist() == [[0, 2, 3, 1], [2, 4, 5, 3]]
        assert m.elem_grid.tolist() == [[0, 0], [1, 0]]
        assert m.edofs[1].tolist() == [4, 5, 8, 9, 10, 11, 6, 7]
        assert m.fixed_dofs.tolist() == [0, 2, 9]
        assert np.flatnonzero(m.load_vector).tolist() == [3]

    def test_lshape_load_on_boundary(self):
        m = build_lshape_mesh(12)
        load_dofs = np.nonzero(m.load_vector)[0]
        assert load_dofs.size == 1
        node = load_dofs[0] // 2
        x, y = m.nodes[node]
        assert x == 12.0 and y == 2.0  # right face of the horizontal leg, midheight

    def test_rect_load_and_supports(self):
        m = build_rect_mesh(8, 4)
        load_dofs = np.nonzero(m.load_vector)[0]
        node = load_dofs[0] // 2
        assert tuple(m.nodes[node]) == (0.0, 4.0)  # top-left corner
        assert m.load_vector[load_dofs[0]] == -1.0
        assert load_dofs[0] % 2 == 1  # vertical component

    def test_assembled_system_is_spd(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        m = bp.mesh
        # solver factorizes a Cholesky: succeeds iff SPD after constraints
        u, c = solve_compliance(bp.op, np.full(m.n_elems, 0.5))
        assert c > 0.0
        assert np.all(u[m.fixed_dofs] == 0.0)


class TestElementStiffness:
    def test_matches_closed_form(self):
        assert np.allclose(element_stiffness(), classic_q4_plane_stress(), atol=1e-13)

    def test_symmetry(self):
        ke = element_stiffness()
        assert np.array_equal(ke, ke.T)

    def test_rigid_body_modes(self):
        ke = element_stiffness()
        tx = np.array([1.0, 0.0] * 4)
        ty = np.array([0.0, 1.0] * 4)
        assert np.abs(ke @ tx).max() < 1e-12
        assert np.abs(ke @ ty).max() < 1e-12


class TestSolve:
    def test_load_scaling_quadratic(self):
        bp = BeamProblem(BeamConfig(nx=12, ny=4))
        rho = np.full(bp.mesh.n_elems, 0.7)
        _, c1 = bp.op.solve(rho**PENAL)
        _, c3 = scaled_load_operator(bp.op, 3.0).solve(rho**PENAL)
        assert c3 == pytest.approx(9.0 * c1, rel=1e-10)

    def test_modulus_scaling_inverse(self):
        bp = BeamProblem(BeamConfig(nx=12, ny=4))
        rho = np.full(bp.mesh.n_elems, 0.6)
        _, c_one = bp.op.solve(rho**PENAL)
        _, c_two = bp.op.solve(2.0 * rho**PENAL)
        assert c_two == pytest.approx(c_one / 2.0, rel=1e-12)

    def test_against_dense_oracle(self):
        # independent assembly: closed-form element matrix, dense numpy solve
        nx, ny = 12, 4
        m = build_rect_mesh(nx, ny)
        ke = classic_q4_plane_stress()
        n_dofs = m.n_dofs
        k_dense = np.zeros((n_dofs, n_dofs))
        for edof in m.edofs:
            k_dense[np.ix_(edof, edof)] += ke
        free = m.free_dofs
        u_free = np.linalg.solve(k_dense[np.ix_(free, free)], m.load_vector[free])
        c_ref = m.load_vector[free] @ u_free

        bp = BeamProblem(BeamConfig(nx=nx, ny=ny))
        _, c = solve_compliance(bp.op, np.ones(m.n_elems))
        assert c == pytest.approx(c_ref, rel=1e-8)

    @pytest.mark.parametrize("n, load", [
        (6, "shipped"), (12, "shipped"), (18, "shipped"),
        (6, "every_dof"), (12, "every_dof"), (18, "every_dof"),
    ], ids=["6", "12", "18", "6-every_dof", "12-every_dof", "18-every_dof"])
    def test_lshape_blocks_against_dense_oracle(self, n, load):
        m = build_lshape_mesh(n)
        if load == "every_dof":
            # the shipped load lies in the horizontal leg only; this one loads every block
            f = np.zeros(m.n_dofs)
            f[m.free_dofs] = SampleStream(63).child("load", n).rng().standard_normal(m.free_dofs.size)
            m = dataclasses.replace(m, load_vector=f)
        op = BandedOperator(m, element_stiffness())
        assert len(m.blocks) == 3  # two legs, then the corner that separates them
        assert all(m.load_vector[block].any() for block in m.blocks) == (load == "every_dof")
        ke = classic_q4_plane_stress()
        k_dense = np.zeros((m.n_dofs, m.n_dofs))
        rho = SampleStream(61).child("blocks", n).rng().uniform(0.2, 1.0, m.n_elems)
        for edof, r in zip(m.edofs, rho):
            k_dense[np.ix_(edof, edof)] += r**3 * ke
        free = m.free_dofs
        u_ref = np.zeros(m.n_dofs)
        u_ref[free] = np.linalg.solve(k_dense[np.ix_(free, free)], m.load_vector[free])
        u, c = solve_compliance(op, rho)
        assert c == pytest.approx(m.load_vector @ u_ref, rel=1e-10)
        assert np.allclose(u, u_ref, rtol=0.0, atol=1e-10 * np.abs(u_ref).max())

    @pytest.mark.parametrize("n, widths", [
        (6, (9, 9, 15)), (12, (13, 13, 23)), (18, (17, 17, 31)), (72, (53, 53, 103)),
    ], ids=["6", "12", "18", "72"])
    def test_lshape_block_bandwidths(self, n, widths):
        m = build_lshape_mesh(n)
        assert np.array_equal(np.sort(np.concatenate(m.blocks)), m.free_dofs)
        assert BandedOperator(m, element_stiffness()).bandwidths == widths  # 147 at n = 72 as one band

    def test_blocks_other_than_the_last_must_not_couple(self):
        m = build_rect_mesh(4, 2)
        free = m.free_dofs
        m = dataclasses.replace(m, blocks=(free[:6], free[6:12], free[12:]))
        with pytest.raises(ValueError, match="couple only to the last"):
            BandedOperator(m, element_stiffness())

    def test_rect_is_one_natural_order_band(self):
        m = build_rect_mesh(120, 40)
        assert len(m.blocks) == 1 and np.array_equal(m.blocks[0], m.free_dofs)
        assert BandedOperator(m, element_stiffness()).bandwidths == (85,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scale_raises(self, bad):
        m = build_lshape_mesh(6)
        op = BandedOperator(m, element_stiffness())
        scale = np.ones(m.n_elems)
        scale[3] = bad
        with pytest.raises(SolverError, match="non-finite"):
            op.solve(scale)

    def test_singular_system_reports_pivot(self):
        m = build_rect_mesh(4, 2)
        op = BandedOperator(m, element_stiffness())
        with pytest.raises(SolverError, match="smallest diagonal"):
            solve_compliance(op, np.zeros(m.n_elems))

    def test_indefinite_system_reports_the_assembled_diagonal(self):
        # the factorization overwrites the band in place; the message must
        # name the assembled diagonal, not the -1.237e+00 a failed dpbtrf leaves
        m = build_rect_mesh(12, 4)
        op = BandedOperator(m, element_stiffness())
        scale = np.ones(m.n_elems)
        scale[20] = -3.0
        assembled = np.diagonal(dense_free_stiffness(op, scale)).min()
        assert f"{assembled:.3e}" == "-9.890e-01"
        with pytest.raises(SolverError) as err:
            op.solve(scale)
        assert f"smallest diagonal {assembled:.3e})" in str(err.value)

    @pytest.mark.parametrize("cell", [(1, 1), (1, 9), (9, 1)],
                             ids=["corner", "vertical_leg", "horizontal_leg"])
    def test_indefinite_lshape_reports_the_smallest_diagonal_of_all_blocks(self, cell):
        # each block in turn holds the negative diagonal, and the blocks before it factor
        m = build_lshape_mesh(12)
        op = BandedOperator(m, element_stiffness())
        scale = np.ones(m.n_elems)
        scale[np.flatnonzero((m.elem_grid == cell).all(axis=1))] = -5.0
        assembled = np.diagonal(dense_free_stiffness(op, scale)).min()
        assert assembled < 0.0
        with pytest.raises(SolverError) as err:
            op.solve(scale)
        assert f"smallest diagonal {assembled:.3e})" in str(err.value)

    def test_band_is_factored_in_place(self, monkeypatch):
        m = build_lshape_mesh(12)
        op = BandedOperator(m, element_stiffness())
        calls = []

        def recording(ab, *args, **kwargs):
            result = scipy.linalg.cholesky_banded(ab, *args, **kwargs)
            calls.append((ab, kwargs, result))
            return result

        monkeypatch.setattr(fem, "cholesky_banded", recording)
        op.solve(np.ones(m.n_elems))
        assert len(calls) == 3  # one per block
        for (ab, kwargs, result), block in zip(calls, m.blocks):
            assert ab.shape == (fem.BLOCKED_BAND + 1, len(block))  # every band here is narrower
            assert ab.shape[0] >= 66  # LAPACK's blocked dpbtrf
            assert ab.flags.f_contiguous  # LAPACK's layout: no transposing copy
            assert kwargs.get("overwrite_ab") is True
            assert kwargs.get("lower") is True
            assert np.shares_memory(result, ab)

    def test_padded_leg_band_factors_as_its_structural_band(self, monkeypatch):
        m = build_lshape_mesh(72)
        op = BandedOperator(m, element_stiffness())
        assert op.bandwidths[0] == 53 and fem.BLOCKED_BAND == 65
        calls = []

        def recording(ab, *args, **kwargs):
            assembled = ab.copy()
            calls.append((assembled, scipy.linalg.cholesky_banded(ab, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(fem, "cholesky_banded", recording)
        rho = SampleStream(64).child("padded").rng().uniform(0.05, 1.0, m.n_elems)
        solve_compliance(op, rho)
        assembled, chol = calls[0]  # the vertical leg
        assert assembled.shape[0] == chol.shape[0] == 66
        assert not assembled[54:].any() and not chol[54:].any()  # padding rows stay zero
        ref = scipy.linalg.cholesky_banded(assembled[:54], lower=True)  # unblocked dpbtf2
        assert np.allclose(chol[:54], ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("mesh", [build_rect_mesh(12, 4)], ids=["rect"])
    def test_solve_is_bitwise_scipy_on_a_row_major_band(self, mesh):
        op = BandedOperator(mesh, element_stiffness())
        scale = SampleStream(62).child("band").rng().uniform(0.01, 1.0, mesh.n_elems) ** PENAL
        f_free = op.f_free.copy()
        # the band as the operator stores it, BLOCKED_BAND wide
        assert op.bandwidths[0] < fem.BLOCKED_BAND
        ab = row_major_lower_band(dense_free_stiffness(op, scale), fem.BLOCKED_BAND)
        chol = scipy.linalg.cholesky_banded(ab, lower=True)
        u_ref = scipy.linalg.cho_solve_banded((chol, True), f_free)
        u, c = op.solve(scale)
        assert u[op.free_dofs].tobytes() == u_ref.tobytes()
        assert not u[mesh.fixed_dofs].any()
        assert c == float(f_free @ u_ref)
        u_again, c_again = op.solve(scale)
        assert u_again.tobytes() == u.tobytes() and c_again == c
        assert op.f_free.tobytes() == f_free.tobytes()


class TestSensitivityAndFilter:
    def test_sensitivity_nonpositive(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        rho = bp.weights @ np.linspace(0.2, 1.0, bp.mesh.n_elems)
        u, _ = solve_compliance(bp.op, rho)
        assert np.all(compliance_sensitivity(bp.op, rho, u) <= 0.0)

    def test_sensitivity_matches_finite_differences(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        rng = SampleStream(41).child("fd").rng()
        rho = rng.uniform(0.3, 1.0, bp.mesh.n_elems)
        u, _ = solve_compliance(bp.op, rho)
        grad = compliance_sensitivity(bp.op, rho, u)
        step = 1e-6
        for i in rng.choice(bp.mesh.n_elems, size=4, replace=False):
            rp, rm = rho.copy(), rho.copy()
            rp[i] += step
            rm[i] -= step
            _, cp = solve_compliance(bp.op, rp)
            _, cm = solve_compliance(bp.op, rm)
            fd = (cp - cm) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-4)

    def test_compliance_convex_decreasing_along_coordinates(self):
        # spot check at full density: C decreases in each density and the
        # second coordinate difference is nonnegative
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        rho = np.ones(bp.mesh.n_elems)
        step = 0.05
        rng = SampleStream(59).child("convex").rng()
        for i in rng.choice(bp.mesh.n_elems, size=3, replace=False):
            values = []
            for offset in (-2 * step, -step, 0.0):
                r = rho.copy()
                r[i] += offset
                _, c = solve_compliance(bp.op, r)
                values.append(c)
            assert values[0] > values[1] > values[2]  # decreasing in density
            assert values[0] - 2 * values[1] + values[2] > 0.0  # convex

    @pytest.mark.parametrize("config",
                             [BeamConfig(nx=24, ny=8), BeamConfig(**LBEAM, n_grid=24)],
                             ids=["rect", "lshape"])
    def test_sensitivity_matches_the_three_operand_contraction(self, config):
        bp = BeamProblem(config)
        if config.variant == "lshape":
            assert len(bp.mesh.blocks) == 3  # two legs and the corner
        rho = SampleStream(43).child("energy").rng().uniform(0.1, 1.0, bp.mesh.n_elems)
        u, _ = solve_compliance(bp.op, rho)
        ue = u[bp.mesh.edofs]
        factor = PENAL * rho ** (PENAL - 1.0)
        ref = -factor * np.einsum("ei,ij,ej->e", ue, bp.op.ke, ue)
        # relative to the sum of the terms' magnitudes: an element's rigid motion
        # cancels in u_e^T K_e u_e, so the energy itself can sit far below its terms
        terms = factor * np.einsum("ei,ij,ej->e", np.abs(ue), np.abs(bp.op.ke), np.abs(ue))
        grad = compliance_sensitivity(bp.op, rho, u)
        assert np.all(np.abs(grad - ref) <= 1e-12 * terms)

    def test_zero_displacement_zero_sensitivity(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        grad = compliance_sensitivity(bp.op, np.full(bp.mesh.n_elems, 0.5), np.zeros(bp.mesh.n_dofs))
        assert np.all(grad == 0.0)

    def test_filter_preserves_constants(self):
        m = build_rect_mesh(10, 6)
        w = build_filter(m)
        assert np.allclose(filter_forward(w, np.full(m.n_elems, 0.37)), 0.37, atol=1e-14)

    def test_filter_row_sums_one(self):
        m = build_lshape_mesh(12)
        w = build_filter(m)
        assert np.abs(np.asarray(w.sum(axis=1)).ravel() - 1.0).max() < 1e-14

    def test_filter_adjoint_identity(self):
        m = build_rect_mesh(8, 4)
        w = build_filter(m)
        rng = SampleStream(43).child("adj").rng()
        v = rng.standard_normal(m.n_elems)
        d = rng.standard_normal(m.n_elems)
        assert d @ filter_forward(w, v) == pytest.approx(
            filter_backward(w.T.tocsr(), d) @ v, rel=1e-12
        )

    @pytest.mark.parametrize("mesh", [build_lshape_mesh(12), build_rect_mesh(7, 3)],
                             ids=["lshape", "rect"])
    def test_filter_matches_dense_cone_weights(self, mesh):
        c = mesh.elem_grid + 0.5
        cone = np.maximum(fem.FILTER_RADIUS - np.linalg.norm(c[:, None] - c[None], axis=2), 0.0)
        ref = cone / cone.sum(axis=1, keepdims=True)
        assert np.abs(build_filter(mesh).toarray() - ref).max() <= 1e-15

    @pytest.mark.parametrize("mesh", [build_lshape_mesh(72), build_rect_mesh(120, 40),
                                      build_lshape_mesh(12), build_rect_mesh(7, 3)],
                             ids=["lshape-72", "rect-120x40", "lshape-12", "rect-7x3"])
    def test_filter_is_byte_identical_to_kd_tree_search(self, mesh):
        # the same cone filter built by a point search over the element centers
        tree = scipy.spatial.cKDTree(mesh.elem_grid + 0.5)
        near = tree.sparse_distance_matrix(tree, fem.FILTER_RADIUS, output_type="ndarray")
        w = scipy.sparse.csr_matrix((fem.FILTER_RADIUS - near["v"], (near["i"], near["j"])),
                                    shape=(mesh.n_elems, mesh.n_elems))
        ref = (scipy.sparse.diags(1.0 / np.asarray(w.sum(axis=1)).ravel()) @ w).tocsr()
        got = build_filter(mesh)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.data.tobytes() == ref.data.tobytes()

    def test_problem_keeps_the_transposed_filter_as_csr(self):
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=12))
        assert bp.weights_t.format == "csr"
        assert (bp.weights_t != bp.weights.T).nnz == 0
        d = SampleStream(44).child("wt").rng().standard_normal(bp.mesh.n_elems)
        # the same sums in the same order as the CSC transpose it replaces
        assert filter_backward(bp.weights_t, d).tobytes() == (bp.weights.T @ d).tobytes()

    def test_spike_spreads_within_radius_only(self):
        m = build_rect_mesh(9, 9)
        w = build_filter(m)
        spike = np.zeros(m.n_elems)
        center = 4 * 9 + 4
        spike[center] = 1.0
        rho = filter_forward(w, spike)
        c = m.elem_grid + 0.5
        dists = np.linalg.norm(c - c[center], axis=1)
        assert np.all(rho[dists >= 1.5] == 0.0)
        assert rho[center] > 0.0


class TestBeamProblem:
    def test_objective_reduces_to_compliance_without_mass_weight(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2, tau=0.0))
        theta = np.full(bp.mesh.n_elems, 0.8)
        xi = np.array([0.0, 1.0])
        value, _ = bp.objective_batch(theta, xi[None])
        assert value == pytest.approx(compliance(bp, theta, xi), rel=1e-12)

    def test_objective_gradient_matches_finite_differences(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        rng = SampleStream(47).child("objfd").rng()
        xi = np.array([0.4, 0.9])
        step = 1e-6
        worst = 0.0
        for _ in range(10):
            theta = rng.uniform(0.2, 0.9, bp.mesh.n_elems)
            _, grad = bp.objective_batch(theta, xi[None])
            for i in rng.choice(bp.mesh.n_elems, size=3, replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += step
                tm[i] -= step
                vp, _ = bp.objective_batch(tp, xi[None])
                vm, _ = bp.objective_batch(tm, xi[None])
                fd = (vp - vm) / (2 * step)
                worst = max(worst, abs(grad[i] - fd) / abs(fd))
        assert worst < 1e-4

    def test_objective_batch_is_mean_of_single_rows(self):
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=12))
        theta = SampleStream(7).child("t").rng().uniform(0.2, 0.9, bp.mesh.n_elems)
        xis = bp.random_input.sample(8, SampleStream(7).child("xi"))
        value, grad = bp.objective_batch(theta, xis)
        rows = [bp.objective_batch(theta, xi[None]) for xi in xis]
        assert value == pytest.approx(np.mean([v for v, _ in rows]), rel=1e-12)
        assert np.allclose(grad, np.mean([g for _, g in rows], axis=0), rtol=1e-12, atol=0.0)

    def test_expected_objective_matches_monte_carlo(self):
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=12))
        theta = SampleStream(3).child("t").rng().uniform(0.2, 0.9, bp.mesh.n_elems)
        exact = bp.objective_expected(theta)
        xis = bp.random_input.sample(2 * 10**5, SampleStream(9).child("mc"))
        c1, _ = bp.unit_solution(theta)
        scale = bp.load_multiplier(xis[:, 0]) ** 2 / xis[:, 1]
        rho = bp.weights @ theta
        vals = scale * c1 + bp.config.tau * rho.sum()
        se = vals.std() / np.sqrt(len(vals))
        assert abs(exact - vals.mean()) < 3 * se

    def test_filtered_density_computed_once_per_design(self, monkeypatch):
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=12))
        theta = SampleStream(5).child("t").rng().uniform(0.2, 0.9, bp.mesh.n_elems)
        xis = bp.random_input.sample(4, SampleStream(5).child("xi"))
        rho = filter_forward(bp.weights, theta)
        calls = []

        def counting(weights, x):
            calls.append(x)
            return filter_forward(weights, x)

        monkeypatch.setattr(fem, "filter_forward", counting)
        value, _ = bp.objective_batch(theta, xis)
        bp.objective_expected(theta)
        assert len(calls) == 1  # the solve's own filter product, reused by both
        c1, _ = bp.unit_solution(theta)
        s = float(np.mean(bp.load_multiplier(xis[:, 0]) ** 2 / xis[:, 1]))
        assert value == s * c1 + bp.config.tau * float(np.sum(rho))

    def test_mass_gradient_exact(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2, tau=0.3))
        theta = np.full(bp.mesh.n_elems, 0.5)
        xi = np.array([0.0, 1.0])
        _, grad_with = bp.objective_batch(theta, xi[None])
        bp0 = BeamProblem(BeamConfig(nx=6, ny=2, tau=0.0))
        _, grad_without = bp0.objective_batch(theta, xi[None])
        expected = 0.3 * 1.0 * np.asarray(bp.weights.T @ np.ones(bp.mesh.n_elems))
        assert np.allclose(grad_with - grad_without, expected, atol=1e-14)

    def test_full_density_design_is_safe_at_nominal(self):
        bp = BeamProblem(BeamConfig())  # 120x40 beam configuration
        theta = np.ones(bp.mesh.n_elems)
        g = bp.limit_state.batch(theta, np.array([[0.0, 1.0]]))
        assert g[0] > 0.0

    def test_limit_state_monotone_in_modulus(self):
        bp = BeamProblem(BeamConfig(nx=12, ny=4))
        theta = np.full(bp.mesh.n_elems, 0.5)
        g_soft, g_stiff = bp.limit_state.batch(theta, np.array([[0.5, 0.8], [0.5, 1.2]]))
        assert g_stiff > g_soft

    def test_limit_state_quadratic_in_load(self):
        bp = BeamProblem(BeamConfig(nx=12, ny=4, c_max=500.0))
        theta = np.full(bp.mesh.n_elems, 0.5)
        c_base = compliance(bp, theta, np.array([0.0, 1.0]))
        xi = (2.0 - 1.0) / bp.config.load_coeff  # load multiplier 2
        c_double = compliance(bp, theta, np.array([xi, 1.0]))
        assert c_double == pytest.approx(4.0 * c_base, rel=1e-12)

    def test_rescaled_compliance_matches_direct_solve(self):
        bp = BeamProblem(BeamConfig(nx=12, ny=4))
        rng = SampleStream(53).child("exact").rng()
        theta = rng.uniform(0.2, 1.0, bp.mesh.n_elems)
        for _ in range(5):
            xi = np.array([rng.standard_normal(), rng.uniform(0.7, 1.3)])
            fast = compliance(bp, theta, xi)
            direct = compliance_direct(bp, theta, xi)
            assert fast == pytest.approx(direct, rel=1e-10)

    def test_unit_solution_cached_per_design(self):
        bp = BeamProblem(BeamConfig(nx=6, ny=2))
        theta = np.full(bp.mesh.n_elems, 0.5)
        bp.unit_solution(theta)
        solves = bp.n_solves
        bp.unit_solution(theta.copy())
        assert bp.n_solves == solves  # byte-identical design reuses the factorization
        theta2 = theta.copy()
        theta2[0] += 1e-9
        bp.unit_solution(theta2)
        assert bp.n_solves == solves + 1

    def test_problem_freed_by_reference_count(self):
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=6))
        problem = bp.make_problem()
        gone = weakref.ref(bp)
        del bp, problem
        assert gone() is None  # no reference cycle waits for the cycle collector

    def test_lbeam_configuration(self):
        cfg = BeamConfig(**LBEAM)
        assert cfg.variant == "lshape"
        assert cfg.c_max == 650.0
        assert cfg.p0_load == 0.5
        assert cfg.load_coeff == 0.5
        assert cfg.e0_std == 0.2
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=12))
        assert bp.mesh.n_elems == 80
        with pytest.raises(ValueError, match="divisible by 6"):
            BeamConfig(**LBEAM, n_grid=20)


class TestOutputs:
    def test_density_grid_and_writers(self, tmp_path):
        bp = BeamProblem(BeamConfig(**LBEAM, n_grid=6))
        rho = np.linspace(0.0, 1.0, bp.mesh.n_elems)
        grid = bp.density_grid(rho)
        assert grid.shape == (6, 6)
        assert np.count_nonzero(grid) <= bp.mesh.n_elems

        csv_path = tmp_path / "design.csv"
        with open(csv_path, "w") as fh:
            write_density_csv(fh, grid)
        back = np.loadtxt(csv_path, delimiter=",")
        assert np.allclose(back, grid, atol=1e-6)

        pgm_path = tmp_path / "design.pgm"
        with open(pgm_path, "w") as fh:
            write_density_pgm(fh, grid)
        lines = pgm_path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "6 6"
        assert lines[2] == "255"
        pixels = np.array([row.split() for row in lines[3:]], dtype=int)
        assert pixels.min() >= 0 and pixels.max() <= 255
        # voids render white (255), full material dark (0)
        assert pixels[np.isclose(grid, 0.0)].min() == 255
