"""2D plane-stress FE kernel with power-law material interpolation.

Bilinear quads on uniform square grids (element width h = 1, unit thickness,
Poisson ratio NU = 0.3). Designs live on elements; physical densities are a
cone-filtered version of the design (radius FILTER_RADIUS = 1.5 h,
row-normalized; below 2 h, so each cone spans the element's 3x3 grid
neighbourhood and is read off the grid), and element stiffness scales as
rho^3 * E0. The half rectangular beam and the 2D L-bracket are provided as
built-in problems whose limit state is the compliance margin g = C_max - C.

Compliance for a given design factors exactly over the two random inputs
(load multiplier P and bulk modulus E0): C(theta; P, E0) = P^2 / E0 * C1(theta)
with C1 the unit-parameter solve. Problem evaluations exploit this with a
single factorization per design.

Dof ordering: mesh dofs are numbered 2*node + (0 for x, 1 for y), nodes
x-major. Each mesh lists its free dofs as solver blocks (Mesh.blocks), each
block in the order that keeps its band narrow: the half-beam is one block in
natural order; the L-bracket is one level of nested dissection, its two legs
and then the corner square that separates them (George 1973). The banded
solver keeps each block's stiffness in LAPACK's lower band storage, at least
BLOCKED_BAND wide so that LAPACK factors it blocked; displacement vectors
returned to callers always use the mesh numbering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .reliability import LimitState, check_counts
from .sampling import Lognormal, Normal, RandomInput
from .sgd import OptimizationProblem

THETA_MIN = 1e-3  # design floor keeping the stiffness matrix nonsingular
NU = 0.3  # Poisson ratio
PENAL = 3.0  # power-law exponent of the material interpolation
FILTER_RADIUS = 1.5  # density-filter radius in element widths
# Every band is stored at least this wide, its extra rows zero. Reference
# LAPACK's ILAENV, which OpenBLAS ships, gives dpbtrf block size 1 (the
# unblocked dpbtf2) at half-bandwidths up to 64; at 65 it runs blocked, which
# factors a 53-wide L-bracket leg faster although it counts more flops.
BLOCKED_BAND = 65


class SolverError(FloatingPointError):
    pass


@dataclass
class Mesh:
    """Uniform-square-element grid, possibly with masked-out elements."""

    nodes: np.ndarray          # (n_nodes, 2) coordinates
    elems: np.ndarray          # (n_e, 4) node ids, counterclockwise from lower-left
    edofs: np.ndarray          # (n_e, 8) dof ids
    fixed_dofs: np.ndarray
    load_vector: np.ndarray    # unit load template; scaled by the load multiplier
    grid_shape: tuple[int, int]      # (nx, ny) of the bounding grid
    elem_grid: np.ndarray            # (n_e, 2) integer (ex, ey) of each element
    # free dofs of each solver block in elimination order, the separator last
    # (see BandedOperator); empty for one block of the free dofs in natural order
    blocks: tuple[np.ndarray, ...] = ()
    h = 1.0  # element width, the unit of every coordinate

    def __post_init__(self):
        self.free_dofs = np.delete(np.arange(self.n_dofs), self.fixed_dofs)
        if not self.blocks:
            self.blocks = (self.free_dofs,)

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.nodes)

    @property
    def n_elems(self) -> int:
        return len(self.elems)


def element_stiffness() -> np.ndarray:
    """8x8 plane-stress stiffness of the unit square bilinear quad, unit modulus, 2x2 Gauss.

    Symmetrized once, so that the factored matrix (the band takes one
    triangle) and compliance_sensitivity (all of ke) use the same matrix; the
    quadrature sum alone is symmetric only to rounding (2.8e-17 at NU = 0.3).
    """
    d_mat = 1.0 / (1.0 - NU**2) * np.array(
        [[1.0, NU, 0.0], [NU, 1.0, 0.0], [0.0, 0.0, (1.0 - NU) / 2.0]]
    )
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ke = np.zeros((8, 8))
    for gx in (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)):
        for gy in (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)):
            d_shape = 0.25 * np.array(
                [
                    [-(1 - gy), (1 - gy), (1 + gy), -(1 + gy)],
                    [-(1 - gx), -(1 + gx), (1 + gx), (1 - gx)],
                ]
            )
            jac = d_shape @ corners
            d_xy = np.linalg.solve(jac, d_shape)
            b_mat = np.zeros((3, 8))
            b_mat[0, 0::2] = d_xy[0]
            b_mat[1, 1::2] = d_xy[1]
            b_mat[2, 0::2] = d_xy[1]
            b_mat[2, 1::2] = d_xy[0]
            ke += b_mat.T @ d_mat @ b_mat * np.linalg.det(jac)
    return 0.5 * (ke + ke.T)


def _grid_mesh(nx: int, ny: int, elem_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes/elems for the masked (nx, ny) grid; returns (nodes, elems, elem_grid).

    Elements are listed x-major (y fastest); node ids are compacted over nodes
    touched by kept elements, in the same order.
    """
    ex, ey = np.nonzero(elem_mask)
    n1 = ex * (ny + 1) + ey
    n2 = n1 + ny + 1
    elems_full = np.stack([n1, n2, n2 + 1, n1 + 1], axis=1)
    used = np.zeros((nx + 1) * (ny + 1), dtype=bool)
    used[elems_full] = True
    renum = -np.ones(used.size, dtype=int)
    renum[used] = np.arange(used.sum())
    ids = np.nonzero(used)[0]
    coords = np.stack([ids // (ny + 1), ids % (ny + 1)], axis=1).astype(float)
    return coords, renum[elems_full], np.stack([ex, ey], axis=1)


def _edofs(elems: np.ndarray) -> np.ndarray:
    edofs = np.repeat(2 * elems, 2, axis=1)
    edofs[:, 1::2] += 1
    return edofs


def build_rect_mesh(nx: int, ny: int) -> Mesh:
    """Half of a simply supported beam with a midspan point load.

    Symmetry rollers (x-displacement fixed) on the left edge, a vertical
    roller at the bottom-right corner, and the unit downward load on the
    top-left corner node, i.e. on the symmetry plane.
    """
    nodes, elems, elem_grid = _grid_mesh(nx, ny, np.ones((nx, ny), dtype=bool))
    # compaction is the identity here: node (ix, iy) has id ix * (ny + 1) + iy
    fixed = np.append(2 * np.arange(ny + 1), 2 * nx * (ny + 1) + 1)
    load = np.zeros(2 * len(nodes))
    load[2 * ny + 1] = -1.0
    return Mesh(nodes, elems, _edofs(elems), fixed, load, (nx, ny), elem_grid)


def build_lshape_mesh(n: int) -> Mesh:
    """L-bracket: n x n grid minus the top-right (2n/3) x (2n/3) block.

    Clamped along the top edge of the vertical leg; unit downward point load
    at the middle of the right face of the horizontal leg. n must be
    divisible by 6 (checked by BeamConfig).

    Solver blocks: the vertical leg above the corner (y >= leg + 2) row by
    row from the top, the horizontal leg (x >= leg + 2) column by column from
    the right end, and the corner square (x, y <= leg + 1) that separates
    them, in L-shaped fronts out from the outer corner. Each leg meets the
    corner only through its last row or column, and the corner's last front
    holds every corner node those touch. At n = 72 the half-bandwidths are
    53, 53 and 103 (147 for the free dofs in natural order).
    """
    leg = n // 3
    ex, ey = np.indices((n, n))
    nodes, elems, elem_grid = _grid_mesh(n, n, (ex < leg) | (ey < leg))
    x, y = nodes[:, 0], nodes[:, 1]
    clamped = np.flatnonzero((y == n) & (x <= leg))
    fixed = np.sort(np.concatenate([2 * clamped, 2 * clamped + 1]))
    load = np.zeros(2 * len(nodes))
    load[2 * np.flatnonzero((x == n) & (y == n // 6))[0] + 1] = -1.0
    blocks = []
    for in_block, keys in [
        (y >= leg + 2, (x, -y)),
        (x >= leg + 2, (y, -x)),
        ((x <= leg + 1) & (y <= leg + 1), (x - y, np.maximum(x, y))),
    ]:
        ids = np.flatnonzero(in_block)
        ids = ids[np.lexsort([key[ids] for key in keys])]  # the last key sorts first
        dofs = np.stack([2 * ids, 2 * ids + 1], axis=1).ravel()
        blocks.append(dofs[~np.isin(dofs, fixed)])
    return Mesh(nodes, elems, _edofs(elems), fixed, load, (n, n), elem_grid, tuple(blocks))


def build_filter(mesh: Mesh) -> sparse.csr_matrix:
    """Row-normalized cone-weight density filter, read off the element grid.

    Element centers sit on the unit grid, so the neighbours within
    FILTER_RADIUS (1.5, below 2 element widths) are the 3x3 grid
    neighbourhood: weight FILTER_RADIUS - |(dx, dy)| for each offset in it.
    Offsets are taken in lexicographic order and element ids are x-major, so
    each row's columns come out ascending.
    """
    r = int(FILTER_RADIUS)
    dx, dy = np.mgrid[-r : r + 1, -r : r + 1].reshape(2, -1)
    near = dx**2 + dy**2 <= FILTER_RADIUS**2
    dx, dy = dx[near], dy[near]
    nx, ny = mesh.grid_shape
    ids = np.full((nx + 2 * r, ny + 2 * r), -1)  # element id at each grid cell, -1 off the mesh
    ex, ey = mesh.elem_grid.T + r
    ids[ex, ey] = np.arange(mesh.n_elems)
    cols = ids[ex[:, None] + dx, ey[:, None] + dy]  # (n_e, offsets)
    on_mesh = cols >= 0
    cone = np.broadcast_to(FILTER_RADIUS - np.sqrt(dx**2 + dy**2), cols.shape)
    indptr = np.concatenate([[0], np.cumsum(on_mesh.sum(axis=1))])
    w = sparse.csr_matrix((cone[on_mesh], cols[on_mesh], indptr),
                          shape=(mesh.n_elems, mesh.n_elems))
    return (sparse.diags(1.0 / np.asarray(w.sum(axis=1)).ravel()) @ w).tocsr()


def filter_forward(weight_matrix: sparse.csr_matrix, theta: np.ndarray) -> np.ndarray:
    """Physical densities rho = W theta."""
    return weight_matrix @ theta


def filter_backward(weights_t: sparse.csr_matrix, d_rho: np.ndarray) -> np.ndarray:
    """Chain rule through the filter: dJ/dtheta = W^T dJ/drho, given W^T (build it once)."""
    return weights_t @ d_rho


class _Leg(NamedTuple):
    """How a leg block of a BandedOperator couples to the separator block."""

    offset: int  # of its dense (trail, len(cols)) coupling block in the buffer
    trail: int  # its last `trail` dofs are the ones coupled
    cols: np.ndarray  # the separator dofs they couple to, ascending
    term_at: tuple  # the lower triangle of the (len(cols), len(cols)) Schur term
    band_at: tuple  # where that triangle sits in the separator band


class BandedOperator:
    """Precomputed assembly-and-factorization pipeline on the free dofs.

    The stiffness sparsity pattern is fixed by the mesh, so per-design work
    reduces to scattering scaled element matrices into one flat buffer and
    banded Cholesky factorizations that LAPACK runs on it in place. The
    buffer holds one column-major band per solver block (Mesh.blocks) in
    LAPACK's lower storage (the diagonal in row 0), then one dense coupling
    block per leg. A band narrower than BLOCKED_BAND is stored that wide,
    its extra rows zero; `bandwidths` are the structural half-bandwidths.
    The free dofs are numbered block by block (`free_dofs`); loads are
    gathered and displacements scattered through that order.

    With one block (the half-beam, half-bandwidth 85) a solve is one
    factorization and one back-solve. With several, every block but the last
    is a leg that couples only to the last, the separator, through its last
    t dofs. A solve makes one pass per leg: it factors the leg band into L,
    forms W = L_tt^-1 B, with L_tt the trailing t x t block of L and B the
    leg's (t, ...) coupling block, subtracts the Schur term W^T W from the
    separator band, sweeps z = L^-1 f forward and subtracts W^T z_t from the
    separator's load. It then factors and solves the separator, whose band
    is wide enough to hold those terms, and sweeps each leg backward,
    L^-T (z - [0; W u_sep]). The L-bracket's bands have
    half-bandwidths 53, 53 and 103 (t = 50 for each leg), the legs stored 65
    wide: 27.4 M factorization flops per design at the structural widths
    (34.0 M as stored) against 63.7 M for one band of half-bandwidth 103
    and 130 M for one band in natural order (147).
    """

    def __init__(self, mesh: Mesh, ke: np.ndarray):
        self.mesh = mesh
        self.ke = ke
        self.free_dofs = np.concatenate(mesh.blocks)
        sizes = [len(block) for block in mesh.blocks]
        starts = np.cumsum([0, *sizes])
        sep = len(sizes) - 1
        block = np.repeat(np.arange(len(sizes)), sizes)  # of each free dof, in block order
        local = np.arange(starts[-1]) - starts[block]  # its place in its block
        dof_map = -np.ones(mesh.n_dofs, dtype=int)
        dof_map[self.free_dofs] = np.arange(starts[-1])
        rows = dof_map[mesh.edofs]  # (n_e, 8), -1 at a fixed dof
        # the per-element tables below are (8, n_e), so that their reductions over an
        # element's 8 dofs run along axis 0, which numpy does several times faster
        rows_t = rows.T.copy()
        elem_block = np.where(rows_t >= 0, block[rows_t], -1)
        in_leg = (elem_block >= 0) & (elem_block < sep)
        leg_of = np.where(in_leg, elem_block, sep).min(axis=0)  # sep: the element touches no leg
        if np.any(in_leg & (elem_block != leg_of)):
            raise ValueError("solver blocks other than the last may couple only to the last")

        widths = []
        for k in range(len(sizes)):
            in_k = elem_block == k
            hi = np.where(in_k, rows_t, -1).max(axis=0)
            lo = np.where(in_k, rows_t, starts[-1]).min(axis=0)
            widths.append(int((hi - lo).max(initial=0)))
        on_sep = np.any(elem_block == sep, axis=0)
        legs = []  # (leg, the elements joining it to the separator, trail, cols of _Leg)
        for k in range(sep):
            joins = (leg_of == k) & on_sep
            j_rows, j_block = rows_t[:, joins], elem_block[:, joins]
            trail = sizes[k] - int(local[j_rows[j_block == k]].min())
            cols = np.unique(local[j_rows[j_block == sep]])
            widths[sep] = max(widths[sep], int(cols[-1] - cols[0]))  # room for its Schur term
            legs.append((k, joins, trail, cols))
        self.bandwidths = tuple(widths)

        # column-major (w+1, n) lower bands, stored w >= BLOCKED_BAND wide, then
        # the coupling blocks, in one buffer: entry (i, j) of block b sits at
        # offset_b + j*(w+1) + i - j
        self._bands, offset, col_base = [], 0, np.empty(starts[-1], dtype=int)
        for k, (w, n) in enumerate(zip(widths, sizes)):
            w = max(w, BLOCKED_BAND)
            self._bands.append((offset, w, n))
            col_base[starts[k] : starts[k + 1]] = offset + np.arange(n) * w - starts[k]
            offset += (w + 1) * n
        pos = col_base[np.maximum(rows, 0)][:, None, :] + rows[:, :, None]
        self._legs = []
        for k, joins, trail, cols in legs:
            p, q = np.tril_indices(len(cols))
            self._legs.append(_Leg(offset, trail, cols, (p, q), (cols[p] - cols[q], cols[q])))
            # entry (separator row, leg column) is coupling-block entry (leg row, separator column)
            j_block = elem_block[:, joins].T
            e, a, b = np.nonzero((j_block == sep)[:, :, None] & (j_block == k)[:, None, :])
            e = np.flatnonzero(joins)[e]
            pos[e, a, b] = (offset + (local[rows[e, b]] - sizes[k] + trail) * len(cols)
                            + np.searchsorted(cols, local[rows[e, a]]))
            offset += trail * len(cols)
        self.buffer_size = offset
        # K[i, j] for i >= j, i and j free: element entry 8a + b has i = rows[a], j = rows[b];
        # a fixed j (-1) is compared as starts[-1], above every free i
        as_col = np.where(rows >= 0, rows, starts[-1])
        lower = (rows[:, :, None] >= as_col[:, None, :]).reshape(-1, 64)
        self.entry_pos = pos.reshape(-1, 64)[lower]
        self.entry_elem = np.repeat(np.arange(mesh.n_elems), lower.sum(axis=1))
        self.entry_ke = np.broadcast_to(ke.ravel(), lower.shape)[lower]
        self.f_free = mesh.load_vector[self.free_dofs]
        self._f_blocks = np.split(self.f_free, starts[1:-1])

    def solve(self, scale: np.ndarray) -> tuple[np.ndarray, float]:
        """Displacements (full dof vector) and compliance for K(scale) u = f."""
        # the one finiteness check: the buffer below is finite when scale is
        if not np.isfinite(scale).all():
            raise SolverError("non-finite element stiffness scale")
        vals = scale[self.entry_elem] * self.entry_ke
        buf = np.bincount(self.entry_pos, weights=vals, minlength=self.buffer_size)
        bands = [buf[o : o + (w + 1) * n].reshape(n, w + 1).T for o, w, n in self._bands]
        *f_legs, f_sep = self._f_blocks
        rhs = f_sep.copy()
        # assembled diagonal; the factorization overwrites the bands
        smallest = min(ab[0].min() for ab in bands)
        try:
            legs = []  # (L, W = L_tt^-1 B, z = L^-1 f) of each leg
            for ab, f, leg in zip(bands, f_legs, self._legs):
                chol = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
                coupling = buf[leg.offset : leg.offset + leg.trail * len(leg.cols)]
                # chol's last `trail` columns are L_tt in the same band storage
                w, _ = dtbtrs(chol[:, -leg.trail :], coupling.reshape(leg.trail, -1), uplo="L")
                bands[-1][leg.band_at] -= (w.T @ w)[leg.term_at]
                # L^-1 [0; v] = [0; L_tt^-1 v], so the separator sees f_sep - W^T z_t
                z, _ = dtbtrs(chol, f, uplo="L")
                rhs[leg.cols] -= w.T @ z[-leg.trail :]
                legs.append((chol, w, z))
            chol_sep = cholesky_banded(bands[-1], lower=True, overwrite_ab=True, check_finite=False)
        except LinAlgError as err:
            raise SolverError(
                f"stiffness matrix not positive definite "
                f"(smallest diagonal {smallest:.3e}): {err}"
            ) from err
        u_sep = cho_solve_banded((chol_sep, True), rhs, check_finite=False)
        u_blocks = []
        for (chol, w, z), leg in zip(legs, self._legs):  # each leg is L^-T (z - [0; W u_sep])
            z[-leg.trail :] -= w @ u_sep[leg.cols]
            u_blocks.append(dtbtrs(chol, z, uplo="L", trans="T", overwrite_b=True)[0])
        u_free = np.concatenate([*u_blocks, u_sep])
        u = np.zeros(self.mesh.n_dofs)
        u[self.free_dofs] = u_free
        compliance = float(self.f_free @ u_free)
        return u, compliance


def solve_compliance(op: BandedOperator, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve K(rho) u = f at unit load and modulus rho^PENAL; return (u, compliance = f^T u)."""
    return op.solve(rho**PENAL)


def compliance_sensitivity(op: BandedOperator, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """dC/drho per element at unit modulus; compliance is self-adjoint so no extra solve."""
    ue = u[op.mesh.edofs]
    energies = np.einsum("ij,ij->i", ue @ op.ke, ue)
    return -PENAL * rho ** (PENAL - 1.0) * energies


@dataclass(frozen=True)
class BeamConfig:
    variant: str = "rect"          # "rect" | "lshape"
    nx: int = 120
    ny: int = 40
    n_grid: int = 72
    c_max: float = 700.0
    tau: float = 0.25
    p0_load: float = 1.0
    load_coeff: float = 0.25
    e0_mean: float = 1.0
    e0_std: float = 0.1
    theta0: float = 0.5

    def __post_init__(self):
        for key in ("c_max", "p0_load", "e0_mean", "e0_std"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be > 0")
        if not self.tau >= 0.0:
            raise ValueError("tau must be >= 0")
        check_counts(self, "nx", "ny", "n_grid")
        if self.variant not in ("rect", "lshape"):
            raise ValueError(f"unknown mesh variant {self.variant!r}")
        if self.variant == "lshape" and self.n_grid % 6 != 0:
            raise ValueError(f"n_grid must be divisible by 6, got {self.n_grid}")
        if not THETA_MIN <= self.theta0 <= 1.0:
            raise ValueError(f"theta0 must lie in [{THETA_MIN}, 1], got {self.theta0}")


# L-bracket defaults: smaller load with a stronger fluctuation, softer modulus
LBEAM = dict(variant="lshape", c_max=650.0, p0_load=0.5, load_coeff=0.5, e0_std=0.2)


class BeamProblem:
    """Compliance-plus-mass minimization with a compliance failure margin.

    Uncertain inputs: xi[0] is the standard-normal load fluctuation, entering
    the load multiplier P = P0 (1 + c xi0); xi[1] is the lognormal bulk
    modulus E0 itself. A single unit-parameter factorization per design is
    cached and reused across samples via the exact rescaling C = P^2/E0 * C1.
    """

    def __init__(self, config: BeamConfig):
        self.config = config
        if config.variant == "rect":
            self.mesh = build_rect_mesh(config.nx, config.ny)
        else:
            self.mesh = build_lshape_mesh(config.n_grid)
        self.weights = build_filter(self.mesh)
        self.weights_t = self.weights.T.tocsr()
        self.op = BandedOperator(self.mesh, element_stiffness())
        self.random_input = RandomInput(
            (Normal(), Lognormal(config.e0_mean, config.e0_std))
        )
        self._mass_grad = config.tau * filter_backward(self.weights_t, np.ones(self.mesh.n_elems))
        self._cache_key: bytes | None = None
        self._cache: tuple[float, np.ndarray] | None = None
        self._rho: np.ndarray | None = None  # filtered density of the cached design
        self.n_solves = 0

    @property
    def limit_state(self) -> LimitState:
        """A new evaluation counter around limit_state_batch; storing it would
        make a reference cycle that keeps the operator arrays until a gc pass."""
        return LimitState(self.limit_state_batch)

    def load_multiplier(self, xi) -> float | np.ndarray:
        return self.config.p0_load * (1.0 + self.config.load_coeff * np.asarray(xi))

    def unit_solution(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(C1, dC1/drho) at unit load and unit modulus; cached per design."""
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if key != self._cache_key:
            rho = filter_forward(self.weights, theta)
            u, c1 = solve_compliance(self.op, rho)
            self.n_solves += 1
            dc1 = compliance_sensitivity(self.op, rho, u)
            self._cache_key = key
            self._cache = (c1, dc1)
            self._rho = rho
        return self._cache

    def limit_state_batch(self, theta, xis: np.ndarray) -> np.ndarray:
        c1, _ = self.unit_solution(theta)
        p = self.load_multiplier(xis[:, 0])
        return self.config.c_max - p**2 / xis[:, 1] * c1

    def objective_batch(self, theta, xis: np.ndarray) -> tuple[float, np.ndarray]:
        """Batch-mean sampled compliance plus the deterministic mass term, with gradient.

        The samples enter only through s = mean(P^2/E0), so one backward filter
        product serves the whole batch (rho is kept with the cached unit solve):
        value s*C1 + mass, gradient W^T(s dC1) + dmass.
        """
        c1, dc1 = self.unit_solution(theta)
        s = float(np.mean(self.load_multiplier(xis[:, 0]) ** 2 / xis[:, 1]))
        value = s * c1 + self.config.tau * float(np.sum(self._rho))
        grad = filter_backward(self.weights_t, s * dc1) + self._mass_grad
        return value, grad

    def objective_expected(self, theta) -> float:
        """Exact expectation of the sampled objective at a design.

        E[P^2] = P0^2 (1 + c^2) for the standard-normal load fluctuation and
        E[1/E0] = exp(sigma_ln^2)/mean for the lognormal modulus.
        """
        c1, _ = self.unit_solution(theta)
        cfg = self.config
        e0 = self.random_input.components[1]
        mean_scale = cfg.p0_load**2 * (1.0 + cfg.load_coeff**2) * np.exp(e0.sigma_ln**2) / e0.mean
        return float(mean_scale * c1 + cfg.tau * np.sum(self._rho))

    def make_problem(self) -> OptimizationProblem:
        n_e = self.mesh.n_elems
        return OptimizationProblem(
            theta0=np.full(n_e, self.config.theta0),
            lower=np.full(n_e, THETA_MIN),
            upper=np.ones(n_e),
            random_input=self.random_input,
            objective_batch=self.objective_batch,
            limit_state=self.limit_state,
            objective_expected=self.objective_expected,
        )

    def density_grid(self, rho: np.ndarray) -> np.ndarray:
        """Row-major (ny, nx) density image, top row first; voids are 0."""
        nx, ny = self.mesh.grid_shape
        grid = np.zeros((ny, nx))
        ex, ey = self.mesh.elem_grid[:, 0], self.mesh.elem_grid[:, 1]
        grid[ny - 1 - ey, ex] = rho
        return grid


def write_density_csv(fh, grid: np.ndarray) -> None:
    """Density grid as CSV rows to the open text file fh."""
    np.savetxt(fh, grid, fmt="%.6f", delimiter=",")


def write_density_pgm(fh, grid: np.ndarray) -> None:
    """8-bit PGM to the open text file fh, grayscale 255*(1 - rho): material renders dark."""
    pixels = np.round(255.0 * (1.0 - np.clip(grid, 0.0, 1.0))).astype(int)
    fh.write(f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n")
    for row in pixels:
        fh.write(" ".join(str(v) for v in row) + "\n")
