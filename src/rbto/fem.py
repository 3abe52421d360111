"""2D plane-stress FE kernel with power-law material interpolation.

Bilinear quads on uniform square grids (element width h = 1, unit thickness,
Poisson ratio NU = 0.3). Designs live on elements; physical densities are a
cone-filtered version of the design (radius FILTER_RADIUS = 1.5 h,
row-normalized), and element stiffness scales as rho^3 * E0. The half
rectangular beam and the 2D L-bracket are provided as built-in problems whose
limit state is the compliance margin g = C_max - C.

Compliance for a given design factors exactly over the two random inputs
(load multiplier P and bulk modulus E0): C(theta; P, E0) = P^2 / E0 * C1(theta)
with C1 the unit-parameter solve. Problem evaluations exploit this with a
single factorization per design.

Dof ordering: mesh dofs are numbered 2*node + (0 for x, 1 for y), nodes
x-major. The banded solver numbers the free dofs once per mesh, in natural
order or in reverse Cuthill-McKee order of the node graph, whichever gives
the narrower band (BandedOperator.free_dofs), and keeps the stiffness in
LAPACK's lower band storage; displacement vectors returned to callers always
use the mesh numbering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial import cKDTree

from .reliability import LimitState, check_counts
from .sampling import Lognormal, Normal, RandomInput
from .sgd import OptimizationProblem

THETA_MIN = 1e-3  # design floor keeping the stiffness matrix nonsingular
NU = 0.3  # Poisson ratio
PENAL = 3.0  # power-law exponent of the material interpolation
FILTER_RADIUS = 1.5  # density-filter radius in element widths


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
    h = 1.0  # element width, the unit of every coordinate

    def __post_init__(self):
        self.free_dofs = np.setdiff1d(np.arange(self.n_dofs), self.fixed_dofs)

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.nodes)

    @property
    def n_elems(self) -> int:
        return len(self.elems)

    @property
    def centers(self) -> np.ndarray:
        return self.elem_grid + 0.5


def element_stiffness() -> np.ndarray:
    """8x8 plane-stress stiffness of the unit square bilinear quad, unit modulus, 2x2 Gauss."""
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
    return ke


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
    """
    leg = n // 3
    ex, ey = np.indices((n, n))
    nodes, elems, elem_grid = _grid_mesh(n, n, (ex < leg) | (ey < leg))
    x, y = nodes[:, 0], nodes[:, 1]
    clamped = np.flatnonzero((y == n) & (x <= leg))
    fixed = np.sort(np.concatenate([2 * clamped, 2 * clamped + 1]))
    load = np.zeros(2 * len(nodes))
    load[2 * np.flatnonzero((x == n) & (y == n // 6))[0] + 1] = -1.0
    return Mesh(nodes, elems, _edofs(elems), fixed, load, (n, n), elem_grid)


def build_filter(mesh: Mesh) -> sparse.csr_matrix:
    """Row-normalized cone-weight density filter over element centers."""
    centers = mesh.centers
    pairs = cKDTree(centers).query_pairs(FILTER_RADIUS, output_type="ndarray")
    n_e = mesh.n_elems
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n_e)])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n_e)])
    weights = FILTER_RADIUS - np.linalg.norm(centers[rows] - centers[cols], axis=1)
    w = sparse.csr_matrix((weights, (rows, cols)), shape=(n_e, n_e))
    return (sparse.diags(1.0 / np.asarray(w.sum(axis=1)).ravel()) @ w).tocsr()


def filter_forward(weight_matrix: sparse.csr_matrix, theta: np.ndarray) -> np.ndarray:
    """Physical densities rho = W theta."""
    return weight_matrix @ theta


def filter_backward(weight_matrix: sparse.csr_matrix, d_rho: np.ndarray) -> np.ndarray:
    """Chain rule through the filter: dJ/dtheta = W^T dJ/drho."""
    return weight_matrix.T @ d_rho


def _bandwidth(mesh: Mesh, order: np.ndarray) -> int:
    """Half-bandwidth of the free-dof stiffness matrix with free dofs numbered in `order`."""
    dof_map = -np.ones(mesh.n_dofs, dtype=int)
    dof_map[order] = np.arange(len(order))
    rows = dof_map[mesh.edofs]
    hi = rows.max(axis=1)
    lo = np.where(rows >= 0, rows, hi[:, None]).min(axis=1)
    return int((hi - lo).max())


def band_order(mesh: Mesh) -> np.ndarray:
    """Free dofs in the order that gives the narrower band: natural or reverse Cuthill-McKee.

    RCM runs on the graph of nodes carrying a free dof (two nodes adjacent when
    they share an element), and each node's free dofs stay consecutive.
    """
    is_free = np.zeros(mesh.n_dofs, dtype=bool)
    is_free[mesh.free_dofs] = True
    graph_nodes = np.flatnonzero(is_free.reshape(-1, 2).any(axis=1))
    graph_id = -np.ones(len(mesh.nodes), dtype=int)
    graph_id[graph_nodes] = np.arange(len(graph_nodes))
    ids = graph_id[mesh.elems]
    rows, cols = np.repeat(ids, 4, axis=1).ravel(), np.tile(ids, (1, 4)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    graph = sparse.csr_matrix(
        (np.ones(np.count_nonzero(keep), dtype=np.int8), (rows[keep], cols[keep])),
        shape=(len(graph_nodes), len(graph_nodes)),
    )
    nodes = graph_nodes[reverse_cuthill_mckee(graph, symmetric_mode=True)]
    rcm = np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel()
    rcm = rcm[is_free[rcm]]
    return rcm if _bandwidth(mesh, rcm) < _bandwidth(mesh, mesh.free_dofs) else mesh.free_dofs


class BandedOperator:
    """Precomputed assembly-and-factorization pipeline on the free dofs.

    The stiffness sparsity pattern is fixed by the mesh, so per-design work
    reduces to scattering scaled element matrices into a column-major banded
    array in LAPACK's lower storage (the diagonal in row 0) and a banded
    Cholesky factorization that LAPACK runs on that array in place (no
    transposing copy). The free dofs are numbered once, in
    `free_dofs` order (see `band_order`): the L-bracket's RCM order narrows
    its band from 147 to 103, the half-beam keeps its natural order (85).
    Loads are gathered and displacements scattered through that order.
    """

    def __init__(self, mesh: Mesh, ke: np.ndarray):
        self.mesh = mesh
        self.ke = ke
        self.free_dofs = band_order(mesh)
        n_free = len(self.free_dofs)
        dof_map = -np.ones(mesh.n_dofs, dtype=int)
        dof_map[self.free_dofs] = np.arange(n_free)
        i_idx = np.repeat(mesh.edofs, 8, axis=1).ravel()
        j_idx = np.tile(mesh.edofs, (1, 8)).ravel()
        ri, rj = dof_map[i_idx], dof_map[j_idx]
        lower = (ri >= 0) & (rj >= 0) & (ri >= rj)
        self.n_free = n_free
        self.bandwidth = int((ri[lower] - rj[lower]).max())
        # column-major (bw+1, n) lower band: K[ri, rj] is entry (ri - rj, rj),
        # stored at rj*(bw+1) + ri - rj
        self.band_pos = rj[lower] * self.bandwidth + ri[lower]
        self.entry_elem = np.repeat(np.arange(mesh.n_elems), 64)[lower]
        self.entry_ke = np.tile(ke.ravel(), mesh.n_elems)[lower]
        self.f_free = mesh.load_vector[self.free_dofs]

    def solve(self, scale: np.ndarray) -> tuple[np.ndarray, float]:
        """Displacements (full dof vector) and compliance for K(scale) u = f."""
        # the one finiteness check: the band below is finite when scale is
        if not np.isfinite(scale).all():
            raise SolverError("non-finite element stiffness scale")
        vals = scale[self.entry_elem] * self.entry_ke
        ab = np.bincount(
            self.band_pos, weights=vals, minlength=(self.bandwidth + 1) * self.n_free
        ).reshape(self.n_free, self.bandwidth + 1).T
        smallest = ab[0].min()  # assembled diagonal; the factorization overwrites ab
        try:
            chol = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
        except LinAlgError as err:
            raise SolverError(
                f"stiffness matrix not positive definite "
                f"(smallest diagonal {smallest:.3e}): {err}"
            ) from err
        u_free = cho_solve_banded((chol, True), self.f_free, check_finite=False)
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
        self.op = BandedOperator(self.mesh, element_stiffness())
        self.random_input = RandomInput(
            (Normal(), Lognormal(config.e0_mean, config.e0_std))
        )
        self._mass_grad = config.tau * filter_backward(self.weights, np.ones(self.mesh.n_elems))
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
        grad = filter_backward(self.weights, s * dc1) + self._mass_grad
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
