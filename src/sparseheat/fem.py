"""P1 finite elements on TriMesh.

Provides mass/stiffness assembly, cached direct solves, point
evaluation, Dirac load vectors, L2 projection and mass-weighted inner
products. Matrices are assembled over all nodes; homogeneous Dirichlet
conditions are imposed by restricting to the interior index set.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError

_RESIDUAL_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
# SuperLU settings for every factorization in the package: multiple
# minimum degree on the pattern of A^T + A, diagonal pivots only. No
# pivoting is safe because each matrix factored is symmetric with a
# positive definite real part (mass, kA + M, and kA - s1 M of dG(1)).
SPLU_SYMMETRIC = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
)


class SparseSpd:
    """Symmetric sparse matrix with a lazily cached direct factorization.

    The factorization is computed on the first solve and reused for all
    subsequent right-hand sides.
    """

    def __init__(self, mat):
        mat = sp.csr_matrix(mat)
        asym = abs(mat - mat.T)
        scale = max(abs(mat).max(), 1.0)
        if asym.nnz and asym.max() > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric")
        self.mat = mat
        self._lu = None

    @property
    def dimension(self):
        return self.mat.shape[0]

    def solve(self, rhs):
        """Solve A x = rhs by a cached sparse LU factorization.

        The relative residual is checked against 1e-12; a larger residual
        (singular or badly conditioned matrix) raises NumericalError.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dimension:
            raise ValueError("dimension mismatch in solve")
        if self._lu is None:
            try:
                self._lu = spla.splu(sp.csc_matrix(self.mat), **SPLU_SYMMETRIC)
            except RuntimeError as exc:
                raise NumericalError(f"factorization failed: {exc}") from exc
        x = self._lu.solve(rhs)
        bnorm = np.linalg.norm(rhs)
        if bnorm > 0.0:
            res = np.linalg.norm(self.mat @ x - rhs) / bnorm
            if not res <= _RESIDUAL_TOL:
                raise NumericalError(f"solve residual {res:.3e} exceeds 1e-12")
        return x


class NodalField:
    """Coefficient vector over the nodes of a mesh (one P1 function)."""

    __slots__ = ("mesh", "values")

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_nodes,):
            raise ValueError("value vector does not match node count")
        self.mesh = mesh
        self.values = values


def assemble_mass(mesh):
    """P1 mass matrix, exact element integration (area/12 * [2,1,1] pattern)."""
    cells = mesh.cells
    w = mesh.cell_areas() / 12.0
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(cells[:, a])
            cols.append(cells[:, b])
            vals.append(w * (2.0 if a == b else 1.0))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.num_nodes, mesh.num_nodes),
    )
    return SparseSpd(mat.tocsr())


def assemble_stiffness(mesh):
    """P1 stiffness matrix; K_ab = (e_a . e_b) / (4 |T|) per cell."""
    cells = mesh.cells
    tri, area = mesh.nodes[cells], mesh.cell_areas()
    # Edge opposite each vertex.
    e = np.stack(
        [tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2], tri[:, 1] - tri[:, 0]],
        axis=1,
    )
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(cells[:, a])
            cols.append(cells[:, b])
            vals.append(np.einsum("ij,ij->i", e[:, a], e[:, b]) / (4.0 * area))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.num_nodes, mesh.num_nodes),
    )
    return SparseSpd(mat.tocsr())


def delta_load(mesh, q):
    """Load vector b_j = sum_i beta_i phi_j(x_i) for an atomic measure.

    Boundary rows are produced but ignored by Dirichlet solves.
    """
    cells, lam = mesh.locate(q.positions)
    b = np.zeros(mesh.num_nodes)
    np.add.at(b, mesh.cells[cells], q.coefficients[:, None] * lam)
    return b


def l2_project(mesh, f):
    """L2 projection of a pointwise-evaluable function onto P1.

    The right-hand side uses the three-point edge-midpoint rule, exact
    for quadratics; the solve uses the full mass matrix (no boundary
    conditions). `f` must accept numpy arrays (x, y).
    """
    tri, area = mesh.nodes[mesh.cells], mesh.cell_areas()
    mids = [
        0.5 * (tri[:, 0] + tri[:, 1]),
        0.5 * (tri[:, 1] + tri[:, 2]),
        0.5 * (tri[:, 2] + tri[:, 0]),
    ]
    fvals = [np.asarray(f(m[:, 0], m[:, 1]), dtype=float) for m in mids]
    F = np.zeros(mesh.num_nodes)
    # Each vertex sees the two midpoints of its adjacent edges with hat value 1/2.
    adjacent = {0: (0, 2), 1: (0, 1), 2: (1, 2)}
    for vert, (ea, eb) in adjacent.items():
        np.add.at(F, mesh.cells[:, vert], area / 3.0 * 0.5 * (fvals[ea] + fvals[eb]))
    mass = assemble_mass(mesh)
    return NodalField(mesh, mass.solve(F))


def eval_field(mesh, v, points):
    """Values of a nodal field at points by barycentric interpolation.

    `points` has shape (k, 2); the result has shape (k,). Each value is
    rounded like the single dot product `lam[i] @ v.values[cell_i]`.
    """
    cells, lam = mesh.locate(points)
    return (lam[:, None, :] @ v.values[mesh.cells[cells]][:, :, None])[:, 0, 0]


def l2_inner(mass, u, v):
    """L2 inner product u^T M v of two nodal fields.

    Evaluated through the polarization identity, which is bitwise
    symmetric in the two arguments.
    """
    if u.values.shape != v.values.shape or mass.dimension != u.values.shape[0]:
        raise ValueError("dimension mismatch in l2_inner")
    plus = u.values + v.values
    minus = u.values - v.values
    return 0.25 * (float(plus @ (mass.mat @ plus)) - float(minus @ (mass.mat @ minus)))


def l2_norm(mass, u):
    """L2 norm sqrt(u^T M u), clamped against tiny negative round-off."""
    return float(np.sqrt(max(l2_inner(mass, u, u), 0.0)))


def field_to_csv(field, path):
    """Write a nodal field as CSV rows `x,y,value` (17 significant digits)."""
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for (x, y), v in zip(field.mesh.nodes, field.values):
            f.write(f"{x:.17g},{y:.17g},{v:.17g}\n")


def interpolation_matrix(coarse, fine):
    """Nodal interpolation matrix from a coarse mesh onto a finer one.

    Exact for P1 functions when the fine mesh refines the coarse one
    (nested nodes): row k holds the nonzero barycentric weights of fine
    node k within its containing coarse cell.
    """
    cells, lam = coarse.locate(fine.nodes)
    rows = np.repeat(np.arange(fine.num_nodes), 3)
    cols = coarse.cells[cells].ravel()
    keep = lam.ravel() != 0.0
    return sp.csr_matrix(
        (lam.ravel()[keep], (rows[keep], cols[keep])),
        shape=(fine.num_nodes, coarse.num_nodes),
    )
