"""P1 finite elements on TriMesh.

Provides mass/stiffness assembly as CSR matrices, a checked sparse
direct solve, point evaluation, Dirac and L2 load vectors, L2
projection, nested-lattice interpolation and mass-weighted inner
products. A discrete field is the float array of its nodal values.
Matrices are assembled over all nodes; homogeneous Dirichlet conditions
are imposed by restricting to the interior index set.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError

_RESIDUAL_TOL = 1e-12
# SuperLU settings of `spd_solve`, which serves any SPD matrix: multiple
# minimum degree on the pattern of A^T + A, diagonal pivots only. No
# pivoting is safe because each matrix factored is symmetric with a
# positive definite real part (mass, kA + M, and kA - s1 M of dG(1)).
# The slab matrices keep the pivots but not the ordering
# (`timestepping.SPLU_SLAB`).
SPLU_SYMMETRIC = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
)


def spd_solve(mat, rhs):
    """Solve A x = rhs for a symmetric positive definite sparse matrix A.

    Factors A once per call. The relative residual is checked against
    1e-12; a larger residual (singular or badly conditioned matrix)
    raises NumericalError.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != mat.shape[0]:
        raise ValueError("dimension mismatch in solve")
    try:
        lu = spla.splu(sp.csc_matrix(mat), **SPLU_SYMMETRIC)
    except RuntimeError as exc:
        raise NumericalError(f"factorization failed: {exc}") from exc
    x = lu.solve(rhs)
    bnorm = np.linalg.norm(rhs)
    if bnorm > 0.0:
        res = np.linalg.norm(mat @ x - rhs) / bnorm
        if not res <= _RESIDUAL_TOL:
            raise NumericalError(f"solve residual {res:.3e} exceeds 1e-12")
    return x


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
    return mat.tocsr()


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
    return mat.tocsr()


def interior_stiffness(mesh):
    """Stiffness block on the interior nodes, from the 5-point stencil.

    On the lattice split along its lower-left to upper-right diagonals
    the P1 stiffness couples each node with weight 4 to itself and -1 to
    its four axis neighbours; the diagonal couplings cancel. So the block
    is the stencil, relabelled to the order of `mesh.interior_nodes()`:
    `assemble_stiffness(mesh)` sliced to the interior, without its
    explicit zeros, with sorted column indices and with no full assembly.
    """
    interior = mesh.interior_nodes()
    positions = mesh.interior_positions()
    size = interior.size
    rows, cols, vals = [np.arange(size)], [np.arange(size)], [np.full(size, 4.0)]
    for step in (1, -1, mesh.n + 1, -(mesh.n + 1)):
        nbr = positions[interior + step]
        inside = np.flatnonzero(nbr >= 0)
        rows.append(inside)
        cols.append(nbr[inside])
        vals.append(np.full(inside.size, -1.0))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


def delta_load(mesh, q):
    """Load vector b_j = sum_i beta_i phi_j(x_i) for an atomic measure.

    Boundary rows are produced but ignored by Dirichlet solves.
    """
    cells, lam = mesh.locate(q.positions)
    b = np.zeros(mesh.num_nodes)
    np.add.at(b, mesh.cells[cells], q.coefficients[:, None] * lam)
    return b


def l2_load(mesh, f):
    """Load vector F_j = (f, phi_j) of a pointwise-evaluable function.

    Uses the three-point edge-midpoint rule, exact for quadratics, over
    all nodes (no boundary conditions). `f` must accept numpy arrays
    (x, y).
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
    return F


def l2_project(mesh, f):
    """L2 projection of a pointwise-evaluable function onto P1.

    Solves the full mass matrix (no boundary conditions) against
    `l2_load(mesh, f)`.
    """
    return spd_solve(assemble_mass(mesh), l2_load(mesh, f))


def eval_field(mesh, v, points):
    """Values of the P1 function with nodal values v at points.

    `points` has shape (k, 2); the result has shape (k,). Each value is
    barycentric interpolation, rounded like the single dot product
    `lam[i] @ v[cell_i]`.
    """
    cells, lam = mesh.locate(points)
    return (lam[:, None, :] @ v[mesh.cells[cells]][:, :, None])[:, 0, 0]


def l2_inner(mass, u, v):
    """L2 inner product u^T M v of two nodal value vectors.

    Evaluated through the polarization identity, which is bitwise
    symmetric in the two arguments.
    """
    if u.shape != v.shape or mass.shape[0] != u.shape[0]:
        raise ValueError("dimension mismatch in l2_inner")
    plus = u + v
    minus = u - v
    return 0.25 * (float(plus @ (mass @ plus)) - float(minus @ (mass @ minus)))


def l2_norm(mass, u):
    """L2 norm sqrt(u^T M u), clamped against tiny negative round-off.

    Equal bit for bit to sqrt(l2_inner(mass, u, u)), whose polarization
    halves are 2u and the zero vector.
    """
    return float(np.sqrt(max(float(u @ (mass @ u)), 0.0)))


def field_to_csv(mesh, values, path):
    """Write nodal values as CSV rows `x,y,value` (17 significant digits)."""
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for (x, y), v in zip(mesh.nodes, values):
            f.write(f"{x:.17g},{y:.17g},{v:.17g}\n")


def interpolation_matrix(coarse, fine):
    """Nodal interpolation matrix from a lattice onto a nested finer one.

    Exact for P1 functions. `fine.n` must be a multiple m of `coarse.n`,
    else ValueError. Fine lattice line R lies in coarse line
    r = min(R // m, n - 1) at offset R / m - r, per axis; a fine node at
    offsets (x, y) in the square with lower-left node ll sits in its lower
    cell [ll, lr, ur] when x >= y, else in its upper cell [ll, ul, ur].
    Either way its weights are (1 - max(x, y), |x - y|, min(x, y)). Row
    k holds the nonzero weights of fine node k, columns ascending.
    """
    n = coarse.n
    m, rest = divmod(fine.n, n)
    if rest:
        raise ValueError(f"fine lattice n = {fine.n} is not a multiple of {n}")
    side = np.arange(fine.n + 1)
    line = np.minimum(side // m, n - 1)
    offset = (side - m * line) / m
    x, y = offset[None, :], offset[:, None]
    ll = line[:, None] * (n + 1) + line[None, :]
    lam = np.stack(
        [1.0 - np.maximum(x, y), np.abs(x - y), np.minimum(x, y)], axis=-1
    ).reshape(-1, 3)
    cols = np.stack(
        [ll, ll + np.where(x >= y, 1, n + 1), ll + n + 2], axis=-1
    ).reshape(-1, 3)
    keep = lam != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix(
        (lam[keep], cols[keep], indptr), shape=(fine.num_nodes, coarse.num_nodes)
    )
