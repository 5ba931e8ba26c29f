"""P1 finite elements on TriMesh.

Provides mass/stiffness assembly as CSR matrices, a checked sparse
direct solve, point evaluation, Dirac and L2 load vectors, L2
projection, nested-lattice interpolation and mass-weighted inner
products. A discrete field is the float array of its nodal values.
Every matrix is written from the 7-point stencil of the lattice
(`_lattice_matrix`), over all nodes or as the block on the interior
nodes in the order of `mesh.interior_nodes()`, to which homogeneous
Dirichlet conditions restrict.
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
# The folded slab matrices of the invariant-sector pairing use it too;
# the full slab matrices keep the pivots but not the ordering
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


# Lattice offsets (row, column) of the vertices of the two cells of a
# square, below and above its lower-left to upper-right diagonal, in the
# vertex order of `TriMesh.cell_nodes`; and the node offsets of the
# 7-point P1 stencil, in node order.
_CELL_VERTICES = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))
_STENCIL = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
# The element terms (cell, a, b) that couple a node as vertex a with its
# neighbour as vertex b, for each stencil offset, in cell, a, b order.
_TERMS = tuple(
    tuple(
        (cell, a, b)
        for cell, vertices in enumerate(_CELL_VERTICES)
        for a, (ar, ac) in enumerate(vertices)
        for b, (br, bc) in enumerate(vertices)
        if (br - ar, bc - ac) == offset
    )
    for offset in _STENCIL
)
# Element stiffness (e_a . e_b) / (4 |T|) of the two cells, e_a the edge
# opposite vertex a; in lattice units, since it does not depend on h.
_EDGES = np.roll(_CELL_VERTICES, -2, axis=1) - np.roll(_CELL_VERTICES, -1, axis=1)
_STIFFNESS = np.einsum("kad,kbd->kab", _EDGES, _EDGES) / 2.0


def _lattice_matrix(mesh, nodes, values, rows=None):
    """Matrix of a P1 form on the listed nodes, written from the lattice.

    `values` holds the 3x3 element matrix of the cells below and above
    the diagonals, in `_CELL_VERTICES` order. Entry (i, j) sums the
    element entries of the cells holding both nodes, one term after
    another, as `tocsr` adds the duplicates of a per-cell assembly: six
    cells at an interior node and fewer on the boundary, two at an axis
    edge (one on the boundary) and two at a diagonal edge. Columns
    follow `nodes`, and rows follow `rows`, some of those nodes (default
    all of them), so a subset of rows is written alone, each as in the
    whole matrix. Each row lists its columns in node order, as slicing
    the full matrix does, and keeps the entries that cancel.
    The entries are written one stencil offset at a time: the first
    pass finds which entries exist, the second writes the columns and
    values of each offset into its slots. The index arithmetic runs in
    int64, whose numpy loops are resident already; int32 loops would
    page in about 0.2 MB of library code on first use, more than the
    arrays they save below n = 64. Only the stored indices are int32.
    """
    n = mesh.n
    rows = nodes if rows is None else rows
    r, c = np.divmod(rows, n + 1)
    # inside[cell][a]: the square whose cell has the node as vertex a
    # exists; elsewhere that cell's terms are 0.0, which leaves every sum
    # as it is.
    inside = [
        [
            (np.minimum(r - ar, c - ac) >= 0) & (np.maximum(r - ar, c - ac) < n)
            for ar, ac in vertices
        ]
        for vertices in _CELL_VERTICES
    ]
    positions = np.full(mesh.num_nodes, -1)
    positions[nodes] = np.arange(nodes.size)

    def columns(dr, dc):
        return positions.take((r + dr) * (n + 1) + c + dc, mode="clip")

    keep = np.zeros((len(_STENCIL), rows.size), dtype=bool)
    for row, terms, offset in zip(keep, _TERMS, _STENCIL):
        for cell, a, _ in terms:
            row |= inside[cell][a]
        row &= columns(*offset) >= 0
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=0), out=indptr[1:])
    # Row by row, each in stencil order.
    slots = indptr[:-1].copy()
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for row, terms, offset in zip(keep, _TERMS, _STENCIL):
        vals = np.zeros(rows.size)
        for cell, a, b in terms:
            vals += values[cell][a][b] * inside[cell][a]
        at = slots[row]
        indices[at] = columns(*offset)[row]
        data[at] = vals[row]
        slots += row
    indptr = indptr.astype(np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(rows.size, nodes.size))


def _mass_values(mesh):
    """Element mass area/12 * [2,1,1] of both cells, area = 1/(2 n^2)."""
    return [0.5 / mesh.n**2 / 12.0 * (1.0 + np.eye(3))] * 2


def assemble_mass(mesh):
    """P1 mass matrix, exact element integration (area/12 * [2,1,1] pattern)."""
    return _lattice_matrix(mesh, np.arange(mesh.num_nodes), _mass_values(mesh))


def assemble_stiffness(mesh):
    """P1 stiffness matrix; K_ab = (e_a . e_b) / (4 |T|) per cell.

    The diagonal edges' couplings cancel and stay as explicit zeros.
    """
    return _lattice_matrix(mesh, np.arange(mesh.num_nodes), _STIFFNESS)


def interior_mass(mesh, rows=None):
    """Mass block on `mesh.interior_nodes()`, in that order.

    Equal, array for array, to `assemble_mass(mesh)` sliced to the
    interior, without the full assembly. Given `rows`, some interior
    nodes, only their rows are written, in that order.
    """
    return _lattice_matrix(mesh, mesh.interior_nodes(), _mass_values(mesh), rows)


def interior_stiffness(mesh, rows=None):
    """Stiffness block on `mesh.interior_nodes()`, in that order.

    The 5-point stencil (4 on the diagonal, -1 for each axis neighbour)
    with the cancelled diagonal couplings as explicit zeros: equal,
    array for array, to `assemble_stiffness(mesh)` sliced to the interior.
    Given `rows`, some interior nodes, only their rows are written, in
    that order.
    """
    return _lattice_matrix(mesh, mesh.interior_nodes(), _STIFFNESS, rows)


def delta_load(mesh, q):
    """Load vector b_j = sum_i beta_i phi_j(x_i) for an atomic measure.

    Boundary rows are produced but ignored by Dirichlet solves.
    """
    cells, lam = mesh.locate(q.positions)
    b = np.zeros(mesh.num_nodes)
    np.add.at(b, mesh.cell_nodes(cells), q.coefficients[:, None] * lam)
    return b


def l2_load(mesh, f):
    """Load vector F_j = (f, phi_j) of a pointwise-evaluable function.

    Uses the three-point edge-midpoint rule, exact for quadratics, over
    all nodes (no boundary conditions). A cell gives each vertex area/6
    times f at the midpoints of the vertex's two edges, so F_j is area/6
    times the sum over the lattice edges at node j of f at the midpoint,
    counted once per cell holding the edge: twice, once on the boundary.
    `f` is called once, on the midpoints of the horizontal, vertical and
    diagonal edges, and must accept numpy arrays (x, y).
    """
    n = mesh.n
    side = np.arange(n + 1, dtype=float) / n
    mid = 0.5 * (side[:-1] + side[1:])
    # Midpoints of the horizontal, vertical and diagonal edges, each
    # family row by row: (n + 1, n), (n, n + 1) and (n, n) of them.
    x = np.concatenate([np.tile(mid, n + 1), np.tile(side, n), np.tile(mid, n)])
    y = np.concatenate([np.repeat(side, n), np.repeat(mid, n + 1), np.repeat(mid, n)])
    values = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
    split = n * (n + 1)
    # Cells holding an edge: two, one in a boundary row or column.
    cells = np.full(n + 1, 2.0)
    cells[[0, n]] = 1.0
    families = (
        (values[:split].reshape(n + 1, n) * cells[:, None], (0, 1)),
        (values[split : 2 * split].reshape(n, n + 1) * cells, (1, 0)),
        (values[2 * split :].reshape(n, n) * 2.0, (1, 1)),
    )
    F = np.zeros((n + 1, n + 1))
    for edges, (dr, dc) in families:
        F[: n + 1 - dr, : n + 1 - dc] += edges
        F[dr:, dc:] += edges
    F *= 0.5 / n**2 / 6.0
    return F.ravel()


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
    return (lam[:, None, :] @ v[mesh.cell_nodes(cells)][:, :, None])[:, 0, 0]


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
    """Write nodal values as CSV rows `x,y,value` (17 significant digits).

    The rows of one lattice row of nodes are formatted by one `%` operation
    on a repeated row template: as fast as formatting every row at once,
    and the text and floats held at a time stay small (all rows at once
    raised the peak RSS of `reconstruct` at n = 64 by about 0.3 MB).
    """
    template = "%.17g,%.17g,%.17g\n" * (mesh.n + 1)
    table = np.column_stack([mesh.nodes, values]).reshape(mesh.n + 1, -1)
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for row in table:
            f.write(template % tuple(row.tolist()))


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
