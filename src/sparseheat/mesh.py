"""Structured right-triangle meshes of the unit square.

All meshes are conforming triangulations of [0,1]^2 built either by
`build_uniform` (the classic lattice-with-diagonals pattern, diagonal
running lower-left to upper-right) or by `refine` (global edge-midpoint
refinement into four congruent children). Meshes are immutable after
construction. Both builders yield a uniform lattice of squares, each
split along its lower-left to upper-right diagonal, so point location
is closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, OutOfDomainError

# Barycentric containment slack: points this far outside a cell still
# count as inside, with weights clamped and renormalized.
_CONTAIN_TOL = 1e-12
# Reach, in lattice units, within which a square counts as touching a
# point; far above the containment slack and the rounding of p * n.
_SQUARE_SLACK = 1e-9
_BOUNDARY_TOL = 1e-12


class TriMesh:
    """Conforming triangulation of the unit square.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Node coordinates in [0,1]^2.
    cells : ndarray, shape (n_cells, 3)
        Node-index triples, positively oriented.
    boundary_mask : ndarray of bool, shape (n_nodes,)
        True exactly for nodes on the boundary of the square.
    h : float
        Mesh size, the maximum cell diameter.
    level : int
        Refinement level (0 for a freshly built uniform mesh).
    """

    def __init__(self, nodes, cells, boundary_mask, h, level):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary_mask = np.ascontiguousarray(boundary_mask, dtype=bool)
        self.h = float(h)
        self.level = int(level)
        self.nodes.setflags(write=False)
        self.cells.setflags(write=False)
        self.boundary_mask.setflags(write=False)
        self._interior = None
        self._lattice = None

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def interior_nodes(self):
        """Indices of non-boundary nodes, ascending."""
        if self._interior is None:
            interior = np.nonzero(~self.boundary_mask)[0]
            interior.setflags(write=False)
            self._interior = interior
        return self._interior

    def cell_areas(self):
        tri = self.nodes[self.cells]
        d1 = tri[:, 1] - tri[:, 0]
        d2 = tri[:, 2] - tri[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    # -- point location ------------------------------------------------

    def _lattice_cells(self):
        """(n, n, 2) table of cell indices by lattice square and side.

        Entry [i, j, 0] is the cell below the diagonal of the square
        [i/n, (i+1)/n] x [j/n, (j+1)/n], entry [i, j, 1] the one above.
        `refine` numbers cells in child blocks, not in lattice order, so
        the table is read off the cell centroids.
        """
        if self._lattice is None:
            n = int(round(math.sqrt(self.num_cells / 2.0)))
            centroids = self.nodes[self.cells].sum(axis=1) * (n / 3.0)
            squares = np.floor(centroids).astype(np.int64)
            frac = centroids - squares
            above = (frac[:, 1] > frac[:, 0]).astype(np.int64)
            lattice = np.empty((n, n, 2), dtype=np.int64)
            lattice[squares[:, 0], squares[:, 1], above] = np.arange(self.num_cells)
            lattice.setflags(write=False)
            self._lattice = lattice
        return self._lattice

    def locate(self, points):
        """Containing cells of points and their barycentric coordinates.

        `points` has shape (k, 2); returns `(cells, lam)` with shapes (k,)
        and (k, 3). The candidates of a point are the two cells of each
        lattice square touching it (one square inside a square, two on
        an edge, four at a lattice node). Points on shared edges resolve
        to the containing cell of lowest index. Raises OutOfDomainError
        for points outside [0,1]^2.
        """
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        outside = ~((p >= 0.0) & (p <= 1.0)).all(axis=1)
        if outside.any():
            bad = tuple(p[outside][0].tolist())
            raise OutOfDomainError(f"point {bad} lies outside the unit square")
        lattice = self._lattice_cells()
        n = lattice.shape[0]
        near = np.floor(p[:, :, None] * n + [-_SQUARE_SLACK, _SQUARE_SLACK])
        near = np.clip(near, 0, n - 1).astype(np.int64)
        candidates = lattice[near[:, 0, :, None], near[:, 1, None, :]].reshape(-1, 8)

        px, py = p[:, 0], p[:, 1]
        cells = np.full(len(p), self.num_cells)
        lam = np.zeros((len(p), 3))
        for cand in candidates.T:
            a, b, c = (self.nodes[self.cells[cand, v]].T for v in range(3))
            det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            l1 = ((px - a[0]) * (c[1] - a[1]) - (py - a[1]) * (c[0] - a[0])) / det
            l2 = ((b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])) / det
            cand_lam = np.column_stack([1.0 - l1 - l2, l1, l2])
            take = (cand_lam.min(axis=1) >= -_CONTAIN_TOL) & (cand < cells)
            cells[take] = cand[take]
            lam[take] = cand_lam[take]
        missed = cells == self.num_cells
        if missed.any():
            bad = tuple(p[missed][0].tolist())
            raise NumericalError(f"no cell contains point {bad}")
        lam = np.clip(lam, 0.0, 1.0)
        total = lam[:, 0] + lam[:, 1] + lam[:, 2]
        return cells, lam / total[:, None]

    # -- debug export ----------------------------------------------------

    def export_csv(self, nodes_path, cells_path):
        """Write nodes (x,y,boundary) and cells (v0,v1,v2), one per line."""
        with open(nodes_path, "w") as f:
            f.write("x,y,boundary\n")
            for (x, y), b in zip(self.nodes, self.boundary_mask):
                f.write(f"{x:.17g},{y:.17g},{int(b)}\n")
        with open(cells_path, "w") as f:
            f.write("v0,v1,v2\n")
            for v0, v1, v2 in self.cells:
                f.write(f"{v0},{v1},{v2}\n")


def build_uniform(n):
    """Uniform triangulation of the unit square with an n-by-n lattice.

    Nodes sit on the lattice {i/n} x {j/n}, ordered lexicographically by
    (row, column); each lattice square is split along the diagonal from
    its lower-left to its upper-right corner. The mesh has (n+1)^2 nodes,
    2 n^2 cells and mesh size sqrt(2)/n.
    """
    if n < 2:
        raise ValueError("build_uniform requires n >= 2")
    side = np.arange(n + 1, dtype=float) / n
    cols, rows = np.meshgrid(side, side)  # row-major: index = row*(n+1)+col
    nodes = np.column_stack([cols.ravel(), rows.ravel()])

    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ll = (r * (n + 1) + c).ravel()
    lr = ll + 1
    ul = ll + n + 1
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = lower
    cells[1::2] = upper

    ri, ci = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    boundary = (ri == 0) | (ri == n) | (ci == 0) | (ci == n)
    return TriMesh(nodes, cells, boundary.ravel(), math.sqrt(2.0) / n, 0)


def refine(mesh):
    """Global edge-midpoint refinement.

    Every cell splits into four congruent children; parent nodes keep
    their indices and edge midpoints are appended, so coefficient vectors
    on the parent mesh inject into the child mesh by position.
    """
    cells = mesh.cells
    edges = np.concatenate(
        [cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]], axis=0
    )
    edges = np.sort(edges, axis=1)
    unique_edges, inverse = np.unique(edges, axis=0, return_inverse=True)
    n_old = mesh.num_nodes
    midpoints = 0.5 * (mesh.nodes[unique_edges[:, 0]] + mesh.nodes[unique_edges[:, 1]])
    nodes = np.vstack([mesh.nodes, midpoints])

    nc = mesh.num_cells
    m01 = n_old + inverse[:nc]
    m12 = n_old + inverse[nc : 2 * nc]
    m20 = n_old + inverse[2 * nc :]
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    children = np.empty((4 * nc, 3), dtype=np.int64)
    children[0::4] = np.column_stack([a, m01, m20])
    children[1::4] = np.column_stack([m01, b, m12])
    children[2::4] = np.column_stack([m20, m12, c])
    children[3::4] = np.column_stack([m01, m12, m20])

    x, y = nodes[:, 0], nodes[:, 1]
    boundary = (
        (np.abs(x) < _BOUNDARY_TOL)
        | (np.abs(x - 1.0) < _BOUNDARY_TOL)
        | (np.abs(y) < _BOUNDARY_TOL)
        | (np.abs(y - 1.0) < _BOUNDARY_TOL)
    )
    return TriMesh(nodes, children, boundary, mesh.h / 2.0, mesh.level + 1)
