"""Structured right-triangle meshes of the unit square.

All meshes are conforming triangulations of [0,1]^2 built either by
`build_uniform` (the classic lattice-with-diagonals pattern, diagonal
running lower-left to upper-right) or by `refine` (global edge-midpoint
refinement into four congruent children). Meshes are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, OutOfDomainError

# Barycentric containment slack: points this far outside a cell still
# count as inside, with weights clamped and renormalized.
_CONTAIN_TOL = 1e-12
_BOUNDARY_TOL = 1e-12


class BaryLocation:
    """A located point: containing cell plus barycentric coordinates."""

    __slots__ = ("cell", "lam")

    def __init__(self, cell, lam):
        self.cell = int(cell)
        self.lam = np.asarray(lam, dtype=float)

    def point(self, mesh):
        """Reconstruct the located point from the barycentric weights."""
        return self.lam @ mesh.nodes[mesh.cells[self.cell]]


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
        self._buckets = None
        self._grid_res = None

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

    def _bucket_grid(self):
        """Background grid mapping squares to candidate cell indices."""
        if self._buckets is None:
            g = max(1, int(round(math.sqrt(self.num_cells / 2.0))))
            buckets = [[] for _ in range(g * g)]
            tri = self.nodes[self.cells]
            lo = np.clip((tri.min(axis=1) * g).astype(int), 0, g - 1)
            hi = np.clip((tri.max(axis=1) * g).astype(int), 0, g - 1)
            for idx in range(self.num_cells):
                for ix in range(lo[idx, 0], hi[idx, 0] + 1):
                    for iy in range(lo[idx, 1], hi[idx, 1] + 1):
                        buckets[ix * g + iy].append(idx)
            self._buckets = buckets
            self._grid_res = g
        return self._buckets, self._grid_res

    def _barycentric(self, cell, p):
        a, b, c = self.nodes[self.cells[cell]]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        l1 = ((p[0] - a[0]) * (c[1] - a[1]) - (p[1] - a[1]) * (c[0] - a[0])) / det
        l2 = ((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])) / det
        return np.array([1.0 - l1 - l2, l1, l2])

    def locate(self, point):
        """Find a cell containing `point` and its barycentric coordinates.

        Points on shared edges resolve to the containing cell of lowest
        index. Raises OutOfDomainError for points outside [0,1]^2.
        """
        p = np.asarray(point, dtype=float)
        if not (0.0 <= p[0] <= 1.0 and 0.0 <= p[1] <= 1.0):
            raise OutOfDomainError(
                f"point {tuple(p.tolist())} lies outside the unit square"
            )
        buckets, g = self._bucket_grid()
        ix = min(int(p[0] * g), g - 1)
        iy = min(int(p[1] * g), g - 1)
        for cell in buckets[ix * g + iy]:
            lam = self._barycentric(cell, p)
            if lam.min() >= -_CONTAIN_TOL:
                lam = np.clip(lam, 0.0, 1.0)
                return BaryLocation(cell, lam / lam.sum())
        # Fallback scan covers degenerate rounding at bucket borders.
        for cell in range(self.num_cells):
            lam = self._barycentric(cell, p)
            if lam.min() >= -_CONTAIN_TOL:
                lam = np.clip(lam, 0.0, 1.0)
                return BaryLocation(cell, lam / lam.sum())
        raise NumericalError(f"no cell contains point {tuple(p)}")

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
