"""Structured right-triangle meshes of the unit square.

Every mesh is the uniform n-by-n lattice of squares built by
`build_uniform`, each square split along its lower-left to upper-right
diagonal; `refine` builds the lattice of twice the resolution, and
`refine_support` carries a support onto it. Nodes and cells are numbered
lexicographically by lattice row and column, so point location and the
edge test `p1_edges` are closed form. Meshes are immutable after
construction.
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
    n : int
        Lattice resolution: the square has n cells of side 1/n per axis.
    h : float
        Mesh size, the maximum cell diameter sqrt(2)/n.
    """

    def __init__(self, nodes, cells, boundary_mask, n):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary_mask = np.ascontiguousarray(boundary_mask, dtype=bool)
        self.n = int(n)
        self.h = math.sqrt(2.0) / self.n
        self.nodes.setflags(write=False)
        self.cells.setflags(write=False)
        self.boundary_mask.setflags(write=False)
        self._interior = None

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

    def locate(self, points):
        """Containing cells of points and their barycentric coordinates.

        `points` has shape (k, 2); returns `(cells, lam)` with shapes (k,)
        and (k, 3). The candidates of a point are the two cells of each
        lattice square touching it (one square inside a square, two on
        an edge, four at a lattice node); the square in lattice row r and
        column c holds cells 2 (r n + c) below and 2 (r n + c) + 1 above
        its diagonal. Points on shared edges resolve to the containing
        cell of lowest index. Raises OutOfDomainError for points outside
        [0,1]^2.
        """
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        outside = ~((p >= 0.0) & (p <= 1.0)).all(axis=1)
        if outside.any():
            bad = tuple(p[outside][0].tolist())
            raise OutOfDomainError(f"point {bad} lies outside the unit square")
        n = self.n
        near = np.floor(p[:, :, None] * n + [-_SQUARE_SLACK, _SQUARE_SLACK])
        near = np.clip(near, 0, n - 1).astype(np.int64)
        squares = near[:, 1, :, None] * n + near[:, 0, None, :]
        candidates = (2 * squares[..., None] + [0, 1]).reshape(-1, 8)

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
    return TriMesh(nodes, cells, boundary.ravel(), n)


def refine(mesh):
    """The lattice of twice the resolution, `build_uniform(2 * mesh.n)`.

    The meshes nest geometrically: `refine_nodes` maps node indices,
    `refine_support` carries a support to a seed on the finer lattice,
    and `fem.interpolation_matrix` carries fields between them.
    """
    return build_uniform(2 * mesh.n)


def refine_nodes(mesh, nodes):
    """Indices in `refine(mesh)` of the nodes of `mesh` listed in `nodes`.

    Lattice node (r, c), index r (n + 1) + c, is node (2r, 2c) of the
    refined lattice, index 2r (2n + 1) + 2c; interior nodes stay interior.
    """
    n = mesh.n
    return [
        2 * (i // (n + 1)) * (2 * n + 1) + 2 * (i % (n + 1)) for i in map(int, nodes)
    ]


# Lattice offsets (row, column) from a node to the P1 neighbours that
# follow it in the numbering; the negatives give the other three. The
# diagonal one is the lower-left to upper-right split of each square.
_EDGE_OFFSETS = ((0, 1), (1, 0), (1, 1))


def p1_edges(mesh, nodes):
    """Pairs (a, b), a < b, of the listed nodes joined by a mesh edge.

    Ascending by a, then by b; repeated entries of `nodes` count once.
    """
    width = mesh.n + 1
    listed = set(map(int, nodes))
    edges = []
    for a in sorted(listed):
        r, c = divmod(a, width)
        for dr, dc in _EDGE_OFFSETS:
            if r + dr <= mesh.n and c + dc <= mesh.n:
                b = a + dr * width + dc
                if b in listed:
                    edges.append((a, b))
    return edges


def refine_support(mesh, nodes):
    """Seed on `refine(mesh)` for a support `nodes` of `mesh`.

    The mapped nodes `refine_nodes(mesh, nodes)` come first, in order,
    then the fine midpoint (r_a + r_b, c_a + c_b) of every edge between
    two listed nodes (`p1_edges`). A discrete l1 optimum often splits one
    continuous spike over two adjacent nodes, and the finer optimum
    tends to sit at or next to their midpoint, which `refine_nodes`
    never reaches. Distinct edges have distinct midpoints, and none of
    them is a mapped node, so the seed repeats nothing that `nodes` does
    not; interior nodes give interior seeds.
    """
    n = mesh.n
    seeds = refine_nodes(mesh, nodes)
    for a, b in p1_edges(mesh, nodes):
        (ra, ca), (rb, cb) = divmod(a, n + 1), divmod(b, n + 1)
        seeds.append((ra + rb) * (2 * n + 1) + ca + cb)
    return seeds
