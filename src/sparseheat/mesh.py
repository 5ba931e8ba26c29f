"""Structured right-triangle meshes of the unit square.

Every mesh is the uniform n-by-n lattice of squares `TriMesh(n)`
(`build_uniform(n)`), each square split along its lower-left to
upper-right diagonal; `refine` builds the lattice of twice the
resolution, and `refine_support` carries a support onto it. Nodes and
cells are numbered lexicographically by lattice row and column, so point
location, the edge test `p1_edges` and the matrix stencils of `fem` are
closed form. The interior nodes are listed in nested-dissection order
(`dissection_order`), the order in which the interior matrices are
factored; only the interior blocks of `fem` and `timestepping.HeatModel`
use it, and the rest of the package sees nodal vectors. The four
lattice maps that preserve the triangulation (`TriMesh.symmetric_images`)
group the interior nodes into orbits (`TriMesh.interior_orbits`), on
which `timestepping` pairs loads that the maps leave unchanged. Meshes
are immutable after construction.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError, OutOfDomainError
from .measures import same_sign_groups

# Barycentric containment slack: points this far outside a cell still
# count as inside, with weights clamped and renormalized.
_CONTAIN_TOL = 1e-12
# Reach, in lattice units, within which a square counts as touching a
# point; far above the containment slack and the rounding of p * n.
_SQUARE_SLACK = 1e-9


class TriMesh:
    """Uniform triangulation of the unit square with an n-by-n lattice.

    Nodes sit on the lattice {i/n} x {j/n}, ordered lexicographically by
    (row, column); each lattice square is split along the diagonal from
    its lower-left to its upper-right corner, into the cells 2 (r n + c)
    below and 2 (r n + c) + 1 above it. The mesh has (n+1)^2 nodes, 2 n^2
    cells and mesh size sqrt(2)/n. Every array is built from n, so the
    lattice indices of a node or cell are closed form, which point
    location and the stencils of `fem` rely on; no cell table is stored,
    and `cell_nodes(cells)` gives the node triples of the cells asked for.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Node coordinates in [0,1]^2.
    boundary_mask : ndarray of bool, shape (n_nodes,)
        True exactly for nodes on the boundary of the square.
    n : int
        Lattice resolution: the square has n cells of side 1/n per axis.
    h : float
        Mesh size, the maximum cell diameter sqrt(2)/n.
    """

    def __init__(self, n):
        if n < 2:
            raise ValueError("build_uniform requires n >= 2")
        self.n = n = int(n)
        self.h = math.sqrt(2.0) / n
        side = np.arange(n + 1, dtype=float) / n
        cols, rows = np.meshgrid(side, side)  # row-major: index = row*(n+1)+col
        self.nodes = np.column_stack([cols.ravel(), rows.ravel()])

        self.boundary_mask = ((self.nodes == 0.0) | (self.nodes == 1.0)).any(axis=1)
        for array in (self.nodes, self.boundary_mask):
            array.setflags(write=False)
        self._interior = None

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_cells(self):
        return 2 * self.n**2

    def interior_nodes(self):
        """Indices of the non-boundary nodes in nested-dissection order.

        Not ascending: `dissection_order(n)`, the numbering of every
        interior vector and matrix of the package.
        """
        if self._interior is None:
            interior = dissection_order(self.n)
            interior.setflags(write=False)
            self._interior = interior
        return self._interior

    def cell_nodes(self, cells):
        """Node triples of the cells `cells`, an int or an int array.

        Returns shape `np.shape(cells) + (3,)`. The square s = r n + c has
        lower-left node ll = r (n + 1) + c = s + s // n; its cell 2 s below
        the diagonal is [ll, ll + 1, ll + n + 2] (lower-left, lower-right,
        upper-right) and its cell 2 s + 1 above it is [ll, ll + n + 2,
        ll + n + 1] (lower-left, upper-right, upper-left), both positively
        oriented. The only code that maps a cell to its nodes.
        """
        n = self.n
        square, upper = np.divmod(cells, 2)
        ll = square + square // n
        return np.stack([ll, ll + 1 + upper * (n + 1), ll + n + 2 - upper], axis=-1)

    # -- symmetry --------------------------------------------------------

    def symmetric_images(self, values):
        """Nodal `values` under the four node maps that preserve the triangulation.

        Returns four (n + 1, n + 1) views of `values` on the lattice; view
        g holds at node (r, c) the value at node g(r, c), for the
        identity, the transpose (r, c) -> (c, r), the half turn
        (r, c) -> (n - r, n - c) and the anti-transpose
        (r, c) -> (n - c, n - r). Each map takes the lower-left to
        upper-right diagonals onto themselves, hence cells onto cells and
        interior nodes onto interior nodes, so every P1 matrix of the
        lattice commutes with it. The maps themselves are the images of
        `np.arange(num_nodes)`.
        """
        grid = np.reshape(values, (self.n + 1, self.n + 1))
        return grid, grid.T, grid[::-1, ::-1], grid.T[::-1, ::-1]

    def interior_orbits(self):
        """Orbit number of each interior node under the maps of `symmetric_images`.

        In the order of `interior_nodes()`; orbits are numbered by the
        position of their first node in that order, which keeps the fill
        of a folded matrix under minimum degree low (981,618 LU nonzeros
        for the dG(0) slab at n = 256, against 1,162,484 with orbits
        numbered by their smallest node). So the numbers first appear in
        increasing order, each at the first node of its orbit, where
        `timestepping.InvariantSector` takes its stencil rows. A node is
        the first of its orbit exactly when its position is the least of
        its four images', so the orbits are counted off at those nodes,
        with no sort. An orbit holds 1, 2 or 4 nodes: there are (n/2)^2
        orbits at even n and (n^2 - 1)/4 at odd n.
        """
        interior = self.interior_nodes()
        position = np.zeros(self.num_nodes, dtype=np.int64)
        position[interior] = np.arange(interior.size)
        first = functools.reduce(np.minimum, self.symmetric_images(position)).ravel()[interior]
        start = first == np.arange(interior.size)
        return (np.cumsum(start) - 1)[first]

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
        [0,1]^2. It serves arbitrary points (atoms, evaluation points);
        nested lattices need none, as `fem.interpolation_matrix` reads
        their weights off the lattice indices.
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
            a, b, c = self.nodes[self.cell_nodes(cand)].transpose(1, 2, 0)
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
    """The uniform triangulation `TriMesh(n)` of the unit square."""
    return TriMesh(n)


# Blocks of at most this many nodes end the bisection of `dissection_order`.
DISSECTION_LEAF = 4


def _block_order(h, w, stride, memo):
    """Nodes of an h-by-w lattice block in nested-dissection order.

    Each node at row r and column c of the block is given as its offset
    r * stride + c from the block's first node, so a block placed
    anywhere in a lattice of that row stride is ordered alike: `memo`
    keeps each shape's order, and a lattice computes only the O(log n)
    shapes that its bisection meets.
    """
    if (h, w) not in memo:
        if h * w <= DISSECTION_LEAF:
            rows, cols = np.divmod(np.arange(h * w), w)
            order = rows * stride + cols
        elif h >= w:
            k = h // 2
            first = _block_order(k, w, stride, memo)
            second = _block_order(h - k - 1, w, stride, memo)
            order = np.concatenate([first, second, k * stride + np.arange(w)])
            order[first.size : first.size + second.size] += (k + 1) * stride
        else:
            k = w // 2
            first = _block_order(h, k, stride, memo)
            second = _block_order(h, w - k - 1, stride, memo)
            order = np.concatenate([first, second, k + stride * np.arange(h)])
            order[first.size : first.size + second.size] += k + 1
        memo[h, w] = order
    return memo[h, w]


def dissection_order(n):
    """Interior nodes of `build_uniform(n)` in nested-dissection order.

    Recursive bisection of the (n - 1)-by-(n - 1) interior lattice
    (George, SIAM J. Numer. Anal. 10, 1973): a block of more than
    DISSECTION_LEAF nodes is cut at its middle row, or at its middle
    column if it is wider than tall, and lists its first half, then its
    second half, then the cut line, which separates the halves for every
    P1 coupling, the diagonal one included. Smaller blocks and cut lines
    are listed row-major (`_block_order`).
    """
    # The interior lattice starts at node (1, 1), index n + 2.
    order = _block_order(n - 1, n - 1, n + 1, {})
    order += n + 2
    return order


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


# Coarse lattices below this n seed the finer level at the fitted peak of
# the adjoint (`_peak_seeds`); finer ones seed mapped nodes plus edge
# midpoints (`refine_support`). On paper_10_1 (`reconstruct`, 13 noise
# draws) the peak seeds from n = 32 ended every n = 64 level after one
# outer iteration instead of 2-4 (36 -> 13 in total), at objectives no
# higher; on paper_fig4 (`study-space`) the n = 64 level took 1 instead
# of 4. From n = 64 the peak seeds took 8 columns and 2 iterations at
# n = 128, where the midpoint seeds take 4 and 1: that level went from
# 0.29 to 0.66 s.
PEAK_SEED_BELOW_N = 64


def refine_support(mesh, nodes, beta, z):
    """Seed on `refine(mesh)` for the support `nodes` of a solve on `mesh`.

    `nodes` are interior, `beta` holds their coefficients and `z` is the
    solve's nodal adjoint on `mesh`. Below PEAK_SEED_BELOW_N the seed is
    `_peak_seeds`: per same-sign cluster of the support, the fine square
    at the fitted peak of |z|. From there on it reads `nodes` only: the
    mapped nodes `refine_nodes(mesh, nodes)` come first, in order, then
    the fine midpoint (r_a + r_b, c_a + c_b) of every edge between two
    listed nodes (`p1_edges`). A discrete l1 optimum often splits one
    continuous spike over two adjacent nodes, and the finer optimum tends
    to sit at or next to their midpoint, which `refine_nodes` never
    reaches. Distinct edges have distinct midpoints, and none of them is
    a mapped node. Either way the seeds are distinct interior nodes.
    """
    if mesh.n < PEAK_SEED_BELOW_N:
        return _peak_seeds(mesh, nodes, beta, z)
    n = mesh.n
    seeds = refine_nodes(mesh, nodes)
    for a, b in p1_edges(mesh, nodes):
        (ra, ca), (rb, cb) = divmod(a, n + 1), divmod(b, n + 1)
        seeds.append((ra + rb) * (2 * n + 1) + ca + cb)
    return seeds


def _peak_seeds(mesh, nodes, beta, z):
    """The four corners of the fine square at the fitted peak of |z| of
    each same-sign cluster of the support, interior corners only, each once.

    The clusters are `measures.same_sign_groups` of the support's nodes
    at radius 1.5/n: lattice neighbours lie 1/n or sqrt(2)/n apart and
    the next nodes 2/n, so a cluster links nodes of one sign at most one
    lattice step apart in row and in column.

    A cluster's peak is fitted on the 3-by-3 block of |z| around its
    largest-|beta| node: central differences give the gradient g and the
    Hessian H in lattice units, and the Newton offset -H^-1 g (0 if det H
    is 0) is clipped to half a step per axis. An off-lattice spike that
    the coarse optimum splits over a cluster lands near that peak on the
    finer lattice, so the corners of the fine square that holds it are
    the fine support's candidates; a peak on a fine lattice line counts
    in the square above or right of it.
    """
    n = mesh.n
    width, fine_width = n + 1, 2 * n + 1
    absz = np.abs(np.asarray(z, dtype=float)).reshape(width, width)
    seeds = []
    for cluster in same_sign_groups(mesh.nodes[nodes], beta, 1.5 / n):
        top = max(cluster, key=lambda k: abs(beta[k]))
        r, c = divmod(int(nodes[top]), width)
        f = absz[r - 1 : r + 2, c - 1 : c + 2]
        gx, gy = 0.5 * (f[1, 2] - f[1, 0]), 0.5 * (f[2, 1] - f[0, 1])
        hxx = f[1, 2] - 2.0 * f[1, 1] + f[1, 0]
        hyy = f[2, 1] - 2.0 * f[1, 1] + f[0, 1]
        hxy = 0.25 * (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0])
        det = hxx * hyy - hxy * hxy
        dx = dy = 0.0
        if det != 0.0:
            dx = min(max(-(hyy * gx - hxy * gy) / det, -0.5), 0.5)
            dy = min(max(-(hxx * gy - hxy * gx) / det, -0.5), 0.5)
        row, col = math.floor(2 * (r + dy)), math.floor(2 * (c + dx))
        for R in (row, row + 1):
            for C in (col, col + 1):
                seed = R * fine_width + C
                if 0 < R < 2 * n and 0 < C < 2 * n and seed not in seeds:
                    seeds.append(seed)
    return seeds
